(* Order statistics and means over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The middle sample, or the mean of the middle two: with few samples,
   such as one unit's time over a run's passes, the nearest rank would
   favour the faster half. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* log Gamma(x) for x > 0, by Lanczos's approximation (g = 7). *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* The regularized incomplete beta function I_x(a, b), by its continued
   fraction (modified Lentz), on the side of x where it converges fast. *)
let rec incomplete_beta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else if x > (a +. 1.) /. (a +. b +. 2.) then 1. -. incomplete_beta b a (1. -. x)
  else
    let tiny = 1e-300 in
    let front =
      exp
        ((a *. log x) +. (b *. log (1. -. x))
        +. log_gamma (a +. b) -. log_gamma a -. log_gamma b)
      /. a
    in
    let f = ref 1. and c = ref 1. and d = ref 0. in
    (try
       for i = 0 to 300 do
         let m = float_of_int (i / 2) in
         let num =
           if i = 0 then 1.
           else if i mod 2 = 0 then m *. (b -. m) *. x /. ((a +. (2. *. m) -. 1.) *. (a +. (2. *. m)))
           else
             -.((a +. m) *. (a +. b +. m) *. x)
             /. ((a +. (2. *. m)) *. (a +. (2. *. m) +. 1.))
         in
         d := 1. +. (num *. !d);
         if Float.abs !d < tiny then d := tiny;
         d := 1. /. !d;
         c := 1. +. (num /. !c);
         if Float.abs !c < tiny then c := tiny;
         let cd = !c *. !d in
         f := !f *. cd;
         if Float.abs (1. -. cd) < 1e-12 then raise Exit
       done
     with Exit -> ());
    front *. (!f -. 1.)

(* The density of the beta distribution, up to its constant factor. *)
let beta_shape a b x = ((a -. 1.) *. log x) +. ((b -. 1.) *. log (1. -. x))

(* The trimmed Harrell-Davis estimate of the [p]-th percentile (Akinshin,
   2022): every order statistic weighted by how likely it is to be that
   percentile, the weights kept to the densest interval of width
   1/sqrt n around it.  Each design or verb has a time of its own, so
   the samples fall in clusters, and the nearest rank jumps from one
   cluster to the next when one sample changes places; this moves
   smoothly.  The trimming keeps a far cluster, such as random240's
   reports seconds long, from adding its share to p90. *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let q = p /. 100. and nf = float_of_int n in
    let alpha = q *. (nf +. 1.) and beta = (1. -. q) *. (nf +. 1.) in
    let width = 1. /. sqrt nf in
    (* The interval [lo, lo + width] whose ends have equal density. *)
    let lo =
      if width >= 1. then 0.
      else
        let mode = (alpha -. 1.) /. (alpha +. beta -. 2.) in
        let l = ref (Float.max 0. (mode -. width))
        and r = ref (Float.min mode (1. -. width)) in
        if !l >= !r then !l
        else begin
          for _ = 1 to 60 do
            let m = (!l +. !r) /. 2. in
            if m <= 0. || beta_shape alpha beta m < beta_shape alpha beta (m +. width)
            then l := m
            else r := m
          done;
          !l
        end
    in
    let hi = Float.min 1. (lo +. width) in
    let i_lo = incomplete_beta alpha beta lo and i_hi = incomplete_beta alpha beta hi in
    let cdf x =
      let x = Float.min hi (Float.max lo x) in
      (incomplete_beta alpha beta x -. i_lo) /. (i_hi -. i_lo)
    in
    let acc = ref 0. and prev = ref 0. in
    for i = 1 to n do
      let c = cdf (float_of_int i /. nf) in
      acc := !acc +. ((c -. !prev) *. a.(i - 1));
      prev := c
    done;
    !acc

(* Samples strictly above the [p]-th percentile. *)
let beyond p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let ratio num den = if den = 0. then 0. else num /. den
