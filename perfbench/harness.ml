(* What every workload shares: the timed loop of whole passes, the
   set-up timer, the per-layer read-out of a traced replay, and the
   result a workload hands back. *)

(* Wall clock, for run length and deadlines only; every timing is
   taken on [cpu]. *)
let now = Unix.gettimeofday
let cpu = Span.cpu_seconds

(* Every executor the benchmark makes runs its timing pool inline, on
   the calling domain.  The default pool spawns a domain per core; on a
   host of two shared cores every minor collection then waits for
   whichever domain is descheduled, so times would follow the host's
   other load rather than the program. *)
let timing_workers = 1
let new_exec () = Hls_api.Exec.create ~timing_workers ()

(* How fast the host runs right now.  Other machines share its cores,
   and their load changes how fast the same instructions run, by as much
   as twice for minutes at a time; CPU time alone follows that.  So
   a fixed piece of work of the benchmark's own, [reference], runs
   between units of work (see [reference_every]) and around every
   set-up, outside their timing, and each timing is scaled to the speed
   at which [reference] takes [reference_ms]: what it would have read
   had the host been that fast.  A change to the program does not touch
   [reference], so it moves the scaled times as much as the CPU times.
   [reference_ms] is a round figure near the kernel's usual time, so the
   scaled times read close to CPU milliseconds. *)
let reference_ms = 10.0

(* Sorts of an int array and of a list of boxed pairs, working sets of
   about a megabyte: the allocation, promotion, pointer chasing and
   comparisons the program's own work is made of.  A kernel that fits
   in the first-level caches tracked the host's slow spells less
   closely.  A minor collection first leaves its allocation room in the
   minor heap.  Its CPU ms. *)
let kernel () =
  Gc.minor ();
  let t0 = cpu () in
  let a = Array.init 40_000 (fun i -> (i * 7919) land 0xfffff) in
  Array.sort Int.compare a;
  let l = ref [] in
  for i = 0 to 10_000 do
    l := (a.(i), float_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (List.sort compare !l));
  (cpu () -. t0) *. 1e3

(* The fastest of three runs of [kernel]: one run is only ever slowed
   by what else ran, such as a collection the runtime had due, and
   three in a row read within a few per cent of each other. *)
let reference () = Float.min (kernel ()) (Float.min (kernel ()) (kernel ()))

(* CPU seconds of work between two runs of [reference] in a timed loop:
   often enough to follow the host's speed, which can change within
   seconds, and rare enough that a run spends little time on it. *)
let reference_every = 0.1

(* The scale to reference speed of a timing taken between reference
   runs that took [ms]: their mean, as the host's speed may change
   between them.  For a report of random240 (seconds long) this cut the
   spread of its scaled times by a third against the faster end alone. *)
let speed ms = reference_ms /. Stats.mean ms

(* Where a run keeps its determinism records, traces and sockets, inside
   the checkout it runs in. *)
let state_dir = ".perfbench_state"

let ensure_state_dir () =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755

type size = Full | Tiny

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** why samples or checks failed, first ones kept *)
  latencies : float list;  (** ms, every sample of every pass *)
  completed : float;  (** units of throughput: reports, points, requests *)
  busy_s : float;  (** summed request time over every pass *)
  passes : int;
  exec_ns : float list;  (** optimized execution time of each result *)
  gates : float list;  (** optimized total gates of each result *)
  cycle_ratio : float list;  (** optimized / conventional cycle *)
  setup_s : float;
  heap_mb : float;  (** [Gc] top heap after the first pass *)
  counts : (string * float) list;  (** determinism-guarded layer counts *)
  digest : string;  (** canonical digest of one pass's outputs *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  notes : string list;  (** extra human-readable lines *)
}

(* One unit of work through a fresh executor, as one CLI invocation runs
   it: the response, and the executor's creation and run times. *)
type cold = {
  result : (Hls_api.Response.payload, Hls_api.Response.error) Stdlib.result;
  create_ms : float;
  exec_ms : float;
}

let cold_run req =
  let t0 = cpu () in
  let ex = new_exec () in
  let t1 = cpu () in
  let result = Hls_api.Exec.run ex req in
  let t2 = cpu () in
  Hls_api.Exec.close ex;
  { result; create_ms = (t1 -. t0) *. 1e3; exec_ms = (t2 -. t1) *. 1e3 }

(* The paper's figures over report responses: optimized execution time,
   optimized gates, and optimized / conventional cycle. *)
let report_qor (rs : Hls_api.Response.reported list) =
  let opt r = r.Hls_api.Response.r_optimized in
  ( List.map (fun r -> (opt r).Hls_dse.Cache.m_execution_ns) rs,
    List.map (fun r -> float_of_int (opt r).Hls_dse.Cache.m_total_gates) rs,
    List.map
      (fun r ->
        (opt r).Hls_dse.Cache.m_cycle_ns
        /. r.Hls_api.Response.r_conventional.Hls_dse.Cache.m_cycle_ns)
      rs )

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up runs [times] times, each from a collected heap and scaled to
   reference speed; its median is the metric.  The last set-up is kept,
   the others are torn down. *)
let setup ~times ~teardown f =
  let rec go k acc =
    Gc.full_major ();
    let before = reference () in
    let t0 = cpu () in
    let s = f () in
    let dt = (cpu () -. t0) *. speed [ before; reference () ] in
    if k = 1 then (s, Stats.median (dt :: acc))
    else begin
      teardown s;
      go (k - 1) (dt :: acc)
    end
  in
  go times []

type 'r passes = {
  first : 'r array;  (** every unit of work of pass 1 *)
  samples : (int * float * string list) list;
      (** (index, ms at reference speed, problems), every pass, in the
          order run; no problem = a good sample *)
  cpu_ms : float list;  (** CPU ms of every sample, unscaled, same order *)
  wall_ms : float list;  (** wall ms of every sample, for people *)
  n_passes : int;
  digest_mismatches : int;  (** later passes whose output differed *)
  pass_times : float list;  (** summed request ms of each pass, in order *)
  first_heap_mb : float;
      (** [Gc] top heap after the first pass.  Later passes repeat the
          same work, yet the top heap creeps up with each, so a run's
          last value would follow how many passes the host allowed. *)
  traced_passes : float list;  (** pass times with spans recorded *)
  untraced_passes : float list;
}

let request_id ~pass i = (pass * 100_000) + i + 1

(* One unit of work as run, before scaling. *)
type sample = {
  pass : int;
  index : int;
  cpu_ms : float;
  wall_ms : float;
  ref_k : int;  (** the last [reference] run before it *)
  problems : string list;
}

(* Whole passes over [n] units of work until [seconds] have gone by and
   at least [min_samples] samples exist.  Each pass must reproduce the
   first pass's output digests exactly.  With [fresh_heap] every unit of
   work starts from a collected heap, as a fresh process would, so one
   request's garbage is not billed to the next.  In a traced run the passes
   alternate between recording spans and not, so the cost of tracing
   shows as the difference. *)
let run_passes ?(fresh_heap = false) ~seconds ~min_samples ~trace ~n ~execute
    ~judge ~digest () =
  let first = Array.make n None in
  let digests = Array.make n "" in
  let samples = ref [] and count = ref 0 and mismatches = ref 0 in
  let first_heap_mb = ref 0. in
  (* Reference readings, newest first, and the CPU clock at the last. *)
  let refs = ref [] and n_refs = ref 0 and last_ref = ref 0. in
  let take_reference () =
    refs := reference () :: !refs;
    incr n_refs;
    last_ref := cpu ()
  in
  let t_start = now () in
  let pass = ref 0 in
  (* A traced run needs a traced and an untraced pass after the cold
     first one. *)
  let min_passes = if trace then 3 else 1 in
  while
    !pass < min_passes
    || now () -. t_start < seconds
    || !count < min_samples
  do
    incr pass;
    let recording = trace && !pass mod 2 = 1 in
    for i = 0 to n - 1 do
      Span.set_request (if !pass = 1 then i + 1 else request_id ~pass:!pass i);
      if fresh_heap then Gc.full_major ();
      if !n_refs = 0 || cpu () -. !last_ref >= reference_every then
        take_reference ();
      let ref_k = !n_refs - 1 in
      Span.arm recording;
      let w0 = now () and t0 = cpu () in
      let r = Span.with_span "request" (fun () -> execute i) in
      let cpu_ms = (cpu () -. t0) *. 1e3 and wall_ms = (now () -. w0) *. 1e3 in
      Span.arm false;
      samples :=
        { pass = !pass; index = i; cpu_ms; wall_ms; ref_k;
          problems = judge i r }
        :: !samples;
      incr count;
      let d = digest r in
      if !pass = 1 then begin
        first.(i) <- Some r;
        digests.(i) <- d
      end
      else if d <> digests.(i) then incr mismatches
    done;
    if !pass = 1 then first_heap_mb := heap_mb ()
  done;
  take_reference ();
  let ss = Array.of_list (List.rev !samples) in
  let refs = Array.of_list (List.rev !refs) in
  (* Each sample is scaled by the reference runs just before and just
     after the stretch of work it falls in: the host's speed can change
     within seconds, so nothing further away tells how fast it ran. *)
  let ms =
    Array.map
      (fun s -> s.cpu_ms *. speed [ refs.(s.ref_k); refs.(s.ref_k + 1) ])
      ss
  in
  let pass_ms = Array.make (!pass + 1) 0. in
  Array.iteri (fun k s -> pass_ms.(s.pass) <- pass_ms.(s.pass) +. ms.(k)) ss;
  let passes_where keep =
    List.filter_map
      (fun q -> if keep q then Some pass_ms.(q) else None)
      (List.init !pass (fun q -> q + 1))
  in
  let recorded q = trace && q mod 2 = 1 in
  let field f = Array.to_list (Array.map f ss) in
  {
    first = Array.map Option.get first;
    samples = List.mapi (fun k s -> (s.index, ms.(k), s.problems)) (Array.to_list ss);
    cpu_ms = field (fun s -> s.cpu_ms);
    wall_ms = field (fun s -> s.wall_ms);
    n_passes = !pass;
    digest_mismatches = !mismatches;
    pass_times = passes_where (fun _ -> true);
    first_heap_mb = !first_heap_mb;
    traced_passes = List.rev (passes_where recorded);
    untraced_passes = List.rev (passes_where (fun q -> not (recorded q)));
  }

(* Replay pass-1 request [i] under a root span carrying its request id,
   so its layer spans share the id of the real request they decompose.
   A traced replay of a workload timed with [fresh_heap] starts from a
   collected heap too, so that its layer times compare with the request
   time rather than with the heap the earlier passes left behind.  Its
   spans are scaled to reference speed, as the requests' times are: the
   replay runs after the timed passes, maybe on a faster or slower
   host. *)
let replay ?(fresh_heap = false) ~trace i f =
  if trace && fresh_heap then Gc.full_major ();
  let before = if trace then reference () else 0. and first = Span.mark () in
  Span.arm trace;
  Span.set_request (i + 1);
  let r =
    Fun.protect
      ~finally:(fun () -> Span.arm false)
      (fun () -> Span.with_span "replay" f)
  in
  if trace then Span.rescale_since first (speed [ before; reference () ]);
  r

(* Layer self time (s) of each replayed request: every span under its
   replay root, the roots themselves left out. *)
let layer_self_by_request () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.Span.name <> "request" && s.Span.name <> "replay" then
        let v = Option.value (Hashtbl.find_opt tbl s.Span.request) ~default:0. in
        Hashtbl.replace tbl s.Span.request (v +. self))
    (Span.self_times (Span.all ()));
  fun i -> Option.value (Hashtbl.find_opt tbl (i + 1)) ~default:0.

(* Per-layer metrics from the recorded spans: self time per replayed
   request, allocation per request, counts over the replayed pass.
   [extra] carries what only the workload knows (dse, api, server);
   every other metric of a layer that did no work reads 0. *)
let layer_metrics ~n_replayed ~request_ms ~extra =
  let sps = Span.all () in
  let totals = Span.totals sps in
  let n = float_of_int (max 1 n_replayed) in
  let self name =
    fst (Option.value (Hashtbl.find_opt totals name) ~default:(0., 0.))
  in
  let words name =
    snd (Option.value (Hashtbl.find_opt totals name) ~default:(0., 0.))
  in
  let ms name = self name *. 1e3 /. n in
  let mwords name = words name /. 1e6 /. n in
  let c = Span.counter in
  let replayed_layers =
    List.fold_left
      (fun acc (s, self) ->
        if s.Span.name = "request" || s.Span.name = "replay" then acc
        else acc +. self)
      0. (Span.self_times sps)
  in
  let base =
    [
      ("speclang.ms", ms "speclang");
      ("speclang.calls", c "speclang.calls");
      ("xform.ms", ms "xform");
      ("xform.passes_fired", c "xform.passes_fired");
      ("kernel.ms", ms "kernel");
      ("kernel.nodes", c "kernel.nodes");
      ("timing.bitnet_ms", ms "timing.bitnet");
      ("timing.arrival_ms", ms "timing.arrival");
      ("timing.bits", c "timing.bits");
      ("fragment.mobility_ms", ms "fragment.mobility");
      ("fragment.apply_ms", ms "fragment.apply");
      ("fragment.apply_mwords", mwords "fragment.apply");
      ("fragment.fragments", c "fragment.fragments");
      ("fragment.infeasible", c "fragment.infeasible");
      ("sched.frag_ms", ms "sched.frag");
      ("sched.frag_mwords", mwords "sched.frag");
      ("sched.list_ms", ms "sched.list");
      ("sched.infeasible", c "sched.infeasible");
      ("alloc.bind_frag_ms", ms "alloc.bind_frag");
      ("alloc.bind_frag_mwords", mwords "alloc.bind_frag");
      ("alloc.bind_shared_ms", ms "alloc.bind_shared");
      ("iter.ms", ms "iter");
      ("iter.rounds", c "iter.rounds");
      ("iter.accept_ratio", Stats.ratio (c "iter.accepted") (c "iter.rounds"));
      ("check.ms", ms "check");
      ("check.vectors", c "check.vectors");
      ( "check.us_per_vector",
        Stats.ratio (self "check" *. 1e6) (c "check.vectors") );
      ("check.mwords", mwords "check");
      ("rtl.emit_ms", ms "rtl.emit");
      ("rtl.cycle_sim_ms", ms "rtl.cycle_sim");
      ("api.codec_us", ms "api.codec" *. 1e3);
      ( "trace.coverage",
        Stats.ratio (replayed_layers *. 1e3) (request_ms *. float_of_int n_replayed) );
    ]
  in
  let all = base @ extra in
  List.map
    (fun (x : Metrics.metric) ->
      (x.Metrics.name, Option.value (List.assoc_opt x.Metrics.name all) ~default:0.))
    Metrics.per_layer

let good p = List.filter (fun (_, _, problems) -> problems = []) p.samples
let latencies p = List.map (fun (_, ms, _) -> ms) p.samples

(* Each unit's median of [values] (one per sample) over every pass,
   averaged over the units of a pass. *)
let per_unit_mean p values =
  let per = Array.make (Array.length p.first) [] in
  List.iter2 (fun (i, _, _) v -> per.(i) <- v :: per.(i)) p.samples values;
  Stats.mean (Array.to_list (Array.map Stats.median per))

(* The typical time of one unit of work, to compare with the layer spans
   of a replay.  The first pass runs cold, so it alone would overstate
   what the replay decomposes. *)
let typical_ms p = per_unit_mean p (latencies p)

(* The factor that brings each sample's CPU time to reference speed, in
   the order run, for figures taken inside its timed work. *)
let sample_scales (p : _ passes) =
  List.map2
    (fun (_, ms, _) cpu -> if cpu > 0. then ms /. cpu else 1.)
    p.samples p.cpu_ms

(* Request time behind throughput: a typical pass (each unit's median
   over the passes, summed) for every pass run, so that a unit one pass
   ran slowly does not set the figure. *)
let busy_s p =
  per_unit_mean p (latencies p)
  *. float_of_int (Array.length p.first * p.n_passes)
  /. 1e3

(* One row per group of inputs (a design, a verb): its median time over
   every pass, and its sample count. *)
let group_rows p ~group =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (i, ms, _) ->
      let g = group i in
      match Hashtbl.find_opt tbl g with
      | Some l -> Hashtbl.replace tbl g (ms :: l)
      | None ->
          order := g :: !order;
          Hashtbl.replace tbl g [ ms ])
    p.samples;
  List.rev_map
    (fun g ->
      let l = Hashtbl.find tbl g in
      Printf.sprintf "%-28s median %10.3f ms  (n=%d)" g (Stats.median l)
        (List.length l))
    !order

(* How well the scaling held: each pass repeats the same work. *)
let pass_row (p : _ passes) =
  Printf.sprintf
    "not metrics: wall p50 %.3f ms, p90 %.3f ms; unscaled CPU p50 %.3f ms, p90 %.3f ms\n  "
    (Stats.median p.wall_ms) (Stats.percentile 90. p.wall_ms)
    (Stats.median p.cpu_ms) (Stats.percentile 90. p.cpu_ms)
  ^ "pass times at reference speed (s):"
  ^ String.concat "" (List.map (fun ms -> Printf.sprintf " %.2f" (ms /. 1e3)) p.pass_times)

(* Failures of a run: every bad sample, and every pass whose output
   differed from the first pass's. *)
let sample_failures p ~label =
  List.filter_map
    (fun (i, _, problems) ->
      if problems = [] then None
      else Some (Printf.sprintf "%s: %s" (label i) (String.concat "; " problems)))
    p.samples
  @
  if p.digest_mismatches > 0 then
    [ Printf.sprintf "%d outputs differed between passes" p.digest_mismatches ]
  else []

(* Traced against untraced pass times, leaving out the cold first pass
   (the oldest traced pass; the lists are newest first). *)
let overhead_pct p =
  match (List.rev p.traced_passes, p.untraced_passes) with
  | _ :: (_ :: _ as warm), (_ :: _ as u) ->
      let mt = Stats.median warm and mu = Stats.median u in
      100. *. (mt -. mu) /. mu
  | _ -> 0.

(* Counts the determinism guard compares, read off the replay. *)
let guarded_counts extra =
  List.map
    (fun name ->
      (name, Option.value (List.assoc_opt name extra) ~default:(Span.counter name)))
    Metrics.determinism_counts

(* The first failures, enough to diagnose a run. *)
let keep_errors errs = List.filteri (fun i _ -> i < 8) errs

(* A seeded integer stream, independent of the program's own PRNG use. *)
let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

let digest_all ds = Digest.to_hex (Digest.string (String.concat "" (Array.to_list ds)))
