(* The [sweep] workload: sequential Explore requests, one fresh executor
   per sweep (cold in-memory cache, one worker).

   Fragmentation, scheduling, binding and the feedback iteration do the
   work here and the equivalence check does none, so this workload
   exercises back-half changes and bypasses any change to the check.  It
   also covers the transformation recipes and the infeasible fast-fail
   path. *)

module R = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Cat = Hls_workloads.Catalog
module Explore = Hls_dse.Explore
module Space = Hls_dse.Space
module P = Hls_core.Pipeline
module H = Harness

type input = {
  label : string;
  spec : R.spec;
  params : R.explore_params;
}

(* Eight latencies spread over a design's clock tiers, from half its
   default latency upwards. *)
let latencies = function
  | H.Tiny -> fun d -> [ d; d + 2 ]
  | H.Full ->
      fun d ->
        let lo = max 2 (d / 2) and step = max 1 (d / 4) in
        List.init 8 (fun k -> lo + (k * step))

let designs = function
  | H.Full -> [ "elliptic"; "adpcm-decoder"; "fir8"; "dct8"; "random240" ]
  | H.Tiny -> [ "fir8" ]

(* Four seeded random DFGs, two of each shape.  Each runs one of a
   design's sixteen requests (below), so the four share out every
   recipe, iterate budget, policy and balance setting twice.  Eighty
   catalog requests and four random ones a pass put the latency tail
   (one request in ten) among random240's full-policy and coalesced
   iterate requests, whose times overlap, and the median among the
   fixed designs.  More random requests would push the tail to the edge
   of random240's block, among the random DFGs' own slowest requests,
   where it moves with the seed. *)
let random_shapes = function
  | H.Full -> [ (40, 2); (48, 2); (40, 2); (48, 2) ]
  | H.Tiny -> []

(* One design's cross product (latencies x policies x balance x recipes x
   iterate budgets) is split into one request per (recipe, iterate,
   policy, balance), so one pass holds enough requests for a stable
   tail. *)
let requests size label spec default_latency =
  let policies = match size with H.Full -> [ `Full; `Coalesced ] | H.Tiny -> [ `Full ] in
  List.concat_map
    (fun recipe ->
      List.concat_map
        (fun iterate ->
          List.concat_map
            (fun policy ->
              List.map
                (fun balance ->
                  {
                    label =
                      Printf.sprintf "%s/%s/it%d/%s/%s" label recipe iterate
                        (Space.policy_name policy)
                        (if balance then "bal" else "nobal");
                    spec;
                    params =
                      {
                        R.default_explore_params with
                        latencies = latencies size default_latency;
                        policies = [ policy ];
                        lib_names = [ "ripple" ];
                        balance_axis = [ balance ];
                        recipes = [ recipe ];
                        iterates = [ iterate ];
                        verify = "off";
                        jobs = Some 1;
                      };
                  })
                [ true; false ])
            policies)
        [ 0; 4 ])
    [ "none"; "standard" ]

let inputs ~size ~seed ~inject_bad =
  let catalog =
    List.concat_map
      (fun name ->
        let e = Option.get (Cat.find name) in
        requests size name (R.Builtin name) e.Cat.default_latency)
      (designs size)
  in
  let randoms =
    let shapes = random_shapes size in
    let targets =
      List.map (fun s -> (s, Report_wl.target_shape s)) (List.sort_uniq compare shapes)
    in
    List.concat
      (List.mapi
         (fun i shape ->
           List.filteri
             (fun j _ -> j = 5 * i)
             (requests size
                (Printf.sprintf "rand%d" (fst shape))
                (R.Source
                   (Report_wl.random_source ~seed ~salt:(100 + i)
                      ~target:(fun s -> List.assoc s targets)
                      shape))
                14))
         shapes)
  in
  let bad =
    if inject_bad then
      [ { label = "bad"; spec = R.Builtin "no-such-design";
          params = R.default_explore_params } ]
    else []
  in
  Array.of_list (catalog @ randoms @ bad)

let explore_req x = R.Explore { spec = x.spec; params = x.params }

let jobs_of x =
  List.length x.params.R.latencies * List.length x.params.R.policies
  * List.length x.params.R.balance_axis * List.length x.params.R.recipes
  * List.length x.params.R.iterates

let infeasible (f : Explore.failure) =
  match f.Explore.f_class with Hls_util.Failure.Infeasible _ -> true | _ -> false

(* A sweep succeeds when every job is a point or an infeasible design
   outcome; any other failure class is a failure of the request. *)
let problems x u =
  match u.H.result with
  | Error e -> [ Resp.error_message e ]
  | Ok (Resp.Explored t) ->
      let n = List.length t.Explore.points + List.length t.Explore.failures in
      (if n <> jobs_of x then
         [ Printf.sprintf "%d points + failures for %d jobs" n (jobs_of x) ]
       else [])
      @ List.filter_map
          (fun f -> if infeasible f then None else Some f.Explore.f_reason)
          t.Explore.failures
  | Ok _ -> [ "unexpected payload" ]


(* Points and failures by job, without the wall-clock fields. *)
let canonical u =
  match u.H.result with
  | Ok (Resp.Explored t) ->
      String.concat "\n"
        (List.map
           (fun (p : Explore.point) ->
             Space.job_key p.Explore.job ^ "="
             ^ Hls_dse.Dse_json.to_string
                 (Hls_dse.Cache.metrics_to_json p.Explore.metrics))
           t.Explore.points
        @ List.map
            (fun (f : Explore.failure) ->
              Space.job_key f.Explore.f_job ^ "!"
              ^ Hls_util.Failure.class_name f.Explore.f_class)
            t.Explore.failures)
  | Ok _ -> "unexpected"
  | Error e -> "error:" ^ Resp.error_message e

let digest u = Digest.string (canonical u)

(* Replay one sweep: the prefix per recipe, then every job's optimized
   flow.  Each job must match its point or its infeasible failure, and
   every rebuilt transformed graph is simulated against the original. *)
let replay_one ~trace ~seed inputs i (t : Explore.t) =
  let x = inputs.(i) in
  H.replay ~fresh_heap:true ~trace i (fun () ->
      let g = Replay.load_spec x.spec in
      ignore (Span.with_span "dse" (fun () -> Hls_dse.Cache.graph_digest g));
      let space =
        Space.make_exn ~latencies:x.params.R.latencies
          ~policies:x.params.R.policies
          ~libs:
            (List.map
               (fun n -> (n, Option.get (Space.lib_of_name n)))
               x.params.R.lib_names)
          ~balance:x.params.R.balance_axis ~recipes:x.params.R.recipes
          ~iterates:x.params.R.iterates ()
      in
      let prepared =
        List.map
          (fun spec ->
            ( spec,
              Replay.prepare ~transform:(Hls_xform.Recipe.of_string_exn spec)
                ~verify:Hls_xform.Verify.Off g ))
          (List.sort_uniq compare x.params.R.recipes)
      in
      let points = Hashtbl.create 32 and failures = Hashtbl.create 32 in
      List.iter
        (fun (p : Explore.point) ->
          Hashtbl.replace points (Space.job_key p.Explore.job) p.Explore.metrics)
        t.Explore.points;
      List.iter
        (fun (f : Explore.failure) ->
          Hashtbl.replace failures (Space.job_key f.Explore.f_job) f)
        t.Explore.failures;
      let prng = Hls_util.Prng.create ~seed:((seed * 7919) + i + 5000) in
      List.concat_map
        (fun (job : Space.job) ->
          let key = Space.job_key job in
          let cfg =
            P.make_config ~lib:job.Space.lib ~policy:job.Space.policy
              ~balance:job.Space.balance ~iterate:job.Space.iterate ()
          in
          let where = Printf.sprintf "%s %s" x.label key in
          match
            ( Replay.optimized_result cfg
                (List.assoc job.Space.recipe prepared)
                ~latency:job.Space.latency,
              Hashtbl.find_opt points key,
              Hashtbl.find_opt failures key )
          with
          | Ok r, Some m, None ->
              (if Replay.metrics r.P.opt_report <> m then
                 [ where ^ ": point metrics mismatch" ]
               else [])
              @ (match
                   Hls_sim.equivalent g
                     r.P.transformed.Hls_fragment.Transform.graph ~trials:4 ~prng
                 with
                | Ok () -> []
                | Error msg -> [ where ^ ": simulation: " ^ msg ])
          | Error (Hls_util.Failure.Infeasible _), None, Some f when infeasible f
            ->
              []
          | _ -> [ where ^ ": replay disagrees with the sweep" ])
        (Space.jobs space))

let run ~size ~seed ~seconds ~trace ~inject_bad =
  let inputs, setup_s =
    H.setup ~times:15 ~teardown:ignore (fun () -> inputs ~size ~seed ~inject_bad)
  in
  let n = Array.length inputs in
  let timings = ref [] in
  let p =
    H.run_passes ~fresh_heap:true ~seconds ~trace ~n
      ~min_samples:(match size with H.Full -> 100 | H.Tiny -> 1)
      ~execute:(fun i ->
        let u = H.cold_run (explore_req inputs.(i)) in
        timings := (i, u.H.create_ms, u.H.exec_ms) :: !timings;
        u)
      ~judge:(fun i u -> problems inputs.(i) u)
      ~digest ()
  in
  let heap_mb = p.H.first_heap_mb in
  (* (index, create ms, exec ms) of every sample, at reference speed *)
  let timings =
    List.map2
      (fun (i, c, e) k -> (i, c *. k, e *. k))
      (List.rev !timings) (H.sample_scales p)
  in
  let errors = ref (H.sample_failures p ~label:(fun i -> inputs.(i).label)) in
  let fail m = errors := !errors @ [ m ] in
  let sweeps =
    List.concat
      (List.mapi
         (fun i u ->
           match u.H.result with Ok (Resp.Explored t) -> [ (i, t) ] | _ -> [])
         (Array.to_list p.H.first))
  in
  List.iter (fun (i, t) -> List.iter fail (replay_one ~trace ~seed inputs i t)) sweeps;
  let layer_self = H.layer_self_by_request () in
  let points = List.concat_map (fun (_, t) -> t.Explore.points) sweeps in
  (* The conventional flow at each point's latency is the reference for
     the cycle ratio; an explore reports the optimized flow only. *)
  let conv_cycle = Hashtbl.create 64 in
  let cycle_ratio =
    List.concat_map
      (fun (i, t) ->
        let g = lazy (Replay.load_spec inputs.(i).spec) in
        List.map
          (fun (pt : Explore.point) ->
            let job = pt.Explore.job in
            let key = (i, job.Space.latency, job.Space.lib_name) in
            let c =
              match Hashtbl.find_opt conv_cycle key with
              | Some c -> c
              | None ->
                  let c =
                    (P.conventional ~lib:job.Space.lib (Lazy.force g)
                       ~latency:job.Space.latency)
                      .P.cycle_ns
                  in
                  Hashtbl.replace conv_cycle key c;
                  c
            in
            pt.Explore.metrics.Hls_dse.Cache.m_cycle_ns /. c)
          t.Explore.points)
      sweeps
  in
  let infeasible_points =
    float_of_int
      (List.length
         (List.filter infeasible
            (List.concat_map (fun (_, t) -> t.Explore.failures) sweeps)))
  in
  let hits = List.fold_left (fun a (_, t) -> a + t.Explore.cache_hits) 0 sweeps in
  let misses = List.fold_left (fun a (_, t) -> a + t.Explore.cache_misses) 0 sweeps in
  let mean_exec = Stats.mean (List.map (fun (_, _, e) -> e) timings) in
  let mean_create = Stats.mean (List.map (fun (_, c, _) -> c) timings) in
  let overhead =
    Stats.mean
      (List.map
         (fun (i, _) ->
           Stats.median
             (List.filter_map
                (fun (j, _, e) -> if j = i then Some e else None)
                timings)
           -. (layer_self i *. 1e3))
         sweeps)
  in
  let extra =
    [
      ("dse.explore_ms", mean_exec);
      ("dse.overhead_ms", overhead);
      ("dse.cache_hit_ratio", Stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
      ("dse.infeasible_points", infeasible_points);
      ("api.exec_ms", mean_exec);
      ("api.exec_create_ms", mean_create);
      ("trace.overhead_pct", H.overhead_pct p);
    ]
  in
  let layers = if trace then H.layer_metrics ~n_replayed:n ~request_ms:(H.typical_ms p) ~extra else [] in
  {
    H.attempted = List.length p.H.samples;
    failed = List.length !errors;
    errors = H.keep_errors !errors;
    latencies = H.latencies p;
    completed =
      (* each good sample of request i answered every one of its jobs,
         with a point or an infeasible outcome: both are the sweep's
         results, and how many of the random DFGs' points are feasible
         changes with the seed *)
      List.fold_left
        (fun a (i, _, _) -> a +. float_of_int (jobs_of inputs.(i)))
        0. (H.good p);
    busy_s = H.busy_s p;
    passes = p.H.n_passes;
    exec_ns =
      List.map (fun (pt : Explore.point) -> pt.Explore.metrics.Hls_dse.Cache.m_execution_ns) points;
    gates =
      List.map
        (fun (pt : Explore.point) -> float_of_int pt.Explore.metrics.Hls_dse.Cache.m_total_gates)
        points;
    cycle_ratio;
    setup_s;
    heap_mb;
    counts = H.guarded_counts [ ("dse.infeasible_points", infeasible_points) ];
    digest = H.digest_all (Array.map digest p.H.first);
    layers;
    notes =
      H.pass_row p :: H.group_rows p ~group:(fun i ->
          List.hd (String.split_on_char '/' inputs.(i).label))
      @ Printf.sprintf "points per pass: %d, infeasible points per pass: %.0f"
        (List.length points) infeasible_points
      :: (if trace then
            let share names =
              100.
              *. Stats.ratio
                   (List.fold_left (fun a k -> a +. List.assoc k layers) 0. names)
                   (H.typical_ms p)
            in
            [
              Printf.sprintf
                "fragment+sched+alloc+iter share of sweep request time: %.1f %%"
                (share
                   [ "fragment.mobility_ms"; "fragment.apply_ms"; "sched.frag_ms";
                     "alloc.bind_frag_ms"; "iter.ms" ]);
              Printf.sprintf "check share of sweep request time: %.1f %%"
                (share [ "check.ms" ]);
            ]
          else []);
  }
