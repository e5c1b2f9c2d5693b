(* The [report] workload: sequential cold one-shot Report requests, each
   through a fresh executor as one CLI invocation would run it.

   Inputs: every catalog design except random480 at its default latency,
   plus seeded random DFGs sent as specification text.  The equivalence
   check does almost all of the work here and grows superlinearly with
   graph size, so a check optimisation shows on this workload while the
   back half of the flow barely does. *)

module R = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Cat = Hls_workloads.Catalog
module H = Harness

type input = { label : string; req : R.t }

let report_req spec latency =
  R.Report { spec; latency; config = R.default_config; target_ns = None }

(* The seeded random DFGs: twelve of one shape class, 48 operations on
   two lanes.  The 240-operation end of the size range is the catalog's
   random240.  One class of many draws keeps the latency tail, which
   falls among them, steady from seed to seed. *)
let random_shapes = function
  | H.Full -> List.init 12 (fun _ -> (48, 2))
  | H.Tiny -> [ (24, 2) ]

let random_graph ~seed (ops, lanes) =
  Hls_workloads.Random_dfg.generate
    ~profile:{ Hls_workloads.Random_dfg.default_profile with ops; mul_ratio = 12; lanes }
    ~seed ()

(* What sets a random DFG's check cost: the vector count grows with its
   input ports, each vector's simulation with its datapath width and its
   multiplies, which kernel extraction expands into adder arrays. *)
let cost_shape g =
  let width = ref 0 and muls = ref 0 in
  Hls_dfg.Graph.iter_nodes
    (fun n ->
      width := !width + n.Hls_dfg.Types.width;
      if n.Hls_dfg.Types.kind = Hls_dfg.Types.Mul then incr muls)
    g;
  ((List.length g.Hls_dfg.Graph.inputs, !muls), !width)

(* The median cost shape of a shape class, over fixed reference seeds. *)
let target_shape shape =
  let shapes = List.init 15 (fun k -> cost_shape (random_graph ~seed:(k + 1) shape)) in
  let median f =
    int_of_float (Stats.median (List.map (fun s -> float_of_int (f s)) shapes))
  in
  ((median (fun ((i, _), _) -> i), median (fun ((_, m), _) -> m)), median snd)

(* A seeded random DFG of the given shape class: of a fixed number of
   seeded draws, the one whose cost shape is nearest the class median
   (input and multiply counts first, then datapath width).  The seed
   varies the graph's structure while the cost the equivalence check
   pays, and the time spent drawing, stay put; so one seed's latencies
   compare with another's. *)
let random_source ~seed ~salt ?(target = target_shape) shape =
  let st = H.rng seed salt in
  let (ports, muls), width = target shape in
  let distance g =
    let (p, m), w = cost_shape g in
    (1000 * (abs (p - ports) + abs (m - muls))) + abs (w - width)
  in
  let best = ref None in
  for _ = 1 to 100 do
    let g = random_graph ~seed:(Random.State.bits st) shape in
    let d = distance g in
    match !best with
    | Some (d0, _) when d0 <= d -> ()
    | _ -> best := Some (d, g)
  done;
  Hls_speclang.Emit.emit (snd (Option.get !best))

let inputs ~size ~seed ~inject_bad =
  let catalog =
    List.filter
      (fun (e : Cat.entry) ->
        match size with
        | H.Full -> e.Cat.name <> "random480"
        | H.Tiny -> List.mem e.Cat.name [ "chain3"; "fir8"; "adpcm-decoder" ])
      (Cat.all ())
  in
  let designs =
    List.map
      (fun (e : Cat.entry) ->
        { label = e.Cat.name; req = report_req (R.Builtin e.Cat.name) e.Cat.default_latency })
      catalog
  in
  let randoms =
    let shapes = random_shapes size in
    let targets =
      List.map (fun s -> (s, target_shape s)) (List.sort_uniq compare shapes)
    in
    List.mapi
      (fun i shape ->
        {
          label = Printf.sprintf "rand%d" (fst shape);
          req =
            report_req
              (R.Source
                 (random_source ~seed ~salt:i
                    ~target:(fun s -> List.assoc s targets)
                    shape))
              14;
        })
      shapes
  in
  let bad =
    if inject_bad then
      [ { label = "bad"; req = report_req (R.Builtin "no-such-design") 4 } ]
    else []
  in
  Array.of_list (designs @ randoms @ bad)

let judge _ u =
  match u.H.result with
  | Ok (Resp.Reported { r_equivalence = None; _ }) -> []
  | Ok (Resp.Reported { r_equivalence = Some m; _ }) -> [ "equivalence: " ^ m ]
  | Ok _ -> [ "unexpected payload" ]
  | Error e -> [ Resp.error_message e ]

let digest u =
  match u.H.result with
  | Ok p -> Digest.string (Hls_dse.Dse_json.to_string (Resp.payload_to_json p))
  | Error e -> "error:" ^ Resp.error_message e

(* Rebuild request [i] layer by layer, compare it with the response, and
   simulate original against transformed graph with vectors of our own
   seed (the pipeline's check uses seed 99). *)
let replay_one ~trace ~seed ~pool inputs i (r : Resp.reported) =
  H.replay ~fresh_heap:true ~trace i (fun () ->
      match inputs.(i).req with
      | R.Report { spec; latency; config; _ } ->
          let g = Replay.load_spec spec in
          let cfg = Result.get_ok (R.pipeline_config config) in
          let p = Replay.prepare_memo (Replay.memo pool) cfg g in
          let conv = Replay.conventional ~lib:cfg.Hls_core.Pipeline.lib g ~latency in
          let opt = Replay.optimized cfg p ~latency in
          let eq = Replay.check g opt in
          let stats = Replay.graph_stats g in
          let errs = ref [] in
          let expect what b = if not b then errs := what :: !errs in
          expect "conventional metrics"
            (Replay.metrics conv = r.Resp.r_conventional);
          expect "optimized metrics"
            (Replay.metrics opt.Hls_core.Pipeline.opt_report = r.Resp.r_optimized);
          expect "equivalence verdict" (Result.is_ok eq = (r.Resp.r_equivalence = None));
          expect "graph stats" (stats = r.Resp.r_stats);
          (match
             Hls_sim.equivalent g
               opt.Hls_core.Pipeline.transformed.Hls_fragment.Transform.graph
               ~trials:16
               ~prng:(Hls_util.Prng.create ~seed:((seed * 7919) + i + 1000))
           with
          | Ok () -> ()
          | Error m -> errs := ("simulation: " ^ m) :: !errs);
          List.map (fun e -> Printf.sprintf "%s: %s mismatch" inputs.(i).label e) !errs
      | _ -> assert false)

let run ~size ~seed ~seconds ~trace ~inject_bad =
  let inputs, setup_s =
    H.setup ~times:11 ~teardown:ignore (fun () -> inputs ~size ~seed ~inject_bad)
  in
  let n = Array.length inputs in
  let timings = ref [] in
  let p =
    H.run_passes ~fresh_heap:true ~seconds ~trace ~n
      ~min_samples:(match size with H.Full -> 100 | H.Tiny -> 1)
      ~execute:(fun i ->
        let u = H.cold_run inputs.(i).req in
        timings := (i, u.H.create_ms, u.H.exec_ms) :: !timings;
        u) ~judge ~digest ()
  in
  let heap_mb = p.H.first_heap_mb in
  (* (index, create ms, exec ms) of every sample, at reference speed *)
  let timings =
    List.map2
      (fun (i, c, e) k -> (i, c *. k, e *. k))
      (List.rev !timings) (H.sample_scales p)
  in
  let reported =
    List.concat
      (List.mapi
         (fun i u ->
           match u.H.result with Ok (Resp.Reported r) -> [ (i, r) ] | _ -> [])
         (Array.to_list p.H.first))
  in
  let check_failures =
    (* A pool per replay, as each request had an executor of its own. *)
    List.concat_map
      (fun (i, r) ->
        Replay.with_pool (fun pool -> replay_one ~trace ~seed ~pool inputs i r))
      reported
  in
  let failures = H.sample_failures p ~label:(fun i -> inputs.(i).label) @ check_failures in
  let exec_ns, gates, cycle_ratio = H.report_qor (List.map snd reported) in
  let mean_exec = Stats.mean (List.map (fun (_, _, e) -> e) timings) in
  let mean_create = Stats.mean (List.map (fun (_, c, _) -> c) timings) in
  let extra =
    [
      ("api.exec_ms", mean_exec);
      ("api.exec_create_ms", mean_create);
      ("trace.overhead_pct", H.overhead_pct p);
    ]
  in
  let layers = if trace then H.layer_metrics ~n_replayed:n ~request_ms:(H.typical_ms p) ~extra else [] in
  {
    H.attempted = List.length p.H.samples;
    failed = List.length failures;
    errors = H.keep_errors failures;
    latencies = H.latencies p;
    completed = float_of_int (List.length (H.good p));
    busy_s = H.busy_s p;
    passes = p.H.n_passes;
    exec_ns;
    gates;
    cycle_ratio;
    setup_s;
    heap_mb;
    counts = H.guarded_counts [ ("dse.infeasible_points", 0.) ];
    digest = H.digest_all (Array.map digest p.H.first);
    layers;
    notes =
      H.pass_row p :: H.group_rows p ~group:(fun i -> inputs.(i).label)
      @ (if trace then
         [
           Printf.sprintf "check share of report request time: %.1f %%"
             (100. *. Stats.ratio (List.assoc "check.ms" layers) (H.typical_ms p));
         ]
       else []);
  }
