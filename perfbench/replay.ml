(* Layer-by-layer replay of one request's work.

   Each function here calls the public entry points of one layer in the
   order [Hls_api.Exec] and [Hls_core.Pipeline] call them, inside a span
   named after the layer.  The workloads run the replay outside their
   timed region for two reasons: to rebuild every optimized result so the
   independent output check can simulate it, and, in a traced run, to
   attribute a request's time to layers.  Each replayed result is compared
   with what the real request returned, so the breakdown decomposes the
   same computation. *)

module P = Hls_core.Pipeline
module G = Hls_dfg.Graph
module R = Hls_api.Request
module Resp = Hls_api.Response
module Cat = Hls_workloads.Catalog
module Cache = Hls_dse.Cache

let span = Span.with_span
let count = Span.count

(* [Exec]'s spec loading: builtins from the catalog (spec-file entries
   elaborate their source), source text through the speclang front end. *)
let load_spec (spec : R.spec) =
  let elaborate f =
    span "speclang" (fun () ->
        count "speclang.calls" 1.;
        f ())
  in
  match spec with
  | R.Source src -> elaborate (fun () -> Hls_speclang.Elaborate.from_string src)
  | R.Builtin name -> (
      match Cat.find name with
      | Some ({ Cat.source = Some _; _ } as e) ->
          elaborate (fun () -> Cat.graph e)
      | Some e -> span "workloads" (fun () -> Cat.graph e)
      | None -> invalid_arg ("unknown builtin " ^ name))
  | R.File _ -> invalid_arg "the benchmark sends no file specs"

(* [Exec.graph_stats]: the response's graph summary extracts the kernel
   once more to report its critical path. *)
let graph_stats g =
  let k = span "kernel" (fun () -> Hls_kernel.Extract.run g) in
  {
    Resp.gs_name = G.name g;
    gs_inputs = List.length g.G.inputs;
    gs_outputs = List.length g.G.outputs;
    gs_nodes = G.node_count g;
    gs_ops = G.behavioural_op_count g;
    gs_critical =
      span "timing.critical" (fun () ->
          Hls_timing.Critical_path.critical_delta k);
  }

(* The report record [Pipeline] builds from a bound datapath. *)
let report ~flow ~lib ~op_count ?(fragment_count = op_count)
    (dp : Hls_alloc.Datapath.t) =
  let module D = Hls_alloc.Datapath in
  {
    P.flow;
    latency = dp.D.latency;
    cycle_delta = dp.D.chain_delta;
    cycle_ns = D.cycle_ns lib dp;
    execution_ns = D.execution_ns lib dp;
    op_count;
    fragment_count;
    datapath = dp;
    area = D.area lib dp;
  }

(* [Pipeline.prepare]: transformation recipe, kernel extraction, the
   kernel's bit-dependency net and its arrival analysis.  With [pool] the
   arrival sweep runs region-parallel on it, as under [Exec]; without,
   serially, as under an explore of one job. *)
let prepare ?pool ~transform ~verify g =
  let g, log =
    if transform.Hls_xform.Recipe.steps = [] then (g, [])
    else
      span "xform" (fun () ->
          let o = Hls_xform.Engine.apply ~policy:verify transform g in
          count "xform.passes_fired"
            (float_of_int (List.length (Hls_xform.Engine.fired_entries o)));
          (o.Hls_xform.Engine.graph, o.Hls_xform.Engine.log))
  in
  let kernel = span "kernel" (fun () -> Hls_kernel.Extract.run g) in
  count "kernel.nodes" (float_of_int (G.node_count kernel));
  let net = span "timing.bitnet" (fun () -> Hls_timing.Bitnet.build kernel) in
  count "timing.bits" (float_of_int (Hls_timing.Bitnet.total_bits net));
  let arrival =
    span "timing.arrival" (fun () ->
        match pool with
        | Some pool -> Hls_timing.Arrival.of_net_parallel ~pool net
        | None -> Hls_timing.Arrival.of_net net)
  in
  { P.p_kernel = kernel; p_net = net; p_arrival = arrival; p_xform = log }

(* [Exec]'s prepared-prefix memo, keyed the same way: (graph digest,
   recipe, verify policy), with the shared domain pool its preparations
   run on. *)
type memo = {
  table : (string * string * string, P.prepared) Hashtbl.t;
  pool : Hls_pool.Shared.t;
  mutable lookups : int;
  mutable hits : int;
}

let memo pool = { table = Hashtbl.create 16; pool; lookups = 0; hits = 0 }

(* A pool sized as the benchmark's executors size their own, for the
   replays of requests that ran on an executor; shut down when [f]
   returns. *)
let with_pool f =
  let pool = Hls_pool.Shared.create ~workers:Harness.timing_workers () in
  Fun.protect ~finally:(fun () -> Hls_pool.Shared.shutdown pool) (fun () -> f pool)

let prepare_memo m (cfg : P.config) g =
  let key =
    span "api.stage" (fun () ->
        ( Cache.graph_digest g,
          Hls_xform.Recipe.to_string cfg.P.transform,
          Hls_xform.Verify.to_string cfg.P.verify ))
  in
  m.lookups <- m.lookups + 1;
  match Hashtbl.find_opt m.table key with
  | Some p ->
      m.hits <- m.hits + 1;
      p
  | None ->
      let p =
        prepare ~pool:m.pool ~transform:cfg.P.transform ~verify:cfg.P.verify g
      in
      Hashtbl.replace m.table key p;
      p

(* [Pipeline.run]: mobility, fragmentation, fragment scheduling, the
   optional feedback iteration, dedicated-adder binding. *)
let optimized (cfg : P.config) (p : P.prepared) ~latency =
  let plan =
    span "fragment.mobility" (fun () ->
        Hls_fragment.Mobility.compute ~policy:cfg.P.policy ~net:p.P.p_net
          ~arrival:p.P.p_arrival p.P.p_kernel ~latency)
  in
  let transformed =
    span "fragment.apply" (fun () ->
        Hls_fragment.Transform.apply p.P.p_kernel plan)
  in
  let fragments = Hls_fragment.Transform.op_count transformed in
  count "fragment.fragments" (float_of_int fragments);
  let schedule =
    span "sched.frag" (fun () ->
        Hls_sched.Frag_sched.schedule ~balance:cfg.P.balance transformed)
  in
  let schedule, iteration =
    if cfg.P.iterate <= 0 then (schedule, None)
    else
      let o =
        span "iter" (fun () ->
            Hls_iter.Iter.improve ~balance:cfg.P.balance ~policy:cfg.P.policy
              ~net:p.P.p_net ~arrival:p.P.p_arrival ~max_rounds:cfg.P.iterate
              schedule)
      in
      let rounds = o.Hls_iter.Iter.o_rounds in
      count "iter.rounds" (float_of_int (List.length rounds));
      count "iter.accepted"
        (float_of_int
           (List.length (List.filter (fun r -> r.Hls_iter.Iter.r_accepted) rounds)));
      (o.Hls_iter.Iter.o_schedule, Some o)
  in
  let dp = span "alloc.bind_frag" (fun () -> Hls_alloc.Bind_frag.bind schedule) in
  {
    P.opt_report =
      report ~flow:"optimized" ~lib:cfg.P.lib
        ~op_count:(G.behavioural_op_count p.P.p_kernel)
        ~fragment_count:fragments dp;
    kernel = p.P.p_kernel;
    transformed;
    schedule;
    iteration;
  }

(* [Pipeline.conventional]: the operation-atomic baseline. *)
let conventional ~lib g ~latency =
  let delay = Hls_sched.Op_delay.delay_with ~lib in
  let s =
    span "sched.list" (fun () -> Hls_sched.List_sched.schedule ~delay g ~latency)
  in
  let dp = span "alloc.bind_shared" (fun () -> Hls_alloc.Bind_shared.bind s) in
  report ~flow:"conventional" ~lib ~op_count:(G.behavioural_op_count g) dp

(* [Pipeline.check_optimized_equivalence] with its trial count and seed,
   calling [Hls_check.equivalent] itself so that [check.vectors] counts
   the vectors the verdict reports: all [2^bits] of a proof, or the
   corners and samples of a pass. *)
let check g (r : P.optimized_result) =
  let verdict =
    span "check" (fun () ->
        Hls_check.equivalent ~samples:40 ~seed:99 g
          r.P.transformed.Hls_fragment.Transform.graph)
  in
  match verdict with
  | Hls_check.Proved ->
      count "check.vectors" (float_of_int (1 lsl Hls_check.input_bits g));
      Ok ()
  | Hls_check.Passed n ->
      count "check.vectors" (float_of_int n);
      Ok ()
  | Hls_check.Failed _ as f -> Error (Format.asprintf "%a" Hls_check.pp_verdict f)

let metrics r = Cache.metrics_of_report r

(* The optimized flow of one point, with infeasibility classified the way
   [Pipeline.run] classifies it and counted at the layer that found it:
   mobility's witnessed budget violation or a schedule with no legal
   placement. *)
let optimized_result cfg p ~latency =
  match optimized cfg p ~latency with
  | r -> Ok r
  | exception e ->
      (match (Hls_fragment.Mobility.infeasibility_of_exn e, e) with
      | Some _, _ -> count "fragment.infeasible" 1.
      | None, Hls_sched.Frag_sched.Infeasible _ -> count "sched.infeasible" 1.
      | None, _ -> ());
      Error (P.classify_exn e)
