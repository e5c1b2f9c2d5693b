(* The [serve] workload: a closed loop with one client and one
   Unix-socket connection to an in-process request daemon (server
   workers 1) over a warm executor.

   The stream mixes parse, optimize, schedule, emit vhdl-rtl, simulate,
   iterate and report over the paper, DSP and ADPCM catalog designs;
   spec-file designs travel as source text.  The prepared-prefix memo
   skips kernel extraction and timing on most requests, while the codec,
   the server's I/O, spec parsing, RTL emission and cycle simulation do
   work they do in no other workload. *)

module R = Hls_api.Request
module Resp = Hls_api.Response
module Exec = Hls_api.Exec
module Cat = Hls_workloads.Catalog
module Client = Hls_server.Client
module Server = Hls_server.Server
module P = Hls_core.Pipeline
module H = Harness

type input = { label : string; req : R.t }

let designs = function
  | H.Full ->
      List.filter
        (fun (e : Cat.entry) ->
          List.exists (fun t -> List.mem t e.Cat.tags) [ "paper"; "dsp"; "adpcm" ])
        (Cat.all ())
  | H.Tiny ->
      List.filter_map Cat.find [ "chain3"; "fir8" ]

let spec_of (e : Cat.entry) =
  match e.Cat.source with Some src -> R.Source src | None -> R.Builtin e.Cat.name

(* Every verb on every design once per pass, in a seeded order; the seed
   also draws the simulation vectors. *)
let inputs ~size ~seed ~inject_bad =
  let st = H.rng seed 7 in
  let config = R.default_config in
  let per_design (e : Cat.entry) =
    let spec = spec_of e and latency = e.Cat.default_latency in
    List.map
      (fun (verb, req) -> { label = e.Cat.name ^ "/" ^ verb; req })
      [
        ("parse", R.Parse { spec });
        ("optimize", R.Optimize { spec; latency; config; vhdl = false });
        ("schedule", R.Schedule { spec; latency; flow = R.Optimized; config });
        ("emit", R.Emit { spec; latency; format = R.Vhdl_rtl; config });
        ( "simulate",
          R.Simulate
            { spec; latency; seed = Random.State.bits st; config; vcd = false } );
        ("iterate", R.Iterate { spec; latency; rounds = 4; config });
        ("report", R.Report { spec; latency; config; target_ns = None });
      ]
  in
  let all = Array.of_list (List.concat_map per_design (designs size)) in
  (* Fisher-Yates under the workload seed. *)
  for k = Array.length all - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = all.(k) in
    all.(k) <- all.(j);
    all.(j) <- t
  done;
  if inject_bad then
    Array.append all
      [| { label = "bad"; req = R.Parse { spec = R.Builtin "no-such-design" } } |]
  else all

(* A daemon on a thread of its own, with its client connection.  A
   thread, not a domain: client and daemon take turns, and a second
   domain would make every minor collection of the one wait for the
   other (see [Harness.timing_workers]). *)
type daemon = {
  exec : Exec.t;
  stop : bool Atomic.t;
  thread : Thread.t;
  client : Client.t;
  socket : string;
  create_ms : float;
}

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "%s/serve-%d-%d.sock" H.state_dir (Unix.getpid ()) !k

let rec connect socket deadline =
  match Client.connect socket with
  | Ok c -> c
  | Error m ->
      if H.now () > deadline then failwith ("cannot reach the daemon: " ^ m)
      else begin
        Unix.sleepf 0.005;
        connect socket deadline
      end

let start_daemon designs =
  let socket = socket_path () in
  let t0 = H.cpu () in
  let exec = H.new_exec () in
  let create_ms = (H.cpu () -. t0) *. 1e3 in
  let stop = Atomic.make false in
  let cfg = { (Server.default_config ~socket) with Server.workers = Some 1 } in
  let thread = Thread.create (fun () -> Server.serve ~stop cfg exec) () in
  let client = connect socket (H.now () +. 10.) in
  (* Warm-up: a liveness probe, then every design parsed once. *)
  ignore (Client.roundtrip client R.Ping);
  List.iter
    (fun e -> ignore (Client.roundtrip client (R.Parse { spec = spec_of e })))
    designs;
  { exec; stop; thread; client; socket; create_ms }

let stop_daemon d =
  Client.close d.client;
  Atomic.set d.stop true;
  Thread.join d.thread;
  Exec.close d.exec;
  if Sys.file_exists d.socket then Sys.remove d.socket

type unit_of_work = (Resp.t, string) result

let execute d inputs i : unit_of_work =
  Client.roundtrip d.client ~id:(string_of_int i) inputs.(i).req

(* The served response's own checks: a typed success, a report whose
   equivalence check passed, a simulation whose gates match the
   behaviour. *)
let judge _ (u : unit_of_work) =
  match u with
  | Error m -> [ "transport: " ^ m ]
  | Ok { Resp.result = Error e; _ } -> [ Resp.error_message e ]
  | Ok { Resp.result = Ok p; _ } -> (
      match p with
      | Resp.Reported { r_equivalence = Some m; _ } -> [ "equivalence: " ^ m ]
      | Resp.Simulated s ->
          List.filter_map
            (fun (port, b, gate) ->
              if b = gate then None
              else Some (Printf.sprintf "simulate: port %s %d <> %d" port b gate))
            s.Resp.sim_outputs
      | _ -> [])

let payload_of (u : unit_of_work) =
  match u with Ok { Resp.result = Ok p; _ } -> Some p | _ -> None

let digest (u : unit_of_work) =
  match u with
  | Ok { Resp.result = Ok p; _ } ->
      Digest.string (Hls_dse.Dse_json.to_string (Resp.payload_to_json p))
  | Ok { Resp.result = Error e; _ } -> "error:" ^ Resp.error_message e
  | Error m -> "transport:" ^ m

(* Rebuild one served request layer by layer with the memo state a
   single pass leaves, round-trip its request and response through the
   codecs, and compare with what the daemon answered. *)
let replay_one ~trace ~seed memo inputs i (resp : Resp.t) =
  let x = inputs.(i) in
  H.replay ~trace i (fun () ->
      let errs = ref [] in
      let expect what b = if not b then errs := (x.label ^ ": " ^ what) :: !errs in
      Span.with_span "api.codec" (fun () ->
          let line = Hls_dse.Dse_json.to_string (R.to_json ~id:(string_of_int i) x.req) in
          expect "request codec"
            (match R.of_string line with Ok (_, r) -> r = x.req | Error _ -> false);
          let out = Resp.to_string resp in
          expect "response codec"
            (match Resp.of_string out with
            | Ok r -> Resp.to_string r = out
            | Error _ -> false));
      let simulate_check g (r : P.optimized_result) =
        match
          Hls_sim.equivalent g r.P.transformed.Hls_fragment.Transform.graph
            ~trials:8
            ~prng:(Hls_util.Prng.create ~seed:((seed * 7919) + i + 9000))
        with
        | Ok () -> ()
        | Error m -> expect ("simulation: " ^ m) false
      in
      let flow spec (config : R.config) ~latency ~iterate =
        let g = Replay.load_spec spec in
        let cfg = Result.get_ok (R.pipeline_config config) in
        let cfg = { cfg with P.iterate } in
        let p = Replay.prepare_memo memo cfg g in
        (g, cfg, p, Replay.optimized cfg p ~latency)
      in
      (match (x.req, resp.Resp.result) with
      | R.Parse { spec }, Ok (Resp.Parsed { stats; pretty }) ->
          let g = Replay.load_spec spec in
          expect "graph stats" (Replay.graph_stats g = stats);
          expect "printed graph"
            (Span.with_span "api.render" (fun () ->
                 Format.asprintf "%a" Hls_dfg.Graph.pp g)
            = pretty)
      | R.Optimize { spec; latency; config; _ }, Ok (Resp.Optimized o) ->
          let g, _, _, r = flow spec config ~latency ~iterate:0 in
          let tr = r.P.transformed in
          let tg = tr.Hls_fragment.Transform.graph in
          expect "critical" (tr.Hls_fragment.Transform.plan.Hls_fragment.Mobility.critical = o.critical);
          expect "cycle" (tr.Hls_fragment.Transform.plan.Hls_fragment.Mobility.n_bits = o.cycle);
          expect "fragments" (Hls_dfg.Graph.behavioural_op_count tg = o.fragments);
          expect "emitted spec"
            (Span.with_span "speclang" (fun () ->
                 match Hls_speclang.Emit.emit tg with
                 | src -> src
                 | exception Hls_speclang.Emit.Unprintable _ -> Hls_speclang.Vhdl.emit tg)
            = o.text);
          simulate_check g r
      | R.Schedule { spec; latency; config; _ }, Ok (Resp.Scheduled s) ->
          let g, _, _, r = flow spec config ~latency ~iterate:0 in
          expect "achieved chain"
            (Some (Hls_sched.Frag_sched.used_delta r.P.schedule) = s.Resp.s_used_delta);
          simulate_check g r
      | R.Emit { spec; latency; config; _ }, Ok (Resp.Emitted e) ->
          let g, _, _, r = flow spec config ~latency ~iterate:0 in
          expect "vhdl-rtl text"
            (Span.with_span "rtl.emit" (fun () -> Hls_rtl.Rtl_vhdl.emit r.P.schedule)
            = e.text);
          simulate_check g r
      | R.Simulate { spec; latency; seed = sim_seed; config; _ }, Ok (Resp.Simulated s) ->
          let g, _, _, r = flow spec config ~latency ~iterate:0 in
          let reference =
            Span.with_span "sim" (fun () ->
                let inputs = Hls_sim.random_inputs g (Hls_util.Prng.create ~seed:sim_seed) in
                (inputs, Hls_sim.outputs g ~inputs))
          in
          let inputs, outputs = reference in
          let gates =
            Span.with_span "rtl.cycle_sim" (fun () ->
                Hls_rtl.Netlist.run
                  (Hls_rtl.Elaborate_netlist.elaborate r.P.schedule)
                  ~cycles:latency ~inputs)
          in
          expect "simulated outputs"
            (List.map
               (fun (n, v) ->
                 (n, Hls_bitvec.to_int v, Hls_bitvec.to_int (List.assoc n gates)))
               outputs
            = s.Resp.sim_outputs);
          simulate_check g r
      | R.Iterate { spec; latency; rounds; config }, Ok (Resp.Iterated it) ->
          let g, _, _, r = flow spec config ~latency ~iterate:(max 1 rounds) in
          (match r.P.iteration with
          | Some o ->
              expect "iterated latency"
                (o.Hls_iter.Iter.o_final_latency = it.Resp.it_final_latency);
              expect "iterated chain" (o.Hls_iter.Iter.o_final_delta = it.Resp.it_final_delta);
              expect "iteration rounds"
                (List.length o.Hls_iter.Iter.o_rounds = List.length it.Resp.it_rounds)
          | None -> expect "iteration audit" false);
          simulate_check g r
      | R.Report { spec; latency; config; _ }, Ok (Resp.Reported rep) ->
          let g = Replay.load_spec spec in
          let cfg = Result.get_ok (R.pipeline_config config) in
          let p = Replay.prepare_memo memo cfg g in
          let conv = Replay.conventional ~lib:cfg.P.lib g ~latency in
          let r = Replay.optimized cfg p ~latency in
          let eq = Replay.check g r in
          expect "graph stats" (Replay.graph_stats g = rep.Resp.r_stats);
          expect "conventional metrics" (Replay.metrics conv = rep.Resp.r_conventional);
          expect "optimized metrics"
            (Replay.metrics r.P.opt_report = rep.Resp.r_optimized);
          expect "equivalence verdict" (Result.is_ok eq = (rep.Resp.r_equivalence = None));
          simulate_check g r
      | _, Error _ -> ()
      | _ -> expect "unexpected payload" false);
      List.rev !errs)

(* In-process execution of the same pass on a warm executor of our own,
   the reference the server's overhead is measured against; at reference
   speed, as the round trips are. *)
let in_process_ms inputs =
  let ex = H.new_exec () in
  Fun.protect
    ~finally:(fun () -> Exec.close ex)
    (fun () ->
      Array.iter (fun x -> ignore (Exec.run ex x.req)) inputs;
      let before = H.reference () in
      let ms =
        Stats.mean
          (Array.to_list
             (Array.map
                (fun x ->
                  let t0 = H.cpu () in
                  ignore (Exec.run ex x.req);
                  (H.cpu () -. t0) *. 1e3)
                inputs))
      in
      ms *. H.speed [ before; H.reference () ])

let run ~size ~seed ~seconds ~trace ~inject_bad =
  let ds = designs size in
  let (inputs, d), setup_s =
    H.setup ~times:15
      ~teardown:(fun (_, d) -> stop_daemon d)
      (fun () ->
        let inputs = inputs ~size ~seed ~inject_bad in
        (inputs, start_daemon ds))
  in
  let n = Array.length inputs in
  let p, memo_gauges, heap_mb =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let p =
          H.run_passes ~seconds ~trace ~n
            ~min_samples:(match size with H.Full -> 100 | H.Tiny -> 1)
            ~execute:(execute d inputs) ~judge ~digest ()
        in
        (* The daemon's own memo counters: every miss adds an entry. *)
        let gauges =
          match Client.roundtrip d.client R.Stats with
          | Ok { Resp.result = Ok (Resp.Stats { st_gauges; _ }); _ } -> (
              match
                ( List.assoc_opt "prepared_hits" st_gauges,
                  List.assoc_opt "prepared_entries" st_gauges )
              with
              | Some h, Some e -> Some (h, e)
              | _ -> None)
          | _ -> None
        in
        (p, gauges, p.H.first_heap_mb))
  in
  let check_failures, memo =
    Replay.with_pool (fun pool ->
        let memo = Replay.memo pool in
        ( List.concat
            (List.mapi
               (fun i u ->
                 match u with
                 | Ok resp -> replay_one ~trace ~seed memo inputs i resp
                 | Error _ -> [])
               (Array.to_list p.H.first)),
          memo ))
  in
  let memo_failures =
    match memo_gauges with
    | Some _ -> []
    | None -> [ "the stats verb gave no memo gauges" ]
  in
  let failures =
    H.sample_failures p ~label:(fun i -> inputs.(i).label) @ check_failures @ memo_failures
  in
  let reports =
    List.filter_map
      (fun u ->
        match payload_of u with Some (Resp.Reported r) -> Some r | _ -> None)
      (Array.to_list p.H.first)
  in
  let layers =
    if not trace then []
    else
      let exec_ms = in_process_ms inputs in
      (* Round trips after the first pass, when the daemon is as warm as
         the in-process executor. *)
      let warm_rt =
        match List.filteri (fun k _ -> k >= n) (H.latencies p) with
        | [] -> H.typical_ms p
        | l -> Stats.mean l
      in
      H.layer_metrics ~n_replayed:n ~request_ms:(H.typical_ms p)
        ~extra:
          [
            ("api.exec_ms", exec_ms);
            ("api.exec_create_ms", d.create_ms);
            ( "api.memo_hit_ratio",
              match memo_gauges with
              | Some (h, e) -> Stats.ratio (float_of_int h) (float_of_int (h + e))
              | None -> 0. );
            ("server.overhead_ms", warm_rt -. exec_ms);
            ("trace.overhead_pct", H.overhead_pct p);
          ]
  in
  let exec_ns, gates, cycle_ratio = H.report_qor reports in
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
      H.pass_row p :: H.group_rows p ~group:(fun i ->
          match String.split_on_char '/' inputs.(i).label with
          | _ :: verb :: _ -> verb
          | _ -> inputs.(i).label)
      @ [
        Printf.sprintf "memo: daemon %s over %d passes; replayed pass %d hits / %d lookups"
          (match memo_gauges with
          | Some (h, e) -> Printf.sprintf "%d hits, %d entries" h e
          | None -> "?")
          p.H.n_passes memo.Replay.hits memo.Replay.lookups;
      ];
  }
