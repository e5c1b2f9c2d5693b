(* Self-test of the benchmark at tiny size.  Run from the repository
   root with the path of BENCHMARK.json:

     python3 perfbench/run.py --self-test

   It asserts that every end-to-end metric appears for every workload
   with its unit, that every name is well formed, that a traced run
   writes well-formed spans with parents, that an injected bad request
   raises the failure count instead of vanishing, and that BENCHMARK.json
   lists exactly the metrics and workloads the benchmark prints. *)

open Perfbench
module J = Hls_dse.Dse_json
module H = Harness

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let member k j = Option.get (J.member k j)
let str j = Option.get (J.to_str j)
let num j = Option.get (J.to_float j)

let seed = 3

let run_tiny ?(inject_bad = false) workload ~trace =
  Output.run ~workload ~seed ~seconds:0.05 ~trace ~size:H.Tiny ~inject_bad

(* The printed result line, parsed back as a reader of it would. *)
let result_json r metrics =
  J.of_string (Output.result_line ~correct:(r.H.failed = 0) r metrics)
  |> Result.get_ok

let metric_names = List.map (fun (m : Metrics.metric) -> m.Metrics.name)

let end_to_end_rows () =
  List.iter
    (fun (w, _) ->
      let r, metrics = run_tiny w ~trace:false in
      let j = result_json r metrics in
      check (w ^ ": correct with nothing failed")
        (J.to_bool (member "correct" j) = Some true && r.H.failed = 0);
      let ms = member "metrics" j in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "%s: %s present with a unit" w name)
            (match J.member name ms with
            | Some m ->
                Float.is_finite (num (member "value" m))
                && str (member "unit" m) = Metrics.unit_of name
            | None -> false))
        (metric_names Metrics.end_to_end))
    Output.workloads

let names_well_formed () =
  List.iter
    (fun name -> check ("well-formed name " ^ name) (Metrics.valid_name name))
    (List.map fst Output.workloads
    @ metric_names Metrics.end_to_end
    @ metric_names Metrics.per_layer)

(* Every span has a unique id and ends after it starts; every non-root
   span's parent exists, shares its request id and encloses it; layer
   spans always sit under a request or replay root. *)
let spans_well_formed () =
  let r, metrics = run_tiny "serve" ~trace:true in
  let path = Output.spans_path ~workload:"serve" ~seed in
  check "traced serve: correct" (r.H.failed = 0);
  check "traced serve: every per-layer metric"
    (List.map fst metrics = metric_names Metrics.per_layer);
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let spans = Option.get (J.to_list (Result.get_ok (J.of_string text))) in
  let field k s = num (member k s) in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id (int_of_float (field "id" s)) s) spans;
  check "spans recorded" (List.length spans > 0);
  check "span ids unique" (Hashtbl.length by_id = List.length spans);
  check "spans end after they start"
    (List.for_all (fun s -> field "end_us" s >= field "start_us" s) spans);
  let roots = [ "request"; "replay" ] in
  let layered =
    List.filter (fun s -> not (List.mem (str (member "name" s)) roots)) spans
  in
  check "layer spans recorded" (layered <> []);
  check "every layer span has an enclosing parent of its request"
    (List.for_all
       (fun s ->
         match Hashtbl.find_opt by_id (int_of_float (field "parent" s)) with
         | None -> false
         | Some p ->
             field "request" p = field "request" s
             && field "start_us" p <= field "start_us" s
             && field "end_us" s <= field "end_us" p)
       layered);
  check "every replayed request has a real request span with its id"
    (List.for_all
       (fun s ->
         str (member "name" s) <> "replay"
         || List.exists
              (fun q ->
                str (member "name" q) = "request"
                && field "request" q = field "request" s)
              spans)
       spans)

let bad_request_fails_closed () =
  List.iter
    (fun (w, _) ->
      let r, metrics = run_tiny w ~trace:false ~inject_bad:true in
      let j = result_json r metrics in
      check (w ^ ": injected bad request counts as failed")
        (num (member "failed" j) > 0.
        && J.to_bool (member "correct" j) = Some false
        && r.H.attempted > 0))
    Output.workloads

let benchmark_json path =
  let ic = open_in_bin path in
  let j = Result.get_ok (J.of_string (really_input_string ic (in_channel_length ic))) in
  close_in ic;
  let listed key =
    List.map
      (fun m ->
        ( str (member "name" m),
          str (member "unit" m),
          str (member "better" m) ))
      (Option.get (J.to_list (member key j)))
  in
  let ours ms =
    List.map
      (fun (m : Metrics.metric) ->
        ( m.Metrics.name,
          m.Metrics.unit,
          match m.Metrics.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher" ))
      ms
  in
  check "BENCHMARK.json end_to_end = the printed end-to-end metrics"
    (listed "end_to_end" = ours Metrics.end_to_end);
  check "BENCHMARK.json per_layer = the printed per-layer metrics"
    (listed "per_layer" = ours Metrics.per_layer);
  check "BENCHMARK.json workloads = the benchmark's workloads"
    (List.map (fun w -> str (member "name" w)) (Option.get (J.to_list (member "workloads" j)))
    = List.map fst Output.workloads)

let () =
  let bench_json =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json"
  in
  names_well_formed ();
  end_to_end_rows ();
  spans_well_formed ();
  bad_request_fails_closed ();
  benchmark_json bench_json;
  Printf.printf "%s\n" (if !failures = 0 then "self-test passed" else "self-test FAILED");
  exit (if !failures = 0 then 0 else 1)
