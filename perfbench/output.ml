(* What a run prints: one row per metric for people, then the result
   line for machines; and the determinism guard's record. *)

module H = Harness

let workloads =
  [ ("report", Report_wl.run); ("sweep", Sweep_wl.run); ("serve", Serve_wl.run) ]

(* Every digit as measured; a value that could not be measured (and so
   fails the run) still prints as a number. *)
let json_float v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct (r : H.result) metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.H.attempted r.H.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_float v) (Metrics.unit_of name))
          metrics))

let end_to_end (r : H.result) =
  [
    ("cpu_latency_p50_ms", Stats.quantile 50. r.H.latencies);
    ("cpu_latency_p90_ms", Stats.quantile 90. r.H.latencies);
    ("cpu_throughput_per_s", Stats.ratio r.H.completed r.H.busy_s);
    ("qor_exec_ns_geomean", Stats.geomean r.H.exec_ns);
    ("qor_area_gates_geomean", Stats.geomean r.H.gates);
    ("qor_cycle_ratio_geomean", Stats.geomean r.H.cycle_ratio);
    ("peak_heap_mb", r.H.heap_mb);
    ("setup_s", r.H.setup_s);
  ]

(* The determinism guard's record for one (workload, seed, size): the
   quality-of-result figures, the guarded layer counts and the digest of
   one pass's outputs.  A later run of the same seed in this checkout,
   traced or not, must reproduce it exactly. *)
let fingerprint (r : H.result) =
  let qor =
    List.filter (fun (k, _) -> String.starts_with ~prefix:"qor_" k) (end_to_end r)
  in
  String.concat "\n"
    (List.map (fun (k, v) -> Printf.sprintf "%s %.17g" k v) (qor @ r.H.counts)
    @ [ "outputs " ^ r.H.digest ])
  ^ "\n"

let guard ~workload ~seed ~size r =
  (* Keyed by the benchmark binary too: a rebuilt program may legitimately
     change its results, and only runs of one build must agree. *)
  let path =
    Printf.sprintf "%s/fingerprint-%s-%d-%s-%s.txt" H.state_dir workload seed
      (match size with H.Full -> "full" | H.Tiny -> "tiny")
      (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)
  in
  let fp = fingerprint r in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let old = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if old = fp then []
    else [ Printf.sprintf "determinism guard: %s differs from an earlier run:\n%s---\n%s" path old fp ]
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc fp;
    close_out oc;
    Sys.rename tmp path;
    []
  end

let print_rows ~workload ~seed (r : H.result) metrics =
  let n = List.length r.H.latencies in
  Printf.printf "workload %s  seed %d  passes %d  samples %d (%d beyond p90)\n"
    workload seed r.H.passes n (Stats.beyond 90. r.H.latencies);
  List.iter
    (fun (name, v) -> Printf.printf "  %-26s %16.6f %s\n" name v (Metrics.unit_of name))
    metrics;
  Printf.printf "  %-26s %16.6f (%d failed / %d attempted)\n" "error_share"
    (Stats.ratio (float_of_int r.H.failed) (float_of_int r.H.attempted))
    r.H.failed r.H.attempted;
  List.iter (fun (k, v) -> Printf.printf "  count %-20s %.0f\n" k v) r.H.counts;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.H.notes;
  List.iter (fun e -> Printf.printf "  FAILED %s\n" e) r.H.errors


let spans_path ~workload ~seed =
  Printf.sprintf "%s/spans-%s-%d.json" H.state_dir workload seed

(* One run of one workload: the workload itself, the determinism guard
   (skipped when a bad request is injected on purpose), and in a traced
   run the spans written to [spans_path].
   Returns the result with guard failures added and the metrics to
   print: end-to-end ones untraced, per-layer ones traced. *)
let run ~workload ~seed ~seconds ~trace ~size ~inject_bad =
  H.ensure_state_dir ();
  Span.reset ();
  let r = (List.assoc workload workloads) ~size ~seed ~seconds ~trace ~inject_bad in
  let metrics = if trace then r.H.layers else end_to_end r in
  let unmeasured =
    List.filter_map
      (fun (name, v) ->
        if Float.is_finite v then None else Some (name ^ " could not be measured"))
      metrics
  in
  let guard_errors =
    if inject_bad then [] else guard ~workload ~seed ~size r
  in
  let extra = unmeasured @ guard_errors in
  let r =
    { r with H.failed = r.H.failed + List.length extra; errors = r.H.errors @ extra }
  in
  if trace then Span.write (spans_path ~workload ~seed) (Span.all ());
  (r, metrics)
