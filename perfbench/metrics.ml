(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json lists the same names; the self-test checks that the
   two agree. *)

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Printed with tracing off, for every workload.  [error_share] is not
   among them: it is 0 on a healthy run, so it travels as the result
   line's [failed] / [attempted] and any failure fails the run.  Times
   are the process's CPU time ([Span.cpu_seconds]), not wall time. *)
let end_to_end =
  [
    m "cpu_latency_p50_ms" "ms" Lower;
    m "cpu_latency_p90_ms" "ms" Lower;
    m "cpu_throughput_per_s" "1/s" Higher;
    m "qor_exec_ns_geomean" "ns" Lower;
    m "qor_area_gates_geomean" "gates" Lower;
    m "qor_cycle_ratio_geomean" "ratio" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "setup_s" "s" Lower;
  ]

(* Printed by the traced run.  Times are self time per unit of work of
   the replayed pass; counts are totals over that pass. *)
let per_layer =
  [
    m "speclang.ms" "ms" Lower;
    m "speclang.calls" "count" Lower;
    m "xform.ms" "ms" Lower;
    m "xform.passes_fired" "count" Higher;
    m "kernel.ms" "ms" Lower;
    m "kernel.nodes" "count" Lower;
    m "timing.bitnet_ms" "ms" Lower;
    m "timing.arrival_ms" "ms" Lower;
    m "timing.bits" "count" Lower;
    m "fragment.mobility_ms" "ms" Lower;
    m "fragment.apply_ms" "ms" Lower;
    m "fragment.apply_mwords" "Mword" Lower;
    m "fragment.fragments" "count" Lower;
    m "fragment.infeasible" "count" Lower;
    m "sched.frag_ms" "ms" Lower;
    m "sched.frag_mwords" "Mword" Lower;
    m "sched.list_ms" "ms" Lower;
    m "sched.infeasible" "count" Lower;
    m "alloc.bind_frag_ms" "ms" Lower;
    m "alloc.bind_frag_mwords" "Mword" Lower;
    m "alloc.bind_shared_ms" "ms" Lower;
    m "iter.ms" "ms" Lower;
    m "iter.rounds" "count" Lower;
    m "iter.accept_ratio" "ratio" Higher;
    m "check.ms" "ms" Lower;
    m "check.vectors" "count" Lower;
    m "check.us_per_vector" "us" Lower;
    m "check.mwords" "Mword" Lower;
    m "rtl.emit_ms" "ms" Lower;
    m "rtl.cycle_sim_ms" "ms" Lower;
    m "dse.explore_ms" "ms" Lower;
    m "dse.overhead_ms" "ms" Lower;
    m "dse.cache_hit_ratio" "ratio" Higher;
    m "dse.infeasible_points" "count" Lower;
    m "api.codec_us" "us" Lower;
    m "api.exec_ms" "ms" Lower;
    m "api.exec_create_ms" "ms" Lower;
    m "api.memo_hit_ratio" "ratio" Higher;
    m "server.overhead_ms" "ms" Lower;
    m "trace.coverage" "ratio" Higher;
    m "trace.overhead_pct" "%" Lower;
  ]

(* Layer counts that must repeat exactly at one seed, traced or not. *)
let determinism_counts =
  [ "kernel.nodes"; "fragment.fragments"; "check.vectors"; "iter.rounds";
    "dse.infeasible_points" ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("unknown metric " ^ name)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
