(* hlsbench: the repository's end-to-end benchmark.

     hlsbench --workload report|sweep|serve --seed N --seconds S --trace 0|1

   Runs one workload for at least S seconds of whole passes, checks every
   output, prints one human-readable row per metric and, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones of a traced replay.  Exits 1 when any output fails its
   check or the determinism guard trips. *)

open Perfbench
module H = Harness
open Output

let usage () =
  prerr_endline
    "usage: hlsbench --workload report|sweep|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !workload workloads) then usage ();
  let r, metrics =
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~size:H.Full ~inject_bad:false
  in
  print_rows ~workload:!workload ~seed:!seed r metrics;
  let correct = r.H.failed = 0 in
  print_endline (result_line ~correct r metrics);
  exit (if correct then 0 else 1)
