(* In-memory span recorder for the benchmark's own layer boundaries.

   A span is (id, name, start, stop, parent, request).  Spans are kept in
   memory while the benchmark runs and written out once at the end.  The
   recorder is off unless a traced run arms it; when off, [with_span]
   costs one branch.  Counters are always kept: the determinism guard
   compares them between traced and untraced runs.

   Spans are timed on the process's CPU clock, the clock every timing of
   the benchmark uses (see [cpu_seconds]). *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, [cpu_seconds] *)
  stop : float;
  parent : int;  (** 0 for a root span *)
  request : int;
  words : float;  (** words allocated inside the span, children included *)
}

(* CPU seconds the whole process (every thread) has used, user and
   system.  The kernel leaves out the time the hypervisor gave this
   machine's CPUs to other guests (steal), which on a shared host comes
   in minute-long bursts that would otherwise set a whole run's wall
   times.  For a process that does one thing at a time and never sleeps
   in it, as the benchmark's timed work does, it equals wall time on a
   quiet host. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let armed = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []
let current_request = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  next_id := 1;
  stack := [];
  current_request := 0;
  Hashtbl.reset counters

let arm on = armed := on
let set_request r = current_request := r

let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let with_span name f =
  if not !armed then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let w0 = allocated_words () in
    let start = cpu_seconds () in
    let finish () =
      let stop = cpu_seconds () in
      let words = allocated_words () -. w0 in
      stack := List.tl !stack;
      spans :=
        { id; name; start; stop; parent; request = !current_request; words }
        :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let count name n =
  let v = Option.value (Hashtbl.find_opt counters name) ~default:0. in
  Hashtbl.replace counters name (v +. n)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.
let all () = List.rev !spans

(* The id the next span will get. *)
let mark () = !next_id

(* Stretch every span from [first] on by [factor] about the earliest of
   them: their times then read as on a clock [factor] times as fast,
   their nesting kept. *)
let rescale_since first factor =
  let mine = List.filter (fun s -> s.id >= first) !spans in
  let origin = List.fold_left (fun a s -> Float.min a s.start) Float.infinity mine in
  let at t = origin +. ((t -. origin) *. factor) in
  spans :=
    List.map
      (fun s -> if s.id >= first then { s with start = at s.start; stop = at s.stop } else s)
      !spans

(* Self time: a span's duration minus the time its direct children
   cover.  Children of one span run sequentially, so their durations
   add. *)
let self_times sps =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let v = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0. in
        Hashtbl.replace child_time s.parent (v +. (s.stop -. s.start)))
    sps;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      (s, s.stop -. s.start -. c))
    sps

(* Total self seconds and allocated words per span name. *)
let totals sps =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let t, w = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0.) in
      Hashtbl.replace tbl s.name (t +. self, w +. s.words))
    (self_times sps);
  tbl

let to_json sps =
  let t0 = match sps with s :: _ -> s.start | [] -> 0. in
  let one s =
    Printf.sprintf
      "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"request\":%d}"
      s.id (String.escaped s.name)
      ((s.start -. t0) *. 1e6)
      ((s.stop -. t0) *. 1e6)
      s.parent s.request
  in
  "[" ^ String.concat ",\n" (List.map one sps) ^ "]\n"

let write path sps =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json sps);
  close_out oc;
  Sys.rename tmp path
