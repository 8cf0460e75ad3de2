(* Host-time measurement for the benchmark: wall clock, spans around the
   calls the benchmark makes into each layer, summary statistics and the
   process's peak resident set. *)

let now = Unix.gettimeofday

(* {1 Spans}

   Recorded only in a traced run, from the benchmark's own code, around
   its calls into each layer.  They stay in memory until the run ends.
   [op] is the timed operation the span belongs to; probes that run
   after the timed loop use [probe_op]. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 at the root *)
  start : float;
  stop : float;
}

let probe_op = -1
let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_op = ref probe_op

(* [timed name f] runs [f], returning its result and wall seconds; when
   tracing it also records a span [name] under the innermost open one. *)
let timed name f =
  let t0 = now () in
  if not !tracing then
    let r = f () in
    (r, now () -. t0)
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let finish () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans := { id; name; op = !current_op; parent; start = t0; stop = t1 } :: !spans;
      t1 -. t0
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let span name f = fst (timed name f)

(* Seconds spent in spans called [name] during operation [op]. *)
let span_total ~op name =
  List.fold_left
    (fun acc s ->
      if s.op = op && String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0.0 !spans

(* {1 Statistics} *)

let sorted l = List.sort Float.compare l

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let percentile q = function
  | [] -> nan
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    let x = q *. float_of_int (n - 1) in
    let i = truncate x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile 0.5 l

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method) computes them, so spreads reported
   here match the ones any outside check computes from the same runs. *)
let quartiles l =
  let d = Array.of_list (sorted l) in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Measure.quartiles: need two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0)
    [ 1; 2; 3 ]

(* Wall seconds per call of [f], repeating it until at least [min_s]
   has elapsed: set-up steps that take microseconds are below the
   clock's resolution one call at a time. *)
let per_call ~min_s f =
  let t0 = now () in
  let rec go reps =
    f ();
    let dt = now () -. t0 in
    if dt >= min_s then dt /. float_of_int reps else go (reps + 1)
  in
  go 1

(* {1 Memory} *)

(* VmHWM of this process in MiB: the high-water resident set since
   exec, which is why every workload runs in a process of its own. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
                (fun kb -> kb /. 1024.0)
            else scan ()
        in
        scan ())
