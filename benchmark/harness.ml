(* Runs one workload: set-up samples, the untimed verification, the
   timed loop and, in a traced run, the layer probes. *)

(* End-to-end metrics and their units.  Every workload reports every one
   of them from an untraced run. *)
let end_to_end = [ ("hosts_per_s", "hosts/s"); ("peak_rss_mib", "MiB"); ("setup_s", "s") ]

(* Even a run asked for zero seconds times this many operations. *)
let min_ops = 3

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  walls : float list;  (* wall seconds of the untraced operations *)
}

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
             r.metrics) );
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let span_json (s : Measure.span) =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("op", Json.Num (float_of_int s.op));
      ("parent", Json.Num (float_of_int s.parent));
      ("start_s", Json.Num s.start);
      ("end_s", Json.Num s.stop);
    ]

let write_trace ~out ~workload ~seed (r : result) =
  mkdir_p out;
  let path = Filename.concat out (workload ^ ".trace.json") in
  let t0 = List.fold_left (fun acc (s : Measure.span) -> Float.min acc s.start) infinity !Measure.spans in
  let spans =
    List.sort
      (fun (a : Measure.span) b -> Int.compare a.id b.id)
      (List.map (fun (s : Measure.span) -> { s with start = s.start -. t0; stop = s.stop -. t0 }) !Measure.spans)
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("result", result_json r);
        ("spans", Json.Arr (List.map span_json spans));
      ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let run (w : Workloads.t) ~seed ~seconds ~trace ~smoke =
  Measure.spans := [];
  Measure.tracing := false;
  Measure.current_op := Measure.probe_op;
  let inst = w.make ~seed ~smoke in
  let verified = inst.verify () in
  (* Set-up is timed on its own, several times, before the loop, on a
     heap the verification pass left no garbage in. *)
  Gc.full_major ();
  let setup_s =
    Measure.median (List.init 7 (fun _ -> Measure.per_call ~min_s:0.02 inst.setup))
  in
  let plain = ref [] and traced = ref [] and failed = ref 0 and n = ref 0 in
  let t0 = Measure.now () in
  while !n < min_ops || Measure.now () -. t0 < seconds do
    let i = !n in
    (* A traced run alternates untraced and traced operations; the
       difference between them is the tracing overhead. *)
    let tracing = trace && i mod 2 = 1 in
    Measure.tracing := tracing;
    Measure.current_op := i;
    let op = inst.op i in
    Measure.tracing := false;
    if not (op.check ()) then incr failed;
    (* Keep numbers only: the check closes over the operation's whole
       result, which must not outlive it. *)
    if tracing then traced := (i, op.wall) :: !traced else plain := (op.wall, op.hosts) :: !plain;
    (* Every operation starts from a collected heap, as a fresh process
       would; the collection is outside the timed section. *)
    Gc.full_major ();
    incr n
  done;
  let walls = List.rev_map fst !plain in
  let metrics, layers_ok =
    if not trace then
      ( [
          ( "hosts_per_s",
            Measure.median (List.map (fun (wall, hosts) -> float_of_int hosts /. wall) !plain) );
          ("peak_rss_mib", Measure.peak_rss_mib ());
          ("setup_s", setup_s);
        ],
        true )
    else begin
      let op_median name =
        Measure.median (List.map (fun (op, _) -> Measure.span_total ~op name) !traced)
      in
      Measure.tracing := true;
      Measure.current_op := Measure.probe_op;
      let values, ok = inst.layers ~op_median in
      Measure.tracing := false;
      let overhead = (Measure.median (List.map snd !traced) /. Measure.median walls) -. 1.0 in
      let values = ("trace_overhead_frac", overhead) :: values in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name Workloads.per_layer) then
            invalid_arg ("undeclared per-layer metric " ^ name))
        values;
      ( List.map
          (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name values)))
          Workloads.per_layer,
        ok )
    end
  in
  let units = if trace then Workloads.per_layer else end_to_end in
  let failed = !failed + Bool.to_int (not verified) + Bool.to_int (not layers_ok) in
  {
    correct = failed = 0;
    (* the verification pass and, when traced, the probes count as one
       operation each *)
    attempted = !n + 1 + Bool.to_int trace;
    failed;
    metrics =
      List.map (fun (name, value) -> (name, value, List.assoc name units)) metrics;
    walls;
  }
