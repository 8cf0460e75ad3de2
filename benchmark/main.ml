(* The HyperTP benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process; prints its metrics and, as the
       last line, the result as one JSON object
     main.exe run [--out DIR] [--reps R] ...
       every workload, each in a child process of its own, appending
       each result to DIR/runs.jsonl
     main.exe compare A.jsonl B.jsonl
       judge B against A with the bounds in BENCHMARK.json
     main.exe smoke --spec BENCHMARK.json
       every workload at smoke sizes, traced and not; checks the
       results and that they name exactly the metrics the spec lists

   See README.md beside this file for the workloads and metrics. *)

open Cmdliner

let single workload seed seconds trace smoke out =
  match Workloads.find workload with
  | None ->
    prerr_endline
      ("unknown workload " ^ workload ^ "; one of: "
      ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
    2
  | Some w ->
    let r = Harness.run w ~seed ~seconds ~trace ~smoke in
    Printf.printf "# %s seed=%d trace=%d: %d untraced ops, wall p50 %.4gs p90 %.4gs max %.4gs\n"
      workload seed (Bool.to_int trace) (List.length r.walls)
      (Measure.median r.walls) (Measure.percentile 0.9 r.walls) (Measure.percentile 1.0 r.walls);
    List.iter (fun (n, v, u) -> Printf.printf "# %-32s %14.6g %s\n" n v u) r.metrics;
    if trace then Harness.write_trace ~out ~workload ~seed r;
    print_endline (Json.to_string (Harness.result_json r));
    if r.correct then 0 else 1

let run_all seed seconds trace smoke out reps =
  Harness.mkdir_p out;
  let log = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out "runs.jsonl") in
  let ok = ref true in
  for rep = 0 to reps - 1 do
    List.iter
      (fun (w : Workloads.t) ->
        let seed = seed + rep in
        let args =
          [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--out"; out ]
          @ if smoke then [ "--smoke" ] else []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let rec echo last =
          match input_line ic with
          | l -> print_endline l; echo l
          | exception End_of_file -> last
        in
        let last = echo "" in
        (* A run whose checks failed still prints its result; log it so
           [compare] counts the failures. *)
        (match Json.parse last with
        | result ->
          output_string log
            (Json.to_string
               (Json.Obj
                  [ ("workload", Json.Str w.name); ("seed", Json.Num (float_of_int seed));
                    ("trace", Json.Num (if trace then 1.0 else 0.0)); ("result", result) ]));
          output_char log '\n';
          flush log
        | exception Json.Parse_error _ -> ());
        if Unix.close_process_in ic <> Unix.WEXITED 0 then begin
          ok := false;
          Printf.printf "# %s seed=%d: FAILED\n%!" w.name seed
        end)
      Workloads.all
  done;
  close_out log;
  if !ok then 0 else 1

let smoke spec =
  let doc = Json.of_file spec in
  let declared key =
    List.sort compare
      (List.map
         (fun m -> (Json.to_string_exn (Json.field "name" m), Json.to_string_exn (Json.field "unit" m)))
         (Json.to_list_exn (Json.field key doc)))
  in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  let spec_names =
    List.map (fun w -> Json.to_string_exn (Json.field "name" w)) (Json.to_list_exn (Json.field "workloads" doc))
  in
  let ok = ref (names = spec_names) in
  if not !ok then print_endline "smoke: workload names differ from the spec";
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun trace ->
          let r = Harness.run w ~seed:1 ~seconds:0.0 ~trace ~smoke:true in
          let got = List.sort compare (List.map (fun (n, _, u) -> (n, u)) r.metrics) in
          let names_ok = got = declared (if trace then "per_layer" else "end_to_end") in
          if not (r.correct && names_ok) then begin
            ok := false;
            Printf.printf "smoke: %s trace=%d: %d of %d checks failed%s\n" w.name
              (Bool.to_int trace) r.failed r.attempted
              (if names_ok then "" else "; metrics differ from the spec")
          end)
        [ false; true ])
    Workloads.all;
  if !ok then 0 else 1

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed every input is derived from.")

let seconds =
  Arg.(value & opt float 15.0 & info [ "seconds" ] ~docv:"S"
         ~doc:"Keep starting timed operations until S seconds have passed (at least 3 run).")

let trace =
  Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1"
         ~doc:"1 records spans and reports the per-layer metrics instead of the end-to-end ones.")

let smoke_flag = Arg.(value & flag & info [ "smoke" ] ~doc:"Use the small smoke-test sizes.")

let out =
  Arg.(value & opt string "benchmark/out" & info [ "out" ] ~docv:"DIR"
         ~doc:"Directory for trace files and run logs.")

let workload = Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME")
let reps = Arg.(value & opt int 1 & info [ "reps" ] ~docv:"R" ~doc:"Runs per workload, seeds N to N+R-1.")
let spec = Arg.(value & opt file "BENCHMARK.json" & info [ "spec" ] ~docv:"FILE")
let log n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A" else "B"))

let () =
  let default = Term.(const single $ workload $ seed $ seconds $ trace $ smoke_flag $ out) in
  let cmds =
    [
      Cmd.v (Cmd.info "run" ~doc:"Run every workload, each in its own process.")
        Term.(const run_all $ seed $ seconds $ trace $ smoke_flag $ out $ reps);
      Cmd.v (Cmd.info "compare" ~doc:"Compare two run logs under the spec's bounds.")
        Term.(const (fun spec a b -> Compare.run ~spec ~a ~b) $ spec $ log 0 $ log 1);
      Cmd.v (Cmd.info "smoke" ~doc:"Run every workload at smoke sizes and check the output.")
        Term.(const smoke $ spec);
    ]
  in
  exit (Cmd.eval' (Cmd.group ~default (Cmd.info "main" ~doc:"The HyperTP benchmark.") cmds))
