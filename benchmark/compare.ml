(* [compare A B]: judges a change (B) against its parent (A) from two
   run logs, with the bounds BENCHMARK.json fixes for each end-to-end
   metric.  One row per workload and metric:

   - better: B wins at least 9 of every 10 pairs (ties count for
     neither) and the medians differ by more than A's own interquartile
     range;
   - unresolved: fewer than 10 pairs, or a run-to-run spread (IQR over
     median, either side) wider than the bound, unless every run of B
     reads better than every run of A;
   - worse: B's median is worse than A's by more than the bound;
   - unchanged: otherwise.

   Pair i is run i of A against run i of B; collecting them alternately
   (A, B, B, A, ...) is up to whoever records the logs. *)

type metric = { name : string; better_higher : bool; bound : float }

let spec_metrics path =
  List.map
    (fun m ->
      {
        name = Json.to_string_exn (Json.field "name" m);
        better_higher = String.equal (Json.to_string_exn (Json.field "better" m)) "higher";
        bound = Json.to_float_exn (Json.field "bound" m);
      })
    (Json.to_list_exn (Json.field "end_to_end" (Json.of_file path)))

(* A run log holds one JSON object per line: workload, seed, trace and
   the run's result line.  Traced runs carry no end-to-end metrics and
   are skipped. *)
let read_log path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | "" -> lines acc
    | l -> lines (Json.parse l :: acc)
  in
  List.filter_map
    (fun entry ->
      if Json.to_float_exn (Json.field "trace" entry) <> 0.0 then None
      else Some (Json.to_string_exn (Json.field "workload" entry), Json.field "result" entry))
    (lines [])

let value result name =
  Json.to_float_exn (Json.field "value" (Json.field name (Json.field "metrics" result)))

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let verdict m a b =
  let n = Stdlib.min (List.length a) (List.length b) in
  let ma = Measure.median a and mb = Measure.median b in
  (* positive = B improves on A *)
  let gain x y = if m.better_higher then y -. x else x -. y in
  let iqr l = match Measure.quartiles l with [ q1; _; q3 ] -> q3 -. q1 | _ -> nan in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.0) (List.combine (take n a) (take n b))) in
  let spread = Float.max (iqr a /. Float.abs ma) (iqr b /. Float.abs mb) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b in
  let worse_by = -.gain ma mb /. Float.abs ma in
  let v =
    if n < 10 then "unresolved"
    else if 10 * wins >= 9 * n && gain ma mb > iqr a then "better"
    else if spread > m.bound && not all_better then "unresolved"
    else if worse_by > m.bound then "worse"
    else "unchanged"
  in
  (v, wins, n, worse_by)

let pp_side l =
  match Measure.quartiles l with
  | [ q1; q2; q3 ] -> Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
  | _ -> "-"

let run ~spec ~a ~b =
  let metrics = spec_metrics spec in
  let runs_a = read_log a and runs_b = read_log b in
  let workloads = List.sort_uniq String.compare (List.map fst runs_a) in
  Printf.printf "%-20s %-14s %-34s %-34s %8s %7s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "gain" "B wins" "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
      let results runs = List.filter_map (fun (w', r) -> if String.equal w w' then Some r else None) runs in
      let ra = results runs_a and rb = results runs_b in
      let failed rs = List.fold_left (fun acc r -> acc +. Json.to_float_exn (Json.field "failed" r)) 0.0 rs in
      if failed rb > failed ra then begin
        worse := true;
        Printf.printf "%-20s %-14s %-34.0f %-34.0f %8s %7s  worse\n" w "failed_ops" (failed ra) (failed rb) "" ""
      end;
      List.iter
        (fun m ->
          let a = List.map (fun r -> value r m.name) ra and b = List.map (fun r -> value r m.name) rb in
          if List.length a >= 2 && List.length b >= 2 then begin
            let v, wins, n, worse_by = verdict m a b in
            if String.equal v "worse" then worse := true;
            Printf.printf "%-20s %-14s %-34s %-34s %+7.1f%% %3d/%-3d  %s\n" w m.name (pp_side a)
              (pp_side b) (-100.0 *. worse_by) wins n v
          end
          else Printf.printf "%-20s %-14s %-34s %-34s %8s %7s  unresolved\n" w m.name "-" "-" "" "")
        metrics)
    workloads;
  if !worse then 1 else 0
