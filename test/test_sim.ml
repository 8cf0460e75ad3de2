(* Tests for the simulation kernel: virtual time, RNG, statistics,
   event engine, traces. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* --- Time --- *)

let test_time_units () =
  checki "us" 1_000 (Sim.Time.to_ns (Sim.Time.us 1));
  checki "ms" 1_000_000 (Sim.Time.to_ns (Sim.Time.ms 1));
  checki "sec" 1_000_000_000 (Sim.Time.to_ns (Sim.Time.sec 1));
  checkf "to_sec" 1.5 (Sim.Time.to_sec_f (Sim.Time.ms 1_500));
  checkf "to_ms" 2.5 (Sim.Time.to_ms_f (Sim.Time.us 2_500))

let test_time_arith () =
  let a = Sim.Time.ms 300 and b = Sim.Time.ms 200 in
  checki "add" 500_000_000 (Sim.Time.to_ns (Sim.Time.add a b));
  checki "sub" 100_000_000 (Sim.Time.to_ns (Sim.Time.sub a b));
  checki "diff symm" 100_000_000 (Sim.Time.to_ns (Sim.Time.diff b a));
  checki "scale" 150_000_000 (Sim.Time.to_ns (Sim.Time.scale 0.5 a));
  checki "sum" 600_000_000
    (Sim.Time.to_ns (Sim.Time.sum [ a; b; Sim.Time.ms 100 ]));
  checkb "le" true Sim.Time.(b <= a);
  checkb "lt" true Sim.Time.(b < a)

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Sim.Time.ns (-1)));
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Time.sub: negative result") (fun () ->
      ignore (Sim.Time.sub (Sim.Time.ms 1) (Sim.Time.ms 2)));
  Alcotest.check_raises "negative float"
    (Invalid_argument "Time.of_sec_f: negative or non-finite") (fun () ->
      ignore (Sim.Time.of_sec_f (-0.1)))

(* 2^62 ns is about 4.6e9 s: anything at or past it used to wrap to a
   garbage (often zero) duration. *)
let test_time_of_sec_f_overflow () =
  List.iter
    (fun s ->
      checkb (Printf.sprintf "%g does not fit" s) false (Sim.Time.fits_sec_f s);
      Alcotest.check_raises (Printf.sprintf "%g raises" s)
        (Invalid_argument "Time.of_sec_f: above the int nanosecond range")
        (fun () -> ignore (Sim.Time.of_sec_f s)))
    [ 4.62e9; 1e10; 1e12; 1e300 ];
  List.iter
    (fun s -> checkb (Printf.sprintf "%g does not fit" s) false (Sim.Time.fits_sec_f s))
    [ Float.nan; Float.infinity; -1.0 ];
  checkb "4.6e9 fits" true (Sim.Time.fits_sec_f 4.6e9);
  checki "4.6e9 s converts exactly" 4_600_000_000_000_000_000
    (Sim.Time.to_ns (Sim.Time.of_sec_f 4.6e9));
  checki "1e-300 s rounds to 0" 0 (Sim.Time.to_ns (Sim.Time.of_sec_f 1e-300))

let test_time_pp () =
  check Alcotest.string "seconds" "1.700s"
    (Sim.Time.to_string (Sim.Time.ms 1_700));
  check Alcotest.string "millis" "4.96ms"
    (Sim.Time.to_string (Sim.Time.us 4_960));
  check Alcotest.string "micros" "133us"
    (Sim.Time.to_string (Sim.Time.us 133));
  check Alcotest.string "nanos" "42ns" (Sim.Time.to_string (Sim.Time.ns 42))

let prop_time_of_to_sec =
  QCheck.Test.make ~name:"of_sec_f/to_sec_f round within 1ns"
    QCheck.(float_bound_inclusive 1e6)
    (fun s ->
      let t = Sim.Time.of_sec_f s in
      Float.abs (Sim.Time.to_sec_f t -. s) < 1e-9 *. Float.max 1.0 s *. 2.0)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 42L in
  let child = Sim.Rng.split a in
  let x = Sim.Rng.int64 child in
  let y = Sim.Rng.int64 a in
  checkb "split streams differ" true (not (Int64.equal x y))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let prop_rng_jitter_bounds =
  QCheck.Test.make ~name:"Rng.jitter within [1-p,1+p]" QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.jitter rng 0.05 in
      v >= 0.95 && v <= 1.05000001)

let prop_rng_first_float =
  QCheck.Test.make ~name:"Rng.first_float = the first float draw"
    QCheck.(pair int64 (float_range 0.0 10.0))
    (fun (seed, bound) ->
      Sim.Rng.first_float seed bound = Sim.Rng.float (Sim.Rng.create seed) bound)

let test_rng_gaussian_moments () =
  let rng = Sim.Rng.create 7L in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Sim.Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  let mean = Sim.Stats.mean samples in
  let sd = Sim.Stats.stddev samples in
  checkb "mean near 5" true (Float.abs (mean -. 5.0) < 0.1);
  checkb "stddev near 2" true (Float.abs (sd -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 9L in
  let a = Array.init 100 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  checkb "permutation" true (Array.to_list sorted = List.init 100 (fun i -> i));
  checkb "actually shuffled" true (a <> Array.init 100 (fun i -> i))

(* --- Stats --- *)

let test_stats_summary () =
  let s = Sim.Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "mean" 3.0 s.Sim.Stats.mean;
  checkf "median" 3.0 s.Sim.Stats.median;
  checkf "min" 1.0 s.Sim.Stats.min;
  checkf "max" 5.0 s.Sim.Stats.max;
  checkf "q1" 2.0 s.Sim.Stats.q1;
  checkf "q3" 4.0 s.Sim.Stats.q3;
  checki "n" 5 s.Sim.Stats.n

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  checkf "p0" 10.0 (Sim.Stats.percentile xs 0.0);
  checkf "p100" 40.0 (Sim.Stats.percentile xs 100.0);
  checkf "p50 interp" 25.0 (Sim.Stats.percentile xs 50.0)

let test_stats_percentile_edges () =
  (* A single sample answers every percentile. *)
  checkf "single p0" 7.0 (Sim.Stats.percentile [ 7.0 ] 0.0);
  checkf "single p50" 7.0 (Sim.Stats.percentile [ 7.0 ] 50.0);
  checkf "single p100" 7.0 (Sim.Stats.percentile [ 7.0 ] 100.0);
  (* Duplicates: interpolation between equal neighbours is exact. *)
  let dups = [ 5.0; 5.0; 5.0; 9.0 ] in
  checkf "dup p25" 5.0 (Sim.Stats.percentile dups 25.0);
  checkf "dup p50" 5.0 (Sim.Stats.percentile dups 50.0);
  checkf "dup p100" 9.0 (Sim.Stats.percentile dups 100.0);
  (* Input order must not matter. *)
  checkf "unsorted" 25.0 (Sim.Stats.percentile [ 40.0; 10.0; 30.0; 20.0 ] 50.0);
  (* Interpolation at a non-grid rank: p75 of 4 samples is rank 2.25. *)
  checkf "fractional rank" 32.5
    (Sim.Stats.percentile [ 10.0; 20.0; 30.0; 40.0 ] 75.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Sim.Stats.percentile [ 1.0 ] 100.1));
  Alcotest.check_raises "negative p"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Sim.Stats.percentile [ 1.0 ] (-0.1)))

let test_stats_stddev () =
  checkf "constant" 0.0 (Sim.Stats.stddev [ 2.0; 2.0; 2.0 ]);
  checkf "sample sd" 1.0 (Sim.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_low_variance () =
  checkb "tight" true
    (Sim.Stats.low_variance (Sim.Stats.summarize [ 100.0; 100.5; 99.8 ]));
  checkb "loose" false
    (Sim.Stats.low_variance (Sim.Stats.summarize [ 100.0; 150.0; 60.0 ]))

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Sim.Stats.summarize []))

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Sim.Stats.summarize xs in
      s.Sim.Stats.min <= s.Sim.Stats.mean +. 1e-9
      && s.Sim.Stats.mean <= s.Sim.Stats.max +. 1e-9)

(* --- Engine --- *)

(* A handler that logs its payloads, newest first. *)
let logger e =
  let log = ref [] in
  (log, Sim.Engine.handler e (fun p -> log := p :: !log))

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log, h = logger e in
  Sim.Engine.schedule_event e (Sim.Time.ms 30) h 3;
  Sim.Engine.schedule_event e (Sim.Time.ms 10) h 1;
  Sim.Engine.schedule_event e (Sim.Time.ms 20) h 2;
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_tie_break () =
  let e = Sim.Engine.create () in
  let log, h = logger e in
  for i = 1 to 5 do
    Sim.Engine.schedule_event e (Sim.Time.ms 10) h i
  done;
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "fifo ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cascade () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec h = lazy (Sim.Engine.handler e tick)
  and tick _ =
    incr count;
    if !count < 10 then
      Sim.Engine.schedule_event e
        (Sim.Time.add (Sim.Engine.now e) (Sim.Time.ms 5))
        (Lazy.force h) 0
  in
  Sim.Engine.schedule_event e Sim.Time.zero (Lazy.force h) 0;
  Sim.Engine.run e;
  checki "cascaded" 10 !count;
  checki "clock" 45_000_000 (Sim.Time.to_ns (Sim.Engine.now e))

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let h = Sim.Engine.handler e (fun _ -> incr fired) in
  Sim.Engine.schedule_event e (Sim.Time.ms 10) h 0;
  Sim.Engine.schedule_event e (Sim.Time.ms 50) h 0;
  Sim.Engine.run_until e (Sim.Time.ms 20);
  checki "only first fired" 1 !fired;
  checki "clock at limit" 20_000_000 (Sim.Time.to_ns (Sim.Engine.now e));
  checki "one pending" 1 (Sim.Engine.pending e)

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  let noop = Sim.Engine.handler e ignore in
  let h =
    Sim.Engine.handler e (fun _ ->
        Alcotest.check_raises "past"
          (Invalid_argument "Engine.schedule_event: time in the past")
          (fun () -> Sim.Engine.schedule_event e (Sim.Time.ms 5) noop 0))
  in
  Sim.Engine.schedule_event e (Sim.Time.ms 10) h 0;
  Sim.Engine.run e

let test_engine_many_events () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 3L in
  let last = ref Sim.Time.zero in
  let monotone = ref true in
  let h =
    Sim.Engine.handler e (fun _ ->
        if Sim.Time.compare (Sim.Engine.now e) !last < 0 then monotone := false;
        last := Sim.Engine.now e)
  in
  for _ = 1 to 2000 do
    Sim.Engine.schedule_event e (Sim.Time.ms (Sim.Rng.int rng 10_000)) h 0
  done;
  Sim.Engine.run e;
  checkb "clock monotone over 2000 events" true !monotone

(* Two handlers share one queue and one key: at one nanosecond their
   events interleave in scheduling order. *)
let test_engine_handler_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let h = Sim.Engine.handler e (fun p -> log := p :: !log) in
  let g = Sim.Engine.handler e (fun p -> log := (10 * p) :: !log) in
  let at = Sim.Time.ns 7 in
  Sim.Engine.schedule_event e at h 1;
  Sim.Engine.schedule_event e at g 2;
  Sim.Engine.schedule_event e at h 3;
  Sim.Engine.schedule_event e (Sim.Time.ns 3) h 0;
  Sim.Engine.schedule_event e at g 4;
  Sim.Engine.schedule_event e at h 5;
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "scheduling order at one instant"
    [ 0; 1; 20; 3; 40; 5 ] (List.rev !log)

let test_engine_typed_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let h = Sim.Engine.handler e (fun n -> fired := !fired + n) in
  Sim.Engine.schedule_event e (Sim.Time.ms 10) h 1;
  Sim.Engine.schedule_event e (Sim.Time.ms 50) h 10;
  Sim.Engine.schedule_event e (Sim.Time.ms 60) h 0;
  checki "pending counts typed events" 3 (Sim.Engine.pending e);
  Sim.Engine.run_until e (Sim.Time.ms 20);
  checki "only the first fired" 1 !fired;
  checki "two pending" 2 (Sim.Engine.pending e);
  Sim.Engine.run_until e (Sim.Time.ms 50);
  checki "the second fired at the limit" 11 !fired;
  checki "clock at limit" 50_000_000 (Sim.Time.to_ns (Sim.Engine.now e));
  checki "one pending" 1 (Sim.Engine.pending e)

exception Boom of int

let test_engine_typed_raise () =
  let e = Sim.Engine.create () in
  let ran = ref [] in
  let h =
    Sim.Engine.handler e (fun p ->
        ran := p :: !ran;
        if p = 2 then raise (Boom p))
  in
  List.iter (fun p -> Sim.Engine.schedule_event e (Sim.Time.ms p) h p) [ 1; 2; 3 ];
  Alcotest.check_raises "the handler's exception" (Boom 2) (fun () ->
      Sim.Engine.run e);
  checki "clock at the raising event" 2_000_000 (Sim.Time.to_ns (Sim.Engine.now e));
  checki "later event still queued" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.int) "every event ran once" [ 1; 2; 3 ]
    (List.rev !ran)

(* The point of typed events: once the queue has grown, scheduling and
   running them allocates nothing. *)
let test_engine_typed_no_alloc () =
  let e = Sim.Engine.create () in
  let sum = ref 0 in
  let h = Sim.Engine.handler e (fun p -> sum := !sum + p) in
  let round () =
    let base = Sim.Time.to_ns (Sim.Engine.now e) in
    for i = 1 to 1000 do
      Sim.Engine.schedule_event e (Sim.Time.ns (base + ((i * 7919) mod 1000))) h i
    done;
    Sim.Engine.run e
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  checki "every event ran" (11 * 500_500) !sum;
  checkb (Printf.sprintf "10k typed events, %.0f minor words" words) true
    (words < 100.0)

(* --- Trace --- *)

let test_trace_basics () =
  let t = Sim.Trace.create ~name:"t" () in
  Sim.Trace.add t (Sim.Time.sec 1) 10.0;
  Sim.Trace.add t (Sim.Time.sec 2) 20.0;
  Sim.Trace.mark t (Sim.Time.sec 1) "start";
  checki "samples" 2 (List.length (Sim.Trace.samples t));
  checki "markers" 1 (List.length (Sim.Trace.markers t));
  checkf "mean window" 15.0
    (Sim.Trace.mean_between t Sim.Time.zero (Sim.Time.sec 3))

let test_trace_backwards_rejected () =
  let t = Sim.Trace.create ~name:"t" () in
  Sim.Trace.add t (Sim.Time.sec 2) 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trace.add: time going backwards") (fun () ->
      Sim.Trace.add t (Sim.Time.sec 1) 1.0)

let test_trace_pp_interleaving () =
  (* When a marker and a sample share a timestamp the marker renders
     first (it names the event that explains the reading), and markers
     sharing a timestamp keep insertion order. *)
  let t = Sim.Trace.create ~name:"t" () in
  Sim.Trace.add t (Sim.Time.sec 1) 10.0;
  Sim.Trace.mark t (Sim.Time.sec 1) "first";
  Sim.Trace.mark t (Sim.Time.sec 1) "second";
  Sim.Trace.add t (Sim.Time.sec 2) 20.0;
  let out = Format.asprintf "%a" Sim.Trace.pp t in
  let pos needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i =
      if i + nl > hl then Alcotest.failf "missing %S in %S" needle out
      else if String.sub out i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  checkb "marker before same-time sample" true (pos "first" < pos "10");
  checkb "markers keep insertion order" true (pos "first" < pos "second");
  checkb "later sample last" true (pos "second" < pos "20")

let test_trace_bucketize () =
  let t = Sim.Trace.create ~name:"t" () in
  List.iter
    (fun (s, v) -> Sim.Trace.add t (Sim.Time.sec s) v)
    [ (0, 10.0); (1, 20.0); (4, 40.0) ];
  let buckets = Sim.Trace.bucketize t ~width:(Sim.Time.sec 2) in
  checki "bucket count" 3 (List.length buckets);
  (match buckets with
  | [ (_, b0); (_, b1); (_, b2) ] ->
    checkf "avg bucket0" 15.0 b0;
    checkf "empty bucket is 0" 0.0 b1;
    checkf "bucket2" 40.0 b2
  | _ -> Alcotest.fail "unexpected buckets")

let test_trace_between () =
  let t = Sim.Trace.create ~name:"t" () in
  List.iter
    (fun s -> Sim.Trace.add t (Sim.Time.sec s) (float_of_int s))
    [ 0; 1; 2; 3; 4 ];
  checki "window half-open" 2
    (List.length (Sim.Trace.between t (Sim.Time.sec 1) (Sim.Time.sec 3)))

let suites =
  [
    ( "sim.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
        Alcotest.test_case "of_sec_f overflow" `Quick test_time_of_sec_f_overflow;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
        qtest prop_time_of_to_sec;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        qtest prop_rng_int_bounds;
        qtest prop_rng_float_bounds;
        qtest prop_rng_jitter_bounds;
        qtest prop_rng_first_float;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile edge cases" `Quick
          test_stats_percentile_edges;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "low variance criterion" `Quick test_stats_low_variance;
        Alcotest.test_case "empty rejected" `Quick test_stats_empty;
        qtest prop_stats_mean_bounds;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_ordering;
        Alcotest.test_case "tie break is FIFO" `Quick test_engine_tie_break;
        Alcotest.test_case "cascading events" `Quick test_engine_cascade;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "past scheduling rejected" `Quick test_engine_past_rejected;
        Alcotest.test_case "2000 random events stay monotone" `Quick
          test_engine_many_events;
        Alcotest.test_case "two handlers tie FIFO" `Quick
          test_engine_handler_ties;
        Alcotest.test_case "typed run_until and pending" `Quick
          test_engine_typed_run_until;
        Alcotest.test_case "typed handler raises" `Quick test_engine_typed_raise;
        Alcotest.test_case "typed events allocate nothing" `Quick
          test_engine_typed_no_alloc;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "basics" `Quick test_trace_basics;
        Alcotest.test_case "backwards rejected" `Quick test_trace_backwards_rejected;
        Alcotest.test_case "bucketize" `Quick test_trace_bucketize;
        Alcotest.test_case "between window" `Quick test_trace_between;
        Alcotest.test_case "pp interleaving tie-break" `Quick
          test_trace_pp_interleaving;
      ] );
  ]
