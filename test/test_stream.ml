(* Tests for the CVE-stream campaign service: generator determinism,
   policy dominance, contention/preemption safety and journal
   crash-resume. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf msg = Alcotest.check (Alcotest.float 0.001) msg
let qtest = QCheck_alcotest.to_alcotest

let stream_to_string events =
  String.concat "\n" (List.map Stream.Gen.event_to_string events)

(* --- Gen --- *)

let test_gen_deterministic () =
  let a = Stream.Gen.generate Stream.Gen.default in
  let b = Stream.Gen.generate Stream.Gen.default in
  checks "same seed, same stream" (stream_to_string a) (stream_to_string b);
  let c =
    Stream.Gen.generate { Stream.Gen.default with Stream.Gen.seed = 7L }
  in
  checkb "different seed, different stream" false
    (String.equal (stream_to_string a) (stream_to_string c))

let test_gen_shape () =
  let events = Stream.Gen.generate Stream.Gen.default in
  let n = List.length events in
  (* 5 years at 14/year: the Poisson total should land near 70. *)
  checkb "plausible arrival count" true (n > 35 && n < 120);
  let horizon = Stream.Gen.default.Stream.Gen.years *. 365.0 in
  List.iteri
    (fun i ev ->
      checki "seq is position" i ev.Stream.Gen.seq;
      checkb "day within horizon" true
        (ev.Stream.Gen.day > 0.0 && ev.Stream.Gen.day <= horizon);
      checkb "patch delay positive" true
        (ev.Stream.Gen.cve.Cve.Nvd.patch_delay_days > 0.0))
    events;
  let days = List.map (fun e -> e.Stream.Gen.day) events in
  checkb "chronological" true (List.sort Float.compare days = days)

(* The attribution wheels must agree with the dataset's classifier:
   whatever class scheduled the arrival is the class the record
   classifies back into. *)
let prop_gen_taxonomy_consistent =
  QCheck.Test.make ~count:20 ~name:"generated records classify into their class"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let events =
        Stream.Gen.generate { Stream.Gen.default with Stream.Gen.seed }
      in
      List.for_all
        (fun ev ->
          Cve.Nvd.classify ev.Stream.Gen.cve.Cve.Nvd.body
          = ev.Stream.Gen.cve.Cve.Nvd.tax)
        events)

let test_gen_burst () =
  let plain = Stream.Gen.generate Stream.Gen.default in
  let fault =
    Fault.make [ { Fault.site = Fault.Cve_burst; trigger = Fault.Nth_hit 5 } ]
  in
  let burst = Stream.Gen.generate ~fault Stream.Gen.default in
  checki "burst site consulted per arrival" (List.length burst)
    (Fault.hits fault Fault.Cve_burst);
  (* Compressing gaps only pulls events earlier: same or more arrivals
     fit the horizon, and the 10th event lands strictly earlier. *)
  checkb "at least as many arrivals" true
    (List.length burst >= List.length plain);
  let day n evs = (List.nth evs n).Stream.Gen.day in
  checkb "events pulled earlier" true (day 9 burst < day 9 plain)

let test_gen_validation () =
  let expect_error cfg =
    match Stream.Gen.generate cfg with
    | exception Hypertp_error.Error _ -> ()
    | _ -> Alcotest.fail "expected a config error"
  in
  expect_error { Stream.Gen.default with Stream.Gen.years = 0.0 };
  expect_error { Stream.Gen.default with Stream.Gen.rate_per_year = -1.0 };
  expect_error { Stream.Gen.default with Stream.Gen.critical_fraction = 1.5 };
  (* NaN fails every float check. *)
  expect_error { Stream.Gen.default with Stream.Gen.years = Float.nan };
  expect_error { Stream.Gen.default with Stream.Gen.rate_per_year = Float.nan };
  expect_error
    { Stream.Gen.default with Stream.Gen.critical_fraction = Float.nan };
  expect_error
    { Stream.Gen.default with Stream.Gen.coordinated_fraction = Float.nan };
  expect_error
    {
      Stream.Gen.default with
      Stream.Gen.class_mix = [ (Cve.Nvd.Cross_domain, Float.nan) ];
    };
  expect_error { Stream.Gen.default with Stream.Gen.class_mix = [] };
  expect_error
    {
      Stream.Gen.default with
      Stream.Gen.class_mix = [ (Cve.Nvd.Cross_domain, 0.0) ];
    }

(* --- Service: determinism --- *)

(* Small but busy: months-long campaigns (tempo) against a dense
   stream, so queueing and policy differences are exercised. *)
let small_config =
  {
    Stream.Service.default_config with
    Stream.Service.mix =
      { Stream.Service.xen_hosts = 6; kvm_hosts = 4; bhyve_hosts = 0 };
    vms_per_host = 2;
    years = 2.0;
    rate_per_year = 24.0;
    concurrency = 2;
    tempo = 16000.0;
    seed = 0xD15EA5EL;
  }

let run_clean ?fault cfg = Stream.Service.run_to_completion ?fault cfg

let test_service_deterministic_pin () =
  let r1, j1 = run_clean small_config in
  let r2, j2 = run_clean small_config in
  checks "byte-identical journals"
    (Stream.Service.journal_to_string j1)
    (Stream.Service.journal_to_string j2);
  checks "byte-identical reports"
    (Stream.Service.report_to_string r1)
    (Stream.Service.report_to_string r2);
  checkb "stream was served" true (r1.Stream.Service.cves_total > 10);
  checkb "campaigns ran" true (r1.Stream.Service.campaigns > 0)

let prop_service_deterministic =
  QCheck.Test.make ~count:8 ~name:"same seed, byte-identical journal and report"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let cfg = { small_config with Stream.Service.seed } in
      let r1, j1 = run_clean cfg in
      let r2, j2 = run_clean cfg in
      String.equal
        (Stream.Service.journal_to_string j1)
        (Stream.Service.journal_to_string j2)
      && String.equal
           (Stream.Service.report_to_string r1)
           (Stream.Service.report_to_string r2))

(* --- Service: policy dominance --- *)

let exposed policy cfg =
  let r, _ = run_clean { cfg with Stream.Service.policy } in
  r.Stream.Service.exposed_host_hours

(* Cost-aware decisions are the exact per-episode minimum of the two
   baselines' realized exposures (same cohorts, same campaign seeds,
   monotone queueing), so the total can never exceed either. *)
let prop_policy_dominance =
  QCheck.Test.make ~count:8
    ~name:"cost-aware never exceeds transplant-all or defer-all"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let cfg = { small_config with Stream.Service.seed } in
      let c = exposed Stream.Policy.Cost_aware cfg in
      let t = exposed Stream.Policy.Transplant_all cfg in
      let d = exposed Stream.Policy.Defer_all cfg in
      let leq a b = a <= (b *. (1.0 +. 1e-9)) +. 1e-6 in
      leq c t && leq c d)

(* Under contention the bound goes strict: transplant-all wastes
   population time on campaigns the patch beats, delaying later
   critical coverage. *)
let test_policy_dominance_strict () =
  let cfg =
    {
      Stream.Service.default_config with
      Stream.Service.mix =
        { Stream.Service.xen_hosts = 20; kvm_hosts = 16; bhyve_hosts = 0 };
      rate_per_year = 30.0;
      concurrency = 2;
      tempo = 16000.0;
      seed = 0x5EEDL;
    }
  in
  let c = exposed Stream.Policy.Cost_aware cfg in
  let t = exposed Stream.Policy.Transplant_all cfg in
  let d = exposed Stream.Policy.Defer_all cfg in
  checkb "cost-aware strictly beats transplant-all" true (c < t);
  checkb "cost-aware strictly beats defer-all" true (c < d)

let test_uncovered_critical () =
  let r_cost, _ =
    run_clean { small_config with Stream.Service.policy = Stream.Policy.Cost_aware }
  in
  let r_defer, _ =
    run_clean { small_config with Stream.Service.policy = Stream.Policy.Defer_all }
  in
  checki "cost-aware leaves no window uncovered" 0
    r_cost.Stream.Service.uncovered_critical;
  checkb "defer-all is flagged" true
    (r_defer.Stream.Service.uncovered_critical > 0)

(* --- Service: contention, preemption, bookings --- *)

let overlap_free bookings =
  List.for_all
    (fun (_pop, intervals) ->
      let sorted =
        List.sort
          (fun (_, s1, _) (_, s2, _) -> Float.compare s1 s2)
          intervals
      in
      let rec ok = function
        | (_, _, e1) :: ((_, s2, _) :: _ as tl) ->
          e1 <= s2 +. 1e-6 && ok tl
        | _ -> true
      in
      ok sorted)
    bookings

let preempt_config =
  {
    small_config with
    Stream.Service.mix =
      { Stream.Service.xen_hosts = 8; kvm_hosts = 4; bhyve_hosts = 0 };
    rate_per_year = 40.0;
    tempo = 30000.0;
    track_bookings = true;
  }

let test_preemption_forced () =
  let r, _ = run_clean { preempt_config with Stream.Service.preempt = true } in
  checkb "contention triggered preemptions" true
    (r.Stream.Service.preemptions > 0);
  checkb "preempted hosts were released" true
    (r.Stream.Service.released_hosts > 0);
  checkb "bookings never overlap" true (overlap_free r.Stream.Service.bookings)

let test_preemption_fault_site () =
  let fault =
    Fault.make
      [ { Fault.site = Fault.Campaign_preempt; trigger = Fault.Nth_hit 1 } ]
  in
  let r, _ = run_clean ~fault preempt_config in
  checki "the armed site preempted exactly once" 1
    r.Stream.Service.preemptions;
  checkb "bookings never overlap" true (overlap_free r.Stream.Service.bookings)

(* Any preemption schedule — forced on every critical or fired
   probabilistically by the fault site — leaves zero double-booked
   hosts, and every journal prefix resumes to the same final state. *)
let prop_preemption_safe =
  QCheck.Test.make ~count:6
    ~name:"preemption never double-books and journals stay resumable"
    QCheck.(pair (map Int64.of_int small_int) bool)
    (fun (seed, forced) ->
      let cfg =
        { preempt_config with Stream.Service.seed; preempt = forced }
      in
      let fault =
        if forced then None
        else
          Some
            (Fault.make ~seed
               [ { Fault.site = Fault.Campaign_preempt;
                   trigger = Fault.Probability 0.5 } ])
      in
      let r, j = run_clean ?fault cfg in
      let text = Stream.Service.journal_to_string j in
      (* Truncate the journal to a prefix and resume: the service must
         replay the prefix and land on the same report. *)
      let lines = String.split_on_char '\n' text in
      let keep = 2 + (Stream.Service.journal_length j / 2) in
      let prefix =
        String.concat "\n"
          (List.filteri (fun i _ -> i < keep) lines @ [ "" ])
      in
      match Stream.Service.journal_of_string prefix with
      | Error e -> QCheck.Test.fail_report e
      | Ok truncated -> (
        match
          Stream.Service.resume
            ?fault:(Option.map Fault.restart fault)
            truncated
        with
        | Stream.Service.Crashed _ ->
          QCheck.Test.fail_report "resume crashed without a crash site"
        | Stream.Service.Finished (r2, j2) ->
          overlap_free r.Stream.Service.bookings
          && String.equal
               (Stream.Service.report_to_string r)
               (Stream.Service.report_to_string r2)
          && String.equal text (Stream.Service.journal_to_string j2)))

(* --- Service: crash and resume --- *)

let test_crash_resume () =
  let fault =
    Fault.make
      [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 10 } ]
  in
  (match Stream.Service.run ~fault small_config with
  | Stream.Service.Finished _ -> Alcotest.fail "expected a crash"
  | Stream.Service.Crashed j ->
    checki "journal holds the pre-crash entries" 10
      (Stream.Service.journal_length j);
    (* The full loop reaches the same end state as a fault-free run
       (journals carry fault cursors, so byte-identity is against a
       second crash-and-resume loop under a fresh copy of the plan). *)
    let r_clean, _ = run_clean small_config in
    let r, j' =
      Stream.Service.run_to_completion ~fault:(Fault.restart fault)
        small_config
    in
    checks "report survives the crash"
      (Stream.Service.report_to_string r_clean)
      (Stream.Service.report_to_string r);
    let _, j'' =
      Stream.Service.run_to_completion ~fault:(Fault.restart fault)
        small_config
    in
    checks "journal survives the crash"
      (Stream.Service.journal_to_string j'')
      (Stream.Service.journal_to_string j'))

let test_journal_roundtrip () =
  let _, j = run_clean small_config in
  let text = Stream.Service.journal_to_string j in
  match Stream.Service.journal_of_string text with
  | Error e -> Alcotest.fail e
  | Ok j2 ->
    checks "text round-trips" text (Stream.Service.journal_to_string j2);
    checki "length preserved"
      (Stream.Service.journal_length j)
      (Stream.Service.journal_length j2);
    (* Resuming a complete journal replays it and finishes identically. *)
    (match Stream.Service.resume j2 with
    | Stream.Service.Crashed _ -> Alcotest.fail "resume crashed"
    | Stream.Service.Finished (_, j3) ->
      checks "complete-journal resume is identity" text
        (Stream.Service.journal_to_string j3))

(* Every float field of the config line must survive the text journal
   exactly, or a resumed run replays under a different config. *)
let prop_config_line_roundtrip =
  let gen =
    QCheck.Gen.(
      let pos =
        map (fun x -> 1e-12 +. x)
          (oneof [ float_bound_inclusive 1e-6; float_bound_inclusive 1e6 ])
      in
      let frac = float_bound_inclusive 1.0 in
      let pop = oneofl [ 0; 2; 3; 17; 1000 ] in
      let* years = pos and* rate_per_year = pos and* tempo = pos in
      let* batch_days = pos and* critical_fraction = frac in
      let* coordinated_fraction = frac and* inplace_fraction = frac in
      let* xen_hosts = pop and* kvm_hosts = pop and* bhyve_hosts = pop in
      let* vms_per_host = int_range 1 64 and* concurrency = int_range 1 64 in
      let* policy = oneofl Stream.Policy.all_kinds in
      let* preempt = bool and* track_bookings = bool in
      let* seed = map Int64.of_int int in
      return
        {
          Stream.Service.years;
          mix = { Stream.Service.xen_hosts; kvm_hosts; bhyve_hosts };
          vms_per_host;
          rate_per_year;
          critical_fraction;
          coordinated_fraction;
          policy;
          tempo;
          concurrency;
          inplace_fraction;
          batch_days;
          preempt;
          seed;
          track_bookings;
        })
  in
  QCheck.Test.make ~count:200 ~name:"config line round-trips exactly"
    (QCheck.make ~print:Stream.Service.config_to_line gen) (fun c ->
      Stream.Service.config_of_line (Stream.Service.config_to_line c) = Ok c)

(* A crash journal written as text and read back must resume to the
   uninterrupted report, also for a horizon that six decimals round. *)
let test_text_resume_non_round_config () =
  let cfg = { small_config with Stream.Service.years = 0.5000004 } in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 10 } ]
  in
  match Stream.Service.run ~fault cfg with
  | Stream.Service.Finished _ -> Alcotest.fail "expected a crash"
  | Stream.Service.Crashed j -> (
    let text = Stream.Service.journal_to_string j in
    match Stream.Service.journal_of_string text with
    | Error e -> Alcotest.fail e
    | Ok j' -> (
      match Stream.Service.resume ~fault j' with
      | Stream.Service.Crashed _ -> Alcotest.fail "resume crashed again"
      | Stream.Service.Finished (r, _) ->
        let r_clean, _ = run_clean cfg in
        checks "text resume equals the uninterrupted run"
          (Stream.Service.report_to_string r_clean)
          (Stream.Service.report_to_string r)))

let test_resume_rejects_mismatch () =
  let _, j = run_clean small_config in
  let text = Stream.Service.journal_to_string j in
  (* Tamper with the config line's seed: the replay must disagree. *)
  let tampered =
    match String.split_on_char '\n' text with
    | magic :: cfg :: rest ->
      let cfg' =
        String.concat " "
          (List.map
             (fun kv ->
               if String.length kv >= 5 && String.equal (String.sub kv 0 5) "seed="
               then "seed=1"
               else kv)
             (String.split_on_char ' ' cfg))
      in
      String.concat "\n" (magic :: cfg' :: rest)
    | _ -> Alcotest.fail "journal missing header"
  in
  match Stream.Service.journal_of_string tampered with
  | Error _ -> Alcotest.fail "tampered journal should still parse"
  | Ok j' -> (
    match Stream.Service.resume j' with
    | exception Hypertp_error.Error _ -> ()
    | _ -> Alcotest.fail "expected a journal-mismatch error")

let test_service_validation () =
  let expect_error cfg =
    match Stream.Service.run cfg with
    | exception Hypertp_error.Error _ -> ()
    | _ -> Alcotest.fail "expected a config error"
  in
  expect_error
    {
      small_config with
      Stream.Service.mix =
        { Stream.Service.xen_hosts = 1; kvm_hosts = 4; bhyve_hosts = 0 };
    };
  expect_error { small_config with Stream.Service.tempo = 0.0 };
  expect_error { small_config with Stream.Service.batch_days = -1.0 };
  expect_error { small_config with Stream.Service.concurrency = 0 };
  (* NaN fails every float check (it used to pass them and hang). *)
  let nan = Float.nan in
  List.iter expect_error
    [ { small_config with Stream.Service.years = nan };
      { small_config with Stream.Service.rate_per_year = nan };
      { small_config with Stream.Service.tempo = nan };
      { small_config with Stream.Service.batch_days = nan };
      { small_config with Stream.Service.inplace_fraction = nan };
      { small_config with Stream.Service.critical_fraction = nan };
      { small_config with Stream.Service.coordinated_fraction = nan } ]

(* Inputs that are valid numbers but imply unbounded work: the
   validators alone must refuse them (nothing here runs such a
   config). *)
let test_work_bounds () =
  let reason validate cfg =
    match validate cfg with
    | exception Hypertp_error.Error e -> e.Hypertp_error.reason
    | () -> "accepted"
  in
  let rejects what validate cfg =
    checkb what true (reason validate cfg <> "accepted")
  in
  let g = Stream.Gen.default and s = small_config in
  let gen = Stream.Gen.validate and svc = Stream.Service.validate in
  rejects "gen: rate 1e300" gen { g with Stream.Gen.rate_per_year = 1e300 };
  rejects "gen: years 1e300" gen { g with Stream.Gen.years = 1e300 };
  rejects "gen: years inf" gen { g with Stream.Gen.years = Float.infinity };
  rejects "service: rate 1e300" svc { s with Stream.Service.rate_per_year = 1e300 };
  rejects "service: years 1e300" svc { s with Stream.Service.years = 1e300 };
  rejects "service: batch 1e-300" svc { s with Stream.Service.batch_days = 1e-300 };
  rejects "service: batch 1e-14 (1 ns ticks)" svc
    { s with Stream.Service.batch_days = 1e-14 };
  (* The bounds are tight: the expected arrivals may reach the cap. *)
  let at_cap = float_of_int Stream.Gen.max_arrivals /. g.Stream.Gen.years in
  checks "gen: at the arrival cap" "accepted"
    (reason gen { g with Stream.Gen.rate_per_year = at_cap });
  rejects "gen: past the arrival cap" gen
    { g with Stream.Gen.rate_per_year = at_cap *. 1.001 };
  checks "service: defaults" "accepted" (reason svc Stream.Service.default_config);
  checks "service: at the tick cap" "accepted"
    (reason svc
       { s with
         Stream.Service.batch_days =
           s.Stream.Service.years *. 365.0 /. float_of_int Stream.Service.max_ticks })

(* A population past the fleet bound fails on the bound, not on the
   sign check an overflowed count would trip. *)
let test_service_population_bound () =
  let reason mix =
    match Stream.Service.run { small_config with Stream.Service.mix } with
    | exception Hypertp_error.Error e -> e.Hypertp_error.reason
    | _ -> Alcotest.fail "expected a config error"
  in
  let huge = max_int and ok = 4 in
  List.iter
    (fun mix ->
      checks "bound message"
        (Printf.sprintf "population sizes must be at most %d (the fleet bound)"
           Cluster.Topology.max_hosts)
        (reason mix))
    [ { Stream.Service.xen_hosts = huge; kvm_hosts = ok; bhyve_hosts = 0 };
      { Stream.Service.xen_hosts = ok; kvm_hosts = huge; bhyve_hosts = 0 };
      { Stream.Service.xen_hosts = ok; kvm_hosts = ok; bhyve_hosts = huge } ]

let test_metrics_dashboard () =
  let metrics = Obs.Metrics.create () in
  let r, _ = Stream.Service.run_to_completion ~metrics small_config in
  let find name =
    List.find_opt
      (fun i -> String.equal (Obs.Metrics.name i) name)
      (Obs.Metrics.instruments metrics)
  in
  (match find "stream_campaigns_total" with
  | None -> Alcotest.fail "campaign counter missing"
  | Some c ->
    checkf "campaign counter agrees with the report"
      (float_of_int r.Stream.Service.campaigns)
      (Obs.Metrics.value c));
  match find "stream_exposed_host_hours" with
  | None -> Alcotest.fail "exposure gauge missing"
  | Some g ->
    checkf "exposure gauge agrees with the report"
      r.Stream.Service.exposed_host_hours (Obs.Metrics.value g)

let suites =
  [
    ( "stream.gen",
      [
        Alcotest.test_case "seeded determinism" `Quick test_gen_deterministic;
        Alcotest.test_case "stream shape" `Quick test_gen_shape;
        Alcotest.test_case "burst fault compresses arrivals" `Quick
          test_gen_burst;
        Alcotest.test_case "config validation" `Quick test_gen_validation;
        qtest prop_gen_taxonomy_consistent;
      ] );
    ( "stream.service",
      [
        Alcotest.test_case "twice-run byte identity" `Quick
          test_service_deterministic_pin;
        Alcotest.test_case "strict dominance under contention" `Quick
          test_policy_dominance_strict;
        Alcotest.test_case "uncovered-critical audit" `Quick
          test_uncovered_critical;
        Alcotest.test_case "forced preemption" `Quick test_preemption_forced;
        Alcotest.test_case "campaign_preempt fault site" `Quick
          test_preemption_fault_site;
        Alcotest.test_case "crash and resume" `Quick test_crash_resume;
        Alcotest.test_case "journal text round-trip" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "resume rejects a tampered journal" `Quick
          test_resume_rejects_mismatch;
        Alcotest.test_case "text resume of a non-round config" `Quick
          test_text_resume_non_round_config;
        Alcotest.test_case "config validation" `Quick test_service_validation;
        Alcotest.test_case "population bound" `Quick test_service_population_bound;
        Alcotest.test_case "work bounds" `Quick test_work_bounds;
        Alcotest.test_case "metrics dashboard" `Quick test_metrics_dashboard;
        qtest prop_service_deterministic;
        qtest prop_policy_dominance;
        qtest prop_preemption_safe;
        qtest prop_config_line_roundtrip;
      ] );
  ]
