(* Tests for the supervised campaign controller: admission model,
   degradation ladder, circuit breaker, straggler deadlines, and the
   checkpoint/resume journal (crash-then-resume determinism). *)

module C = Cluster.Campaign

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let close ?(eps = 1e-6) msg expected actual =
  checkb
    (Printf.sprintf "%s (expected %.6f, got %.6f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let finished = function
  | C.Finished (r, j) -> (r, j)
  | C.Crashed _ -> Alcotest.fail "campaign crashed without a fault plan"

(* --- Admission-concurrency model --- *)

(* With jitter off and no faults, the campaign is exactly a greedy list
   schedule of the per-host expected times over [effective_concurrency]
   lanes, plus the rebalance tail.  This pins the breaker-free
   wall-clock to the admission model. *)
let list_schedule_makespan lanes durations =
  let free = Array.make lanes Sim.Time.zero in
  List.iter
    (fun d ->
      let best = ref 0 in
      Array.iteri
        (fun i t -> if Sim.Time.compare t free.(!best) < 0 then best := i)
        free;
      free.(!best) <- Sim.Time.add free.(!best) d)
    durations;
  Array.fold_left
    (fun a b -> if Sim.Time.compare a b >= 0 then a else b)
    Sim.Time.zero free

let test_wall_clock_matches_admission_model () =
  List.iter
    (fun concurrency ->
      let cfg = { C.default_config with C.concurrency; jitter_pct = 0.0 } in
      let r, _ = finished (C.run cfg) in
      checki "no breaker trips" 0 r.C.breaker_trips;
      checkb "no deferred hosts" true (r.C.deferred = []);
      let expected =
        Sim.Time.add
          (list_schedule_makespan r.C.effective_concurrency
             (List.map (fun h -> h.C.hr_expected) r.C.hosts))
          r.C.rebalance_time
      in
      checkb
        (Printf.sprintf "wall clock = %d-lane list schedule" concurrency)
        true
        (Sim.Time.compare r.C.wall_clock expected = 0))
    [ 1; 3; 4 ]

let test_clean_run_pinned () =
  let r, j = finished (C.run C.default_config) in
  (* 10 hosts x 10 VMs, fully in-place, concurrency 4: ceil(10/4) = 3
     admission waves of ~19.2 s each. *)
  close ~eps:0.05 "wall clock (pinned)" 57.652
    (Sim.Time.to_sec_f r.C.wall_clock);
  checki "journal: admit + complete per host, plus finish" 21
    (C.journal_length j);
  checki "all VMs ride in place" 100 r.C.vms_inplace_ok;
  checki "accounting closes" r.C.vms_total (C.vms_accounted r);
  checkb "every host upgraded in place" true
    (List.for_all (fun h -> h.C.hr_status = C.Upgraded_inplace) r.C.hosts);
  (* Baseline = all hosts exposed for the whole campaign; the rolling
     schedule retires exposure as each wave lands, so the integral sits
     strictly inside (0, baseline). *)
  checkb "supervised exposure strictly inside (0, baseline)" true
    (r.C.exposed_host_hours > 0.0
    && r.C.exposed_host_hours < r.C.baseline_exposed_host_hours)

let test_config_validation () =
  let bad msg cfg =
    checkb msg true
      (try
         ignore (C.run cfg);
         false
       with Hypertp.Error.Error e -> e.Hypertp.Error.site = "Campaign")
  in
  bad "zero concurrency" { C.default_config with C.concurrency = 0 };
  bad "straggler factor below floor"
    { C.default_config with C.straggler_factor = 1.0 };
  bad "jitter above cap" { C.default_config with C.jitter_pct = 0.5 };
  bad "threshold above 1" { C.default_config with C.breaker_threshold = 1.5 };
  (* NaN fails every comparison, so each float field must reject it
     rather than slip past a [x < lo || x > hi] check. *)
  let d = C.default_config in
  bad "NaN inplace_fraction" { d with C.inplace_fraction = Float.nan };
  bad "NaN straggler_factor" { d with C.straggler_factor = Float.nan };
  bad "infinite straggler_factor" { d with C.straggler_factor = Float.infinity };
  bad "NaN breaker_threshold" { d with C.breaker_threshold = Float.nan };
  bad "NaN jitter_pct" { d with C.jitter_pct = Float.nan };
  bad "NaN drain_flakiness" { d with C.drain_flakiness = Float.nan };
  bad "NaN retry_flakiness" { d with C.retry_flakiness = Float.nan };
  (* Counts are bounded before anything is sized by them. *)
  bad "max_int nodes" { d with C.nodes = max_int };
  bad "max_int vms_per_node" { d with C.vms_per_node = max_int };
  bad "product past the VM total"
    { d with
      C.nodes = Cluster.Topology.max_hosts;
      vms_per_node = Cluster.Topology.max_vms_per_host }

(* --- Degradation ladder --- *)

let one_shot site = Fault.make ~seed:11L [ { Fault.site; trigger = Fault.Nth_hit 1 } ]

let count_events pred hosts =
  List.fold_left
    (fun acc h ->
      acc + List.length (List.filter (fun (_, e) -> pred e) h.C.hr_timeline))
    0 hosts

let sturdy = { C.default_config with C.drain_flakiness = 0.0 }

let test_crash_falls_back_to_drain () =
  let r = C.run_to_completion ~fault:(one_shot Fault.Host_crash) sturdy in
  let failed = List.filter (fun h -> h.C.hr_manifestations <> []) r.C.hosts in
  (match failed with
  | [ h ] ->
    checkb "manifested as a crash" true (h.C.hr_manifestations = [ C.Crash ]);
    checkb "fell back to a drain" true (h.C.hr_status = C.Drained);
    checki "two attempts (inplace, drain)" 2 h.C.hr_attempts
  | _ -> Alcotest.fail "exactly one host should fail");
  checki "accounting closes" r.C.vms_total (C.vms_accounted r);
  checkb "nothing deferred" true (r.C.deferred = [])

let test_straggler_timeout_escalates () =
  let r = C.run_to_completion ~fault:(one_shot Fault.Host_timeout) sturdy in
  checki "one straggler cancellation" 1
    (count_events (fun e -> e = C.Straggler_cancelled) r.C.hosts);
  let h =
    List.find (fun h -> h.C.hr_manifestations <> []) r.C.hosts
  in
  checkb "manifested as a timeout" true (h.C.hr_manifestations = [ C.Timeout ]);
  checkb "timeout host drained" true (h.C.hr_status = C.Drained);
  checkb "cancellation recorded on the straggler itself" true
    (List.exists (fun (_, e) -> e = C.Straggler_cancelled) h.C.hr_timeline)

let test_flap_not_double_counted () =
  let r = C.run_to_completion ~fault:(one_shot Fault.Host_flap) sturdy in
  (* A flap is fail/recover/fail inside ONE attempt: one Flap_failure
     leg plus one terminal Attempt_failed, but only one manifestation
     and one breaker-window entry. *)
  checki "one flap leg" 1 (count_events (fun e -> e = C.Flap_failure) r.C.hosts);
  checki "one terminal failure" 1
    (count_events
       (function C.Attempt_failed _ -> true | _ -> false)
       r.C.hosts);
  let h = List.find (fun h -> h.C.hr_manifestations <> []) r.C.hosts in
  checkb "counted once" true (h.C.hr_manifestations = [ C.Flap ]);
  checki "one inplace attempt then the drain" 2 h.C.hr_attempts

let test_deferred_exposure_iff_ladder_exhausted () =
  (* Every rung fails: inplace crashes, the drain is flaky, the
     end-of-campaign retry is flaky too.  Every deferred host must
     accrue exposure; no deferral means none does. *)
  let doomed =
    {
      C.default_config with
      C.drain_flakiness = 1.0;
      retry_flakiness = 1.0;
      breaker_cooldown = Sim.Time.of_sec_f 5.0;
    }
  in
  let fault =
    Fault.make ~seed:3L
      [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 1.0 } ]
  in
  let r = C.run_to_completion ~fault doomed in
  checki "all hosts deferred" doomed.C.nodes (List.length r.C.deferred);
  checkb "deferred set accrues exposure" true (r.C.deferred_exposure_hours > 0.0);
  checkb "each deferred host exposed for the whole campaign" true
    (List.for_all
       (fun h ->
         h.C.hr_status = C.Deferred_exposed
         && h.C.hr_exposure_hours > 0.0
         && Sim.Time.compare h.C.hr_done_at r.C.wall_clock = 0)
       r.C.hosts);
  checki "no VM upgraded" 0 r.C.vms_inplace_ok;
  checki "every VM parked on a deferred host" r.C.vms_total
    (r.C.vms_on_deferred + r.C.vms_migrated_planned);
  checki "accounting still closes" r.C.vms_total (C.vms_accounted r);
  (* And the converse: a clean campaign defers nothing and its deferred
     exposure is exactly zero. *)
  let clean, _ = finished (C.run C.default_config) in
  checkb "no deferral, no deferred exposure" true
    (clean.C.deferred = [] && clean.C.deferred_exposure_hours = 0.0)

(* --- Circuit breaker --- *)

let test_breaker_pinned () =
  let sweep = C.sweep ~probabilities:[ 0.0; 0.9 ] () in
  let r0 = List.assoc 0.0 sweep and r9 = List.assoc 0.9 sweep in
  checki "p=0 never trips" 0 r0.C.breaker_trips;
  checkb "p=0.9 trips the breaker" true (r9.C.breaker_trips > 0);
  (* Breaker events are campaign-level, not host-level: they never
     appear on host timelines, only in the trip counter. *)
  checki "breaker events stay off host timelines" 0
    (count_events (fun e -> e = C.Breaker_opened) r9.C.hosts);
  checkb "faulty campaign takes longer" true
    (Sim.Time.compare r9.C.wall_clock r0.C.wall_clock > 0)

let test_sweep_monotone_serial () =
  (* Failure sets are nested across probabilities (shared seed, one
     draw per armed hit), so with serial admission the wall-clock is
     monotone in p.  (At concurrency > 1 list-scheduling anomalies can
     legally reorder lanes, so the property is stated serially.) *)
  let config = { C.default_config with C.concurrency = 1 } in
  let probabilities = [ 0.0; 0.2; 0.5; 0.8; 1.0 ] in
  let sweep = C.sweep ~config ~probabilities () in
  let walls = List.map (fun (_, r) -> r.C.wall_clock) sweep in
  checkb "serial wall clock monotone in p" true
    (List.for_all2
       (fun a b -> Sim.Time.compare a b <= 0)
       walls
       (List.tl walls @ [ List.nth walls (List.length walls - 1) ]));
  List.iter
    (fun (p, r) ->
      checki
        (Printf.sprintf "accounting closes at p=%.1f" p)
        r.C.vms_total (C.vms_accounted r))
    sweep

(* --- Checkpoint / resume --- *)

let base_injections p =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability p };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability (p /. 2.0) };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability (p /. 3.0) };
  ]

let rec complete ~fault = function
  | C.Finished (r, _) -> r
  | C.Crashed journal -> complete ~fault (C.resume ~fault journal)

let test_resume_determinism_qcheck () =
  let gen =
    QCheck.(
      triple (int_range 0 1000) (oneofl [ 0.15; 0.35; 0.6; 0.9 ])
        (int_range 1 45))
  in
  let prop (seed, p, crash_after) =
    let fault_seed = Int64.of_int (seed * 7919) in
    let cfg = { C.default_config with C.seed = Int64.of_int seed } in
    let plain () = Fault.make ~seed:fault_seed (base_injections p) in
    let crashing () =
      Fault.make ~seed:fault_seed
        (base_injections p
        @ [ { Fault.site = Fault.Controller_crash;
              trigger = Fault.Nth_hit crash_after } ])
    in
    let uninterrupted = complete ~fault:(plain ()) (C.run ~fault:(plain ()) cfg) in
    let resumed =
      match C.run ~fault:(crashing ()) cfg with
      | C.Finished (r, _) -> r (* crashed later than the campaign ended *)
      | C.Crashed journal ->
        (* The journal survives serialisation, and resuming from the
           parsed text continues to the same report. *)
        let text = C.journal_to_string journal in
        let journal' =
          match C.journal_of_string text with
          | Ok j -> j
          | Error e -> QCheck.Test.fail_reportf "journal round-trip: %s" e
        in
        checki "round-trip preserves length" (C.journal_length journal)
          (C.journal_length journal');
        complete ~fault:(crashing ()) (C.resume ~fault:(crashing ()) journal')
    in
    if uninterrupted <> resumed then
      QCheck.Test.fail_reportf
        "crash-then-resume diverged (seed=%d p=%.2f crash_after=%d)" seed p
        crash_after;
    C.vms_accounted resumed = resumed.C.vms_total
  in
  let t =
    QCheck.Test.make ~count:25 ~name:"resume determinism" gen prop
  in
  QCheck.Test.check_exn t

let test_resume_rejects_mismatched_fault () =
  let crashing =
    Fault.make ~seed:5L
      (base_injections 0.9
      @ [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 6 } ])
  in
  match C.run ~fault:crashing C.default_config with
  | C.Finished _ -> Alcotest.fail "controller crash never fired"
  | C.Crashed journal ->
    checkb "mismatched fault plan is rejected" true
      (try
         ignore
           (C.resume
              ~fault:(Fault.make ~seed:5L [])
              journal);
         false
       with Hypertp.Error.Error e ->
         e.Hypertp.Error.site = "Campaign.resume")

let test_journal_parse_errors () =
  let reject s =
    match C.journal_of_string s with
    | Ok _ -> Alcotest.failf "accepted garbage: %S" s
    | Error e -> checkb "error is descriptive" true (String.length e > 0)
  in
  reject "";
  reject "not a journal";
  reject "hypertp-campaign-journal v99\n"

(* A config line is validated on resume like a fresh run's config: a
   journal whose threshold reads [nan] must not resume into a silently
   different campaign. *)
let test_resume_rejects_nan_config () =
  let crashing () =
    Fault.make ~seed:5L
      (base_injections 0.3
      @ [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 6 } ])
  in
  match C.run ~fault:(crashing ()) C.default_config with
  | C.Finished _ -> Alcotest.fail "controller crash never fired"
  | C.Crashed journal ->
    let tamper tok =
      if String.starts_with ~prefix:"threshold=" tok then "threshold=nan"
      else tok
    in
    let original = C.journal_to_string journal in
    let text =
      String.concat "\n"
        (List.map
           (fun line ->
             String.concat " " (List.map tamper (String.split_on_char ' ' line)))
           (String.split_on_char '\n' original))
    in
    checkb "config line tampered" true (text <> original);
    checkb "NaN threshold rejected on resume" true
      (match C.journal_of_string text with
      | Error _ -> true
      | Ok j -> (
        try
          ignore (C.resume ~fault:(crashing ()) j);
          false
        with Hypertp.Error.Error e -> e.Hypertp.Error.site = "Campaign"))

(* --- incremental exposure accounting == recomputed integral --- *)

(* Campaign: the accumulator updated on each host completion must equal
   the per-host fold over the final report. *)
let test_campaign_incremental_exposure_qcheck () =
  let gen =
    QCheck.(pair (int_range 2 30) (pair (int_range 1 4) small_int))
  in
  let prop (nodes, (vms_per_node, seed)) =
    (* The int_range shrinker can step below the range; skip those. *)
    QCheck.assume (nodes >= 2 && vms_per_node >= 1 && seed >= 0);
    let cfg =
      {
        Cluster.Campaign.default_config with
        Cluster.Campaign.nodes;
        vms_per_node;
        seed = Int64.of_int seed;
      }
    in
    let fault =
      Fault.make
        ~seed:(Int64.of_int (seed + 1))
        [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.3 } ]
    in
    let r = Cluster.Campaign.run_to_completion ~fault cfg in
    let folded =
      List.fold_left
        (fun acc h -> acc +. h.Cluster.Campaign.hr_exposure_hours)
        0.0 r.Cluster.Campaign.hosts
    in
    if Float.abs (folded -. r.Cluster.Campaign.exposed_host_hours) > 1e-6 then
      QCheck.Test.fail_reportf
        "incremental %.9f <> fold %.9f (nodes=%d seed=%d)"
        r.Cluster.Campaign.exposed_host_hours folded nodes seed;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"campaign incremental exposure" gen prop)

(* --- fleet-scale determinism --- *)

let test_large_campaign_deterministic () =
  let cfg =
    {
      Cluster.Campaign.default_config with
      Cluster.Campaign.nodes = 1000;
      vms_per_node = 8;
    }
  in
  let snap () =
    match Cluster.Campaign.run cfg with
    | Cluster.Campaign.Finished (r, j) ->
      ( Cluster.Campaign.journal_to_string j,
        r.Cluster.Campaign.exposed_host_hours,
        r.Cluster.Campaign.wall_clock )
    | Cluster.Campaign.Crashed _ -> Alcotest.fail "no fault plan: cannot crash"
  in
  let j1, e1, w1 = snap () in
  let j2, e2, w2 = snap () in
  checks "identical 1k-host journal" j1 j2;
  checkb "identical exposure" true (e1 = e2);
  checkb "identical wall clock" true (w1 = w2)

let suites =
  [
    ( "campaign.admission",
      [
        Alcotest.test_case "wall clock = admission model" `Quick
          test_wall_clock_matches_admission_model;
        Alcotest.test_case "clean run (pinned)" `Quick test_clean_run_pinned;
        Alcotest.test_case "config validation" `Quick test_config_validation;
      ] );
    ( "campaign.ladder",
      [
        Alcotest.test_case "crash -> drain" `Quick test_crash_falls_back_to_drain;
        Alcotest.test_case "straggler timeout" `Quick
          test_straggler_timeout_escalates;
        Alcotest.test_case "flap counted once" `Quick test_flap_not_double_counted;
        Alcotest.test_case "deferred exposure iff exhausted" `Quick
          test_deferred_exposure_iff_ladder_exhausted;
      ] );
    ( "campaign.breaker",
      [
        Alcotest.test_case "trips pinned" `Quick test_breaker_pinned;
        Alcotest.test_case "serial sweep monotone" `Quick test_sweep_monotone_serial;
      ] );
    ( "campaign.journal",
      [
        Alcotest.test_case "resume determinism (qcheck)" `Slow
          test_resume_determinism_qcheck;
        Alcotest.test_case "mismatched fault rejected" `Quick
          test_resume_rejects_mismatched_fault;
        Alcotest.test_case "parse errors" `Quick test_journal_parse_errors;
        Alcotest.test_case "NaN config rejected on resume" `Quick
          test_resume_rejects_nan_config;
        Alcotest.test_case "1k-host determinism" `Slow
          test_large_campaign_deterministic;
      ] );
    ( "campaign.exposure",
      [
        Alcotest.test_case "campaign incremental (qcheck)" `Slow
          test_campaign_incremental_exposure_qcheck;
      ] );
  ]
