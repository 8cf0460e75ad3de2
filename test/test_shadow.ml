(* Tests for shadow-host MigrationTP: the protocol plan and its
   watchdog rule, the abort-safety contract (qcheck over all five fault
   sites: any pre-swap fault leaves the source verified byte-identical
   and the report names the degraded strategy actually used), the
   golden cutover transcript, and the campaign's mid-shadow
   crash-then-resume determinism. *)

module S = Migration.Shadow
module M = Hypertp.Migrate
module C = Cluster.Campaign

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

let has needle hay =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let params () =
  S.default_params ~nic:(Hw.Nic.create ~bandwidth_gbps:1.0 ()) ()

let gib_pages = Hw.Units.frames_of_bytes (Hw.Units.gib 1)

(* --- the analytic plan --- *)

let test_plan_converging () =
  let p =
    S.plan (params ()) ~page_bytes:4096 ~total_pages:gib_pages
      ~dirty_pages_per_sec:15.0
  in
  checkb "converging" true (p.S.verdict = S.Converging);
  checkb "no violator" true (p.S.violator = None);
  checkb "swap pays a real downtime" true
    (Sim.Time.compare p.S.cutover_downtime Sim.Time.zero > 0);
  (* The whole point of the shadow: on a hot guest the classic plan
     hits its round cap and stops-and-copies a large residue, while
     the deeper replay budget keeps shrinking to the tiny cutover
     threshold.  At 10k dirty pages/s the blackout is ~1.4% of
     classic's. *)
  let busy =
    S.plan (params ()) ~page_bytes:4096 ~total_pages:gib_pages
      ~dirty_pages_per_sec:10_000.0
  in
  let classic =
    Migration.Precopy.plan
      (Migration.Precopy.default_params
         ~nic:(Hw.Nic.create ~bandwidth_gbps:1.0 ())
         ())
      ~page_bytes:4096 ~total_pages:gib_pages ~dirty_pages_per_sec:10_000.0
  in
  checkb "busy cutover downtime < 20% of classic stop-and-copy" true
    (Sim.Time.to_sec_f busy.S.cutover_downtime
    < 0.2 *. Sim.Time.to_sec_f classic.Migration.Precopy.stop_copy_time)

let test_plan_diverging () =
  let p =
    S.plan (params ()) ~page_bytes:4096 ~total_pages:gib_pages
      ~dirty_pages_per_sec:1e9
  in
  (match p.S.verdict with
  | S.Diverging i -> checkb "positive trip round" true (i >= 1)
  | S.Converging -> Alcotest.fail "1e9 pages/s must diverge");
  checkb "no swap, no downtime" true
    (Sim.Time.compare p.S.cutover_downtime Sim.Time.zero = 0);
  checki "no final dirty set" 0 p.S.final_pages;
  checkb "violator round named" true (p.S.violator <> None)

(* --- the plan agrees with the pure watchdog rule --- *)

let watchdog_rounds p =
  p.S.stream_round :: p.S.replay_rounds
  @ (match p.S.violator with Some r -> [ r ] | None -> [])

(* The reference rule over the plan's rounds trips exactly where the
   plan names a violator, at the plan's index; with no violator it
   never trips, and the plan either converged or ran out of replay
   budget with every round still shrinking. *)
let plan_agrees_with_rule p =
  let budget = (params ()).S.replay_budget in
  match (p.S.violator, S.watchdog_verdict (params ()) (watchdog_rounds p)) with
  | Some _, (S.Diverging _ as v) -> v = p.S.verdict
  | None, S.Converging -> (
    match p.S.verdict with
    | S.Converging -> true
    | S.Diverging i ->
      i = budget && List.length p.S.replay_rounds = budget)
  | Some _, S.Converging | None, S.Diverging _ -> false

let plan_at dirty =
  S.plan (params ()) ~page_bytes:4096 ~total_pages:gib_pages
    ~dirty_pages_per_sec:dirty

let prop_watchdog_agreement =
  QCheck.Test.make ~count:50
    ~name:"plan agrees with the watchdog rule"
    (* Dirty pages/s: a wide sweep, plus the band where the replay
       budget runs out with every round shrinking. *)
    QCheck.(
      oneof [ map (fun d -> d * 1000) (int_range 10 100_000);
              int_range 21_500 25_500 ])
    (fun dirty -> plan_agrees_with_rule (plan_at (float_of_int dirty)))

let test_budget_run_out () =
  (* Each replay round shrinks by a steady ~20 %: the budget runs out
     long before the dirty set is swappable, and no round ever trips
     the watchdog. *)
  let p = plan_at 23_000.0 in
  checkb "budget run-out diverges" true
    (p.S.verdict = S.Diverging (params ()).S.replay_budget);
  checkb "no violator" true (p.S.violator = None);
  checkb "the rule agrees" true (plan_agrees_with_rule p);
  checkb "verdict at the end of the replay" true
    (Sim.Time.compare (S.verdict_time (params ()) p) p.S.converge_time = 0)

(* --- abort safety: the qcheck pin --- *)

let provision_src ~seed ~vms =
  Hypertp.Api.provision ~seed ~name:"shadow-src" ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    (List.init vms (fun i ->
         Vmstate.Vm.config
           ~name:(Printf.sprintf "vm%d" i)
           ~ram:(Hw.Units.gib 1) ()))

let checksums host =
  List.map
    (fun (vm : Vmstate.Vm.t) ->
      (vm.Vmstate.Vm.config.Vmstate.Vm.name,
       Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem))
    (Hv.Host.vms host)

(* Any fault strictly before the identity swap must leave the source
   provably untouched: management plane consistent, every VM running
   with its entry checksum.  When the run then defers, the source still
   holds the (byte-identical) VMs; when the ladder degrades to classic
   MigrationTP, the report must name the site and carry the embedded
   classic report. *)
let prop_source_untouched_on_abort =
  let sites = Fault.shadow_sites in
  QCheck.Test.make ~count:40
    ~name:"pre-swap faults: source intact, degraded strategy named"
    QCheck.(
      quad (int_range 0 (List.length sites - 1)) (int_range 0 10_000)
        (int_range 1 3) bool)
    (fun (si, seed, vms, ladder) ->
      let site = List.nth sites si in
      let src = provision_src ~seed:(Int64.of_int seed) ~vms in
      let entry = checksums src in
      let spare = Hv.Host.create ~name:"shadow-spare" (Hw.Machine.m1 ()) in
      let fault =
        Fault.make ~seed:(Int64.of_int seed)
          [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
      in
      let r =
        Hypertp.Api.transplant_shadow
          ~rng:(Sim.Rng.create (Int64.of_int seed))
          ~fault ~ladder ~src ~spare ~target:Hv.Kind.Kvm ()
      in
      if not r.M.sh_source_intact then
        QCheck.Test.fail_reportf "source damaged at %s"
          (Fault.site_to_string site);
      let expect_defer = site = Fault.Spare_exhausted || not ladder in
      (match r.M.sh_strategy with
      | M.Shadow_cutover ->
        QCheck.Test.fail_reportf "swap committed despite %s"
          (Fault.site_to_string site)
      | M.Shadow_deferred s ->
        if not expect_defer then
          QCheck.Test.fail_reportf "deferred with a live ladder at %s"
            (Fault.site_to_string site);
        if s <> site then QCheck.Test.fail_report "wrong site named";
        (* Deferred: the source still serves its VMs, byte-identical
           to entry. *)
        if checksums src <> entry then
          QCheck.Test.fail_report "source VMs not byte-identical";
        if not (List.for_all Vmstate.Vm.is_running (Hv.Host.vms src)) then
          QCheck.Test.fail_report "a source VM stopped";
        if Hv.Host.vm_count src <> vms then
          QCheck.Test.fail_report "source lost a VM"
      | M.Classic_fallback s ->
        if expect_defer then
          QCheck.Test.fail_reportf "classic ran at %s (ladder=%b)"
            (Fault.site_to_string site) ladder;
        if s <> site then QCheck.Test.fail_report "wrong site named";
        if r.M.sh_classic = None then
          QCheck.Test.fail_report "no embedded classic report";
        (* Degraded: classic MigrationTP moved the VMs to the staged
           spare — that is the ladder working, not damage. *)
        if Hv.Host.vm_count spare <> vms then
          QCheck.Test.fail_report "classic fallback lost a VM");
      true)

(* --- the committed cutover --- *)

let test_calm_cutover () =
  let src = provision_src ~seed:42L ~vms:2 in
  let spare = Hv.Host.create ~name:"shadow-spare" (Hw.Machine.m1 ()) in
  let r =
    Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create 42L) ~src ~spare
      ~target:Hv.Kind.Kvm ()
  in
  checkb "swap committed" true (r.M.sh_strategy = M.Shadow_cutover);
  checkb "vacuously intact" true r.M.sh_source_intact;
  checki "both VMs on the spare" 2 (Hv.Host.vm_count spare);
  checki "source reclaimed" 0 (Hv.Host.vm_count src);
  (match r.M.sh_checks with
  | Some c ->
    checkb "cutover checks pass" true
      (c.M.memory_equal && c.M.connections_preserved
     && c.M.management_consistent)
  | None -> Alcotest.fail "no cutover checks on a committed swap");
  (* The phase ledger reconciles exactly. *)
  let sum =
    List.fold_left
      (fun acc (_, d) -> Sim.Time.add acc d)
      Sim.Time.zero r.M.sh_phases
  in
  checkb "phases sum to the shadow time exactly" true
    (Sim.Time.compare sum r.M.sh_shadow_time = 0);
  checki "all five phases present" 5 (List.length r.M.sh_phases);
  checkb "watchdog cancelled once per VM" true (r.M.sh_watchdog_cancels = 2);
  checki "watchdog never tripped" 0 r.M.sh_watchdog_trips;
  (* A calm converge phase lasts as long as the slowest VM's replay. *)
  let slowest_replay =
    List.fold_left
      (fun acc sv ->
        match sv.M.sv_plan with
        | Some p -> Sim.Time.max acc p.S.converge_time
        | None -> acc)
      Sim.Time.zero r.M.sh_per_vm
  in
  checkb "converge phase ends with the slowest replay" true
    (Sim.Time.compare (List.assoc S.Converge r.M.sh_phases) slowest_replay
    = 0);
  (* The acceptance pin, at the engine level: the committed cutover's
     downtime stays under 20 % of classic MigrationTP on an identical
     pair (BENCH_shadow.json carries the same ratio at fleet scale). *)
  let csrc = provision_src ~seed:42L ~vms:2 in
  let cdst = Hv.Host.create ~name:"classic-dst" (Hw.Machine.m1 ()) in
  Hv.Host.boot_hypervisor cdst (Hypertp.Api.hypervisor_of Hv.Kind.Kvm);
  let classic =
    Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create 42L) ~src:csrc
      ~dst:cdst ()
  in
  let classic_downtime =
    List.fold_left
      (fun acc (v : M.vm_report) -> Sim.Time.max acc v.M.downtime)
      Sim.Time.zero classic.M.per_vm
  in
  checkb "shadow downtime < 20% of classic on the same pair" true
    (Sim.Time.to_sec_f r.M.sh_downtime
    < 0.2 *. Sim.Time.to_sec_f classic_downtime)

let read_golden name =
  let path =
    List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* The stdout of `hypertp-cli shadow --vms 2 [--fault SPEC]` (machine
   m1, Xen -> KVM, 1 GiB VMs, seed 42): the report, then the fault
   trace when a plan is armed. *)
let cli_transcript ?fault () =
  let fault =
    Option.map
      (fun spec -> Fault.of_specs [ Result.get_ok (Fault.parse_spec spec) ])
      fault
  in
  let src = provision_src ~seed:42L ~vms:2 in
  let spare = Hv.Host.create ~name:"cli-spare" (Hw.Machine.m1 ()) in
  let r =
    Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create 42L) ?fault ~src
      ~spare ~target:Hv.Kind.Kvm ()
  in
  Format.asprintf "%a@.%a" M.pp_shadow_report r
    (fun fmt -> function
      | None -> ()
      | Some f -> Format.fprintf fmt "fault trace:@.%a@." Fault.pp_trace f)
    fault

let test_cutover_golden () =
  (* The CLI transcripts are the pins: the calm cutover, and the
     watchdog trip path, whose converge phase ends at the trip. *)
  checks "cutover report matches the golden pin"
    (read_golden "shadow_cutover.txt")
    (cli_transcript ());
  checks "diverge transcript matches the golden pin"
    (read_golden "shadow_diverge.txt")
    (cli_transcript ~fault:"shadow_diverge:1" ())

(* --- the campaign's shadow rung --- *)

let test_campaign_shadow_rung () =
  (* Crash half the inplace attempts: with two spare lanes the failed
     hosts take the shadow rung until the lanes saturate, then drain. *)
  let cfg = { C.default_config with C.nodes = 6; shadow_spares = 2 } in
  let fault =
    Fault.make ~seed:3L
      [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.5 } ]
  in
  let r, j =
    match C.run ~fault cfg with
    | C.Finished (r, j) -> (r, j)
    | C.Crashed _ -> Alcotest.fail "no controller crash armed"
  in
  let n_shadow =
    List.length
      (List.filter (fun h -> h.C.hr_status = C.Shadow_cutover) r.C.hosts)
  in
  checkb "at least one host took the shadow rung" true (n_shadow >= 1);
  checkb "lanes bound concurrency, not totals" true
    (n_shadow <= List.length r.C.hosts);
  checki "shadow VMs counted" r.C.vms_shadow
    (List.fold_left
       (fun acc h ->
         if h.C.hr_status = C.Shadow_cutover then acc + h.C.hr_vms_in_place
         else acc)
       0 r.C.hosts);
  checki "accounting closes" r.C.vms_total (C.vms_accounted r);
  checkb "journal records the shadow admissions" true
    (has "shadow" (C.journal_to_string j))

let test_campaign_default_journal_shadow_free () =
  (* shadow_spares = 0 (the default) must leave campaigns and their
     journals byte-identical to pre-shadow runs: no shadow rung taken,
     no shadow token anywhere in the serialisation. *)
  let _, j =
    match C.run C.default_config with
    | C.Finished (r, j) -> (r, j)
    | C.Crashed _ -> Alcotest.fail "calm run crashed"
  in
  let text = C.journal_to_string j in
  checkb "no shadow tokens in the default journal" false
    (has "shadow" text || has "sspare" text)

let test_campaign_shadow_config_validation () =
  checkb "negative spares rejected" true
    (match C.run { C.default_config with C.shadow_spares = -1 } with
    | _ -> false
    | exception Hypertp.Error.Error e -> e.Hypertp.Error.site = "Campaign")

(* Crash-then-resume determinism with the shadow rung active and the
   shadow fault sites armed: the resumed report (structural equality,
   shadow fields included) matches the uninterrupted run, through a
   journal text round-trip. *)
let shadow_injections p =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability p };
    { Fault.site = Fault.Shadow_stage_fail;
      trigger = Fault.Probability (p /. 2.0) };
    { Fault.site = Fault.Shadow_diverge;
      trigger = Fault.Probability (p /. 3.0) };
  ]

let rec complete ~fault = function
  | C.Finished (r, _) -> r
  | C.Crashed journal -> complete ~fault (C.resume ~fault journal)

let prop_resume_mid_shadow =
  QCheck.Test.make ~count:15 ~name:"resume determinism mid-shadow"
    QCheck.(
      triple (int_range 0 500) (oneofl [ 0.35; 0.6; 0.9 ]) (int_range 1 30))
    (fun (seed, p, crash_after) ->
      let fault_seed = Int64.of_int (seed * 7919) in
      let cfg =
        { C.default_config with
          C.seed = Int64.of_int seed; nodes = 6; shadow_spares = 2 }
      in
      let plain () = Fault.make ~seed:fault_seed (shadow_injections p) in
      let crashing () =
        Fault.make ~seed:fault_seed
          (shadow_injections p
          @ [ { Fault.site = Fault.Controller_crash;
                trigger = Fault.Nth_hit crash_after } ])
      in
      let uninterrupted =
        complete ~fault:(plain ()) (C.run ~fault:(plain ()) cfg)
      in
      let resumed =
        match C.run ~fault:(crashing ()) cfg with
        | C.Finished (r, _) -> r
        | C.Crashed journal ->
          let text = C.journal_to_string journal in
          let journal' =
            match C.journal_of_string text with
            | Ok j -> j
            | Error e -> QCheck.Test.fail_reportf "journal round-trip: %s" e
          in
          complete ~fault:(crashing ())
            (C.resume ~fault:(crashing ()) journal')
      in
      if uninterrupted <> resumed then
        QCheck.Test.fail_reportf
          "mid-shadow crash-then-resume diverged (seed=%d p=%.2f \
           crash_after=%d)"
          seed p crash_after;
      C.vms_accounted resumed = resumed.C.vms_total)

let suites =
  [
    ( "shadow.plan",
      [
        Alcotest.test_case "converging plan" `Quick test_plan_converging;
        Alcotest.test_case "diverging plan" `Quick test_plan_diverging;
        qtest prop_watchdog_agreement;
        Alcotest.test_case "replay budget run-out" `Quick test_budget_run_out;
      ] );
    ( "shadow.abort",
      [
        qtest prop_source_untouched_on_abort;
        Alcotest.test_case "calm cutover" `Quick test_calm_cutover;
        Alcotest.test_case "cutover golden" `Quick test_cutover_golden;
      ] );
    ( "shadow.campaign",
      [
        Alcotest.test_case "shadow rung taken" `Quick
          test_campaign_shadow_rung;
        Alcotest.test_case "default journal shadow-free" `Quick
          test_campaign_default_journal_shadow_free;
        Alcotest.test_case "config validation" `Quick
          test_campaign_shadow_config_validation;
        Alcotest.test_case "resume determinism mid-shadow (qcheck)" `Slow
          (fun () -> QCheck.Test.check_exn prop_resume_mid_shadow);
      ] );
  ]
