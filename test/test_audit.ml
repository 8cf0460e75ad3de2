(* Tests for the residual-state auditor: the differential sweep against
   a fresh-boot reference, severity classification, the scrub pass, the
   seeded residual-planting ground truth (zero false negatives), the
   deterministic report serialization, and the engine/campaign wiring
   of the post-commit audit rung. *)

module A = Audit
module C = Cluster.Campaign

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

let machine () = Hw.Machine.m1 ()

let hv_module = function
  | Hv.Kind.Xen -> (module Xenhv.Xen : Hv.Intf.S)
  | Hv.Kind.Kvm -> (module Kvmhv.Kvm : Hv.Intf.S)
  | Hv.Kind.Bhyve -> (module Bhyvehv.Bhyve : Hv.Intf.S)

let small_vm ?(name = "vm0") ?(mib = 64) () =
  Vmstate.Vm.config ~name ~ram:(Hw.Units.mib mib) ()

let audit = Hypertp.Inplace.Scrub

let one site trigger = Fault.make [ { Fault.site; trigger } ]

(* --- the pure auditor over a planted world --- *)

(* A target-hypervisor world with captured pre-transplant baselines:
   the fixture the planting properties run against. *)
let planted_setup () =
  let m = machine () in
  let host =
    Hypertp.Api.provision ~name:"pw" ~machine:m ~hv:Hv.Kind.Kvm
      [ small_vm (); small_vm ~name:"vm1" () ]
  in
  let reference = A.reference_of_fresh_boot ~machine:m (hv_module Hv.Kind.Kvm) in
  let source = A.reference_of_fresh_boot ~machine:m (hv_module Hv.Kind.Xen) in
  let baseline =
    List.map
      (fun vm ->
        Vmstate.Vm.pause vm;
        (* round-trip through the codec so the capture does not share
           the live VM's mutable platform state (the engines' baselines
           are decoded blobs too) *)
        let st =
          match
            Uisr.Codec.decode
              (Uisr.Codec.encode
                 (Uisr.Vm_state.of_vm ~source_hypervisor:source.A.ref_hv vm))
          with
          | Ok st -> st
          | Error _ -> Alcotest.fail "baseline round-trip"
        in
        Vmstate.Vm.resume vm;
        (vm.Vmstate.Vm.config.Vmstate.Vm.name, st))
      (Hv.Host.vms host)
  in
  (host, reference, source, baseline)

let fixture = lazy (planted_setup ())

let test_calm_world_audits_clean () =
  let host, reference, source, baseline = Lazy.force fixture in
  let r = A.run ~reference ~source (A.world ~baseline host) in
  checkb "clean" true (A.clean r);
  checkb "guest frames attributed" true (r.A.r_guest_frames > 0);
  checkb "swept beyond guest memory" true
    (r.A.r_frames_swept > r.A.r_guest_frames);
  checkb "no worst severity" true (A.worst r = None)

let test_planted_all_kinds_flagged_then_scrubbed () =
  let host, reference, source, baseline = Lazy.force fixture in
  let w = A.world ~baseline host in
  let plan =
    [ A.Plant.Pram_page; A.Plant.Hv_frames 3; A.Plant.Kexec_frame;
      A.Plant.Stale_blob "vm0"; A.Plant.Clock_skew_plant "vm1" ]
  in
  let w = A.Plant.apply ~reference ~source w plan in
  let r = A.run ~reference ~source w in
  let of_kind k =
    List.filter (fun f -> f.A.f_kind = k) r.A.r_findings
  in
  List.iter
    (fun p ->
      checkb (A.Plant.to_string p ^ " flagged") true
        (of_kind (A.Plant.expected_finding p) <> []))
    plan;
  checki "every planted hv frame flagged" 3
    (List.length (of_kind A.Unreclaimed_hv_frame));
  (* Severity ladder: readable source state is exploitable, observable
     artefacts are fingerprintable. *)
  checkb "orphan pram exploitable" true
    (List.for_all
       (fun f -> f.A.f_severity = A.Exploitable)
       (of_kind A.Orphan_pram_page @ of_kind A.Unreclaimed_hv_frame));
  checkb "source-stamped blob exploitable" true
    (List.for_all
       (fun f -> f.A.f_severity = A.Exploitable)
       (of_kind A.Stale_uisr_blob));
  checkb "kexec and clock fingerprintable" true
    (List.for_all
       (fun f -> f.A.f_severity = A.Fingerprintable)
       (of_kind A.Stale_kexec_frame @ of_kind A.Clock_skew));
  checkb "worst is exploitable" true (A.worst r = Some A.Exploitable);
  (* The scrub remediates all of it: frames freed, blob dropped, clock
     restored from the capture — and the recheck comes back clean. *)
  let sc = A.scrub w r in
  checki "frames freed (1 pram + 3 hv + 1 kexec)" 5 sc.A.sc_frames_freed;
  checkb "nothing unscrubbable" true (sc.A.sc_unscrubbed = []);
  checki "everything scrubbed" (List.length r.A.r_findings)
    (List.length sc.A.sc_scrubbed);
  checkb "recheck clean" true
    (A.clean (A.run ~reference ~source sc.A.sc_world))

(* Zero false negatives, pinned over random plant schedules: whatever
   the injector plants, the sweep reports — and the scrub returns the
   world to a clean state for the next case. *)
let prop_zero_false_negatives =
  QCheck.Test.make ~count:60 ~name:"planted residue is never missed"
    QCheck.(pair small_nat (int_range 1 6))
    (fun (seed, n) ->
      let host, reference, source, baseline = Lazy.force fixture in
      let rng = Sim.Rng.create (Int64.of_int (0xAB0 + seed)) in
      let plan = A.Plant.random_plan ~rng ~vms:[ "vm0"; "vm1" ] n in
      let w = A.Plant.apply ~reference ~source (A.world ~baseline host) plan in
      let r = A.run ~reference ~source w in
      let flagged k = List.exists (fun f -> f.A.f_kind = k) r.A.r_findings in
      let none_missed =
        List.for_all (fun p -> flagged (A.Plant.expected_finding p)) plan
      in
      if not none_missed then
        QCheck.Test.fail_reportf "missed a plant in [%s]"
          (String.concat "; " (List.map A.Plant.to_string plan));
      let sc = A.scrub w r in
      sc.A.sc_unscrubbed = []
      && A.clean (A.run ~reference ~source sc.A.sc_world))

(* --- deterministic serialization --- *)

let gen_finding =
  QCheck.Gen.(
    let* f_kind = oneofl A.all_kinds in
    let* f_severity = oneofl [ A.Benign; A.Fingerprintable; A.Exploitable ] in
    let* f_subject = oneofl [ "mfn:7"; "vm0"; "host"; "odd-subject_1" ] in
    let* f_frame = opt (int_range 0 2_000_000) in
    let* f_tag = opt (oneofl [ 0x1234L; -1L; Int64.min_int; 0L ]) in
    let* f_reason =
      oneofl
        [ ""; "x"; "frame still tagged by the source hypervisor xen-4.12.1";
          "reason with = signs, spaces and 0x00 text" ]
    in
    return { A.f_kind; f_severity; f_subject; f_frame; f_tag; f_reason })

let gen_report =
  QCheck.Gen.(
    let* r_source = oneofl [ "-"; "xen-4.12.1"; "kvm-5.3.1" ] in
    let* r_target = oneofl [ "kvm-5.3.1"; "bhyve-12.1" ] in
    let* r_frames_swept = int_range 0 1_000_000 in
    let* r_guest_frames = int_range 0 1_000_000 in
    let* r_findings = list_size (int_range 0 8) gen_finding in
    return { A.r_source; r_target; r_frames_swept; r_guest_frames; r_findings })

let prop_report_roundtrip =
  QCheck.Test.make ~count:200 ~name:"report serialization round-trips"
    (QCheck.make ~print:A.to_string gen_report)
    (fun r ->
      match A.of_string (A.to_string r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_report_parse_errors () =
  let reject s =
    match A.of_string s with
    | Ok _ -> Alcotest.failf "accepted garbage: %S" s
    | Error e -> checkb "error is descriptive" true (String.length e > 0)
  in
  reject "";
  reject "not an audit report";
  reject "hypertp-audit-report v1\nsource=x target=y\n";
  (* missing end line *)
  reject
    "hypertp-audit-report v1\n\
     source=x target=y frames_swept=1 guest_frames=0\n";
  (* finding-count mismatch on the end line *)
  reject
    "hypertp-audit-report v1\n\
     source=x target=y frames_swept=1 guest_frames=0\n\
     end findings=3\n"

(* --- engine wiring: InPlaceTP --- *)

let xen_host ?(vms = [ small_vm () ]) () =
  Hypertp.Api.provision ~name:"ah" ~machine:(machine ()) ~hv:Hv.Kind.Xen vms

let test_calm_transplants_audit_clean_all_directions () =
  List.iter
    (fun (src, tgt) ->
      let host =
        Hypertp.Api.provision ~name:"ah" ~machine:(machine ()) ~hv:src
          [ small_vm (); small_vm ~name:"vm1" () ]
      in
      let r = Hypertp.Api.transplant_inplace ~audit ~host ~target:tgt () in
      (match r.Hypertp.Inplace.outcome with
      | Hypertp.Inplace.Committed -> ()
      | o ->
        Alcotest.failf "calm audited run not committed: %s"
          (Format.asprintf "%a" Hypertp.Inplace.pp_outcome o));
      match r.Hypertp.Inplace.audit with
      | Some a -> checkb "zero findings" true (A.clean a)
      | None -> Alcotest.fail "audit armed but no report")
    [ (Hv.Kind.Xen, Hv.Kind.Kvm); (Hv.Kind.Kvm, Hv.Kind.Xen);
      (Hv.Kind.Xen, Hv.Kind.Bhyve) ]

let test_unarmed_run_has_no_report () =
  let host = xen_host () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  checkb "no audit unless armed" true (r.Hypertp.Inplace.audit = None)

let recovered r =
  match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d -> d
  | o ->
    Alcotest.failf "expected Recovered, got %s"
      (Format.asprintf "%a" Hypertp.Inplace.pp_outcome o)

let test_leak_scrubbed_never_commits () =
  let host = xen_host () in
  let fault = one Fault.Residual_leak (Fault.Nth_hit 1) in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  let d = recovered r in
  checkb "leak noted" true (List.mem Fault.Residual_leak d.recovery_faults);
  checki "five plants found" 5 d.Hypertp.Inplace.audit_findings;
  checki "all five scrubbed" 5 d.Hypertp.Inplace.audit_scrubbed;
  checkb "no full reboot needed" true (not d.Hypertp.Inplace.full_reboot);
  (match r.Hypertp.Inplace.audit with
  | Some a -> checkb "final report is the clean recheck" true (A.clean a)
  | None -> Alcotest.fail "no report");
  checkb "checks still hold" true
    (Hypertp.Inplace.all_ok r.Hypertp.Inplace.checks)

let test_scrub_fail_escalates_to_full_reboot () =
  let host = xen_host () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Residual_leak; trigger = Fault.Nth_hit 1 };
        { Fault.site = Fault.Scrub_fail; trigger = Fault.Nth_hit 1 } ]
  in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  let d = recovered r in
  checkb "both sites noted" true
    (List.mem Fault.Residual_leak d.recovery_faults
    && List.mem Fault.Scrub_fail d.recovery_faults);
  checki "nothing scrubbed" 0 d.Hypertp.Inplace.audit_scrubbed;
  checkb "escalated to the full-reboot rung" true d.Hypertp.Inplace.full_reboot;
  match r.Hypertp.Inplace.audit with
  | Some a ->
    checkb "residue reported, not hidden" true (not (A.clean a));
    checkb "worst is exploitable" true (A.worst a = Some A.Exploitable)
  | None -> Alcotest.fail "no report"

let test_leak_nth2_never_fires () =
  (* The site is consulted exactly once per transplant: an Nth_hit 2
     trigger can never fire, pinning the consultation count. *)
  let host = xen_host () in
  let fault = one Fault.Residual_leak (Fault.Nth_hit 2) in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  checkb "committed" true (r.Hypertp.Inplace.outcome = Hypertp.Inplace.Committed);
  match r.Hypertp.Inplace.audit with
  | Some a -> checkb "clean" true (A.clean a)
  | None -> Alcotest.fail "no report"

let test_salvage_then_audit_clean () =
  (* A salvaged VM's PIT was replaced with power-on defaults — the
     auditor must read that as regenerated state, not residue. *)
  let host = xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" () ] () in
  let fault = one Fault.Uisr_corrupt (Fault.On_vm "vm1") in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  let d = recovered r in
  checkb "vm1 salvaged" true (List.map fst d.Hypertp.Inplace.salvaged = [ "vm1" ]);
  checki "no residual findings" 0 d.Hypertp.Inplace.audit_findings;
  match r.Hypertp.Inplace.audit with
  | Some a -> checkb "salvaged default PIT not flagged" true (A.clean a)
  | None -> Alcotest.fail "no report"

(* --- downtime charging and span reconciliation --- *)

let phases_equal a b =
  let open Hypertp.Phases in
  Sim.Time.equal a.pram b.pram
  && Sim.Time.equal a.translation b.translation
  && Sim.Time.equal a.reboot b.reboot
  && Sim.Time.equal a.restoration b.restoration
  && Sim.Time.equal a.recovery b.recovery
  && Sim.Time.equal a.network b.network

let test_audit_time_charged_to_downtime () =
  let run ?audit () =
    let host = xen_host () in
    Hypertp.Api.transplant_inplace ?audit ~host ~target:Hv.Kind.Kvm ()
  in
  let plain = run () in
  let aud = run ~audit () in
  checkb "both committed" true
    (plain.Hypertp.Inplace.outcome = Hypertp.Inplace.Committed
    && aud.Hypertp.Inplace.outcome = Hypertp.Inplace.Committed);
  checkb "calm run pays no recovery time" true
    (Sim.Time.equal plain.Hypertp.Inplace.phases.Hypertp.Phases.recovery
       Sim.Time.zero);
  checkb "audit sweep billed into the recovery phase" true
    Sim.Time.(
      Sim.Time.zero < aud.Hypertp.Inplace.phases.Hypertp.Phases.recovery)

let test_audit_rungs_reconcile_with_trace () =
  let host = xen_host () in
  let tr = Obs.Tracer.create () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Residual_leak (Fault.Nth_hit 1))
      ~obs:tr ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  let d = recovered r in
  let derived = Hypertp.Phases.of_trace (Obs.Tracer.spans tr) in
  checkb "phases reconcile from the trace" true
    (phases_equal derived r.Hypertp.Inplace.phases);
  checkb "recovery time matches the phase" true
    (Sim.Time.equal d.Hypertp.Inplace.recovery_time
       r.Hypertp.Inplace.phases.Hypertp.Phases.recovery);
  let rungs name =
    List.length
      (List.filter
         (fun s -> Obs.Span.name s = "rung:" ^ name)
         (Obs.Tracer.spans tr))
  in
  checki "sweep and recheck are two audit rungs" 2 (rungs "audit");
  checki "one scrub rung" 1 (rungs "scrub")

let test_costs_monotone () =
  let m = machine () in
  let s1 = Hypertp.Costs.audit_sweep_seconds m ~frames_swept:1_000 ~vms:1 in
  let s2 = Hypertp.Costs.audit_sweep_seconds m ~frames_swept:100_000 ~vms:4 in
  checkb "sweep positive and monotone" true (0.0 < s1 && s1 < s2);
  let c1 = Hypertp.Costs.scrub_seconds m ~frames_freed:1 ~findings:1 in
  let c2 = Hypertp.Costs.scrub_seconds m ~frames_freed:500 ~findings:6 in
  checkb "scrub positive and monotone" true (0.0 < c1 && c1 < c2)

(* --- determinism and the golden pin --- *)

(* Byte-for-byte the scenario the CI audit-sweep job runs: CLI defaults
   (m1, one 1 GiB VM, seed 42) with a planted leak and scrubbing off. *)
let planted_inplace ?(scrub = true) () =
  let host =
    Hypertp.Api.provision ~seed:42L ~name:"cli-host" ~machine:(machine ())
      ~hv:Hv.Kind.Xen
      [ Vmstate.Vm.config ~name:"vm0" ~vcpus:1 ~ram:(Hw.Units.gib 1) () ]
  in
  Hypertp.Api.transplant_inplace ~rng:(Sim.Rng.create 42L)
    ~fault:(one Fault.Residual_leak (Fault.Nth_hit 1))
    ~audit:(if scrub then Hypertp.Inplace.Scrub else Report_only)
    ~host ~target:Hv.Kind.Kvm ()

let audit_of r =
  match r.Hypertp.Inplace.audit with
  | Some a -> a
  | None -> Alcotest.fail "no audit report"

let test_same_seed_byte_identical () =
  let s1 = A.to_string (audit_of (planted_inplace ~scrub:false ())) in
  let s2 = A.to_string (audit_of (planted_inplace ~scrub:false ())) in
  checks "same seed, same bytes" s1 s2

let test_planted_golden () =
  let golden =
    let path =
      List.find Sys.file_exists
        [ "golden/audit_planted.txt"; "test/golden/audit_planted.txt" ]
    in
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let a = audit_of (planted_inplace ~scrub:false ()) in
  checks "planted report matches the golden pin" golden (A.to_string a);
  (* and the pin itself parses back to the same report *)
  match A.of_string golden with
  | Ok r -> checkb "golden parses to the live report" true (r = a)
  | Error e -> Alcotest.failf "golden does not parse: %s" e

(* --- the shared diagnostic shape --- *)

let test_diag_shared_shape () =
  let f =
    { A.f_kind = A.Orphan_pram_page; f_severity = A.Exploitable;
      f_subject = "mfn:9"; f_frame = Some 9; f_tag = Some 1L; f_reason = "r" }
  in
  checks "audit findings use the Diag shape"
    "[exploitable] orphan_pram_page mfn:9: r"
    (Format.asprintf "%a" A.pp_finding f);
  checks "Diag renders the documented shape" "[salvageable] pit at byte 12: r"
    (Format.asprintf "%t" (fun fmt ->
         Uisr.Diag.pp fmt ~label:"salvageable" ~subject:"pit" ~offset:12 "r"))

(* --- fault sites --- *)

let test_fault_sites_parse () =
  (match Fault.parse_injection "residual_leak:1" with
  | Ok { Fault.site = Fault.Residual_leak; trigger = Fault.Nth_hit 1 } -> ()
  | _ -> Alcotest.fail "residual_leak:1");
  (match Fault.parse_injection "scrub_fail:p=0.5" with
  | Ok { Fault.site = Fault.Scrub_fail; trigger = Fault.Probability 0.5 } -> ()
  | _ -> Alcotest.fail "scrub_fail:p=0.5");
  checkb "engine sites include the audit pair" true
    (List.mem Fault.Residual_leak Fault.engine_sites
    && List.mem Fault.Scrub_fail Fault.engine_sites);
  checkb "both are post-PNR" true
    ((not (Fault.pre_pnr Fault.Residual_leak))
    && not (Fault.pre_pnr Fault.Scrub_fail))

(* --- engine wiring: MigrationTP --- *)

let kvm_dst ?(name = "adst") () =
  Hypertp.Api.provision ~name ~machine:(machine ()) ~hv:Hv.Kind.Kvm []

let test_migrate_audit_time_charged () =
  let run ?audit () =
    let src = xen_host () and dst = kvm_dst () in
    Hypertp.Api.transplant_migration ?audit ~src ~dst ()
  in
  let plain = run () in
  let aud = run ~audit () in
  checkb "plain run pays nothing" true
    (Sim.Time.equal plain.Hypertp.Migrate.audit_time Sim.Time.zero
    && plain.Hypertp.Migrate.audit = None);
  checkb "audit time charged" true
    Sim.Time.(Sim.Time.zero < aud.Hypertp.Migrate.audit_time);
  checkb "audit time lands in total_time" true
    (Sim.Time.equal aud.Hypertp.Migrate.total_time
       (Sim.Time.add plain.Hypertp.Migrate.total_time
          aud.Hypertp.Migrate.audit_time));
  checkb "destination world clean" true
    (aud.Hypertp.Migrate.checks.Hypertp.Migrate.residual_clean
    && match aud.Hypertp.Migrate.audit with
       | Some a -> A.clean a
       | None -> false)

let test_migrate_leak_scrubbed_stays_clean () =
  let src = xen_host () and dst = kvm_dst () in
  let fault = one Fault.Residual_leak (Fault.Nth_hit 1) in
  let r = Hypertp.Api.transplant_migration ~fault ~audit ~src ~dst () in
  checkb "scrub-and-recheck keeps the check green" true
    r.Hypertp.Migrate.checks.Hypertp.Migrate.residual_clean;
  match r.Hypertp.Migrate.audit with
  | Some a -> checkb "recheck clean" true (A.clean a)
  | None -> Alcotest.fail "no report"

let test_migrate_scrub_fail_flags_residue () =
  let src = xen_host () and dst = kvm_dst () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Residual_leak; trigger = Fault.Nth_hit 1 };
        { Fault.site = Fault.Scrub_fail; trigger = Fault.Nth_hit 1 } ]
  in
  let r =
    Hypertp.Api.transplant_migration ~fault ~audit ~src ~dst ()
  in
  checkb "residual check fails" true
    (not r.Hypertp.Migrate.checks.Hypertp.Migrate.residual_clean);
  match r.Hypertp.Migrate.audit with
  | Some a ->
    checkb "residue reported" true (not (A.clean a));
    checkb "worst is exploitable" true (A.worst a = Some A.Exploitable)
  | None -> Alcotest.fail "no report"

(* --- campaign wiring: per-host audit verdicts --- *)

let audit_injections p =
  [ { Fault.site = Fault.Residual_leak; trigger = Fault.Probability p };
    { Fault.site = Fault.Scrub_fail; trigger = Fault.Probability (p /. 2.0) } ]

let finished = function
  | C.Finished (r, j) -> (r, j)
  | C.Crashed _ -> Alcotest.fail "campaign crashed without a crash fault"

let test_campaign_unarmed_has_no_verdicts () =
  let r, _ = finished (C.run C.default_config) in
  checkb "no verdicts without the audit sites" true (r.C.audit_verdicts = []);
  checkb "host records carry none" true
    (List.for_all (fun h -> h.C.hr_audit = None) r.C.hosts)

let test_campaign_audit_verdicts () =
  let fault = Fault.make ~seed:13L (audit_injections 0.6) in
  let r = C.run_to_completion ~fault C.default_config in
  let inplace_hosts =
    List.filter (fun h -> h.C.hr_status = C.Upgraded_inplace) r.C.hosts
  in
  checki "one verdict per in-place host" (List.length inplace_hosts)
    (List.length r.C.audit_verdicts);
  checkb "every in-place host carries a verdict" true
    (List.for_all (fun h -> h.C.hr_audit <> None) inplace_hosts);
  checkb "p=0.6 plants residue on some host" true
    (List.exists (fun (_, v) -> v <> C.A_clean) r.C.audit_verdicts);
  checki "accounting still closes" r.C.vms_total (C.vms_accounted r)

let test_campaign_audit_resume_roundtrip () =
  let mk extra =
    Fault.make ~seed:21L (audit_injections 0.7 @ extra)
  in
  let uninterrupted =
    match C.run ~fault:(mk []) C.default_config with
    | C.Finished (r, _) -> r
    | C.Crashed _ -> Alcotest.fail "no crash was armed"
  in
  let crash =
    [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 8 } ]
  in
  let resumed =
    match C.run ~fault:(mk crash) C.default_config with
    | C.Finished (r, _) -> r
    | C.Crashed journal -> (
      let text = C.journal_to_string journal in
      checkb "journal text carries audit verdicts" true
        (let rec has i =
           i + 7 <= String.length text
           && (String.sub text i 7 = " audit=" || has (i + 1))
         in
         has 0);
      let journal' =
        match C.journal_of_string text with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal round-trip: %s" e
      in
      match C.resume ~fault:(mk crash) journal' with
      | C.Finished (r, _) -> r
      | C.Crashed _ -> Alcotest.fail "crashed again")
  in
  checkb "resume converges to the uninterrupted report" true
    (uninterrupted = resumed)

let test_campaign_resume_rejects_mismatched_audit () =
  (* Original plan: leak and scrub failure both certain, so every
     completed host journals A_failed.  Resuming with the scrub failure
     dropped would replay A_scrubbed — the journal must be rejected. *)
  let original =
    Fault.make ~seed:31L
      [ { Fault.site = Fault.Residual_leak; trigger = Fault.Probability 1.0 };
        { Fault.site = Fault.Scrub_fail; trigger = Fault.Probability 1.0 };
        { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 8 } ]
  in
  match C.run ~fault:original C.default_config with
  | C.Finished _ -> Alcotest.fail "controller crash never fired"
  | C.Crashed journal ->
    let mismatched =
      Fault.make ~seed:31L
        [ { Fault.site = Fault.Residual_leak; trigger = Fault.Probability 1.0 };
          { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 8 } ]
    in
    checkb "mismatched audit plan rejected" true
      (try
         ignore (C.resume ~fault:mismatched journal);
         false
       with Hypertp.Error.Error e ->
         e.Hypertp.Error.site = "Campaign.resume")

let test_verdict_strings_roundtrip () =
  List.iter
    (fun v ->
      match C.verdict_of_string (C.verdict_to_string v) with
      | Some v' -> checkb (C.verdict_to_string v) true (v = v')
      | None -> Alcotest.fail "verdict round-trip")
    [ C.A_clean; C.A_scrubbed; C.A_failed ];
  checkb "garbage rejected" true (C.verdict_of_string "garbage" = None)

let suites =
  [
    ( "audit.sweep",
      [
        Alcotest.test_case "calm world audits clean" `Quick
          test_calm_world_audits_clean;
        Alcotest.test_case "planted kinds flagged then scrubbed" `Quick
          test_planted_all_kinds_flagged_then_scrubbed;
        qtest prop_zero_false_negatives;
      ] );
    ( "audit.serialization",
      [
        qtest prop_report_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_report_parse_errors;
        Alcotest.test_case "same seed byte-identical" `Quick
          test_same_seed_byte_identical;
        Alcotest.test_case "planted golden pin" `Quick test_planted_golden;
        Alcotest.test_case "shared diag shape" `Quick test_diag_shared_shape;
      ] );
    ( "audit.inplace",
      [
        Alcotest.test_case "calm clean, all directions" `Quick
          test_calm_transplants_audit_clean_all_directions;
        Alcotest.test_case "unarmed has no report" `Quick
          test_unarmed_run_has_no_report;
        Alcotest.test_case "leak scrubbed, never commits" `Quick
          test_leak_scrubbed_never_commits;
        Alcotest.test_case "scrub failure escalates" `Quick
          test_scrub_fail_escalates_to_full_reboot;
        Alcotest.test_case "one consultation per run" `Quick
          test_leak_nth2_never_fires;
        Alcotest.test_case "salvage then audit clean" `Quick
          test_salvage_then_audit_clean;
        Alcotest.test_case "audit time charged to downtime" `Quick
          test_audit_time_charged_to_downtime;
        Alcotest.test_case "rung spans reconcile" `Quick
          test_audit_rungs_reconcile_with_trace;
        Alcotest.test_case "costs monotone" `Quick test_costs_monotone;
        Alcotest.test_case "fault sites parse" `Quick test_fault_sites_parse;
      ] );
    ( "audit.migrate",
      [
        Alcotest.test_case "audit time charged" `Quick
          test_migrate_audit_time_charged;
        Alcotest.test_case "leak scrubbed stays clean" `Quick
          test_migrate_leak_scrubbed_stays_clean;
        Alcotest.test_case "scrub failure flags residue" `Quick
          test_migrate_scrub_fail_flags_residue;
      ] );
    ( "audit.campaign",
      [
        Alcotest.test_case "unarmed has no verdicts" `Quick
          test_campaign_unarmed_has_no_verdicts;
        Alcotest.test_case "per-host verdicts" `Quick
          test_campaign_audit_verdicts;
        Alcotest.test_case "resume round-trips verdicts" `Quick
          test_campaign_audit_resume_roundtrip;
        Alcotest.test_case "resume rejects mismatched verdicts" `Quick
          test_campaign_resume_rejects_mismatched_audit;
        Alcotest.test_case "verdict strings round-trip" `Quick
          test_verdict_strings_roundtrip;
      ] );
  ]
