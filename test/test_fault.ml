(* Tests for the fault-injection DSL and the transactional/recovery
   semantics it drives through InPlaceTP, MigrationTP and the campaign
   controller's host-crash sweeps. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let small_vm ?(name = "vm0") ?(vcpus = 1) ?(mib = 256)
    ?(workload = Vmstate.Vm.Wl_idle) () =
  Vmstate.Vm.config ~name ~vcpus ~ram:(Hw.Units.mib mib) ~workload ()

let xen_host ?(vms = [ small_vm () ]) () =
  Hypertp.Api.provision ~name:"fh" ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Xen
    vms

let kvm_dst ?(name = "fdst") () =
  Hypertp.Api.provision ~name ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Kvm []

let one site trigger = Fault.make [ { Fault.site; trigger } ]

(* --- the plan DSL itself --- *)

let test_spec_parsing () =
  (match Fault.parse_injection "kexec_jump:1" with
  | Ok { Fault.site = Fault.Kexec_jump; trigger = Fault.Nth_hit 1 } -> ()
  | _ -> Alcotest.fail "kexec_jump:1");
  (match Fault.parse_injection "vm_restore:vm=vm3" with
  | Ok { Fault.site = Fault.Vm_restore; trigger = Fault.On_vm "vm3" } -> ()
  | _ -> Alcotest.fail "vm_restore:vm=vm3");
  (match Fault.parse_spec "migration_link_drop:p=0.1,seed=42" with
  | Ok
      {
        Fault.spec_injection =
          { Fault.site = Fault.Migration_link_drop;
            trigger = Fault.Probability p };
        spec_seed = Some 42L;
      } ->
    checkb "p" true (Float.equal p 0.1)
  | _ -> Alcotest.fail "migration_link_drop:p=0.1,seed=42");
  checkb "unknown site rejected" true
    (Result.is_error (Fault.parse_injection "warp_core:1"));
  checkb "bad probability rejected" true
    (Result.is_error (Fault.parse_injection "host_crash:p=1.5"));
  checkb "missing trigger rejected" true
    (Result.is_error (Fault.parse_injection "host_crash"));
  checkb "bad seed rejected" true
    (Result.is_error (Fault.parse_spec "host_crash:1,seed=banana"));
  (* round-trip every site name *)
  List.iter
    (fun s ->
      checkb (Fault.site_to_string s) true
        (Fault.site_of_string (Fault.site_to_string s) = Some s))
    Fault.all_sites

let test_trigger_validation () =
  checkb "nth_hit 0" true
    (try
       ignore (one Fault.Kexec_jump (Fault.Nth_hit 0));
       false
     with Hypertp_error.Error e ->
       e.Hypertp_error.site = "Fault.make"
       && e.Hypertp_error.reason = "kexec_jump: Nth_hit must be positive"
       && e.Hypertp_error.hint = Some "Nth_hit counts hits starting at 1");
  checkb "p > 1" true
    (try
       ignore (one Fault.Host_crash (Fault.Probability 1.5));
       false
     with Hypertp_error.Error e ->
       e.Hypertp_error.site = "Fault.make"
       && e.Hypertp_error.reason = "host_crash: probability outside [0, 1]"
       && e.Hypertp_error.hint = Some "use a probability in [0, 1], e.g. p=0.25")

let test_trace_determinism () =
  (* Same seed => bit-identical decision trace, draw by draw. *)
  let mk () =
    Fault.make ~seed:0xBEEFL
      [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.3 } ]
  in
  let drive f =
    List.init 50 (fun i -> Fault.fire f ~vm:(Printf.sprintf "h%d" i) Fault.Host_crash)
  in
  let a = mk () and b = mk () in
  let ra = drive a and rb = drive b in
  checkb "same decisions" true (ra = rb);
  checkb "same trace" true (Fault.trace a = Fault.trace b);
  checkb "restart rewinds" true
    (drive (Fault.restart a) = ra);
  checkb "some fired" true (Fault.fired_count a > 0);
  checkb "some passed" true (Fault.fired_count a < 50)

let test_probability_monotone_subset () =
  (* One draw per hit regardless of outcome: with the same seed, the
     set of fired hits at p is a subset of the set at p' >= p. *)
  let drive p =
    let f =
      Fault.make ~seed:0x5EEDL
        [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability p } ]
    in
    List.init 200 (fun _ -> Fault.fire f Fault.Host_crash)
  in
  let low = drive 0.2 and high = drive 0.7 in
  checkb "subset" true
    (List.for_all2 (fun l h -> (not l) || h) low high);
  checkb "strictly more" true
    (List.length (List.filter Fun.id high)
    > List.length (List.filter Fun.id low))

(* --- InPlaceTP: pre-PNR rollback --- *)

let rollback_invariant host site trigger =
  let before =
    List.map
      (fun (vm : Vmstate.Vm.t) ->
        (vm.config.name, Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem))
      (Hv.Host.vms host)
  in
  let used_before = Hw.Pmem.used_frames host.Hv.Host.pmem in
  let r =
    Hypertp.Api.transplant_inplace ~fault:(one site trigger) ~host
      ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Rolled_back s -> checkb "site" true (s = site)
  | _ -> Alcotest.fail "expected rollback");
  checkb "still on source" true
    (Hv.Host.hypervisor_kind host = Some Hv.Kind.Xen);
  checkb "all vms resumed" true
    (List.for_all Vmstate.Vm.is_running (Hv.Host.vms host));
  checkb "checks ok" true (Hypertp.Inplace.all_ok r.checks);
  checkb "checksums byte-identical" true
    (List.for_all
       (fun (vm : Vmstate.Vm.t) ->
         Int64.equal
           (Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem)
           (List.assoc vm.config.name before))
       (Hv.Host.vms host));
  checki "staging released" used_before (Hw.Pmem.used_frames host.Hv.Host.pmem);
  checkb "no reboot phase" true
    (Sim.Time.equal r.phases.Hypertp.Phases.reboot Sim.Time.zero)

let test_rollback_each_pre_pnr_site () =
  List.iter
    (fun site ->
      let host = xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" () ] () in
      rollback_invariant host site (Fault.Nth_hit 1))
    (List.filter Fault.pre_pnr Fault.all_sites)

let prop_rollback_invariant =
  QCheck.Test.make ~count:30 ~name:"any pre-PNR fault rolls back cleanly"
    QCheck.(triple (int_range 0 2) (int_range 1 3) (int_range 1 2))
    (fun (site_i, vms, nth) ->
      let site = List.nth (List.filter Fault.pre_pnr Fault.all_sites) site_i in
      (* kexec_load is hit once; per-VM sites are hit once per VM *)
      let nth = if site = Fault.Kexec_load then 1 else Stdlib.min nth vms in
      let host =
        xen_host
          ~vms:
            (List.init vms (fun i ->
                 small_vm ~name:(Printf.sprintf "vm%d" i) ~mib:(128 * (i + 1))
                   ()))
          ()
      in
      rollback_invariant host site (Fault.Nth_hit nth);
      true)

(* --- InPlaceTP: post-PNR recovery ladder --- *)

let test_uisr_decode_quarantine () =
  let host =
    xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" (); small_vm ~name:"vm2" () ] ()
  in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Uisr_decode (Fault.On_vm "vm1"))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checkb "vm1 quarantined" true (d.quarantined = [ "vm1" ]);
    checkb "no full reboot" true (not d.full_reboot)
  | _ -> Alcotest.fail "expected recovery");
  checkb "host on target" true
    (Hv.Host.hypervisor_kind host = Some Hv.Kind.Kvm);
  checki "two survivors" 2 (Hv.Host.vm_count host);
  checkb "survivors intact" true r.checks.Hypertp.Inplace.guest_memory_intact;
  checkb "survivors running" true
    (List.for_all Vmstate.Vm.is_running (Hv.Host.vms host))

let test_restore_retry_then_success () =
  let host = xen_host () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Vm_restore (Fault.Nth_hit 1))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checki "one retry" 1 d.restore_retries;
    checkb "nothing quarantined" true (d.quarantined = []);
    checkb "recovery time counted" true
      (Sim.Time.to_sec_f d.recovery_time > 0.0)
  | _ -> Alcotest.fail "expected recovery");
  checki "vm survived" 1 (Hv.Host.vm_count host);
  checkb "checks ok" true (Hypertp.Inplace.all_ok r.checks);
  checkb "recovery in downtime" true
    (Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases)
    > Sim.Time.to_sec_f
        (Sim.Time.sum
           [ r.phases.Hypertp.Phases.translation; r.phases.reboot;
             r.phases.restoration ]))

let test_restore_retries_exhausted_quarantines () =
  (* On_vm fires on every attempt, so the default budget (1 + 2 retries)
     is exhausted and the VM is quarantined. *)
  let host = xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" () ] () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Vm_restore (Fault.On_vm "vm0"))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checkb "vm0 quarantined" true (d.quarantined = [ "vm0" ]);
    checki "retry budget burnt" Hypertp.Options.default.restore_retry_limit
      d.restore_retries
  | _ -> Alcotest.fail "expected recovery");
  checki "vm1 survived" 1 (Hv.Host.vm_count host)

let test_kexec_jump_clobber_full_reboot () =
  let host = xen_host () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Kexec_jump (Fault.Nth_hit 1))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checkb "full reboot" true d.full_reboot;
    checkb "kexec_jump noted" true (List.mem Fault.Kexec_jump d.recovery_faults);
    checkb ">= 60 s recovery" true (Sim.Time.to_sec_f d.recovery_time >= 60.0)
  | _ -> Alcotest.fail "expected recovery");
  (* The VM still made it: PRAM-preserved memory + staged UISR survive
     the reboot (ReHype's premise). *)
  checki "vm survived" 1 (Hv.Host.vm_count host);
  checkb "checks ok despite clobber" true (Hypertp.Inplace.all_ok r.checks)

let test_mgmt_rebuild_retry () =
  let host = xen_host () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Mgmt_rebuild (Fault.Nth_hit 1))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checki "one extra rebuild" 1 d.mgmt_rebuilds;
    checkb "no full reboot" true (not d.full_reboot)
  | _ -> Alcotest.fail "expected recovery");
  checkb "management consistent" true
    r.checks.Hypertp.Inplace.management_consistent

let test_committed_when_no_fault_fires () =
  (* An armed plan whose trigger never matches must leave the run
     indistinguishable from a fault-free one. *)
  let host = xen_host () in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Vm_restore (Fault.On_vm "no-such-vm"))
      ~host ~target:Hv.Kind.Kvm ()
  in
  checkb "committed" true (r.Hypertp.Inplace.outcome = Hypertp.Inplace.Committed);
  checkb "all ok" true (Hypertp.Inplace.all_ok r.checks);
  checkb "zero recovery phase" true
    (Sim.Time.equal r.phases.Hypertp.Phases.recovery Sim.Time.zero)

let test_same_seed_same_fault_trace () =
  (* A stochastic InPlaceTP campaign replays bit-for-bit from its seed. *)
  let run () =
    let host = xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" () ] () in
    let f =
      Fault.make ~seed:77L
        [ { Fault.site = Fault.Vm_restore; trigger = Fault.Probability 0.5 };
          { Fault.site = Fault.Uisr_decode; trigger = Fault.Probability 0.2 } ]
    in
    let r = Hypertp.Api.transplant_inplace ~fault:f ~host ~target:Hv.Kind.Kvm () in
    (Fault.trace f, r.Hypertp.Inplace.outcome)
  in
  let t1, o1 = run () and t2, o2 = run () in
  checkb "identical traces" true (t1 = t2);
  checkb "identical outcomes" true (o1 = o2)

(* --- MigrationTP: link faults, retry, backoff --- *)

let test_migration_retry_backoff_schedule () =
  (* Drop the first attempt only: the VM completes on attempt 2 after
     exactly one base backoff (500 ms). *)
  let src = xen_host () in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Migration_link_drop (Fault.Nth_hit 1))
      ~src ~dst:(kvm_dst ()) ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  checkb "completed after 1 retry" true
    (v.Hypertp.Migrate.outcome = Hypertp.Migrate.Completed_after_retries 1);
  checki "retries" 1 v.Hypertp.Migrate.retries;
  checkb "backoff = 500 ms" true
    (Sim.Time.equal v.Hypertp.Migrate.retry_wait (Sim.Time.ms 500));
  checkb "wasted time counted" true
    (Sim.Time.to_sec_f v.Hypertp.Migrate.wasted_time > 0.0);
  checkb "wasted bytes on wire" true
    (v.Hypertp.Migrate.wire_bytes > v.Hypertp.Migrate.state_bytes);
  checkb "landed on destination" true
    (Hv.Host.find_vm src "vm0" = None)

let test_migration_budget_exhausted_backoff () =
  (* Every attempt drops: 3 attempts, 2 backoffs (0.5 s + 1.0 s). *)
  let src = xen_host () in
  let dst = kvm_dst () in
  let src_vm = Option.get (Hv.Host.find_vm src "vm0") in
  let checksum = Vmstate.Guest_mem.checksum src_vm.Vmstate.Vm.mem in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Migration_link_drop (Fault.On_vm "vm0"))
      ~src ~dst ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  (match v.Hypertp.Migrate.outcome with
  | Hypertp.Migrate.Aborted_link_failure 0 -> ()
  | _ -> Alcotest.fail "expected abort in round 0");
  checki "two retries" 2 v.Hypertp.Migrate.retries;
  checkb "backoff = 1.5 s total" true
    (Sim.Time.equal v.Hypertp.Migrate.retry_wait (Sim.Time.ms 1500));
  checkb "zero downtime" true
    (Sim.Time.equal v.Hypertp.Migrate.downtime Sim.Time.zero);
  checkb "source vm untouched" true
    (Vmstate.Vm.is_running src_vm
    && Int64.equal checksum (Vmstate.Guest_mem.checksum src_vm.Vmstate.Vm.mem));
  checki "nothing on destination" 0 (Hv.Host.vm_count dst)

let test_migration_custom_retry_params () =
  let src = xen_host () in
  let retry =
    { Hypertp.Migrate.max_attempts = 5; backoff_base = Sim.Time.ms 100;
      backoff_factor = 3.0 }
  in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Migration_link_drop (Fault.On_vm "vm0"))
      ~retry ~src ~dst:(kvm_dst ()) ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  checki "four retries" 4 v.Hypertp.Migrate.retries;
  (* 100 + 300 + 900 + 2700 ms *)
  checkb "geometric backoff" true
    (Sim.Time.equal v.Hypertp.Migrate.retry_wait (Sim.Time.ms 4000))

let test_migration_degrade_slows_but_completes () =
  let run fault =
    let src = xen_host ~vms:[ small_vm ~workload:Vmstate.Vm.Wl_redis () ] () in
    let r = Hypertp.Migrate.run ?fault ~src ~dst:(kvm_dst ()) () in
    List.hd r.Hypertp.Migrate.per_vm
  in
  let clean = run None in
  let degraded =
    run (Some (one Fault.Migration_link_degrade (Fault.On_vm "vm0")))
  in
  checkb "still completes" true
    (degraded.Hypertp.Migrate.outcome = Hypertp.Migrate.Completed);
  checkb "slower precopy" true
    (Sim.Time.to_sec_f degraded.Hypertp.Migrate.precopy_time
    > Sim.Time.to_sec_f clean.Hypertp.Migrate.precopy_time)

let test_aborted_wire_bytes_include_overhead () =
  (* The satellite bug: aborted rounds must charge the same per-page
     protocol framing as completed ones. *)
  let src = xen_host () in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Migration_link_drop (Fault.On_vm "vm0"))
      ~src ~dst:(kvm_dst ()) ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  let per_page = Hw.Units.page_size_4k + 16 in
  checkb "aborted bytes counted" true (v.Hypertp.Migrate.wire_bytes > 0);
  checki "framing included (divisible by page+overhead)" 0
    (v.Hypertp.Migrate.wire_bytes mod per_page)

(* --- cluster: host-crash sweeps on the campaign controller --- *)

module C = Cluster.Campaign

(* A host failed when any attempt on it manifested a fault. *)
let failed_hosts (r : C.report) =
  List.filter_map
    (fun h -> if h.C.hr_manifestations <> [] then Some h.C.hr_node else None)
    r.C.hosts

let test_sweep_monotone_and_accounted () =
  let sweep = C.sweep ~probabilities:[ 0.0; 0.25; 0.5; 1.0 ] () in
  let walls = List.map (fun (_, r) -> r.C.wall_clock) sweep in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
      Sim.Time.compare a b < 0 && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  checkb "wall-clock strictly increasing" true (strictly_increasing walls);
  List.iter
    (fun (p, r) ->
      checki
        (Printf.sprintf "all VMs accounted at p=%.2f" p)
        r.C.vms_total (C.vms_accounted r))
    sweep;
  (match sweep with
  | (_, r0) :: _ -> checki "no failures at p=0" 0 (List.length (failed_hosts r0))
  | [] -> Alcotest.fail "empty sweep");
  match List.rev sweep with
  | (_, r1) :: _ ->
    checki "every host fails at p=1" 10 (List.length (failed_hosts r1))
  | [] -> assert false

let nested lo hi = List.for_all (fun n -> List.mem n hi) lo

let test_sweep_failed_hosts_nested () =
  (* Same seed: the hosts failing at p are a subset of those at p'>p. *)
  match C.sweep ~probabilities:[ 0.3; 0.8 ] () with
  | [ (_, lo); (_, hi) ] ->
    let lo = failed_hosts lo and hi = failed_hosts hi in
    checkb "nested failure sets" true (nested lo hi);
    checkb "strictly more failures" true (List.length hi > List.length lo)
  | _ -> Alcotest.fail "expected two sweep points"

(* Nesting holds for any shared seed and at serial or parallel
   admission: every admission consults the same sites in the same
   order, so raising p only adds fired hits. *)
let prop_failed_hosts_nested =
  let grid = [| 0.0; 0.1; 0.25; 0.3; 0.5; 0.75; 0.8; 1.0 |] in
  QCheck.Test.make ~count:20 ~name:"campaign failed hosts nested across p"
    QCheck.(
      quad (int_range 1 1_000_000) bool (int_range 0 7) (int_range 0 7))
    (fun (seed, serial, i, j) ->
      let lo = grid.(Stdlib.min i j) and hi = grid.(Stdlib.max i j) in
      let config =
        { C.default_config with
          C.concurrency = (if serial then 1 else 4);
          seed = Int64.of_int seed }
      in
      match
        C.sweep ~config ~seed:(Int64.of_int seed) ~probabilities:[ lo; hi ] ()
      with
      | [ (_, a); (_, b) ] -> nested (failed_hosts a) (failed_hosts b)
      | _ -> false)

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        Alcotest.test_case "trigger validation" `Quick test_trigger_validation;
        Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
        Alcotest.test_case "probability monotone subsets" `Quick
          test_probability_monotone_subset;
      ] );
    ( "fault.inplace",
      [
        Alcotest.test_case "rollback at each pre-PNR site" `Quick
          test_rollback_each_pre_pnr_site;
        qtest prop_rollback_invariant;
        Alcotest.test_case "uisr decode quarantine" `Quick
          test_uisr_decode_quarantine;
        Alcotest.test_case "restore retry then success" `Quick
          test_restore_retry_then_success;
        Alcotest.test_case "restore retries exhausted" `Quick
          test_restore_retries_exhausted_quarantines;
        Alcotest.test_case "kexec clobber full reboot" `Quick
          test_kexec_jump_clobber_full_reboot;
        Alcotest.test_case "mgmt rebuild retry" `Quick test_mgmt_rebuild_retry;
        Alcotest.test_case "committed when trigger never matches" `Quick
          test_committed_when_no_fault_fires;
        Alcotest.test_case "same seed same trace" `Quick
          test_same_seed_same_fault_trace;
      ] );
    ( "fault.migration",
      [
        Alcotest.test_case "retry backoff schedule" `Quick
          test_migration_retry_backoff_schedule;
        Alcotest.test_case "budget exhausted backoff" `Quick
          test_migration_budget_exhausted_backoff;
        Alcotest.test_case "custom retry params" `Quick
          test_migration_custom_retry_params;
        Alcotest.test_case "degraded link slows" `Quick
          test_migration_degrade_slows_but_completes;
        Alcotest.test_case "aborted wire bytes overhead" `Quick
          test_aborted_wire_bytes_include_overhead;
      ] );
    ( "fault.cluster",
      [
        Alcotest.test_case "sweep monotone, zero unaccounted" `Quick
          test_sweep_monotone_and_accounted;
        Alcotest.test_case "failed hosts nested across p" `Quick
          test_sweep_failed_hosts_nested;
        qtest prop_failed_hosts_nested;
      ] );
  ]
