(* Tests for the HyperTP framework: InPlaceTP, MigrationTP, memory
   separation, options/ablations, the CVE-driven API, TCB accounting. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small_vm ?(name = "vm0") ?(vcpus = 1) ?(mib = 256)
    ?(workload = Vmstate.Vm.Wl_idle) ?(inplace_compatible = true) () =
  Vmstate.Vm.config ~name ~vcpus ~ram:(Hw.Units.mib mib) ~workload
    ~inplace_compatible ()

let xen_host ?(machine = Hw.Machine.m1 ()) ?(vms = [ small_vm () ]) () =
  Hypertp.Api.provision ~name:"h" ~machine ~hv:Hv.Kind.Xen vms

let kvm_host ?(machine = Hw.Machine.m1 ()) ?(vms = []) ?(name = "dst") () =
  Hypertp.Api.provision ~name ~machine ~hv:Hv.Kind.Kvm vms

(* --- InPlaceTP --- *)

let test_inplace_all_checks_pass () =
  let host = xen_host ~vms:[ small_vm (); small_vm ~name:"vm1" ~vcpus:2 () ] () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  checkb "all checks" true (Hypertp.Inplace.all_ok r.checks);
  checki "both vms" 2 r.vm_count;
  checkb "host now kvm" true
    (Hv.Host.hypervisor_kind host = Some Hv.Kind.Kvm);
  checkb "vms running" true
    (List.for_all Vmstate.Vm.is_running (Hv.Host.vms host))

let test_inplace_reverse_direction () =
  let host = kvm_host ~name:"h" ~vms:[ small_vm () ] () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Xen () in
  checkb "all checks" true (Hypertp.Inplace.all_ok r.checks);
  checkb "host now xen" true (Hv.Host.hypervisor_kind host = Some Hv.Kind.Xen);
  (* KVM->Xen pays the type-I boot: much longer downtime (Fig. 10). *)
  checkb "downtime dominated by xen boot" true
    (Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases) > 6.0)

let test_inplace_same_target_rejected () =
  let host = xen_host () in
  Alcotest.check_raises "same hv"
    (Invalid_argument "Inplace.run: target equals the running hypervisor")
    (fun () ->
      ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Xen ()))

let test_inplace_no_vms_rejected () =
  let host = xen_host ~vms:[] () in
  Alcotest.check_raises "no vms"
    (Invalid_argument "Inplace.run: no VMs to transplant") (fun () ->
      ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ()))

let test_inplace_phase_calibration_m1 () =
  (* The paper's basic scenario: 1 vCPU / 1 GiB on M1 -> ~1.7 s downtime
     (Fig. 6). *)
  let host = xen_host ~vms:[ small_vm ~mib:1024 () ] () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  let d = Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases) in
  checkb "downtime ~1.7s" true (d > 1.4 && d < 2.1);
  let reboot = Sim.Time.to_sec_f r.phases.Hypertp.Phases.reboot in
  checkb "reboot dominates (~70%)" true (reboot /. d > 0.6)

let test_inplace_phase_calibration_m2 () =
  let host =
    xen_host ~machine:(Hw.Machine.m2 ()) ~vms:[ small_vm ~mib:1024 () ] ()
  in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  let d = Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases) in
  checkb "downtime ~3.0s on M2" true (d > 2.5 && d < 3.6)

let test_inplace_fixups_recorded () =
  let host = xen_host () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  let fixes = List.assoc "vm0" r.fixups in
  checkb "ioapic truncation" true
    (List.exists
       (function Uisr.Fixup.Ioapic_pins_dropped _ -> true | _ -> false)
       fixes);
  checkb "container change" true
    (List.exists
       (function Uisr.Fixup.Lapic_container_changed -> true | _ -> false)
       fixes)

let test_inplace_guest_memory_physically_in_place () =
  let host = xen_host () in
  let vm_before = Option.get (Hv.Host.find_vm host "vm0") in
  let mfn0 = Vmstate.Guest_mem.mfn_of_page vm_before.Vmstate.Vm.mem 0 in
  ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ());
  let vm_after = Option.get (Hv.Host.find_vm host "vm0") in
  checkb "same guest_mem object" true
    (vm_after.Vmstate.Vm.mem == vm_before.Vmstate.Vm.mem);
  checkb "same first frame" true
    (Hw.Frame.Mfn.equal mfn0 (Vmstate.Guest_mem.mfn_of_page vm_after.Vmstate.Vm.mem 0))

let test_inplace_tcp_connections_survive () =
  let host = xen_host () in
  let conns_before =
    Vmstate.Vm.total_tcp_connections (Option.get (Hv.Host.find_vm host "vm0"))
  in
  ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ());
  let conns_after =
    Vmstate.Vm.total_tcp_connections (Option.get (Hv.Host.find_vm host "vm0"))
  in
  checki "unplug/rescan keeps TCP (section 4.2.3)" conns_before conns_after

let test_inplace_passthrough_devices () =
  (* Section 4.2.3: pass-through devices are paused (driver state lives
     in guest memory and rides along); they are NOT unplugged/rescanned
     and end up running again. *)
  let vms =
    [ Vmstate.Vm.config ~name:"pt" ~ram:(Hw.Units.mib 256)
        ~device_kinds:
          [ Vmstate.Device.Net_passthrough; Vmstate.Device.Blk_passthrough;
            Vmstate.Device.Serial_console ]
        () ]
  in
  let host = xen_host ~vms () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  checkb "ok" true (Hypertp.Inplace.all_ok r.checks);
  checkb "no rescan fixups for pass-through" true
    (List.for_all
       (fun (_, fixes) ->
         not
           (List.exists
              (function Uisr.Fixup.Device_rescanned _ -> true | _ -> false)
              fixes))
       r.fixups);
  let vm = Option.get (Hv.Host.find_vm host "pt") in
  Array.iter
    (fun (d : Vmstate.Device.t) ->
      checkb "device running after resume" true
        (d.run_state = Vmstate.Device.Dev_running))
    vm.Vmstate.Vm.devices

let test_inplace_preserves_ring_state () =
  (* The emulated disk's virtqueue indices are emulation state that must
     land unchanged on the target (section 4.2.3). *)
  let host = xen_host () in
  let vm = Option.get (Hv.Host.find_vm host "vm0") in
  let blk_queue_indices v =
    Array.to_list v.Vmstate.Vm.devices
    |> List.filter (fun (d : Vmstate.Device.t) -> d.kind = Vmstate.Device.Blk_emulated)
    |> List.concat_map (fun (d : Vmstate.Device.t) ->
           Array.to_list
             (Array.map
                (fun q ->
                  (Vmstate.Virtqueue.avail_idx q, Vmstate.Virtqueue.used_idx q))
                d.queues))
  in
  (* Pause first so the quiesced indices are the ground truth. *)
  Hv.Host.pause_vm host "vm0";
  Hv.Host.resume_vm host "vm0";
  let before = blk_queue_indices vm in
  ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ());
  let after = blk_queue_indices (Option.get (Hv.Host.find_vm host "vm0")) in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "ring indices identical" before after

let test_inplace_roundtrip_back () =
  (* Xen -> KVM -> Xen: the full vulnerability-window story. *)
  let host = xen_host () in
  let r1 = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  let r2 = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Xen () in
  checkb "first leg ok" true (Hypertp.Inplace.all_ok r1.checks);
  checkb "second leg ok" true (Hypertp.Inplace.all_ok r2.checks);
  checkb "back on xen" true (Hv.Host.hypervisor_kind host = Some Hv.Kind.Xen)

let test_inplace_scales_with_vms () =
  let vms n = List.init n (fun i -> small_vm ~name:(Printf.sprintf "v%d" i) ~mib:128 ()) in
  let run n =
    let host = xen_host ~vms:(vms n) () in
    let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
    checkb "ok" true (Hypertp.Inplace.all_ok r.checks);
    Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases)
  in
  let d1 = run 1 and d8 = run 8 in
  checkb "more vms, more downtime" true (d8 > d1);
  checkb "but sublinear (parallelism + shared reboot)" true (d8 < 4.0 *. d1)

(* The big integration property: InPlaceTP preserves everything it
   promises, for arbitrary VM shapes, fleet sizes and directions. *)
let prop_inplace_always_correct =
  let gen =
    QCheck.Gen.(
      let direction = oneofl Hv.Kind.[ (Xen, Kvm); (Kvm, Xen); (Xen, Bhyve);
                                       (Bhyve, Kvm); (Kvm, Bhyve); (Bhyve, Xen) ] in
      quad direction (int_range 1 4) (int_range 1 3) (int_range 1 4))
  in
  QCheck.Test.make ~name:"InPlaceTP all-checks for random configs" ~count:15
    (QCheck.make gen)
    (fun ((src, dst), nvms, vcpus, mib128) ->
      let vms =
        List.init nvms (fun i ->
            Vmstate.Vm.config
              ~name:(Printf.sprintf "q%d" i)
              ~vcpus
              ~ram:(Hw.Units.mib (128 * mib128))
              ())
      in
      let host =
        Hypertp.Api.provision
          ~seed:(Int64.of_int (Hashtbl.hash (nvms, vcpus, mib128)))
          ~name:"prop" ~machine:(Hw.Machine.m1 ()) ~hv:src vms
      in
      let r = Hypertp.Api.transplant_inplace ~host ~target:dst () in
      Hypertp.Inplace.all_ok r.checks
      && Hv.Host.hypervisor_kind host = Some dst
      && Hv.Host.vm_count host = nvms
      && List.for_all Vmstate.Vm.is_running (Hv.Host.vms host)
      && Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases) < 30.0
      (* the Azure maintenance ceiling the paper adopts *))

(* --- Options / ablations --- *)

let ablation_downtime options =
  let host = xen_host ~vms:[ small_vm ~mib:1024 () ] () in
  let r = Hypertp.Inplace.run ~options ~host ~target:(module Kvmhv.Kvm) () in
  (r, Sim.Time.to_sec_f (Hypertp.Phases.downtime r.phases))

let test_ablation_prepare_before_pause () =
  let _, with_prep = ablation_downtime Hypertp.Options.default in
  let r_no, without =
    ablation_downtime
      { Hypertp.Options.default with prepare_before_pause = false }
  in
  checkb "preparation shrinks downtime" true (with_prep < without);
  checkb "pram phase moved into downtime" true
    (Sim.Time.to_sec_f r_no.phases.Hypertp.Phases.pram = 0.0)

let test_ablation_huge_pages () =
  let r_huge, d_huge = ablation_downtime Hypertp.Options.default in
  let r_4k, d_4k =
    ablation_downtime { Hypertp.Options.default with huge_page_pram = false }
  in
  checkb "4K PRAM much bigger" true
    (r_4k.pram_accounting.Pram.Layout.total_bytes
    > 50 * r_huge.pram_accounting.Pram.Layout.total_bytes);
  checkb "4K parse slows the reboot" true (d_4k > d_huge)

let test_ablation_early_restoration () =
  let _, d_early = ablation_downtime Hypertp.Options.default in
  let _, d_late =
    ablation_downtime { Hypertp.Options.default with early_restoration = false }
  in
  checkb "early restoration helps" true (d_early < d_late)

let test_ablation_parallel () =
  (* Parallelism matters with many VMs. *)
  let vms = List.init 6 (fun i -> small_vm ~name:(Printf.sprintf "v%d" i) ~mib:256 ()) in
  let run options =
    let host = xen_host ~vms () in
    let r = Hypertp.Inplace.run ~options ~host ~target:(module Kvmhv.Kvm) () in
    Sim.Time.to_sec_f (Hypertp.Phases.total r.phases)
  in
  let par = run Hypertp.Options.default in
  let seq = run { Hypertp.Options.default with parallel_translation = false } in
  checkb "parallel faster with 6 VMs" true (par < seq)

(* --- MigrationTP --- *)

let test_migration_tp_basic () =
  let src = xen_host ~vms:[ small_vm ~mib:512 () ] () in
  let dst = kvm_host () in
  let r = Hypertp.Api.transplant_migration ~src ~dst () in
  checkb "kind heterogeneous" true (r.kind = `Migration_tp);
  checkb "memory equal" true r.checks.Hypertp.Migrate.memory_equal;
  checkb "conns preserved" true r.checks.Hypertp.Migrate.connections_preserved;
  checkb "dst mgmt consistent" true r.checks.Hypertp.Migrate.management_consistent;
  checki "vm landed" 1 (Hv.Host.vm_count dst);
  checki "source emptied" 0 (Hv.Host.vm_count src)

let test_migration_downtime_asymmetry () =
  (* Table 4: MigrationTP's downtime is ~27x below Xen->Xen's. *)
  let mk_src () = xen_host ~vms:[ small_vm ~mib:1024 () ] () in
  let r_tp =
    Hypertp.Api.transplant_migration ~src:(mk_src ()) ~dst:(kvm_host ()) ()
  in
  let xen_dst =
    Hypertp.Api.provision ~name:"xdst" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen []
  in
  let r_xen =
    Hypertp.Api.transplant_migration ~src:(mk_src ()) ~dst:xen_dst ()
  in
  checkb "homogeneous detected" true (r_xen.kind = `Homogeneous);
  let d_tp = Sim.Time.to_ms_f (List.hd r_tp.per_vm).Hypertp.Migrate.downtime in
  let d_xen = Sim.Time.to_ms_f (List.hd r_xen.per_vm).Hypertp.Migrate.downtime in
  checkb "migrationtp ms-scale" true (d_tp < 30.0);
  checkb "xen ~130ms" true (d_xen > 80.0 && d_xen < 220.0);
  checkb "order-of-magnitude gap" true (d_xen /. d_tp > 5.0);
  (* Total migration time is roughly equal (Table 4: ~9.6 s). *)
  let t_tp = Sim.Time.to_sec_f r_tp.total_time in
  let t_xen = Sim.Time.to_sec_f r_xen.total_time in
  checkb "~9.6s total" true (t_tp > 8.0 && t_tp < 12.0);
  checkb "totals close" true (Float.abs (t_tp -. t_xen) < 1.5)

let test_migration_sequential_receive_variance () =
  (* Fig. 8: migrating several VMs at once, Xen's sequential receive
     spreads downtimes; kvmtool's parallel receive keeps them flat. *)
  let vms =
    List.init 4 (fun i -> small_vm ~name:(Printf.sprintf "v%d" i) ~mib:256 ())
  in
  let r_tp =
    Hypertp.Api.transplant_migration ~src:(xen_host ~vms ()) ~dst:(kvm_host ()) ()
  in
  let xen_dst =
    Hypertp.Api.provision ~name:"xd2" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen []
  in
  let r_xen =
    Hypertp.Api.transplant_migration ~src:(xen_host ~vms ()) ~dst:xen_dst ()
  in
  let downtimes r =
    List.map
      (fun (v : Hypertp.Migrate.vm_report) -> Sim.Time.to_ms_f v.downtime)
      r.Hypertp.Migrate.per_vm
  in
  let spread l = List.fold_left Float.max 0.0 l -. List.fold_left Float.min 1e9 l in
  checkb "xen spread >> tp spread" true
    (spread (downtimes r_xen) > 10.0 *. spread (downtimes r_tp));
  checkb "xen queue waits grow" true
    (List.exists
       (fun (v : Hypertp.Migrate.vm_report) ->
         Sim.Time.to_ms_f v.queue_wait > 50.0)
       r_xen.per_vm)

let test_migration_link_failure_safe () =
  (* DESIGN.md failure injection: a link drop mid-round must leave the
     source VM resident, running and consistent, and the destination
     clean. *)
  let src = xen_host ~vms:[ small_vm ~mib:512 ~workload:Vmstate.Vm.Wl_redis () ] () in
  let dst = kvm_host ~name:"dfail" () in
  let dst_used_before = Hw.Pmem.used_frames dst.Hv.Host.pmem in
  let src_vm = Option.get (Hv.Host.find_vm src "vm0") in
  let checksum = Vmstate.Guest_mem.checksum src_vm.Vmstate.Vm.mem in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Migration_link_drop; trigger = Fault.On_vm "vm0" } ]
  in
  let r = Hypertp.Migrate.run ~fault ~src ~dst () in
  let v = List.hd r.per_vm in
  checkb "aborted outcome" true
    (match v.Hypertp.Migrate.outcome with
    | Hypertp.Migrate.Aborted_link_failure 0 -> true
    | _ -> false);
  checki "all attempts burnt" 2 v.Hypertp.Migrate.retries;
  checkb "zero downtime" true
    (Sim.Time.equal v.Hypertp.Migrate.downtime Sim.Time.zero);
  checkb "source still resident" true (Hv.Host.find_vm src "vm0" <> None);
  checkb "source still running" true (Vmstate.Vm.is_running src_vm);
  checkb "source memory unperturbed" true
    (Int64.equal checksum (Vmstate.Guest_mem.checksum src_vm.Vmstate.Vm.mem));
  checki "nothing landed on destination" 0 (Hv.Host.vm_count dst);
  checki "destination memory released" dst_used_before
    (Hw.Pmem.used_frames dst.Hv.Host.pmem);
  checkb "source mgmt consistent" true (Hv.Host.management_consistent src)

let test_migration_partial_failure () =
  (* One VM's link dies; the other completes normally. *)
  let src =
    xen_host
      ~vms:[ small_vm ~name:"ok" (); small_vm ~name:"doomed" () ]
      ()
  in
  let dst = kvm_host ~name:"dpart" () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Migration_link_drop;
          trigger = Fault.On_vm "doomed" } ]
  in
  let r = Hypertp.Migrate.run ~fault ~src ~dst () in
  checkb "ok completed" true
    (List.exists
       (fun (v : Hypertp.Migrate.vm_report) ->
         v.vm_name = "ok" && v.outcome = Hypertp.Migrate.Completed)
       r.per_vm);
  checkb "ok landed" true (Hv.Host.find_vm dst "ok" <> None);
  checkb "doomed stayed" true (Hv.Host.find_vm src "doomed" <> None);
  checkb "dst consistent" true r.checks.Hypertp.Migrate.management_consistent

let test_ioapic_harmonization () =
  (* Section 4.2.1 future work: cap guests' IOAPIC at the repertoire
     minimum (24 pins) so no transplant ever drops a live pin. *)
  let vms =
    [ Vmstate.Vm.config ~name:"h0" ~ram:(Hw.Units.mib 256)
        ~compat_ioapic_pins:24 () ]
  in
  let host = xen_host ~vms () in
  let vm = Option.get (Hv.Host.find_vm host "h0") in
  checki "capped at creation under xen" 24
    (Vmstate.Ioapic.pin_count vm.Vmstate.Vm.ioapic);
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  checkb "ok" true (Hypertp.Inplace.all_ok r.checks);
  checkb "no lossy fixups at all" true
    (List.for_all
       (fun (_, fixes) -> not (List.exists Uisr.Fixup.is_lossy fixes))
       r.fixups);
  checkb "no pin-drop fixup either" true
    (List.for_all
       (fun (_, fixes) ->
         not
           (List.exists
              (function Uisr.Fixup.Ioapic_pins_dropped _ -> true | _ -> false)
              fixes))
       r.fixups)

let test_unharmonized_drops_pins () =
  (* Control: without the cap, Xen->KVM records a pin-drop fixup. *)
  let host = xen_host () in
  let r = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  checkb "pin drop present" true
    (List.exists
       (fun (_, fixes) ->
         List.exists
           (function Uisr.Fixup.Ioapic_pins_dropped _ -> true | _ -> false)
           fixes)
       r.fixups)

let test_migration_unknown_vm () =
  let src = xen_host () in
  let dst = kvm_host ~name:"d9" () in
  Alcotest.check_raises "unknown vm"
    (Invalid_argument "Migrate.run: unknown VM nope") (fun () ->
      ignore (Hypertp.Api.transplant_migration ~src ~dst ~vm_names:[ "nope" ] ()))

(* --- Memsep --- *)

let test_memsep_proportions () =
  let host = xen_host ~vms:[ small_vm ~mib:1024 () ] () in
  let r = Hypertp.Memsep.of_host host in
  checkb "guest dominates" true
    (r.guest_state_bytes > 10 * r.hv_state_bytes);
  checkb "vmi state tiny" true
    (Hypertp.Memsep.translated_fraction r < 0.01);
  checkb "all categories populated" true
    (r.vmi_state_bytes > 0 && r.management_state_bytes > 0
   && r.hv_state_bytes > 0)

(* --- API --- *)

let test_api_respond_applies () =
  let host = xen_host () in
  let r =
    Hypertp.Api.respond_to_cve ~host ~cve_id:"CVE-2016-6258" ~mode:`Apply ()
  in
  checkb "advised kvm" true (r.advice = Cve.Window.Transplant_to "kvm");
  checkb "applied" true (Hypertp.Api.applied_report r <> None);
  checkb "now kvm" true (Hv.Host.hypervisor_kind host = Some Hv.Kind.Kvm)

let test_api_respond_no_apply () =
  let host = xen_host () in
  let r =
    Hypertp.Api.respond_to_cve ~host ~cve_id:"CVE-2016-6258" ~mode:`Advise ()
  in
  checkb "advice only" true (r.outcome = `Advised Hv.Kind.Kvm);
  checkb "still xen" true (Hv.Host.hypervisor_kind host = Some Hv.Kind.Xen);
  (* Advice is a pure function of the CVE and the running hypervisor. *)
  let host' = xen_host () in
  let r' =
    Hypertp.Api.respond_to_cve ~host:host' ~cve_id:"CVE-2016-6258"
      ~mode:`Advise ()
  in
  checkb "repeat advice matches" true (r'.outcome = r.outcome);
  checkb "repeat host untouched" true
    (Hv.Host.hypervisor_kind host' = Some Hv.Kind.Xen)

let test_api_respond_common_flaw () =
  (* VENOM hits both Xen and KVM; with the three-hypervisor repertoire
     the policy escapes to bhyve (with the two-member fleet it would be
     No_safe_alternative — covered in test_cve). *)
  let host = xen_host () in
  let r =
    Hypertp.Api.respond_to_cve ~host ~cve_id:"CVE-2015-3456" ~mode:`Apply ()
  in
  checkb "escape to bhyve" true (r.advice = Cve.Window.Transplant_to "bhyve");
  checkb "applied" true (Hypertp.Api.applied_report r <> None);
  checkb "now on bhyve" true
    (Hv.Host.hypervisor_kind host = Some Hv.Kind.Bhyve)

let test_api_unknown_cve () =
  let host = xen_host () in
  checkb "unknown CVE raises a structured error" true
    (try
       ignore
         (Hypertp.Api.respond_to_cve ~host ~cve_id:"CVE-1999-0001"
            ~mode:`Apply ());
       false
     with Hypertp.Error.Error e ->
       e.Hypertp.Error.site = "Api.respond_to_cve"
       && e.Hypertp.Error.reason = "unknown CVE CVE-1999-0001"
       && e.Hypertp.Error.hint <> None)

(* --- Snapshot --- *)

let test_snapshot_roundtrip_bytes () =
  let host = xen_host () in
  let snap = Hypertp.Snapshot.capture host "vm0" in
  let blob = Hypertp.Snapshot.to_bytes snap in
  (match Hypertp.Snapshot.of_bytes blob with
  | Ok snap' ->
    Alcotest.check Alcotest.string "name" "vm0" (Hypertp.Snapshot.vm_name snap');
    checki "memory size" (Hypertp.Snapshot.memory_bytes snap)
      (Hypertp.Snapshot.memory_bytes snap')
  | Error e -> Alcotest.fail e);
  (* Corruption is detected. *)
  Bytes.set blob 20 (Char.chr (Char.code (Bytes.get blob 20) lxor 0xFF));
  checkb "corruption rejected" true
    (Result.is_error (Hypertp.Snapshot.of_bytes blob))

let test_snapshot_capture_keeps_vm_running () =
  let host = xen_host () in
  let _ = Hypertp.Snapshot.capture host "vm0" in
  checkb "still running after capture" true
    (Vmstate.Vm.is_running (Option.get (Hv.Host.find_vm host "vm0")))

let test_snapshot_cross_hypervisor_restore () =
  (* Suspend on Xen, resume on KVM: the Nova suspend/resume pair that
     HyperTP turns cross-hypervisor. *)
  let src = xen_host () in
  let vm = Option.get (Hv.Host.find_vm src "vm0") in
  Vmstate.Guest_mem.write_page vm.Vmstate.Vm.mem 0 0x5AFE5AFEL;
  let checksum = Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem in
  let snap = Hypertp.Snapshot.capture src "vm0" in
  let dst = kvm_host ~name:"snap-dst" () in
  let fixups = Hypertp.Snapshot.restore snap dst in
  let restored = Option.get (Hv.Host.find_vm dst "vm0") in
  checkb "running on kvm" true (Vmstate.Vm.is_running restored);
  checkb "memory image replayed" true
    (Int64.equal checksum (Vmstate.Guest_mem.checksum restored.Vmstate.Vm.mem));
  Alcotest.check Alcotest.int64 "specific page content" 0x5AFE5AFEL
    (Vmstate.Guest_mem.read_page restored.Vmstate.Vm.mem 0);
  checkb "cross-hypervisor fixups recorded" true
    (List.exists
       (function Uisr.Fixup.Ioapic_pins_dropped _ -> true | _ -> false)
       fixups);
  checkb "dst mgmt consistent" true (Hv.Host.management_consistent dst)

(* --- Tcb --- *)

let test_tcb_accounting () =
  Alcotest.check (Alcotest.float 0.01) "15 KLOC total" 14.6
    (Hypertp.Tcb.total_kloc ());
  Alcotest.check (Alcotest.float 0.01) "8.5 KLOC TCB" 8.5
    (Hypertp.Tcb.tcb_kloc ());
  checkb "~90% userspace (wording: nearly 90%)" true
    (Hypertp.Tcb.tcb_userspace_fraction () > 0.70)

(* --- Golden pin: the benchmark's host shape, end to end --- *)

let read_golden name =
  let path =
    List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]
  in
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* M1, Xen to KVM, 4 VMs x 2 vCPU x 1 GiB: once calm, once with the
   staged image clobbered before the jump.  Pins the reclaimed frame
   count, the PRAM layout and the host's frame accounting afterwards. *)
let render_m1_transplant ?fault () =
  let vms =
    List.init 4 (fun i ->
        Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus:2
          ~ram:(Hw.Units.gib 1) ())
  in
  let host =
    Hypertp.Api.provision ~seed:7L ~name:"pin" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen vms
  in
  let r = Hypertp.Api.transplant_inplace ?fault ~host ~target:Hv.Kind.Kvm () in
  Format.asprintf "%a@.%a@." Hypertp.Inplace.pp_report r Hw.Pmem.pp_usage
    host.Hv.Host.pmem

let test_m1_report_golden () =
  let clobber =
    Fault.make [ { Fault.site = Fault.Kexec_jump; trigger = Fault.Nth_hit 1 } ]
  in
  Alcotest.check Alcotest.string "M1 Xen->KVM 4 x 1 GiB report"
    (read_golden "inplace_m1_report.txt")
    (render_m1_transplant () ^ render_m1_transplant ~fault:clobber ())

(* [Costs.Memo] keeps one table per domain: every domain sees the same
   values, computes each key once, and takes no lock. *)
let test_memo_per_domain () =
  let m = Hypertp.Costs.Memo.create 4 in
  let calls = Atomic.make 0 in
  let square k =
    Atomic.incr calls;
    k * k
  in
  let work () =
    List.init 100 (fun i -> Hypertp.Costs.Memo.find_or_add m (i mod 5) square)
  in
  let here = work () in
  let there = Domain.join (Domain.spawn work) in
  checkb "same values on both domains" true (here = there);
  checkb "values" true (here = List.init 100 (fun i -> (i mod 5) * (i mod 5)));
  checki "each key computed once per domain" 10 (Atomic.get calls)

let suites =
  [
    ( "hypertp.inplace",
      [
        Alcotest.test_case "all checks pass" `Quick test_inplace_all_checks_pass;
        Alcotest.test_case "reverse direction" `Quick test_inplace_reverse_direction;
        Alcotest.test_case "same target rejected" `Quick test_inplace_same_target_rejected;
        Alcotest.test_case "no vms rejected" `Quick test_inplace_no_vms_rejected;
        Alcotest.test_case "M1 calibration (Fig 6)" `Quick
          test_inplace_phase_calibration_m1;
        Alcotest.test_case "M2 calibration (Fig 6)" `Quick
          test_inplace_phase_calibration_m2;
        Alcotest.test_case "fixups recorded" `Quick test_inplace_fixups_recorded;
        Alcotest.test_case "guest memory stays in place" `Quick
          test_inplace_guest_memory_physically_in_place;
        Alcotest.test_case "TCP connections survive" `Quick
          test_inplace_tcp_connections_survive;
        Alcotest.test_case "pass-through devices (4.2.3)" `Quick
          test_inplace_passthrough_devices;
        Alcotest.test_case "virtqueue indices preserved (4.2.3)" `Quick
          test_inplace_preserves_ring_state;
        Alcotest.test_case "roundtrip back to xen" `Quick test_inplace_roundtrip_back;
        Alcotest.test_case "scaling with vms" `Quick test_inplace_scales_with_vms;
        QCheck_alcotest.to_alcotest prop_inplace_always_correct;
        Alcotest.test_case "M1 report golden pin" `Quick test_m1_report_golden;
      ] );
    ( "hypertp.options",
      [
        Alcotest.test_case "prepare before pause" `Quick
          test_ablation_prepare_before_pause;
        Alcotest.test_case "huge pages" `Quick test_ablation_huge_pages;
        Alcotest.test_case "early restoration" `Quick test_ablation_early_restoration;
        Alcotest.test_case "parallel translation" `Quick test_ablation_parallel;
      ] );
    ( "hypertp.migrate",
      [
        Alcotest.test_case "basic migration" `Quick test_migration_tp_basic;
        Alcotest.test_case "downtime asymmetry (Table 4)" `Quick
          test_migration_downtime_asymmetry;
        Alcotest.test_case "sequential receive variance (Fig 8)" `Quick
          test_migration_sequential_receive_variance;
        Alcotest.test_case "link failure leaves source safe" `Quick
          test_migration_link_failure_safe;
        Alcotest.test_case "partial failure" `Quick test_migration_partial_failure;
        Alcotest.test_case "unknown vm" `Quick test_migration_unknown_vm;
      ] );
    ( "hypertp.harmonization",
      [
        Alcotest.test_case "capped IOAPIC avoids lossy fixups" `Quick
          test_ioapic_harmonization;
        Alcotest.test_case "uncapped control drops pins" `Quick
          test_unharmonized_drops_pins;
      ] );
    ( "hypertp.memsep",
      [ Alcotest.test_case "proportions" `Quick test_memsep_proportions ] );
    ( "hypertp.costs",
      [ Alcotest.test_case "memo per domain" `Quick test_memo_per_domain ] );
    ( "hypertp.api",
      [
        Alcotest.test_case "respond applies" `Quick test_api_respond_applies;
        Alcotest.test_case "advice only" `Quick test_api_respond_no_apply;
        Alcotest.test_case "common flaw" `Quick test_api_respond_common_flaw;
        Alcotest.test_case "unknown cve" `Quick test_api_unknown_cve;
      ] );
    ( "hypertp.snapshot",
      [
        Alcotest.test_case "bytes roundtrip + crc" `Quick
          test_snapshot_roundtrip_bytes;
        Alcotest.test_case "capture keeps VM running" `Quick
          test_snapshot_capture_keeps_vm_running;
        Alcotest.test_case "suspend on xen, resume on kvm" `Quick
          test_snapshot_cross_hypervisor_restore;
      ] );
    ("hypertp.tcb", [ Alcotest.test_case "accounting" `Quick test_tcb_accounting ]);
  ]
