let kind = Hv.Kind.Xen
let name = "xen-4.12.1"
let version = "4.12.1"
let hv_type = Hv.Kind.Type1
let platform = Workload.Profile.P_xen
let ioapic_pins = Vmstate.Ioapic.xen_pins
let kernel_image_bytes = Hw.Units.mib 40 (* xen.gz + dom0 vmlinuz + initrd *)
let sequential_migration_receive = true

(* Xen's MSR load list covers the architectural set; AMD-range extras
   (0xC0010000+) are refused by its msr policy. *)
let supports_msr index = index < 0xC0010000

type domain = {
  domid : int;
  dvm : Vmstate.Vm.t;
  npt : Hv.Npt.t;
  shared_info : Hw.Frame.Mfn.t;
  evtchn : Event_channel.t;
  gnttab : Grant_table.t;
  mutable detached : bool;
}

type t = {
  machine : Hw.Machine.t;
  pmem : Hw.Pmem.t;
  mutable doms : domain list;
  sched : Credit.t;
  store : Xenstore.t;
  mutable next_domid : int;
  hv_heap : (Hw.Frame.Mfn.t * int) list; (* Xen heap + dom0 kernel *)
  mutable alive : bool;
}

(* Xen's p2m keeps auditing metadata beside the architectural tables. *)
let npt_metadata_factor = 1.25

(* Fixed footprint of the hypervisor + dom0 working set that is
   reinitialised at each micro-reboot (HV State). *)
let hv_heap_frames = Hw.Units.frames_of_bytes (Hw.Units.mib 48)

let boot ~machine ~pmem ~rng:_ =
  let hv_heap = Hw.Pmem.alloc_extents pmem hv_heap_frames in
  List.iter
    (fun (start, len) -> Hw.Pmem.fill pmem start len 0x58454E5F48454150L)
    hv_heap;
  {
    machine;
    pmem;
    doms = [];
    sched =
      Credit.create ~pcpus:(Hw.Cpu.total_threads machine.Hw.Machine.cpu);
    store = Xenstore.create ();
    next_domid = 1; (* dom0 is 0 *)
    hv_heap;
    alive = true;
  }

(* Type-I boot = Xen core + dom0 kernel + device bring-up by dom0.
   Calibrated against Fig. 6/10: ~7.6 s on M1, ~17.7 s on M2. *)
let boot_time ~machine =
  let cpu = machine.Hw.Machine.cpu in
  let threads = Hw.Cpu.total_threads cpu in
  let gib = Hw.Units.to_gib_f machine.Hw.Machine.ram in
  let base = 4.87 in
  let per_socket = 0.9 *. float_of_int cpu.Hw.Cpu.sockets in
  let per_thread = 0.06 *. float_of_int threads in
  let per_gib = 0.05 *. gib in
  Sim.Time.add
    (Sim.Time.of_sec_f (base +. per_socket +. per_thread +. per_gib))
    machine.Hw.Machine.costs.Hw.Machine.dom0_device_init

let machine t = t.machine
let pmem t = t.pmem

let check_alive t = if not t.alive then invalid_arg "Xen: hypervisor is down"

let shutdown t =
  check_alive t;
  if t.doms <> [] then invalid_arg "Xen.shutdown: domains remain";
  List.iter (fun (start, len) -> Hw.Pmem.free_extent t.pmem start len) t.hv_heap;
  t.alive <- false

(* Ring pages a PV backend maps per emulated device (front/back shared
   rings plus a modest buffer pool). *)
let ring_grants_per_device = 32

let build_vmi_state t (vm : Vmstate.Vm.t) =
  let npt =
    Hv.Npt.build ~pmem:t.pmem
      ~guest_frames:(Hw.Units.frames_of_bytes vm.config.ram)
      ~page_kind:vm.config.page_kind ~metadata_factor:npt_metadata_factor
  in
  let shared_info =
    match Hw.Pmem.alloc_extents t.pmem 1 with
    | [ (mfn, 1) ] -> mfn
    | _ -> assert false
  in
  Hw.Pmem.write t.pmem shared_info 0x5348415245444946L;
  (* PV plumbing: per emulated device, two interdomain event channels
     (tx/rx) and a set of ring-page grants to dom0; plus the console and
     xenstore channels and a timer VIRQ. *)
  let evtchn = Event_channel.create () in
  let gnttab = Grant_table.create () in
  let npages = Vmstate.Guest_mem.page_count vm.mem in
  Array.iteri
    (fun di d ->
      if not (Vmstate.Device.is_passthrough d) then begin
        List.iter
          (fun lane ->
            let port = Event_channel.alloc_unbound evtchn ~remote_domid:0 in
            Event_channel.bind_interdomain evtchn port ~remote_domid:0
              ~remote_port:((100 * (di + 1)) + lane))
          [ 0; 1 ];
        for g = 0 to ring_grants_per_device - 1 do
          let page = (di + g) mod npages in
          let gref =
            Grant_table.grant gnttab
              ~frame:(Vmstate.Guest_mem.gfn_of_page vm.mem page)
              ~granted_to:0 ~readonly:(g mod 2 = 1)
          in
          Grant_table.map gnttab gref
        done
      end)
    vm.devices;
  List.iter
    (fun lane ->
      let port = Event_channel.alloc_unbound evtchn ~remote_domid:0 in
      Event_channel.bind_interdomain evtchn port ~remote_domid:0
        ~remote_port:lane)
    [ 2; 3 ] (* console, xenstore *);
  ignore (Event_channel.bind_virq evtchn ~virq:0 (* VIRQ_TIMER *));
  (npt, shared_info, evtchn, gnttab)

let register t dom =
  t.doms <- t.doms @ [ dom ];
  Credit.insert_domain t.sched ~domid:dom.domid
    ~vcpus:(Array.length dom.dvm.Vmstate.Vm.vcpus);
  Xenstore.register_domain t.store ~domid:dom.domid
    ~name:dom.dvm.Vmstate.Vm.config.name
    ~memory_kib:(dom.dvm.Vmstate.Vm.config.ram / 1024)
    ~vcpus:dom.dvm.Vmstate.Vm.config.vcpus

let adopt_vm t (vm : Vmstate.Vm.t) =
  check_alive t;
  let npt, shared_info, evtchn, gnttab = build_vmi_state t vm in
  let dom =
    { domid = t.next_domid; dvm = vm; npt; shared_info; evtchn; gnttab;
      detached = false }
  in
  t.next_domid <- t.next_domid + 1;
  register t dom;
  dom

let create_vm t ~rng config =
  check_alive t;
  let vm = Vmstate.Vm.create ~pmem:t.pmem ~rng ~ioapic_pins config in
  adopt_vm t vm

let free_vmi_state t dom =
  if not dom.detached then begin
    dom.detached <- true;
    (* PV plumbing first: backends unmap their grants, channels close. *)
    ignore (Grant_table.force_teardown dom.gnttab);
    ignore (Event_channel.close_all dom.evtchn);
    Hv.Npt.free dom.npt ~pmem:t.pmem;
    Hw.Pmem.free_extent t.pmem dom.shared_info 1;
    Credit.remove_domain t.sched ~domid:dom.domid;
    Xenstore.unregister_domain t.store ~domid:dom.domid;
    t.doms <- List.filter (fun d -> d.domid <> dom.domid) t.doms
  end

let detach_vm t dom =
  check_alive t;
  free_vmi_state t dom;
  dom.dvm

let destroy_vm t dom =
  check_alive t;
  free_vmi_state t dom;
  Vmstate.Guest_mem.free dom.dvm.Vmstate.Vm.mem

let domains t = t.doms

let find_domain t vm_name =
  List.find_opt
    (fun d -> String.equal d.dvm.Vmstate.Vm.config.name vm_name)
    t.doms

let vm dom = dom.dvm
let pause _t dom = Vmstate.Vm.pause dom.dvm
let resume _t dom = Vmstate.Vm.resume dom.dvm

let native_context dom =
  Hvm_records.encode
    {
      Hvm_records.vcpus = Array.to_list dom.dvm.Vmstate.Vm.vcpus;
      ioapic = dom.dvm.Vmstate.Vm.ioapic;
      pit = dom.dvm.Vmstate.Vm.pit;
    }

let to_uisr dom =
  if Vmstate.Vm.is_running dom.dvm then
    invalid_arg "Xen.to_uisr: VM must be paused";
  (* Route platform state through the native save format, exactly as the
     prototype reuses xc_domain_hvm_getcontext (section 4.2.1). *)
  let plat =
    match Hvm_records.decode (native_context dom) with
    | Ok p -> p
    | Error e ->
      invalid_arg
        (Format.asprintf "Xen.to_uisr: native context: %a" Hvm_records.pp_error e)
  in
  let base = Uisr.Vm_state.of_vm ~source_hypervisor:name dom.dvm in
  { base with vcpus = plat.Hvm_records.vcpus; ioapic = plat.Hvm_records.ioapic;
    pit = plat.Hvm_records.pit }


let from_uisr t ~rng ~mem (uisr : Uisr.Vm_state.t) =
  check_alive t;
  let fixups = ref [] in
  if not (String.equal uisr.source_hypervisor name) then
    fixups := Uisr.Fixup.Lapic_container_changed :: !fixups;
  let ioapic =
    if Vmstate.Ioapic.pin_count uisr.ioapic < ioapic_pins then begin
      fixups :=
        Uisr.Fixup.Ioapic_pins_extended
          { from_pins = Vmstate.Ioapic.pin_count uisr.ioapic;
            to_pins = ioapic_pins }
        :: !fixups;
      Vmstate.Ioapic.extend uisr.ioapic ~pins:ioapic_pins
    end
    else uisr.ioapic
  in
  let vcpus = List.map (Hv.Restore.filter_msrs ~supports_msr fixups) uisr.vcpus in
  let devices = Hv.Restore.devices_of_snapshots ~rng fixups uisr.devices in
  let config = Hv.Restore.config_of_uisr ~devices uisr in
  let vm : Vmstate.Vm.t =
    {
      config;
      vcpus = Array.of_list vcpus;
      ioapic;
      pit = uisr.pit;
      devices = Array.of_list devices;
      mem;
      run_state = Vmstate.Vm.Paused;
    }
  in
  (adopt_vm t vm, List.rev !fixups)

(* --- memory-separation accounting --- *)

let vmi_state_bytes _t dom =
  Hv.Npt.bytes dom.npt + 4096 (* shared info *)
  + Event_channel.state_bytes dom.evtchn
  + Grant_table.state_bytes dom.gnttab
  + Bytes.length (native_context dom)

let management_state_bytes t =
  Credit.state_bytes t.sched + (Xenstore.entries t.store * 128)

let hv_state_bytes = hv_heap_frames * 4096

let rebuild_management_state t =
  check_alive t;
  Credit.rebuild t.sched
    (List.map
       (fun d -> (d.domid, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms);
  (* Cost: toolstack walks every domain record once. *)
  let per_dom = 0.004 *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f (0.01 +. (per_dom *. float_of_int (List.length t.doms)))

let management_state_consistent t =
  Credit.consistent t.sched
    (List.map
       (fun d -> (d.domid, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms)

(* --- calibrated costs --- *)

let cost_factor t =
  t.machine.Hw.Machine.costs.Hw.Machine.cpu_factor
  *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor

let save_cost t dom =
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.040 +. (0.008 *. vcpus) +. (0.010 *. gib)) *. cost_factor t)

let restore_cost t dom =
  (* libxl-side domain rebuild is markedly heavier than kvmtool's. *)
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.100 +. (0.012 *. vcpus) +. (0.020 *. gib)) *. cost_factor t)

let migration_resume_cost ~machine ~vcpus =
  let f = machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f ((0.125 +. (0.003 *. float_of_int vcpus)) *. f)

(* --- extras --- *)

let domid dom = dom.domid
let event_channels dom = dom.evtchn
let grant_table dom = dom.gnttab
let npt_frames dom = Hv.Npt.frames dom.npt
let xenstore t = t.store
let scheduler t = t.sched
