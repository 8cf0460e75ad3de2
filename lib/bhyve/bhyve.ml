let kind = Hv.Kind.Bhyve
let name = "bhyve-13.2"
let version = "13.2"
let hv_type = Hv.Kind.Type2
let platform = Workload.Profile.P_bhyve
let ioapic_pins = Vmm_snapshot.ioapic_pins
let kernel_image_bytes = Hw.Units.mib 28 (* FreeBSD kernel + vmm.ko *)
let sequential_migration_receive = false

(* bhyve does not emulate the machine-check architecture: MC bank MSRs
   cannot be restored and are dropped with a recorded fixup. *)
let supports_msr index = not (index >= 0x400 && index < 0x480)

type domain = {
  handle : int; (* /dev/vmm/<name> descriptor *)
  dvm : Vmstate.Vm.t;
  ept : Hv.Npt.t;
  mutable detached : bool;
}

type t = {
  machine : Hw.Machine.t;
  pmem : Hw.Pmem.t;
  mutable doms : domain list;
  rq : Ule.t;
  mutable next_handle : int;
  kernel_heap : (Hw.Frame.Mfn.t * int) list;
  mutable alive : bool;
}

let ept_metadata_factor = 1.05
let heap_frames = Hw.Units.frames_of_bytes (Hw.Units.mib 40)

let boot ~machine ~pmem ~rng:_ =
  let kernel_heap = Hw.Pmem.alloc_extents pmem heap_frames in
  List.iter
    (fun (start, len) -> Hw.Pmem.fill pmem start len 0x46524545425344L)
    kernel_heap;
  { machine; pmem; doms = []; rq = Ule.create (); next_handle = 3;
    kernel_heap; alive = true }

(* Type-II boot: one FreeBSD kernel; slower than Linux on big iron
   because device attachment is less parallel. *)
let boot_time ~machine =
  let threads = Hw.Cpu.total_threads machine.Hw.Machine.cpu in
  let gib = Hw.Units.to_gib_f machine.Hw.Machine.ram in
  Sim.Time.of_sec_f
    (1.9 +. (0.014 *. float_of_int threads) +. (0.005 *. gib))

let machine t = t.machine
let pmem t = t.pmem
let check_alive t = if not t.alive then invalid_arg "Bhyve: hypervisor is down"

let shutdown t =
  check_alive t;
  if t.doms <> [] then invalid_arg "Bhyve.shutdown: domains remain";
  List.iter
    (fun (start, len) -> Hw.Pmem.free_extent t.pmem start len)
    t.kernel_heap;
  t.alive <- false

let adopt_vm t (vm : Vmstate.Vm.t) =
  check_alive t;
  let ept =
    Hv.Npt.build ~pmem:t.pmem
      ~guest_frames:(Hw.Units.frames_of_bytes vm.config.ram)
      ~page_kind:vm.config.page_kind ~metadata_factor:ept_metadata_factor
  in
  let dom = { handle = t.next_handle; dvm = vm; ept; detached = false } in
  t.next_handle <- t.next_handle + 1;
  t.doms <- t.doms @ [ dom ];
  Ule.enqueue_vm t.rq ~vm_name:vm.config.name ~vcpus:vm.config.vcpus;
  dom

let create_vm t ~rng config =
  check_alive t;
  let vm = Vmstate.Vm.create ~pmem:t.pmem ~rng ~ioapic_pins config in
  adopt_vm t vm

let free_vmi_state t dom =
  if not dom.detached then begin
    dom.detached <- true;
    Hv.Npt.free dom.ept ~pmem:t.pmem;
    Ule.dequeue_vm t.rq ~vm_name:dom.dvm.Vmstate.Vm.config.name;
    t.doms <- List.filter (fun d -> d.handle <> dom.handle) t.doms
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
  Vmm_snapshot.encode
    {
      Vmm_snapshot.vcpus = Array.to_list dom.dvm.Vmstate.Vm.vcpus;
      ioapic = dom.dvm.Vmstate.Vm.ioapic;
      pit = dom.dvm.Vmstate.Vm.pit;
    }

let to_uisr dom =
  if Vmstate.Vm.is_running dom.dvm then
    invalid_arg "Bhyve.to_uisr: VM must be paused";
  let plat =
    match Vmm_snapshot.decode (native_context dom) with
    | Ok p -> p
    | Error e ->
      invalid_arg
        (Format.asprintf "Bhyve.to_uisr: snapshot: %a" Vmm_snapshot.pp_error e)
  in
  let base = Uisr.Vm_state.of_vm ~source_hypervisor:name dom.dvm in
  { base with vcpus = plat.Vmm_snapshot.vcpus;
    ioapic = plat.Vmm_snapshot.ioapic; pit = plat.Vmm_snapshot.pit }


let from_uisr t ~rng ~mem (uisr : Uisr.Vm_state.t) =
  check_alive t;
  let fixups = ref [] in
  if not (String.equal uisr.source_hypervisor name) then
    fixups := Uisr.Fixup.Lapic_container_changed :: !fixups;
  let pins = Vmstate.Ioapic.pin_count uisr.ioapic in
  let ioapic =
    if pins > ioapic_pins then begin
      let truncated, dropped_connected =
        Vmstate.Ioapic.truncate uisr.ioapic ~pins:ioapic_pins
      in
      fixups :=
        Uisr.Fixup.Ioapic_pins_dropped { kept = ioapic_pins; dropped_connected }
        :: !fixups;
      truncated
    end
    else if pins < ioapic_pins then begin
      fixups :=
        Uisr.Fixup.Ioapic_pins_extended { from_pins = pins; to_pins = ioapic_pins }
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

let vmi_state_bytes _t dom =
  Hv.Npt.bytes dom.ept
  + (Array.length dom.dvm.Vmstate.Vm.vcpus * 4096)
  + Bytes.length (native_context dom)

let management_state_bytes t =
  Ule.state_bytes t.rq + (List.length t.doms * 16_384) (* bhyve processes *)

let hv_state_bytes _t = heap_frames * 4096

let rebuild_management_state t =
  check_alive t;
  Ule.rebuild t.rq
    (List.map
       (fun d ->
         (d.dvm.Vmstate.Vm.config.name, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms);
  let per_dom = 0.003 *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f (0.006 +. (per_dom *. float_of_int (List.length t.doms)))

let management_state_consistent t =
  Ule.consistent t.rq
    (List.map
       (fun d ->
         (d.dvm.Vmstate.Vm.config.name, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms)

let cost_factor t =
  t.machine.Hw.Machine.costs.Hw.Machine.cpu_factor
  *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor

let save_cost t dom =
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.035 +. (0.007 *. vcpus) +. (0.009 *. gib)) *. cost_factor t)

let restore_cost t dom =
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.075 +. (0.011 *. vcpus) +. (0.020 *. gib)) *. cost_factor t)

let migration_resume_cost ~machine ~vcpus =
  let f = machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f ((0.008 +. (0.0004 *. float_of_int vcpus)) *. f)

let vm_handle dom = dom.handle
let run_queue t = t.rq
