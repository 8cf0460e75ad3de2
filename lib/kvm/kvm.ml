let kind = Hv.Kind.Kvm
let name = "kvm-5.3.1"
let version = "5.3.1"
let hv_type = Hv.Kind.Type2
let platform = Workload.Profile.P_kvm
let ioapic_pins = Vmstate.Ioapic.kvm_pins
let kernel_image_bytes = Hw.Units.mib 24 (* vmlinuz + initrd with kvm.ko *)
let sequential_migration_receive = false
let supports_msr _ = true (* Linux's MSR emulation covers our guest set *)

type domain = {
  fd : int;
  dvm : Vmstate.Vm.t;
  ept : Hv.Npt.t;
  vcpu_fds : int list;
  mutable detached : bool;
}

type t = {
  machine : Hw.Machine.t;
  pmem : Hw.Pmem.t;
  mutable doms : domain list;
  rq : Cfs.t;
  vmm : Kvmtool.t;
  mutable next_fd : int;
  host_heap : (Hw.Frame.Mfn.t * int) list;
  mutable alive : bool;
}

let ept_metadata_factor = 1.0 (* EPT carries no extra auditing structures *)
let host_heap_frames = Hw.Units.frames_of_bytes (Hw.Units.mib 32)

let boot ~machine ~pmem ~rng:_ =
  let host_heap = Hw.Pmem.alloc_extents pmem host_heap_frames in
  List.iter
    (fun (start, len) -> Hw.Pmem.fill pmem start len 0x4C494E55585F4850L)
    host_heap;
  {
    machine;
    pmem;
    doms = [];
    rq = Cfs.create ();
    vmm = Kvmtool.create ();
    next_fd = 16;
    host_heap;
    alive = true;
  }

(* Type-II boot = one Linux kernel; with the early-restoration
   optimisation VM restores begin as soon as KVM services are up
   (section 4.2.5).  Calibrated to Fig. 6: ~1.5 s on M1, ~2.3 s on M2. *)
let boot_time ~machine =
  let cpu = machine.Hw.Machine.cpu in
  let threads = Hw.Cpu.total_threads cpu in
  let gib = Hw.Units.to_gib_f machine.Hw.Machine.ram in
  Sim.Time.of_sec_f
    (1.336 +. (0.010 *. float_of_int threads) +. (0.004 *. gib))

let machine t = t.machine
let pmem t = t.pmem
let check_alive t = if not t.alive then invalid_arg "Kvm: hypervisor is down"

let shutdown t =
  check_alive t;
  if t.doms <> [] then invalid_arg "Kvm.shutdown: domains remain";
  List.iter (fun (start, len) -> Hw.Pmem.free_extent t.pmem start len) t.host_heap;
  t.alive <- false

let adopt_vm t (vm : Vmstate.Vm.t) =
  check_alive t;
  let ept =
    Hv.Npt.build ~pmem:t.pmem
      ~guest_frames:(Hw.Units.frames_of_bytes vm.config.ram)
      ~page_kind:vm.config.page_kind ~metadata_factor:ept_metadata_factor
  in
  let fd = t.next_fd in
  let vcpu_fds = List.init vm.config.vcpus (fun i -> fd + 1 + i) in
  t.next_fd <- fd + 1 + vm.config.vcpus;
  let dom = { fd; dvm = vm; ept; vcpu_fds; detached = false } in
  t.doms <- t.doms @ [ dom ];
  ignore (Kvmtool.spawn t.vmm ~vm_name:vm.config.name ~guest_bytes:vm.config.ram);
  Cfs.enqueue_vm t.rq ~vm_name:vm.config.name ~vcpus:vm.config.vcpus;
  dom

let create_vm t ~rng config =
  check_alive t;
  let vm = Vmstate.Vm.create ~pmem:t.pmem ~rng ~ioapic_pins config in
  adopt_vm t vm

let free_vmi_state t dom =
  if not dom.detached then begin
    dom.detached <- true;
    Hv.Npt.free dom.ept ~pmem:t.pmem;
    Cfs.dequeue_vm t.rq ~vm_name:dom.dvm.Vmstate.Vm.config.name;
    Kvmtool.kill t.vmm ~vm_name:dom.dvm.Vmstate.Vm.config.name;
    t.doms <- List.filter (fun d -> d.fd <> dom.fd) t.doms
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
  Ioctl_stream.encode
    {
      Ioctl_stream.vcpus = Array.to_list dom.dvm.Vmstate.Vm.vcpus;
      ioapic = dom.dvm.Vmstate.Vm.ioapic;
      pit = dom.dvm.Vmstate.Vm.pit;
    }

let to_uisr dom =
  if Vmstate.Vm.is_running dom.dvm then
    invalid_arg "Kvm.to_uisr: VM must be paused";
  let plat =
    match Ioctl_stream.decode (native_context dom) with
    | Ok p -> p
    | Error e ->
      invalid_arg
        (Format.asprintf "Kvm.to_uisr: ioctl stream: %a" Ioctl_stream.pp_error e)
  in
  let base = Uisr.Vm_state.of_vm ~source_hypervisor:name dom.dvm in
  { base with vcpus = plat.Ioctl_stream.vcpus;
    ioapic = plat.Ioctl_stream.ioapic; pit = plat.Ioctl_stream.pit }


let from_uisr t ~rng ~mem (uisr : Uisr.Vm_state.t) =
  check_alive t;
  let fixups = ref [] in
  if not (String.equal uisr.source_hypervisor name) then
    fixups := Uisr.Fixup.Lapic_container_changed :: !fixups;
  let ioapic =
    if Vmstate.Ioapic.pin_count uisr.ioapic > ioapic_pins then begin
      (* Xen's 48-pin IOAPIC: disconnect the upper pins (section 4.2.1). *)
      let truncated, dropped_connected =
        Vmstate.Ioapic.truncate uisr.ioapic ~pins:ioapic_pins
      in
      fixups :=
        Uisr.Fixup.Ioapic_pins_dropped
          { kept = ioapic_pins; dropped_connected }
        :: !fixups;
      truncated
    end
    else uisr.ioapic
  in
  let devices = Hv.Restore.devices_of_snapshots ~rng fixups uisr.devices in
  let config = Hv.Restore.config_of_uisr ~devices uisr in
  let vm : Vmstate.Vm.t =
    {
      config;
      vcpus = Array.of_list uisr.vcpus;
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
  Hv.Npt.bytes dom.ept
  + (List.length dom.vcpu_fds * 4096) (* struct kvm_vcpu + run page *)
  + Bytes.length (native_context dom)

let management_state_bytes t =
  Cfs.state_bytes t.rq + Kvmtool.state_bytes t.vmm

let hv_state_bytes _t = host_heap_frames * 4096

let rebuild_management_state t =
  check_alive t;
  Cfs.rebuild t.rq
    (List.map
       (fun d ->
         (d.dvm.Vmstate.Vm.config.name, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms);
  let per_dom = 0.002 *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f (0.005 +. (per_dom *. float_of_int (List.length t.doms)))

let management_state_consistent t =
  Cfs.consistent t.rq
    (List.map
       (fun d ->
         (d.dvm.Vmstate.Vm.config.name, Array.length d.dvm.Vmstate.Vm.vcpus))
       t.doms)

(* --- calibrated costs --- *)

let cost_factor t =
  t.machine.Hw.Machine.costs.Hw.Machine.cpu_factor
  *. t.machine.Hw.Machine.costs.Hw.Machine.mgmt_factor

let save_cost t dom =
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.030 +. (0.006 *. vcpus) +. (0.008 *. gib)) *. cost_factor t)

let restore_cost t dom =
  let vcpus = float_of_int (Array.length dom.dvm.Vmstate.Vm.vcpus) in
  let gib = Hw.Units.to_gib_f dom.dvm.Vmstate.Vm.config.ram in
  Sim.Time.of_sec_f
    ((0.060 +. (0.010 *. vcpus) +. (0.020 *. gib)) *. cost_factor t)

let migration_resume_cost ~machine ~vcpus =
  let f = machine.Hw.Machine.costs.Hw.Machine.mgmt_factor in
  Sim.Time.of_sec_f ((0.0032 +. (0.00025 *. float_of_int vcpus)) *. f)

(* --- extras --- *)

let vm_fd dom = dom.fd
let ept_frames dom = Hv.Npt.frames dom.ept
let vmm_process t ~vm_name = Kvmtool.find t.vmm ~vm_name
let run_queue t = t.rq
