(** A virtual machine: configuration plus live architectural state.

    This is the hypervisor-{e independent} description of a VM.  Each
    hypervisor wraps it in its own native structures (Xen domain / KVM
    vm-fd) and keeps its own hypervisor-{e dependent} VM_i State around
    it (nested page tables, scheduler accounting). *)

type workload_kind =
  | Wl_idle
  | Wl_redis
  | Wl_mysql
  | Wl_spec of string  (** one SPECrate 2017 application *)
  | Wl_darknet
  | Wl_streaming

type config = {
  name : string;
  vcpus : int;
  ram : Hw.Units.bytes_;
  page_kind : Hw.Units.page_kind;
  device_kinds : Device.kind list;
  workload : workload_kind;
  inplace_compatible : bool;
  (** Whether this VM tolerates a few seconds of downtime (InPlaceTP) or
      must be live-migrated (section 5.4 varies this proportion). *)
  compat_ioapic_pins : int option;
  (** IOAPIC harmonisation (the forward-compatible fix the paper's
      section 4.2.1 sketches): cap the virtual IOAPIC at this many pins
      at creation time so no hypervisor in the repertoire has to
      disconnect live pins during transplant.  [None] uses the creating
      hypervisor's native pin count. *)
}

val config :
  ?vcpus:int -> ?ram:Hw.Units.bytes_ -> ?page_kind:Hw.Units.page_kind ->
  ?device_kinds:Device.kind list -> ?workload:workload_kind ->
  ?inplace_compatible:bool -> ?compat_ioapic_pins:int -> name:string ->
  unit -> config
(** Defaults: 1 vCPU, 1 GiB, 2 MiB pages (the paper's guest setup), an
    emulated NIC + emulated disk + console, idle, InPlaceTP-compatible,
    no IOAPIC cap. *)

type run_state = Running | Paused | Suspended

type t = {
  config : config;
  vcpus : Vcpu.t array;
  ioapic : Ioapic.t;
  pit : Pit.t;
  devices : Device.t array;
  mem : Guest_mem.t;
  mutable run_state : run_state;
}

val create :
  pmem:Hw.Pmem.t -> rng:Sim.Rng.t -> ?ioapic_pins:int -> config -> t
(** Instantiate the VM on a host: allocates guest memory, generates
    vCPU/platform/device state.  [ioapic_pins] defaults to the creating
    hypervisor's pin count (pass {!Ioapic.xen_pins} or
    {!Ioapic.kvm_pins}). *)

val pause : t -> unit
val resume : t -> unit
val suspend : t -> unit
val is_running : t -> bool

val total_tcp_connections : t -> int

val pp : Format.formatter -> t -> unit
val pp_workload : Format.formatter -> workload_kind -> unit
