(** The HYPERVISOR signature: what a hypervisor must provide to be
    HyperTP-compliant.

    Re-engineering a hypervisor for HyperTP means implementing exactly
    this: booting, VM lifecycle, a native state container, the
    [to_uisr]/[from_uisr] translation pair, management-state rebuild,
    and the calibrated costs of each operation.  Both {!Xenhv.Xen} and
    {!Kvmhv.Kvm} implement it; everything above (InPlaceTP, MigrationTP,
    the cluster orchestrator) is written against this signature only —
    the paper's claim that UISR makes adding the (N+1)-th hypervisor a
    one-codec job rather than an N-codec one. *)

module type S = sig
  val kind : Kind.t
  val name : string
  val version : string
  val hv_type : Kind.hv_type
  val platform : Workload.Profile.platform

  val ioapic_pins : int
  (** Pin count of this hypervisor's virtual IOAPIC (48 for Xen, 24 for
      KVM — the section 4.2.1 compatibility gap). *)

  val kernel_image_bytes : Hw.Units.bytes_
  (** Size of the kexec-staged boot image (hypervisor [+ dom0 kernel]). *)

  val sequential_migration_receive : bool
  (** Xen's receive path processes incoming VMs one at a time, which
      spreads multi-VM migration downtimes (Fig. 8, right); kvmtool runs
      one process per VM and receives in parallel. *)

  val supports_msr : int -> bool
  (** Whether this hypervisor can restore a given MSR; unsupported ones
      are dropped with a recorded fixup. *)

  type t
  (** A booted hypervisor instance on one host. *)

  type domain
  (** A VM under this hypervisor's management (its VM_i State). *)

  val boot : machine:Hw.Machine.t -> pmem:Hw.Pmem.t -> rng:Sim.Rng.t -> t
  (** Bring the hypervisor up: allocates its HV State from host memory. *)

  val boot_time : machine:Hw.Machine.t -> Sim.Time.t
  (** Kernel boot duration on this machine (excludes PRAM parsing, which
      depends on the structure being handed over). *)

  val machine : t -> Hw.Machine.t
  val pmem : t -> Hw.Pmem.t

  val shutdown : t -> unit
  (** Free HV State.  Raises [Invalid_argument] if domains remain. *)

  val create_vm : t -> rng:Sim.Rng.t -> Vmstate.Vm.config -> domain
  (** Fresh VM: allocates guest memory, generates state, builds this
      hypervisor's VM_i State (nested page tables, ...). *)

  val adopt_vm : t -> Vmstate.Vm.t -> domain
  (** Take over an existing VM (restore path): builds fresh VM_i State
      around untouched architectural state + guest memory. *)

  val detach_vm : t -> domain -> Vmstate.Vm.t
  (** Remove the VM from this hypervisor, freeing its VM_i State but
      keeping guest memory and architectural state alive — the
      transplant hand-off. *)

  val destroy_vm : t -> domain -> unit
  (** Full teardown including guest memory. *)

  val domains : t -> domain list
  val find_domain : t -> string -> domain option
  val vm : domain -> Vmstate.Vm.t
  val pause : t -> domain -> unit
  val resume : t -> domain -> unit

  val native_context : domain -> bytes
  (** The hypervisor's own save format for platform state (Xen: HVM save
      records via xc_domain_hvm_getcontext; KVM: ioctl payload stream).
      Each hypervisor's layout is different — this is what UISR
      abstracts over. *)

  val to_uisr : domain -> Uisr.Vm_state.t
  (** Translate VM_i State into the neutral representation
      (struct uisr* to_uisr_xxx family).  The VM must be paused. *)

  val from_uisr :
    t -> rng:Sim.Rng.t -> mem:Vmstate.Guest_mem.t -> Uisr.Vm_state.t ->
    domain * Uisr.Fixup.t list
  (** Restore a VM from UISR onto this hypervisor, attaching the given
      (in-place or freshly copied) guest memory.  Applies and records
      platform fixups.  The resulting domain is paused. *)

  (* Memory-separation accounting (Fig. 2). *)

  val vmi_state_bytes : t -> domain -> Hw.Units.bytes_
  val management_state_bytes : t -> Hw.Units.bytes_
  val hv_state_bytes : Hw.Units.bytes_
  (** The HV State a boot reserves (heap, dom0 kernel): host memory no
      guest can have. *)

  val rebuild_management_state : t -> Sim.Time.t
  (** Rebuild scheduler queues etc. from the current domain set (this
      state is reconstructed, never translated); returns its cost. *)

  val management_state_consistent : t -> bool
  (** Invariant: every runnable vCPU of every domain is referenced by
      the scheduler's queues, and nothing else is. *)

  (* Calibrated cost model (see Hw.Machine for the machine factors). *)

  val save_cost : t -> domain -> Sim.Time.t
  (** Per-VM [to_uisr] translation cost. *)

  val restore_cost : t -> domain -> Sim.Time.t
  (** Per-VM [from_uisr] restoration cost. *)

  val migration_resume_cost : machine:Hw.Machine.t -> vcpus:int -> Sim.Time.t
  (** Destination-side resume during live migration — Xen's toolstack
      takes ~130 ms where kvmtool needs ~5 ms (Table 4). *)
end
