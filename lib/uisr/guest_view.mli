(** What a guest can observe of its platform, and the differences a
    transplant may make to it: the one answer every engine and the
    residual auditor give to "did the guest land intact?".

    A view keeps vCPUs, the IOAPIC, the PIT and each device's id, kind
    and TCP connections.  Exactly three differences are allowed, each
    one the transplant makes on purpose and records: an MSR a
    {!Fixup.Msr_dropped} fixup dropped, IOAPIC pins past the count
    both sides share (Xen 48, bhyve 32, KVM 24), and a salvaged VM's
    PIT at {!Integrity.default_pit}. *)

type device = { id : int; kind : Vmstate.Device.kind; tcp_connections : int }

type t = {
  vcpus : Vmstate.Vcpu.t list;
  ioapic : Vmstate.Ioapic.t;
  pit : Vmstate.Pit.t;
  devices : device list;
}

val of_state : Vm_state.t -> t
val of_vm : Vmstate.Vm.t -> t

type difference =
  | Msr_dropped of { vcpu : int; msr : int }  (** allowed *)
  | Ioapic_pins_unshared of { before : int; after : int }  (** allowed *)
  | Pit_reset  (** allowed *)
  | Vcpu_count of { before : int; after : int }
  | Vcpu_changed of int  (** by vCPU index, dropped MSRs aside *)
  | Ioapic_changed  (** on the shared pins *)
  | Pit_changed
  | Device_vanished of int
  | Device_kind_changed of int
  | Device_connections of { id : int; before : int; after : int }
  | Device_appeared of int

val allowed : difference -> bool
val is_device : difference -> bool

val diff : ?fixups:Fixup.t list -> ?salvaged:bool -> t -> t -> difference list
(** [diff ?fixups ?salvaged before after] pairs vCPUs by position and
    devices by id.  Only [fixups]' MSR drops are allowed (default
    none), and [Pit_reset] only when [salvaged] (default [false]).
    Order: vCPUs, IOAPIC, PIT, captured devices, then extra ones.
    Builds no strings. *)

val platform_preserved : difference list -> bool
(** No vCPU, IOAPIC or PIT difference outside the allowances. *)

val devices_preserved : difference list -> bool
(** No device difference. *)

val pp_difference : Format.formatter -> difference -> unit
(** One line; device differences read as the auditor's findings, e.g.
    ["device 2 vanished during re-enumeration"]. *)
