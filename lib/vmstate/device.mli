(** Virtual I/O devices attached to a VM.

    The paper distinguishes pass-through devices (driver state lives in
    guest memory; HyperTP pauses the device and the state survives as
    Guest State) from emulated devices (the VMM holds emulation state
    that must be translated, or — for network devices — the device is
    unplugged before transplant and rescanned after, which keeps TCP
    connections alive; section 4.2.3).

    Emulated devices carry virtio-style queues ({!Virtqueue}): pausing
    quiesces them (in-flight buffers complete), and the ring indices are
    exactly the emulation state that must land unchanged on the target
    hypervisor. *)

type kind =
  | Net_emulated
  | Net_passthrough
  | Blk_emulated
  | Blk_passthrough
  | Serial_console

type run_state = Dev_running | Dev_paused | Dev_unplugged

type t = {
  id : int;
  kind : kind;
  run_state : run_state;
  emulation_state : int64 array;
  (** VMM-side registers; empty for pass-through devices (whose driver
      state lives in guest memory). *)
  queues : Virtqueue.t array;
  (** shared rings: 2 for an emulated NIC (rx/tx), 1 for an emulated
      disk, none otherwise *)
  tcp_connections : int;
  (** Live connections through this device (network kinds only); must
      survive the unplug/rescan cycle. *)
}

val queue_count : kind -> int

val generate : Sim.Rng.t -> id:int -> kind:kind -> ?guest_frames:int -> unit -> t
(** [guest_frames] (default 262144 = 1 GiB) bounds the ring buffers'
    guest addresses. *)

val is_passthrough : t -> bool
val is_network : t -> bool

val in_flight : t -> int
(** Total buffers posted but not completed across this device's queues. *)

val pause : t -> t
(** Guest driver acknowledges quiesce: queues drain ({!Virtqueue.quiesce})
    and the device becomes [Dev_paused] — the consistent state
    section 4.2.3 requires before transplant. *)

val unplug : t -> t
(** Hot-unplug before transplant (network devices; section 4.2.3).
    Emulation state and rings are dropped — they will be rebuilt at
    rescan — but TCP connection tracking (guest-side state) is
    preserved. *)

val rescan : t -> Sim.Rng.t -> t
(** Rediscover an unplugged device under the new hypervisor: fresh
    emulation state and rings, same connections, running again. *)

val resume : t -> t
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
