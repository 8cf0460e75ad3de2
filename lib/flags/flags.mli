(** The flag vocabulary of [hypertp-cli] and the bench harness.

    Each flag is spelled once here, and every value is checked when its
    term is evaluated, before a command's run function starts.  A value
    that does not parse is a cmdliner error (exit 124, with usage).  A
    value that parses but is out of range raises {!Hypertp.Error.Error}
    whose site is the flag, e.g. ["--vcpus"]; {!eval} prints it and
    exits 3.  A rejected run therefore prints nothing on stdout. *)

open Cmdliner

val machine : Hw.Machine.t Arg.conv
val hypervisor : Hv.Kind.t Arg.conv
val topology : Cluster.Topology.t Arg.conv
val shard_mode : Sim.Shard.mode Arg.conv
val fault_spec : Fault.spec Arg.conv

val int_in : flag:string -> int -> int -> int -> int
(** [int_in ~flag lo hi n] is [n] when [lo <= n <= hi], else the error
    of [--flag]. *)

val int_opt : flag:string -> doc:string -> int -> int -> int option Term.t
(** [int_opt ~flag ~doc lo hi]: an optional [--flag N], by {!int_in}. *)

val positive_opt : flag:string -> docv:string -> doc:string -> float option Term.t
(** An optional [--flag X], finite and above 0. *)

val seconds : flag:string -> default:Sim.Time.t -> doc:string -> Sim.Time.t Term.t
(** [--flag SECONDS], checked by {!Sim.Time.fits_sec_f} before it is
    converted. *)

val seed : int64 Term.t
(** [--seed], default 42. *)

val max_vcpus : int

val vcpus : int Term.t
(** [--vcpus N] in [\[1, max_vcpus\]]. *)

type host = {
  machine : Hw.Machine.t;
  source : Hv.Kind.t;
  vms : int;
  vcpus : int;
  gib : int;
  seed : int64;
}

val host : host Term.t
(** [--machine --source --vms --vcpus --gib --seed].  One VM of [--gib]
    GiB, and [--vms] of them, must fit {!Hypertp.Api.guest_capacity} of
    the machine running the source, counted by
    {!Hypertp.Api.footprint}. *)

val provision : host -> Hv.Host.t
(** Host ["cli-host"] on [h.source], running VMs [vm0], [vm1], ... *)

val campaign_knobs : Cluster.Campaign.config Term.t
(** [--straggler-factor --breaker-window --breaker-threshold
    --breaker-cooldown] over {!Cluster.Campaign.default_config}, which
    gives the defaults, checked by {!Cluster.Campaign.validate_config}. *)

val eval : unit Cmd.t -> 'a
(** Evaluate the command and exit with its code; a {!Hypertp.Error.Error}
    that escapes prints as ["<command>: <site>: <reason>"] and exits 3. *)
