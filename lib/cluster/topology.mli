(** Region-aware fleet shape.

    [Topology.t] is the single value describing a fleet — regions, each
    with a host count, a VMs-per-host density, an optional staged-spare
    pool and an optional wire budget.  It replaces the ad-hoc
    [~hosts]/[~regions] integer arguments that used to be repeated (and
    re-validated, inconsistently) across [Fleet.simulate],
    [Campaign.run_fleet], [Controlplane.run] and
    [Stream.Service.serve].  Legacy integer entry points remain as
    deprecated wrappers over {!flat}/{!uniform} and stay
    byte-identical.

    Topologies come from three places: the {!uniform} smart
    constructor, the {!of_spec} CLI parser (["64x15625x8"] or
    ["emea:250:8;apac:250:8"]), or {!make} over explicit {!region}
    values.  {!validate} checks the same invariants campaign config
    validation used to apply per entry point, returning a structured
    {!Hypertp_error.t}. *)

type region = private {
  rg_name : string;
  rg_hosts : int;
  rg_vms_per_host : int;
  rg_spares : int;
      (** staged spare lanes for shadow cutover; [0] means inherit the
          campaign config's pool *)
  rg_wire_budget : int option;  (** bytes on the wire; [None] = unlimited *)
}

type t

val region :
  ?spares:int -> ?wire_budget:int -> name:string -> hosts:int ->
  vms_per_host:int -> unit -> region

val make : region list -> t
(** Explicit region list, in order.  Not validated — call {!validate}. *)

val uniform :
  ?spares:int -> ?wire_budget:int -> regions:int -> hosts:int ->
  vms_per_host:int -> unit -> t
(** [hosts] is the fleet {e total}, split as evenly as possible with
    the remainder on the lowest region indices; regions are named
    ["r0"], ["r1"], ....  Raises {!Hypertp_error.Error} when
    [regions] is below 1 or above the {!validate} limit. *)

val flat : hosts:int -> vms_per_host:int -> t
(** One region ["r0"] holding the whole fleet — the shape every legacy
    [~hosts] entry point maps to. *)

val validate : t -> (t, Hypertp_error.t) result
(** At least one region; names non-empty, unique, free of [' '], [':'],
    [';']; each region has [hosts >= 2] (campaigns drain into peers),
    [vms_per_host >= 1], non-negative spares and wire budget.  At most
    2{^20} regions, 2{^30} hosts, 2{^20} VMs per host and 2{^40} VMs in
    total, so {!hosts} and {!vms} never overflow. *)

val validate_exn : t -> t
(** {!validate}, raising {!Hypertp_error.Error}. *)

val max_hosts : int
(** 2{^30}: the most hosts {!validate} admits in one fleet. *)

val max_vms_per_host : int
(** 2{^20}: the most VMs per host {!validate} admits. *)

val regions : t -> region array
val n_regions : t -> int

val hosts : t -> int
(** Fleet-total hosts. *)

val vms : t -> int
(** Fleet-total VMs. *)

val spec : t -> string
(** Canonical CLI spec: the ["RxHxV"] shorthand when the topology is
    uniform with default names ([H] = hosts {e per region}), the
    ["name:hosts:vms\[:spares\[:wire\]\];..."] list otherwise.
    [of_spec (spec t)] round-trips. *)

val of_spec : string -> (t, string) result
(** Parse either {!spec} form; the result is validated.  Note the
    shorthand counts hosts per region: ["64x15625x8"] is the
    million-host fleet. *)

val pp : Format.formatter -> t -> unit
