(** The unified HyperTP entry points: hypervisor registry, host
    provisioning and the CVE-driven transplant decision of Fig. 1(b).

    Run knobs are explicit optional arguments, one per knob, passed
    through unchanged to {!Inplace.run} and {!Migrate.run}; an omitted
    knob means the engine default. *)

val hypervisor_of : Hv.Kind.t -> (module Hv.Intf.S)
(** The HyperTP-compliant hypervisor repertoire (Xen, KVM and bhyve). *)

val guest_capacity : machine:Hw.Machine.t -> hv:Hv.Kind.t -> Hw.Units.bytes_
(** [machine]'s RAM less [hv]'s own reservation. *)

val footprint : Vmstate.Vm.config -> Hw.Units.bytes_
(** One VM's RAM, nested page tables and shared page, each in 2 MiB
    allocator chunks. *)

val provision :
  ?seed:int64 -> name:string -> machine:Hw.Machine.t -> hv:Hv.Kind.t ->
  Vmstate.Vm.config list -> Hv.Host.t
(** Boot a host with the given hypervisor and create its VMs.  Raises
    {!Error.Error} (site ["Api.provision"]) when the VMs' footprints
    exceed the {!guest_capacity}. *)

type outcome =
  [ `Applied of Inplace.report
    (** the advice was a transplant and [`Apply] mode ran InPlaceTP *)
  | `Advised of Hv.Kind.t
    (** the advice was a transplant but [`Advise] mode left the host
        untouched; the payload is the recommended target *)
  | `No_action  (** the running hypervisor is not affected *)
  | `No_safe_alternative
    (** every hypervisor in the fleet repertoire is affected *) ]

type response = { advice : Cve.Window.advice; outcome : outcome }

val respond_to_cve :
  ?options:Options.t -> ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  host:Hv.Host.t -> cve_id:string -> mode:[ `Advise | `Apply ] -> unit ->
  response
(** The operator's one-click flow: look the CVE up, ask the policy for
    a safe alternate in the fleet repertoire and — in [`Apply] mode,
    when the advice is a transplant — run InPlaceTP.  [`Advise] mode
    never mutates the host; the outcome distinguishes "advised but not
    applied" ([`Advised target]) from "no transplant needed"
    ([`No_action] / [`No_safe_alternative]).  Raises {!Error.Error}
    (site ["Api.respond_to_cve"]) on an unknown CVE id or a host
    without a hypervisor. *)

val applied_report : response -> Inplace.report option
(** [Some report] iff the outcome is [`Applied] — convenience for
    callers that only care whether a transplant ran. *)

val transplant_inplace :
  ?options:Options.t -> ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:Inplace.audit ->
  host:Hv.Host.t -> target:Hv.Kind.t -> unit -> Inplace.report
(** InPlaceTP against a {!Hv.Kind.t} target ({!Inplace.run} with the
    module resolved from the repertoire). *)

val transplant_migration :
  ?rng:Sim.Rng.t -> ?fault:Fault.t -> ?retry:Migrate.retry_params ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:Inplace.audit ->
  src:Hv.Host.t -> dst:Hv.Host.t -> ?vm_names:string list -> unit ->
  Migrate.report
(** MigrationTP (or the homogeneous baseline): {!Migrate.run}. *)

val transplant_shadow :
  ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  ?retry:Migrate.retry_params -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t ->
  ?params:Migration.Shadow.params -> ?ladder:bool -> src:Hv.Host.t ->
  spare:Hv.Host.t -> target:Hv.Kind.t -> ?vm_names:string list -> unit ->
  Migrate.shadow_report
(** Shadow-host MigrationTP against a {!Hv.Kind.t} target
    ({!Migrate.run_shadow} with the module resolved from the
    repertoire): pre-stage on [spare], stream + converge while [src]
    serves, swap atomically; any pre-swap fault aborts with the source
    verified intact and walks the degradation ladder. *)
