(** Fleet-level vulnerability-window simulation (Fig. 1).

    Plays the paper's timeline on the discrete-event engine: a critical
    flaw is disclosed at t0, the patched hypervisor only lands at
    t_patch, and the fleet is {e exposed} in between — unless HyperTP
    transplants every host onto a safe hypervisor shortly after
    disclosure and back once the patch ships.  The simulation measures
    exposure host-hours with and without transplant. *)

type event =
  | Disclosed of string        (** CVE id *)
  | Host_transplanted of { host : string; to_hv : string; downtime : Sim.Time.t }
  | Patch_released
  | Host_patched of { host : string; downtime : Sim.Time.t }

type outcome = {
  events : (Sim.Time.t * event) array;
      (** Every event, returned from a buffer preallocated at
          [2 * hosts + 2] and filled as the engine dispatches.
          Ordering guarantee: nondecreasing timestamps; events with
          equal timestamps appear in scheduling order (disclosure,
          then out-transplants in host order, then patch release, then
          patch-backs in host order). *)
  exposed_host_hours : float;
      (** host-hours spent running a vulnerable hypervisor after
          disclosure *)
  baseline_exposed_host_hours : float;
      (** the same fleet without HyperTP: exposed for the entire window *)
  total_vm_downtime : Sim.Time.t;
      (** summed per-VM downtime caused by the transplants *)
  transplants : int;
}

val simulate :
  ?topology:Topology.t -> ?window_days:int -> ?stagger:Sim.Time.t ->
  cve_id:string -> unit -> outcome
(** Run the scenario for a Xen fleet hit by [cve_id] (defaults: the
    [1x8x4] topology — 8 hosts x 4 VMs — the CVE's documented window or
    30 days, one host transplanted every [stagger] = 10 minutes —
    operators roll changes gradually).  The fleet is the topology's
    regions concatenated in order, hosts named [host00], [host01], ...
    across regions, each carrying its region's VM density.  Raises
    [Hypertp.Error.Error]: site ["Topology"], before any allocation,
    for a topology {!Topology.validate} rejects; site
    ["Fleet.simulate"] for an unknown CVE or one the policy would not
    act on.

    Exposure host-hours are accounted incrementally as each host's
    first transplant fires, capped at the patch release: a host whose
    out-transplant slot ([60 s + i x stagger]) falls after the patch
    counts the whole window, as in the baseline, never more.  So
    [exposed_host_hours <= baseline_exposed_host_hours] (the qcheck
    property in the test suite pins the sum equal to the integral
    recomputed from the event log). *)

val pp_event : Format.formatter -> Sim.Time.t * event -> unit
(** One line of the [hypertp-cli fleet] transcript. *)

val pp_outcome : Format.formatter -> outcome -> unit
