(** The CVE-stream campaign service: a fleet living under years of
    synthetic vulnerability traffic (DESIGN.md section 5k).

    Three static host populations (home hypervisor Xen / KVM / bhyve)
    are served by a daemon loop on {!Sim.Engine}: a batch tick drains
    the {!Gen} arrival stream, opens one {e episode} per (critical CVE
    x affected population), prices the two mitigations in exposed
    host-hours — wait out the patch delay, or run a supervised
    {!Cluster.Campaign} moving the population to the advised safe
    hypervisor — and commits the {!Policy} choice.  The campaign
    simulation priced at decision time {e is} the execution when
    committed: its per-host completion times, stretched by [tempo]
    into calendar days, become the coverage times the exposure
    accounting integrates.

    Campaigns on one population serialise (no host is ever
    double-booked); campaigns on different populations overlap.  A
    critical arrival finding its population busy can preempt the
    in-flight campaigns ([preempt], or the {!Fault.Campaign_preempt}
    site), releasing not-yet-covered hosts back to exposure.

    Every run is journaled with fault-plan cursors; a
    {!Fault.Controller_crash} (consulted per journal append) kills the
    service and {!resume} replays the journal against a restarted plan
    and continues.  Equal configs, seeds and plans give byte-identical
    journals and reports. *)

type mix = { xen_hosts : int; kvm_hosts : int; bhyve_hosts : int }

val mix_of_topology : Cluster.Topology.t -> mix
(** Map a region-aware topology onto the service's per-hypervisor
    populations by region {e name} ("xen" / "kvm" / "bhyve"; absent
    populations are 0).  Raises [Hypertp.Error.Error] (site
    ["Stream.Service"]) for any other region name. *)

type config = {
  years : float;
  mix : mix;  (** population sizes; each must be 0 or at least 2 *)
  vms_per_host : int;
  rate_per_year : float;  (** CVE arrivals per virtual year *)
  critical_fraction : float;
  coordinated_fraction : float;  (** {!Cve.Window.sample_patch_delay} *)
  policy : Policy.kind;
  tempo : float;
      (** operational stretch: one simulated campaign second occupies
          [tempo] calendar seconds of the stream (maintenance windows,
          change freezes, soak gates between waves) *)
  concurrency : int;  (** hosts in flight per campaign *)
  inplace_fraction : float;  (** InPlaceTP-compatible share of each host *)
  batch_days : float;  (** admission tick period *)
  preempt : bool;
      (** always preempt busy populations on critical arrivals; when
          false the {!Fault.Campaign_preempt} site still can per-event *)
  seed : int64;
  track_bookings : bool;  (** record campaign intervals in the report *)
}

val default_config : config
(** 36 hosts (20 Xen + 16 KVM) x 4 VMs, 5 years at 14 CVEs/year,
    cost-aware, tempo 40, concurrency 4, 6-hour admission tick. *)

type booking = { b_episode : int; mutable b_start : float; mutable b_end : float }

type report = {
  r_config : config;
  cves_total : int;
  criticals : int;
  mediums : int;
  episodes : int;  (** critical (CVE x affected population) pairs *)
  campaigns : int;  (** committed, including later-preempted ones *)
  preemptions : int;
  released_hosts : int;  (** host slots released by preemptions *)
  exposed_host_hours : float;
      (** cumulative critical exposure: for every episode host, arrival
          until min(coverage, patch, horizon) *)
  medium_exposed_host_hours : float;
      (** mediums never campaign (the advise threshold); their
          arrival-to-patch exposure is tallied on the side *)
  uncovered_critical : int;
      (** episodes deferred despite a safe alternative whose scalar
          campaign estimate undercut waiting — the [serve] exit-2
          signal *)
  virtual_days : float;
  journal_entries : int;
  bookings : (string * (int * float * float) list) list;
      (** per population: (episode, start day, end day), chronological;
          empty unless [track_bookings].  Intervals on one population
          never overlap — preemption truncates before rebooking. *)
}

(** {1 Journal} *)

type journal
(** Config plus every service-level entry (arrival / decision /
    preemption / episode close), each stamped with the fault-plan
    cursor.  Sufficient to resume a crashed run. *)

val journal_config : journal -> config
val journal_length : journal -> int

val journal_to_string : journal -> string
(** Line-oriented {!Sim.Journal} text (for [serve --journal] /
    [--resume-from]): the magic, the config line, then one opaque line
    per entry. *)

val journal_of_string : string -> (journal, string) result
(** Inverse of {!journal_to_string}; blank lines are skipped and errors
    read ["line N, column C: ..."]. *)

val config_to_line : config -> string
val config_of_line : string -> (config, string) result
(** The journal's config line, described once for both directions.
    Floats are written with 17 significant digits, so
    [config_of_line (config_to_line c) = Ok c] for every config with
    finite fields and a resumed run sees the exact config of the run it
    continues.  Errors read ["line 1, column C: ..."]. *)

(** {1 Running} *)

type run_result =
  | Finished of report * journal
  | Crashed of journal  (** {!Fault.Controller_crash} fired mid-stream *)

val run :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config ->
  run_result
(** Serve the whole stream.  [fault] is consulted at
    {!Fault.Cve_burst} (per generated arrival),
    {!Fault.Campaign_preempt} (per critical arrival finding its
    population busy, unless [preempt] already forces it) and
    {!Fault.Controller_crash} (per journal append).  Backend campaigns
    run fault-free: their determinism comes from seeds derived per
    episode, so the pricing pass and the committed execution agree.
    [metrics] is the live dashboard (CVE counters by severity,
    campaign / preemption counters, exposure and virtual-day gauges);
    [obs] records campaign intervals and preemption instants on
    per-population tracks.  Raises [Hypertp_error.Error] (site
    ["Stream.Service"]) on a malformed config. *)

val resume :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> journal ->
  run_result
(** Re-run from the journal's config, validating every re-emitted
    entry against the journaled prefix ([fault] is restarted first,
    exactly as {!Cluster.Campaign.resume} does); the crash site is
    suppressed inside the prefix, so the service replays {e past} the
    original crash point and continues.  Raises [Hypertp_error.Error]
    (site ["Stream.Service.resume"]) when the journal disagrees with
    the config, seed or plan. *)

val run_to_completion :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config ->
  report * journal
(** [run], resuming across any number of controller crashes.  The
    final report and journal are byte-identical to an uninterrupted
    run under the same seed. *)

val report_to_string : report -> string
(** Stable multi-line rendering (the determinism tests pin it). *)

val pp_report : Format.formatter -> report -> unit
