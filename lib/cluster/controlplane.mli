(** Replicated hierarchical control plane: crash-survivable campaigns
    at fleet scale.

    The fleet is partitioned into uniform regions.  Each region is run
    by a {e sub-controller} that is a {!Campaign} controller — ladder,
    breaker, journal and all — whose config and fault plan are derived
    exactly as {!Campaign.run_fleet} derives them.  All regions run on
    one {!Sim.Engine.t} owned by a {e root supervisor}, which

    - splits the global admission budget over the regions (remainder
      to the lowest indices);
    - reallocates: [realloc_lag] after a region finishes, the
      lowest-index unfinished region receives its slots as a
      {!Campaign.Limit_raised} entry in its own journal;
    - collects heartbeats on a self-re-arming engine handler (each
      tick arms the next one [heartbeat_every] later), fencing and
      rebuilding a sub-controller whose heartbeats a partition drops.

    {b Recovery is a rebuild from the journal.}  A crashed
    sub-controller is rebuilt at once through {!Campaign}'s resume path
    (its dead incarnation stopped first), and so is a
    partitioned one (a spurious restart).  Nothing the root holds is
    load-bearing: a root crash ends the incarnation with a {!bundle} of
    the region journals, from which {!resume} (leader handoff) rebuilds
    every region and re-derives the reallocation ledger from the
    durable grants.  Heartbeats only feed supervision accounting —
    restart counters and trace instants.

    {b Timeline neutrality.}  A rebuilt controller replays its journal
    into exactly the state the dead one had and re-arms its in-flight
    attempts at their recorded times, so for any seeded schedule of
    crashes, partitions and resumes the final report and merged journal
    are byte-identical to the uninterrupted run (property-tested).

    Control-plane fault sites ({!Fault.controlplane_sites}) are
    consulted on the caller's plan at the campaign's journal-then-crash
    point ({!Campaign.probe}), never on a region's cursor-tracked plan;
    region plans carry only the host sites ([Host_flap], [Host_crash],
    [Host_timeout]), so a chaotic run's journals stay byte-identical to
    a calm run's. *)

type config = {
  regions : int;  (** number of sub-controllers *)
  hosts_per_region : int;
  vms_per_host : int;  (** VMs riding through each in-place upgrade *)
  global_concurrency : int;
      (** fleet-wide admission budget, split evenly across regions
          (remainder to the lowest indices) and reallocated as regions
          finish *)
  straggler_factor : float;  (** deadline = factor x expected, >= 1.2 *)
  breaker_window : int;
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;  (** success-time jitter, <= 0.1 *)
  drain_flakiness : float;  (** per-host probability a fallback drain fails *)
  heartbeat_every : Sim.Time.t;  (** sub-controller heartbeat period *)
  heartbeat_timeout : Sim.Time.t;
      (** root fences and rebuilds a sub-controller after this much
          heartbeat silence; must exceed [heartbeat_every] *)
  realloc_lag : Sim.Time.t;
      (** lease delay between a region finishing and its admission
          slots taking effect elsewhere; must be at least
          [heartbeat_timeout + 2 x heartbeat_every] so a reallocation
          never lands inside the detection window of the region that
          granted it *)
  seed : int64;
      (** fleet seed; each region's campaign seed derives from it and
          the region name *)
}
(** Region campaigns take every setting this record has no field for
    (VM and node RAM, retry flakiness, ...) from
    {!Campaign.default_config}, and run without shadow spares. *)

val default_config : config
(** 4 regions x 25 hosts, 8 VMs/host, global concurrency 8, heartbeats
    every 5s with a 12s timeout, reallocation lag 22s. *)

val config_of_topology : Topology.t -> config -> config
(** [base] with its region grid replaced by [topology]'s shape.  The
    control plane splits its admission budget over equal regions, so
    the topology must be uniform (every region the same hosts x VMs);
    raises [Hypertp.Error.Error] (site ["Controlplane"]) otherwise —
    use [Campaign.run_fleet] for ragged fleets. *)

type host_status = Campaign.host_status =
  | Upgraded_inplace
  | Shadow_cutover  (** never: region campaigns run without spares *)
  | Drained
  | Deferred_resolved  (** deferred, then the end-of-region retry won *)
  | Deferred_exposed  (** still on the vulnerable hypervisor *)

type host_record = {
  h_name : string;  (** the region campaign's node name *)
  h_status : host_status;
  h_attempts : int;
  h_manifestations : Campaign.manifestation list;
  h_done_at : Sim.Time.t;
  h_exposure_hours : float;
}

type region_report = {
  rr_region : int;
  rr_hosts : host_record list;
  rr_finished_at : Sim.Time.t;
  rr_breaker_trips : int;
}

type report = {
  cp_cfg : config;
  cp_regions : region_report list;
  cp_wall_clock : Sim.Time.t;  (** latest region wall clock *)
  cp_exposed_host_hours : float;
  cp_baseline_exposed_host_hours : float;
  cp_hosts_inplace : int;
  cp_hosts_drained : int;
  cp_hosts_exposed : int;
}
(** Reports carry {e only} timeline-derived data.  Supervision
    accounting — restarts, spurious restarts, partitions, handoffs — is
    deliberately kept out (it lives in the metrics registry), because
    the byte-identity invariant says a chaotic run's report equals the
    calm run's. *)

val summary : report -> string
(** A stable multi-line rendering, suitable for golden tests. *)

type bundle
(** The durable state of one incarnation: the config plus every
    region's {!Campaign.journal}.  This is all a new leader needs. *)

val bundle_config : bundle -> config
val bundle_journals : bundle -> Campaign.journal array
(** The region journals, in region order. *)

val bundle_length : bundle -> int
(** Total entries across all region journals. *)

val merged_to_string : bundle -> string
(** The global campaign timeline: all region journals merged by
    (stamp, region, in-region order), one line per entry.  Two bundles
    from byte-identical runs merge to byte-identical strings. *)

val bundle_to_string : bundle -> string
(** Self-describing {!Sim.Journal} text: the config line, then per
    region a [region idx=I entries=N] section holding its
    {!Campaign.journal_to_string} text; round-trips through
    {!bundle_of_string}. *)

val bundle_of_string : string -> (bundle, string) result
(** [Error] unless the config is valid and each region has exactly one
    complete journal (its header's entry count), in order, carrying the
    config derived for it, in-order stamps and grants from real regions.
    Errors read ["line N, column C: ..."]; a check on a whole region
    names its header line. *)

type run_result =
  | Finished of report * bundle
  | Crashed of bundle
      (** the root supervisor died ([Root_crash], or
          [Crash_during_resume] while it was recovering a
          sub-controller); hand the bundle to {!resume} *)

val run :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config ->
  run_result
(** Run a fresh campaign.  [fault] arms the per-host sites (re-seeded
    per region) and the {!Fault.controlplane_sites}.  Sub-controller
    crashes and partitions are absorbed {e inside} the run by rebuilding
    the region from its journal; only a root death surfaces as
    [Crashed].  [obs] and [metrics] receive the root's supervision spans
    and [hypertp_ctl_*] counters and every region campaign's own
    instrumentation (a rebuilt region re-emits its timeline). *)

val resume :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> bundle ->
  run_result
(** Leader handoff: rebuild every region from its journal through
    {!Campaign}'s resume path (a journal the derived fault plan
    disagrees with raises [Hypertp.Error.Error], site
    ["Controlplane.resume"]), re-derive the reallocation ledger from the
    journaled grants, and drive the campaign to completion.  The
    control-plane chaos plan is used {e as given} — not restarted — so
    an [Nth_hit] on [Crash_during_resume] fires once across a
    run/resume chain (pass the plan value you passed to {!run}). *)

val run_to_completion :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config ->
  report
(** [run] then [resume] until [Finished], threading one chaos plan
    through the whole chain. *)
