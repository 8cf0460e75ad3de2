(** Supervised rolling-transplant campaign controller.

    [Cluster.Upgrade.execute*] prices a rolling upgrade by summing
    precomputed action times — fine for Fig. 13, useless for operating
    a real fleet remediation, which is a multi-hour supervised process
    racing an active attacker.  This module runs the same BtrPlace plan
    as a {e supervised campaign} on the discrete-event engine
    ({!Sim.Engine}):

    - {b Admission control.}  At most [concurrency] hosts are in flight
      at once, further clamped by {!Btrplace.max_concurrent_drains} so
      the campaign never drains more hosts than spare capacity admits.
    - {b Straggler detection.}  Every host attempt carries a deadline
      ([straggler_factor] x its expected duration, from the
      {!Hypertp.Costs} estimates); a deadline event on the engine
      escalates attempts that overrun it.
    - {b Degradation ladder.}  InPlaceTP -> shadow-host cutover (when
      [shadow_spares > 0] and a staged spare lane is free) ->
      MigrationTP drain -> {e defer}: a deferred host stays on the
      vulnerable hypervisor, accruing exposed host-hours (Fig. 1), and
      is retried once at campaign end.  A completed cutover frees its
      source as the next spare, so the lanes are a concurrency bound,
      not a consumable; a failed cutover returns its lane and the host
      falls through to the drain (never shadow twice).
    - {b Circuit breaker.}  When the failure rate over the last
      [breaker_window] attempts reaches [breaker_threshold], admission
      pauses for [breaker_cooldown], then resumes {e half-open} at
      halved concurrency; [breaker_window] consecutive successes close
      it again (hysteresis).
    - {b Checkpoint / resume.}  Every host-level event is journaled
      (with the fault-plan cursor); a {!Fault.Controller_crash} kills
      the controller mid-campaign and {!resume} replays the journal and
      continues to a final report identical to the uninterrupted run.

    Fault sites consulted per host admission, in order:
    {!Fault.Host_flap}, {!Fault.Host_crash}, {!Fault.Host_timeout} —
    always all three, so equal seeds keep probability streams aligned
    and failure sets are nested across probabilities (the {!sweep}
    nesting property).  When several fire, the costliest manifestation
    governs (timeout > flap > crash).  Shadow admissions additionally
    consult the five shadow sites ({!Fault.Spare_exhausted},
    {!Fault.Shadow_stage_fail}, {!Fault.Shadow_stream_drop},
    {!Fault.Shadow_diverge}, {!Fault.Swap_partition}, in that order) — but {e only} when the
    plan arms at least one of them, so journals recorded under
    shadow-free plans keep their fault cursors bit-for-bit.  Secondary
    decisions (drain failure, end-of-campaign retry, duration jitter)
    come from per-host RNGs derived from [seed], independent of the
    plan's stream. *)

type config = {
  nodes : int;
  vms_per_node : int;
  vm_ram : Hw.Units.bytes_;
  node_ram : Hw.Units.bytes_;
  inplace_fraction : float;
  concurrency : int;  (** requested; clamped by spare capacity *)
  straggler_factor : float;  (** deadline = factor x expected; >= 1.2 *)
  breaker_window : int;  (** K: rolling window length *)
  breaker_threshold : float;  (** trip when failures/K >= threshold *)
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;  (** per-host duration noise in [0, 0.1]; 0 = ideal *)
  drain_flakiness : float;  (** P(drain fallback also fails) per host *)
  retry_flakiness : float;  (** P(end-of-campaign retry fails) per host *)
  seed : int64;  (** feeds the derived per-host RNGs only *)
  shadow_spares : int;
      (** staged spare lanes for the {!Shadow} ladder rung; [0]
          (default) disables the rung entirely — campaigns and their
          journals are then byte-identical to pre-shadow runs *)
}

val default_config : config
(** 10x10 paper cluster, fully InPlaceTP-compatible, concurrency 4,
    straggler factor 2.0, breaker 5/0.4/120 s, jitter 5 %. *)

type ladder_step = Inplace | Shadow | Drain | Retry

type manifestation = Crash | Timeout | Flap

type event =
  | Admitted of ladder_step
  | Flap_failure  (** first leg of a flap: failed, then recovered *)
  | Straggler_cancelled  (** deadline exceeded; attempt cancelled *)
  | Attempt_failed of { step : ladder_step; manifestation : manifestation }
  | Attempt_completed of ladder_step
  | Deferred  (** ladder exhausted; host parked on the vulnerable hv *)
  | Breaker_opened
  | Breaker_half_opened
  | Breaker_closed
  | Limit_raised of { from_region : int; slots : int }
      (** [slots] admission slots granted by the finished region
          [from_region]; only the control plane's root appends it *)
  | Campaign_finished

val pp_event : Format.formatter -> event -> unit

type host_status =
  | Upgraded_inplace  (** InPlaceTP succeeded (possibly not first try) *)
  | Shadow_cutover
      (** evacuated by a shadow-host cutover onto a staged spare *)
  | Drained  (** fell back to a MigrationTP drain + empty reboot *)
  | Deferred_resolved  (** deferred, but the end-of-campaign retry won *)
  | Deferred_exposed  (** still on the vulnerable hypervisor at the end *)

type audit_verdict =
  | A_clean  (** the post-commit residual audit found nothing *)
  | A_scrubbed  (** findings were remediated by the scrub pass *)
  | A_failed  (** the scrub failed; residue was left on the host *)

val verdict_to_string : audit_verdict -> string
val verdict_of_string : string -> audit_verdict option

type host_record = {
  hr_node : string;
  hr_vms_in_place : int;  (** VMs riding InPlaceTP on this host *)
  hr_drain_migrations : int;  (** planned pre-upgrade evacuations *)
  hr_status : host_status;
  hr_attempts : int;
  hr_manifestations : manifestation list;  (** injected failures, in order *)
  hr_timeline : (Sim.Time.t * event) list;  (** this host's events *)
  hr_expected : Sim.Time.t;  (** a-priori attempt estimate (deadline basis) *)
  hr_done_at : Sim.Time.t;
      (** when the host left the vulnerable hypervisor; campaign end for
          {!Deferred_exposed} *)
  hr_exposure_hours : float;  (** host-hours exposed since campaign start *)
  hr_audit : audit_verdict option;
      (** post-commit audit verdict of the successful InPlaceTP attempt;
          [None] when the fault plan does not arm
          {!Fault.Residual_leak} / {!Fault.Scrub_fail}, or when the host
          ended drained/exposed (nothing landed in place to audit) *)
}

type report = {
  cfg : config;
  base : Upgrade.timing;  (** the unsupervised timing of the same plan *)
  effective_concurrency : int;  (** after the capacity clamp *)
  hosts : host_record list;  (** in admission order *)
  wall_clock : Sim.Time.t;  (** includes the final rebalance tail *)
  rebalance_time : Sim.Time.t;
  exposed_host_hours : float;  (** sum over hosts *)
  baseline_exposed_host_hours : float;
      (** no-transplant reference: every host exposed for the whole
          campaign *)
  deferred : string list;  (** hosts whose ladder reached {e defer} *)
  deferred_exposure_hours : float;
      (** exposure accrued by the deferred set; > 0 iff it is non-empty *)
  breaker_trips : int;
  vms_total : int;
  vms_inplace_ok : int;
  vms_shadow : int;  (** VMs moved whole-host by shadow cutovers *)
  vms_drained : int;
  vms_on_deferred : int;  (** alive but still on the vulnerable hv *)
  vms_migrated_planned : int;  (** distinct VMs moved by the plan *)
  audit_verdicts : (string * audit_verdict) list;
      (** per-host audit verdicts in admission order; empty when the
          plan never armed the audit sites *)
}

val vms_accounted : report -> int
(** [vms_inplace_ok + vms_shadow + vms_drained + vms_on_deferred +
    vms_migrated_planned]; always equals [vms_total] — no VM is lost,
    only delayed or left exposed. *)

(** {1 Journal} *)

type journal
(** The campaign's checkpoint state: config plus every host-level event
    (with the fault-plan cursor after each).  Appended to after every
    event; sufficient to resume an interrupted campaign. *)

val journal_config : journal -> config
val journal_length : journal -> int

val config_to_line : config -> string
(** The config's canonical journal line: every field, floats in
    round-trip precision.  {!fleet_digest} hashes this line. *)

val journal_to_string : journal -> string
(** Line-oriented {!Sim.Journal} text (for [--resume-from] files): the
    magic, the {!config_to_line} line, one [e] line per entry. *)

val journal_of_string : string -> (journal, string) result
(** Read back {!journal_to_string}.  Errors read
    ["line N, column C: ..."] ({!Sim.Journal}). *)

val write_journal : Buffer.t -> journal -> unit
val read_journal : Sim.Journal.reader -> journal
(** The same codec inside a larger {!Sim.Journal} text: reading stops
    at the first line that is not an entry (the next section). *)

val journal_events :
  (Sim.Time.t -> string option -> event -> unit) -> journal -> unit
(** Iterate the journal's entries in order: stamp, host, event. *)

(** {1 Running} *)

type run_result =
  | Finished of report * journal
  | Crashed of journal
      (** a {!Fault.Controller_crash} fired; resume from the journal *)

val run :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config ->
  run_result
(** Execute the campaign under the [fault] plan, if any.  Raises
    [Hypertp.Error.Error] (site ["Campaign"]) on a malformed config
    (non-positive concurrency, straggler factor below 1.2, jitter
    outside [0, 0.1], threshold outside [0, 1], ...).

    [obs] records the campaign on virtual time: a root [campaign] span
    on the [controller] track, one [attempt:<step>] span per admission
    on its host's [host:<node>] track (closed with a [result]
    attribute; flap legs become events on the open span), breaker
    transitions and journal checkpoints as instants.  Because all
    state mutations funnel through the journal apply path, a resumed
    campaign re-emits the entire timeline into whatever tracer it is
    given.  [metrics] accumulates attempt/failure/completion counters,
    breaker trips, a running-attempts gauge and, once finished, the
    exposure and wall-clock gauges. *)

val resume :
  ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> journal ->
  run_result
(** Replay the journal — re-validating it against a {e restarted} copy
    of the fault plan (same injections and seed as the original run) —
    then continue the campaign live.  The final report is identical to
    the uninterrupted run's.  Raises [Hypertp.Error.Error] (site
    ["Campaign.resume"]) if the journal does not match the plan. *)

type plan
(** A campaign's BtrPlace set-up: the upgrade plan, its per-host tasks
    and timings, and the capacity clamp.  Immutable, and read-only once
    built, so one plan may serve controllers on several domains at
    once.  It depends on neither seed nor concurrency: a plan serves
    every config that differs from its own at most in those two
    fields.  Any other config is planned afresh, so a plan never
    changes a result, only how often the planning is paid for. *)

val plan : config -> plan
(** Validate the config ({!validate_config}) and plan it. *)

val run_to_completion :
  ?plan:plan -> ?fault:Fault.t -> ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t ->
  config -> report
(** [run], resuming across any number of controller crashes; every
    resumed incarnation reuses the first one's plan, which is [plan]
    when it fits the config.  With [obs], each crash-and-resume cycle
    replays the journal into the same tracer, so the trace accumulates
    one timeline per life of the controller — pass a fresh tracer per
    call if that is not wanted. *)

(** {1 Region controllers on a shared engine}

    What the control plane ({!Controlplane}) needs to run one controller
    per region on a single engine it owns; {!run} and {!resume} are the
    same controller on a private engine. *)

type controller

type probe = replaying:bool -> Sim.Time.t -> event -> unit
(** Called with [~replaying:false] after every live journal append (the
    journal-then-crash point: the entry is already persisted) and with
    [~replaying:true] before every replayed entry.  Whatever it raises
    propagates out of {!Sim.Engine.run} or {!resume_controller}. *)

val start_controller :
  eng:Sim.Engine.t -> ?plan:plan -> ?fault:Fault.t -> ?probe:probe ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> config -> controller

val resume_controller :
  eng:Sim.Engine.t -> ?plan:plan -> ?fault:Fault.t -> ?probe:probe ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> journal -> controller
(** {!run} and {!resume} up to driving: the first settle (or the replay,
    continuation settle and in-flight attempts) scheduled on [eng], on
    [plan] when it fits the config. *)

val stop_controller : controller -> unit
(** Make every event the controller still has on the engine a no-op,
    so it journals nothing more; call it on a dead incarnation before
    resuming its journal. *)

val grant : controller -> from_region:int -> slots:int -> unit
(** Append [Limit_raised] now, raising the admission limit by [slots],
    and settle into the new slots. *)

val controller_journal : controller -> journal
val controller_finished_at : controller -> Sim.Time.t option
val controller_report : controller -> report

val validate_config : config -> unit
(** {!run}'s config checks (site ["Campaign"]). *)

val sweep :
  ?config:config -> ?seed:int64 -> probabilities:float list -> unit ->
  (float * report) list
(** Run one campaign per per-host failure probability ([Host_crash],
    probability trigger, all plans sharing [seed], default [0xC1A5L]).
    The sets of failed hosts (those with a non-empty
    [hr_manifestations]) are nested as the probability grows, and no
    VM is lost at any point ([vms_accounted r = r.vms_total]). *)

val pp_host_record : Format.formatter -> host_record -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Region-sharded fleets}

    [run_fleet] scales the campaign controller to million-host fleets
    by partitioning a {!Topology.t} into region shards, each simulated
    by its own campaign (own {!Sim.Engine}, own derived seed and fault
    plan) under a {!Sim.Shard.mode} schedule:
    sequential, rotated batches, or parallel on stdlib domains.

    Determinism contract: a region's campaign is a pure function of the
    fleet config and the region (seed and fault plan are derived from
    the fleet seed and the region {e name}), so every schedule produces
    byte-identical summaries, journals ({!fleet_journals_to_string})
    and {!fleet_digest}s for the same inputs — the mode only trades
    wall-clock.  The qcheck suite and CI pin this.

    The fleet config's [nodes]/[vms_per_node]/[shadow_spares] fields
    are overridden per region by the topology ([rg_spares = 0] inherits
    the config's spare count).  [run_fleet] takes no [obs]/[metrics]:
    a shared tracer is not domain-safe and would make the trace
    schedule-dependent. *)

(** Scalar per-region outcome (no per-host records — at fleet scale a
    million boxed timelines would defeat the packed journal). *)
type summary = {
  s_region : string;
  s_hosts : int;
  s_vms : int;
  s_wall_clock : Sim.Time.t;
  s_exposed_host_hours : float;
  s_baseline_exposed_host_hours : float;
  s_breaker_trips : int;
  s_inplace : int;
  s_shadow : int;
  s_drained : int;
  s_retried : int;
  s_exposed : int;
  s_attempts : int;
  s_events : int;  (** journal length *)
  s_resumes : int;  (** controller crashes survived *)
}

type fleet_report = {
  f_topology : Topology.t;
  f_mode : Sim.Shard.mode;
  f_shards : int;  (** shard batches actually used (clamped) *)
  f_domains : int;  (** domains actually spawned *)
  f_summaries : summary array;  (** region order *)
  f_journals : journal array;  (** region order *)
  f_wall_clock : Sim.Time.t;  (** slowest region (regions run in parallel
                                  in simulated time) *)
  f_exposed_host_hours : float;  (** sum over regions *)
  f_baseline_exposed_host_hours : float;
  f_breaker_trips : int;
  f_resumes : int;
  f_minor_words : float;
      (** minor-heap words allocated by the region simulations,
          measured inside each shard task (summed across domains), plus
          the shared plans built before them; schedule metadata,
          excluded from {!fleet_digest} *)
}

val run_fleet :
  ?fault:Fault.t -> ?sharding:Sim.Shard.mode -> topology:Topology.t ->
  config -> fleet_report
(** Simulate one campaign per region of [topology] under [sharding]
    (default [Sequential]).  The topology is validated
    ({!Topology.validate}); raises [Hypertp.Error.Error] on an invalid
    topology, sharding mode, or region config.  A [?fault] plan is
    re-derived per region (same injections, region-derived seed);
    {!Fault.Controller_crash} crashes are resumed transparently and
    counted in [s_resumes].

    Regions of one shape (see {!plan}) share one plan, built once per
    run on the calling domain before any shard starts; a resumed region
    reuses its crashed controller's plan. *)

val region_config : config -> Topology.region -> config
val region_fault : Fault.t option -> Topology.region -> Fault.t option
(** The config and plan [run_fleet] gives [region]: its shape and spare
    pool, the same injections, and seeds derived from the fleet's and
    the region name. *)

val fleet_digest : fleet_report -> int
(** Order-insensitive digest of topology, config (its full
    {!config_to_line}) and every region's summary and packed journal
    words.  Equal across sharding modes for
    the same fleet inputs; schedule metadata ([f_mode], [f_shards],
    [f_domains], [f_minor_words], wall-clock seconds) is excluded. *)

val fleet_journals_to_string : fleet_report -> string
(** Concatenated region journals under a fleet header — the
    byte-identity witness the mode-equivalence tests compare.  A
    {!Sim.Journal} text: the magic, a [topology SPEC] line, then per
    region a [region NAME] section holding its campaign journal. *)

val fleet_journals_of_string : string -> (Topology.t * journal array, string) result
(** Read back {!fleet_journals_to_string}: the topology and the region
    journals, in region order.  The region headers must name the
    topology's regions, in order; errors name a line. *)

val pp_summary : Format.formatter -> summary -> unit

val pp_fleet : Format.formatter -> fleet_report -> unit
(** Schedule-free rendering (no mode/domain/timing fields), including
    the digest — CI diffs this byte-for-byte between sequential and
    sharded runs. *)
