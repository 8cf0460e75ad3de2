(** MigrationTP: live-migration-based hypervisor transplant
    (sections 3.3 and 4.3), plus the homogeneous live-migration baseline
    it is compared against (Table 4, Figs. 8-9).

    The pre-copy data path is the standard one; the MigrationTP novelty
    is the pair of proxies translating VM_i State through UISR so source
    and destination may run different hypervisors.  Guest pages are
    never translated — they are copied verbatim.

    Link faults (armed through a {!Fault} plan) hit individual pre-copy
    rounds: a degraded link doubles the round's duration, a dropped
    link aborts the attempt.  Pre-copy is non-destructive — the source
    VM never paused — so a dropped attempt is retried after an
    exponential backoff until the per-VM attempt budget runs out. *)

type outcome =
  | Completed
  | Completed_after_retries of int
      (** succeeded, but only after this many dropped attempts *)
  | Aborted_link_failure of int
      (** the link died during this pre-copy round on the final
          attempt; the source VM keeps running and the
          partially-populated destination is torn down *)
  | Aborted_state_corruption of int
      (** every one of this many state-chunk transmissions failed the
          receiver's CRC verification; the source VM resumes where it
          paused and the destination discards its copy *)

type retry_params = {
  max_attempts : int;      (** total attempts per VM, including the first *)
  backoff_base : Sim.Time.t;  (** wait before the first retry *)
  backoff_factor : float;  (** multiplier per subsequent retry *)
}

val default_retry : retry_params
(** 3 attempts, 500 ms base, doubling: waits 0.5 s then 1 s. *)

type vm_report = {
  vm_name : string;
  rounds : int;
  precopy_time : Sim.Time.t;
      (** successful attempt only (degraded rounds included) *)
  downtime : Sim.Time.t;
      (** stop-and-copy + state transfer + receive-queue wait +
          destination resume *)
  queue_wait : Sim.Time.t;
      (** time spent waiting for a sequential receiver (Xen) *)
  retries : int;          (** dropped attempts that were retried *)
  retry_wait : Sim.Time.t;   (** total backoff time *)
  wasted_time : Sim.Time.t;  (** wire time of all dropped attempts *)
  state_retransmits : int;
      (** state chunks the receiver rejected (CRC verification before
          ack) and the source resent; each stretches the downtime by
          one state-transfer time *)
  total_time : Sim.Time.t;
  wire_bytes : Hw.Units.bytes_;
      (** includes per-page protocol overhead and the bytes burnt by
          dropped attempts *)
  state_bytes : int; (** UISR (or native-context) platform payload *)
  fixups : Uisr.Fixup.t list;
  outcome : outcome;
}

type checks = {
  memory_equal : bool;  (** destination guest memory == source at pause *)
  connections_preserved : bool;
  management_consistent : bool;
  residual_clean : bool;
      (** the optional post-migration audit found nothing, or the scrub
          remediated everything it found; [true] when the audit was not
          armed *)
  platform_preserved : bool;
      (** every landed VM's vCPUs, IOAPIC and PIT match the state that
          crossed the wire, up to the allowances of {!Uisr.Guest_view}
          (MSRs a fixup dropped, IOAPIC pins the target lacks or adds) *)
  devices_preserved : bool;
      (** every landed VM's devices match the capture by id, kind and
          TCP connections *)
}
(** Filled for every VM [run] or [run_shadow] lands, by one landing
    path; a VM left on the source is not checked. *)

val all_ok : checks -> bool

type report = {
  kind : [ `Migration_tp | `Homogeneous ];
  src_hv : string;
  dst_hv : string;
  per_vm : vm_report list;
  total_time : Sim.Time.t;
      (** completion of the last VM, setup included, plus any
          post-migration audit/scrub time *)
  checks : checks;
  audit : Audit.report option;
      (** final post-migration audit of the destination world when armed
          via [?audit] (the recheck report if a scrub ran) *)
  audit_time : Sim.Time.t;
      (** audit + scrub time charged into [total_time] (zero when
          unarmed); equals the extent of the [audit]/[scrub] spans laid
          on the destination host track *)
}

val run :
  ?rng:Sim.Rng.t -> ?fault:Fault.t -> ?retry:retry_params ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:Inplace.audit ->
  src:Hv.Host.t -> dst:Hv.Host.t -> ?vm_names:string list -> unit -> report
(** Migrate the named VMs (default: all) from [src] to [dst].  The
    destination hypervisor must already be booted; the kind is inferred:
    same hypervisor -> homogeneous baseline (native-format stream,
    Xen's sequential receive), different -> MigrationTP (UISR proxies).
    Source VMs are destroyed after a successful hand-off, as in real
    live migration.

    [fault] arms {!Fault.Migration_link_drop} /
    {!Fault.Migration_link_degrade} injections against pre-copy rounds,
    and {!Fault.Uisr_corrupt} against the platform-state transmission:
    the receiving proxy runs [Uisr.Codec.decode_verified] on the chunk
    before acking and asks for a retransmit on anything short of
    [Intact].  [retry] bounds both the per-VM link retry loop and the
    retransmit budget (default {!default_retry}).  A VM whose attempts
    are exhausted stays resident and running on the source, with the
    wasted wire time and bytes accounted.

    [obs] records each VM's migration on its own [vm:<name>] track:
    setup, every link-dropped attempt and its backoff sleep, the
    pre-copy span with one child per analytic round, and the downtime
    span annotated with retransmit events; the root span's extent
    equals the VM's [total_time] exactly.  [metrics] accumulates
    [hypertp_migrations_total], retry/retransmit counters,
    [hypertp_wire_bytes_total], [hypertp_faults_total] and a
    [hypertp_downtime_seconds] histogram.

    [audit] ({!Inplace.audit}) arms a post-migration residual audit
    that sweeps the destination world against a fresh-boot reference
    after the last VM lands, using the transmitted UISR blobs as the
    guest baseline.  Findings trigger a scrub-and-recheck under
    [Scrub].  Findings left standing fail the [residual_clean] check:
    under [Report_only], or on a scrub failure (the [scrub_fail] fault
    site, or residue the scrub cannot remediate).  The [residual_leak]
    fault site plants residue on the destination for the audit to
    catch.

    Raises [Invalid_argument] if the destination lacks memory or a
    hypervisor, a VM name is unknown, or [retry.max_attempts < 1]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Shadow-host MigrationTP}

    The abort-safe variant: pre-stage the target hypervisor on a spare
    host, stream the checkpoint while the source serves traffic, replay
    dirty state in bounded rounds and swap identities atomically.  The
    five-phase transaction (stage -> stream -> converge -> swap ->
    reclaim) keeps every pre-swap phase analytic on the source side, so
    {e any} fault before the identity swap leaves the source
    byte-identical and running — the abort handler re-verifies the
    entry fingerprint and reports it as [sh_source_intact] rather than
    assuming it. *)

type shadow_strategy =
  | Shadow_cutover  (** the swap committed; VMs run on the spare *)
  | Classic_fallback of Fault.site
      (** a pre-swap abort at this site degraded the run to classic
          {!run} against the staged spare (its report is embedded) *)
  | Shadow_deferred of Fault.site
      (** no spare to land on (or the ladder is disabled): nothing ran,
          the source keeps its VMs and the exposure window stays open *)

type shadow_vm = {
  sv_name : string;
  sv_plan : Migration.Shadow.plan option;
      (** [None] when the checkpoint stream died before a plan landed *)
  sv_downtime : Sim.Time.t;  (** zero unless this VM cut over *)
  sv_wire_bytes : Hw.Units.bytes_;
      (** checkpoint + replay + platform state; for an aborted stream,
          the bytes burnt before the drop *)
  sv_state_bytes : int;  (** UISR platform payload; 0 before the swap *)
  sv_fixups : Uisr.Fixup.t list;  (** recorded at the swap; [] before it *)
}

type shadow_report = {
  sh_src_hv : string;
  sh_target_hv : string;
  sh_spare : string;  (** spare host name *)
  sh_strategy : shadow_strategy;
  sh_phases : (Migration.Shadow.phase * Sim.Time.t) list;
      (** all five phases in order, zero where never reached; their sum
          equals [sh_shadow_time] (and the root span's extent) exactly *)
  sh_per_vm : shadow_vm list;
  sh_downtime : Sim.Time.t;
      (** max per-VM cutover downtime; the classic fallback's downtime
          when degraded; zero when deferred *)
  sh_wire_bytes : Hw.Units.bytes_;
      (** shadow bytes (wasted ones included) plus the classic
          fallback's, when it ran *)
  sh_shadow_time : Sim.Time.t;  (** the five phases, summed *)
  sh_total_time : Sim.Time.t;
      (** [sh_shadow_time] plus the classic fallback's total *)
  sh_source_intact : bool;
      (** on an abort: the source management plane is consistent and
          every VM is still running with its entry checksum (verified,
          not assumed); vacuously [true] on a committed cutover *)
  sh_watchdog_trips : int;
      (** convergence-watchdog trips: one per VM whose plan names a
          violator *)
  sh_watchdog_cancels : int;
      (** round deadlines met: one per replay round that shrank in
          time *)
  sh_checks : checks option;
      (** cutover verification on the spare ([Some] only when the swap
          committed; a degraded run's checks live in [sh_classic]) *)
  sh_classic : report option;  (** the embedded classic fallback report *)
}

val run_shadow :
  ?rng:Sim.Rng.t -> ?fault:Fault.t -> ?retry:retry_params ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t ->
  ?params:Migration.Shadow.params -> ?ladder:bool -> src:Hv.Host.t ->
  spare:Hv.Host.t -> target:(module Hv.Intf.S) -> ?vm_names:string list ->
  unit -> shadow_report
(** Shadow-host transplant of the named VMs (default: all) from [src]
    onto [spare], which must be empty and either idle (the stage phase
    boots [target] on it) or pre-staged with [target] already running.
    [params] defaults to {!Migration.Shadow.default_params} over the
    source NIC with one stream per VM.

    [fault] arms the five shadow sites.  {!Fault.Spare_exhausted} hits
    admission (before the spare is touched) and {e always} defers —
    classic MigrationTP needs the same spare.  {!Fault.Shadow_stage_fail}
    hits skeleton pre-staging after the target boots;
    {!Fault.Shadow_stream_drop} and {!Fault.Shadow_diverge} hit the
    stream/converge walk (divergence is detected by the watchdog's
    shrink rule, not asserted; the converge phase ends at the slowest
    VM's {!Migration.Shadow.verdict_time}); {!Fault.Swap_partition}
    hits the handshake strictly before the flip.  All five abort with the source verified
    intact, then walk the degradation ladder: classic {!run} against
    the staged spare when [ladder] (default [true]), defer otherwise.

    [obs] lays the five phase spans back-to-back from t=0 on the
    [shadow:<src>] track under one root whose extent equals
    [sh_shadow_time] to the nanosecond, with an [identity_swap] event
    at the swap boundary or an [abort:<site>] event at the end;
    [metrics] accumulates [hypertp_shadow_total] (by strategy),
    [hypertp_wire_bytes_total], watchdog trip/cancel counters,
    [hypertp_faults_total] and the [hypertp_downtime_seconds] histogram
    (committed cutovers only).

    Raises [Invalid_argument] if [src] has no running hypervisor or no
    VMs, a VM name is unknown, or the spare is non-empty or runs a
    hypervisor other than [target]. *)

val pp_shadow_strategy : Format.formatter -> shadow_strategy -> unit
val pp_shadow_report : Format.formatter -> shadow_report -> unit
