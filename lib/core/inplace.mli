(** InPlaceTP: in-place micro-reboot-based hypervisor transplant
    (sections 3.2 and 4.2).

    The seven-step workflow on a single host: stage the target's kernel,
    build PRAM while VMs run, pause, translate VM_i State to UISR,
    kexec into the target, parse PRAM at early boot, restore from UISR
    onto the untouched guest memory, rebuild management state, resume.

    The run both {e performs} the transplant on the simulated host
    (guest memory objects survive in place; the report's checks verify
    it) and {e accounts} each phase's virtual-time cost.

    The workflow is transactional around a single point of no return —
    the kexec jump.  A fault injected before it aborts the transplant:
    staging is discarded, every VM resumes on the source hypervisor,
    and the checks prove guest memory byte-identical.  A fault after it
    cannot abort (the source hypervisor is gone) and is instead handled
    by a ReHype-style recovery ladder: per-VM restore retries, UISR
    quarantine, management-state rebuild, and a last-resort full
    reboot. *)

type checks = {
  guest_memory_intact : bool;
      (** per-page checksums identical before/after; backing unclobbered *)
  pram_parse_ok : bool;
  kexec_image_intact : bool;
  uisr_roundtrip_ok : bool;
      (** every intact UISR blob decoded to its source (a salvaged one
          cannot) *)
  management_consistent : bool;
  platform_preserved : bool;
      (** every restored VM's vCPUs, IOAPIC and PIT match its
          pre-transplant capture, up to the allowances of
          {!Uisr.Guest_view} (salvaged VMs included) *)
  devices_preserved : bool;
      (** every restored VM's devices match its capture by id, kind and
          TCP connections ({!Uisr.Guest_view.devices_preserved}) *)
}

val all_ok : checks -> bool

type audit =
  | Scrub  (** sweep, then scrub-and-recheck on findings *)
  | Report_only
      (** sweep and report the findings, but leave the residue in place *)
(** How the post-commit residual audit rung runs once armed.  Passing
    no [?audit] to {!run} skips the rung entirely, so default runs stay
    byte-identical to runs without an auditor. *)

type recovery_detail = {
  recovery_faults : Fault.site list;
      (** distinct post-PNR sites that fired, in firing order *)
  restore_retries : int;  (** extra per-VM restore attempts across all VMs *)
  quarantined : string list;
      (** VMs not restored: UISR rejected, PRAM file damaged, or retries
          exhausted *)
  salvaged : (string * string list) list;
      (** VMs restored from a partially damaged UISR blob — every
          CRC-valid section recovered, damaged salvageable sections
          replaced with reset defaults — with the decoder's diagnostics;
          a rung {e above} quarantine on the recovery ladder *)
  mgmt_rebuilds : int;    (** extra management-rebuild passes *)
  full_reboot : bool;     (** last-resort full firmware reboot taken *)
  recovery_time : Sim.Time.t;
  audit_findings : int;
      (** residual findings flagged by the first post-commit audit sweep
          (0 when the audit was not armed or found nothing) *)
  audit_scrubbed : int;
      (** findings remediated by the scrub pass; a shortfall against
          [audit_findings] means the scrub failed or was disabled and
          the ladder escalated *)
}

type outcome =
  | Committed            (** fault-free end-to-end *)
  | Rolled_back of Fault.site
      (** pre-PNR fault: transplant aborted, VMs back on the source *)
  | Recovered of recovery_detail
      (** post-PNR fault(s) absorbed by the recovery ladder *)

type report = {
  source : string;
  target : string;
  vm_count : int;
  phases : Phases.t;
  fixups : (string * Uisr.Fixup.t list) list;
  uisr_platform_bytes : int; (** encoded platform UISR, all VMs *)
  pram_accounting : Pram.Layout.accounting;
  frames_wiped : int;
  checks : checks;
  outcome : outcome;
  audit : Audit.report option;
      (** final post-commit audit report when the audit rung was armed
          via [?audit]: the recheck report if a scrub ran, the first
          sweep otherwise; [None] when unarmed or rolled back *)
}

val run :
  ?options:Options.t -> ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:audit ->
  host:Hv.Host.t -> target:(module Hv.Intf.S) -> unit -> report
(** Transplant every VM on [host] onto [target].  [options] defaults to
    {!Options.default} and [rng] to a fixed engine stream.

    On a committed or
    recovered run the host ends up running the target hypervisor with
    all surviving VMs resumed; on a rolled-back run it still runs the
    source with all VMs resumed.  [fault] arms an injection plan (see
    {!Fault}); omitted means fault-free.  Raises [Invalid_argument] if
    the host has no hypervisor or no VMs, or if the target is already
    the running hypervisor.

    [obs] records the run as a span tree on virtual time: a root
    [inplace] span, one [phase:*] span per {!Phases.t} field (using the
    report's exact durations, so {!Phases.of_trace} over the trace
    reconciles with [report.phases] to the tick), per-VM [restore:*]
    children under restoration, sequential [rung:*] children under
    recovery (restore retries, quarantine triage, salvage repairs,
    management rebuilds, full-reboot fallback), and instant events for
    pause / point-of-no-return / resume.  [metrics] accumulates
    [hypertp_phase_seconds], [hypertp_downtime_seconds],
    [hypertp_faults_total], [hypertp_recovery_rungs_total] and
    [hypertp_transplants_total].  Both default to off and cost nothing
    when absent.

    [audit] arms a post-commit residual audit that sweeps the target
    world against a fresh-boot reference after the VMs resume.
    Findings trigger a scrub-and-recheck under [Scrub] ([Report_only]
    reports them and leaves them); a scrub failure — the [scrub_fail]
    fault site, or residue the scrub cannot remediate — escalates to
    the full-reboot rung.  Any residue found forces the outcome to
    [Recovered] even if every other step was calm, and audit/scrub time
    is charged as [rung:audit] / [rung:scrub] recovery rungs, visible
    in both the phase accounting and the obs trace. *)

type audit_outcome =
  | Audit_clean
  | Audit_reported  (** [Report_only] left the findings in place *)
  | Audit_scrub_failed  (** the [scrub_fail] site fired *)
  | Audit_scrubbed of int  (** findings left after the scrub's recheck *)

type audit_result = {
  audit_report : Audit.report;  (** the recheck if a scrub ran *)
  audit_found : int;  (** findings of the first sweep *)
  audit_outcome : audit_outcome;
}

val audit_rung :
  mode:audit -> what:string -> fire:(Fault.site -> bool) ->
  charge:(string -> (string * string) list -> float -> unit) ->
  source:(module Hv.Intf.S) -> target:(module Hv.Intf.S) -> ?victim:string ->
  Audit.world -> audit_result
(** The residual-audit rung {!run} and {!Migrate.run} share; each maps
    the outcome onto its own escalation.  Sweeps [world] against
    fresh-boot references of [target] and [source], logs ["<what>
    audit: N residual finding(s)"], then scrubs and rechecks under
    [Scrub].  [fire] gates the [residual_leak] plant (a stale blob of
    [victim] among it) and [scrub_fail]; each sweep and scrub is
    [charge]d as [(name, attrs, seconds)]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
