(** Differential post-transplant residual-state auditor.

    The transplant's security claim is that moving to a different
    hypervisor closes the vulnerability window — but the mitigation
    itself must not leak source-hypervisor state into the target world.
    This module proves the negative: after a transplant commits it
    sweeps the target world and compares everything it finds against a
    {e fresh-boot reference} of the target, flagging residue the
    reference cannot explain:

    - orphaned PRAM metadata pages (release was skipped or failed),
    - frames still tagged by the source hypervisor's HV State,
    - stale kexec image frames,
    - frames tagged by nobody the reference knows,
    - staged UISR blobs retained after commit (worse when still stamped
      with the source hypervisor's name),
    - management state copied verbatim instead of regenerated,
    - guest-visible fingerprints: the PIT and device differences
      {!Uisr.Guest_view.diff} finds between each VM and its
      pre-transplant capture (a [Clock_skew] finding per disallowed PIT
      change, a [Device_mismatch] per device difference, worded by
      {!Uisr.Guest_view.pp_difference}).  The same diff decides the
      engines' [platform_preserved] and [devices_preserved] checks.

    Findings are severity-classified; {!scrub} remediates what can be
    remediated (its time is charged to the downtime model by the
    engines via [Hypertp.Costs]); {!Plant} is the seeded ground-truth
    injector the correctness properties are pinned against. *)

(** {1 Severity ladder} *)

type severity =
  | Benign  (** explainable, carries no information *)
  | Fingerprintable
      (** lets a guest or observer detect that a transplant happened
          (clock skew, device renumbering, unattributed frames) *)
  | Exploitable
      (** readable source-hypervisor state in the target world — the
          cross-domain residue attacks pivot on *)

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

val severity_rank : severity -> int
(** [Benign] 0, [Fingerprintable] 1, [Exploitable] 2. *)

val pp_severity : Format.formatter -> severity -> unit

(** {1 Findings} *)

type kind =
  | Orphan_pram_page
  | Unreclaimed_hv_frame
  | Stale_kexec_frame
  | Unattributed_frame
  | Stale_uisr_blob
  | Mgmt_not_regenerated
  | Clock_skew
  | Device_mismatch

val all_kinds : kind list
val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type finding = {
  f_kind : kind;
  f_severity : severity;
  f_subject : string;
      (** ["mfn:N"] for frame findings, a VM name, or ["host"]; never
          contains spaces (the serialization relies on it) *)
  f_frame : int option;
  f_tag : int64 option;
  f_reason : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** Rendered through the shared {!Uisr.Diag} printer, same shape as the
    salvage diagnostics: ["[severity] kind subject: reason"]. *)

type report = {
  r_source : string;  (** ["-"] when no source reference was supplied *)
  r_target : string;
  r_frames_swept : int;
  r_guest_frames : int;
  r_findings : finding list;  (** deterministic order: frame findings in
      ascending sweep order, then staging, per-VM, management *)
}

val clean : report -> bool
val count : report -> severity -> int
val worst : report -> severity option
val pp_report : Format.formatter -> report -> unit

val to_string : report -> string
(** Deterministic {!Sim.Journal} text: the magic, an untagged
    [source= target= frames_swept= guest_frames=] header, one
    [finding] line per finding (its free-text [reason=] last, to the
    end of the line) and an [end findings=N] line.  Same report,
    byte-identical string. *)

val of_string : string -> (report, string) result
(** Inverse of {!to_string}: [of_string (to_string r) = Ok r].  Errors
    read ["line N, column C: ..."], including a finding count that
    disagrees with the [end] line. *)

(** {1 Reference worlds} *)

type reference = {
  ref_hv : string;
  ref_tags : int64 list;
      (** sorted distinct non-guest content tags a fresh boot of this
          hypervisor legitimately writes (heap, nested page tables,
          per-domain metadata) *)
}

val reference_of_fresh_boot :
  ?seed:int64 -> machine:Hw.Machine.t -> (module Hv.Intf.S) -> reference
(** Boot the hypervisor on a scratch host of the same machine model
    with one small VM and collect every content tag it writes outside
    guest memory.  Fully deterministic for a fixed [seed]. *)

(** {1 The audited world} *)

type world = {
  w_host : Hv.Host.t;  (** the post-transplant host *)
  w_staging : (string * bytes) list;
      (** staged UISR blobs still held after commit (calm engines pass
          []) *)
  w_baseline : (string * Uisr.Vm_state.t) list;
      (** pre-transplant captures, for guest-visible fingerprint checks *)
  w_downtime : Sim.Time.t;  (** modeled downtime, quoted in clock-skew
      findings *)
  w_salvaged : string list;
      (** VMs restored with substituted power-on defaults — their
          default PIT is regenerated state, not residue (the
          [Pit_reset] allowance of {!Uisr.Guest_view}) *)
}

val world :
  ?staging:(string * bytes) list ->
  ?baseline:(string * Uisr.Vm_state.t) list ->
  ?downtime:Sim.Time.t -> ?salvaged:string list -> Hv.Host.t -> world

(** {1 Audit and scrub} *)

val run : reference:reference -> ?source:reference -> world -> report
(** Sweep the world.  [reference] is the fresh-boot reference of the
    {e target}; [source], when given, lets the sweep attribute foreign
    tags to the source hypervisor ([Unreclaimed_hv_frame], exploitable)
    instead of the weaker [Unattributed_frame]. *)

type scrub = {
  sc_world : world;  (** the world after remediation (staging dropped) *)
  sc_scrubbed : finding list;
  sc_unscrubbed : finding list;
      (** findings that cannot be remediated (a device topology change
          has already been observed by the guest) *)
  sc_frames_freed : int;
  sc_mgmt_rebuilds : int;
}

val scrub : world -> report -> scrub
(** Remediate: free residual frames, drop retained staging, restore
    captured clock state, rebuild management state.  Re-running {!run}
    on [sc_world] after a scrub with no [sc_unscrubbed] findings yields
    a clean report. *)

(** {1 Seeded residual planting (ground truth)} *)

module Plant : sig
  type t =
    | Pram_page  (** an orphaned PRAM metadata page *)
    | Hv_frames of int  (** [n] unreclaimed source-HV heap frames *)
    | Kexec_frame  (** a stale staged kernel image frame *)
    | Stale_blob of string  (** retain this VM's staged UISR blob *)
    | Clock_skew_plant of string  (** perturb this VM's PIT *)

  val to_string : t -> string

  val expected_finding : t -> kind
  (** The finding kind the auditor must report for this plant — the
      zero-false-negative property is checked against it. *)

  val apply : reference:reference -> source:reference -> world -> t list -> world
  (** Plant residue into the world.  Deterministic given the world. *)

  val random_plan : rng:Sim.Rng.t -> vms:string list -> int -> t list
  (** A seeded random plant schedule over the given VMs. *)
end
