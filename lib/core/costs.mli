(** Shared cost-model helpers for the transplant phases.

    Work quantities (GiB walked, PRAM entries written, metadata pages
    parsed, frames reserved) come from the actual simulated structures;
    these functions convert them to time using the per-machine
    calibration factors.  EXPERIMENTS.md records the paper-vs-model
    comparison for every constant. *)

val makespan : workers:int -> float list -> float
(** LPT greedy multiprocessor makespan: wall-clock of running the given
    jobs on [workers] parallel workers. *)

val pram_build_seconds :
  Hw.Machine.t -> gib:float -> entries:int -> float
(** Per-VM PRAM construction: p2m walk proportional to memory size plus
    an 8-byte record write per entry (Fig. 6: ~0.45 s for 1 GiB on M1;
    the entry term is what the huge-page optimisation shrinks). *)

val pram_finalize_seconds : Hw.Machine.t -> total_gib:float -> int -> float
(** Serial chain-sealing across [nvms] VMs once they are paused — the
    part of Translation that grows with total memory (Fig. 7b/7c). *)

val pram_parse_seconds :
  Hw.Machine.t -> metadata_pages:int -> entries:int -> covered_frames:int ->
  float
(** Sequential early-boot parse: page walks, entry decodes and one
    reservation per covered 4 KiB frame (the Reboot growth of Fig. 7). *)

val uisr_encode_seconds : bytes_len:int -> float
val resume_seconds : nvms:int -> float

val audit_sweep_seconds : Hw.Machine.t -> frames_swept:int -> vms:int -> float
(** Post-commit residual audit: a tag read per allocated frame plus a
    platform/device comparison per VM. *)

val scrub_seconds : Hw.Machine.t -> frames_freed:int -> findings:int -> float
(** Scrub-pass remediation: a scrub-and-free per residual frame plus a
    fixed term per finding (staging drop, clock restore, rebuild).
    Charged to the downtime model when the post-commit audit flags
    residue. *)

(** {1 Expected-duration estimates}

    Supervision needs an a-priori estimate of how long an operation
    {e should} take so it can flag stragglers; these are the same
    calibrated terms the simulator charges, packaged as scalar
    estimates. *)

val expected_host_upgrade_seconds : boot_seconds:float -> vms:int -> float
(** One InPlaceTP host upgrade: target-hypervisor boot plus per-VM
    translate/restore (0.4 s per riding VM — the host-level term, not
    per-VM downtime). *)

val straggler_deadline_seconds : factor:float -> expected:float -> float
(** [factor *. expected], validated: a supervisor escalates a task that
    exceeds this.  Raises [Invalid_argument] if [factor < 1.0] or
    [expected < 0.0]. *)

(** {1 Shadow-host cutover terms}

    The stage and reclaim phases of shadow-host MigrationTP run while
    the source keeps serving, so these terms never touch the downtime
    model; only {!shadow_flip_seconds} is charged inside the cutover
    window. *)

val shadow_stage_seconds : boot_seconds:float -> vms:int -> float
(** Staging the spare: target-hypervisor boot plus a per-VM skeleton
    pre-restore (0.25 s each).  Pass [boot_seconds = 0.0] for a
    pre-staged spare whose hypervisor already runs.  Raises
    [Invalid_argument] on a negative boot time. *)

val shadow_flip_seconds : float
(** The identity swap itself — gratuitous ARP plus route flip — paid
    inside the cutover downtime on top of the final dirty set and the
    swap handshake round-trips. *)

val shadow_reclaim_seconds : vms:int -> float
(** Tearing the source copies down after a committed swap (paid after
    the VMs already run on the spare). *)

(** {1 Memoisation of per-host estimates}

    Campaign planning calls the estimators above once per host with a
    handful of distinct keys (hv pair, VM profile).  [Memo] is a tiny
    cache keyed on those profiles so a 10k-host plan computes each
    distinct estimate once.  Each domain has a table of its own, so
    lookups take no lock and domains never share a table.  Only memoise
    deterministic estimators. *)
module Memo : sig
  type ('a, 'b) t

  val create : int -> ('a, 'b) t
  (** [create n] sizes the underlying [Hashtbl] for [n] expected keys. *)

  val find_or_add : ('a, 'b) t -> 'a -> ('a -> 'b) -> 'b
  (** [find_or_add t key f] returns the cached value for [key] or
      computes, stores and returns [f key]. *)
end
