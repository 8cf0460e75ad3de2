(** Deterministic fault injection for transplant campaigns.

    A fault {e plan} names injection sites inside the transplant
    engines (PRAM construction, UISR encode/decode, kexec load/jump,
    per-VM restore, management rebuild, migration link) and a trigger
    for each: fire on the nth hit of the site, fire whenever a given VM
    reaches the site, or fire with a fixed probability drawn from the
    plan's own splitmix64 stream.  Every decision — fired or not — is
    appended to a trace, so a seeded stochastic campaign is reproducible
    bit-for-bit and two runs of the same plan can be compared with [=].

    The probability stream has a useful monotonicity property: because
    each hit consumes exactly one draw regardless of the outcome, two
    plans with the same seed and hit sequence but probabilities
    [p <= p'] fire on a {e subset} of the hits — failure campaigns are
    ordered, which is what nests the failed-host sets of a
    `Cluster.Campaign.sweep` across failure probabilities. *)

type site =
  | Pram_build
  | Uisr_encode
  | Uisr_decode
  | Uisr_corrupt
      (** silent bit-rot in one UISR section — caught by per-section CRC
          and salvaged, not quarantined *)
  | Pram_corrupt
      (** in-page bit-rot in one VM's PRAM file-info page — caught by
          the page CRC; only that VM is lost *)
  | Kexec_load
  | Kexec_jump
  | Vm_restore
  | Mgmt_rebuild
  | Residual_leak
      (** the post-transplant world retains residual source-hypervisor
          state — orphaned PRAM pages, unreclaimed heap frames, a stale
          staged UISR blob — that the post-commit audit must catch *)
  | Scrub_fail
      (** the scrub pass fails to remediate an audit finding; the engine
          escalates the recovery ladder instead of reporting
          [Committed] *)
  | Migration_link_drop
  | Migration_link_degrade
  | Shadow_stage_fail
      (** pre-staging the target hypervisor on the spare host fails
          (boot error, capability mismatch); nothing has left the
          source *)
  | Shadow_stream_drop
      (** the checkpoint stream to the shadow dies mid-transfer; the
          shadow's half-built state is discarded *)
  | Shadow_diverge
      (** the guest's dirty rate outruns the replay link; the
          convergence watchdog must detect it and degrade the
          strategy *)
  | Swap_partition
      (** the network partitions during the identity-swap handshake —
          strictly before the flip, so the source keeps serving *)
  | Spare_exhausted
      (** no spare host with capacity is available at admission; the
          shadow strategy cannot even stage *)
  | Host_crash
  | Host_timeout  (** a host upgrade hangs past its straggler deadline *)
  | Host_flap  (** a host fails, recovers, then fails again mid-upgrade *)
  | Controller_crash  (** the campaign controller itself dies mid-run *)
  | Subctl_crash
      (** a regional sub-controller of the hierarchical control plane
          dies right after a journal append; its journal survives and the
          root supervisor rebuilds it from the journal at once *)
  | Root_crash
      (** the root supervisor dies; a new leader rebuilds every region
          from the surviving sub-journals *)
  | Ctl_partition
      (** the root<->sub-controller supervision channel partitions for a
          seeded heal delay: heartbeats are dropped, so the root fences
          and restarts a perfectly healthy sub-controller *)
  | Crash_during_resume
      (** the recovering controller dies again mid-way through a journal
          replay — the double-fault case *)
  | Cve_burst
      (** the CVE stream generator compresses the next few inter-arrival
          gaps — a disclosure burst (a VENOM-style audit wave) that
          piles overlapping campaigns onto the fleet *)
  | Campaign_preempt
      (** the stream service preempts campaigns in flight when a
          critical CVE lands on an already-busy population: unfinished
          hosts are released back to the queue and the new campaign
          books the population from now *)

val all_sites : site list

val engine_sites : site list
(** Sites consulted inside the transplant engines (InPlaceTP /
    MigrationTP); the one-fault-per-site exhaustive campaign iterates
    these. *)

val shadow_sites : site list
(** Sites consulted by the shadow-host MigrationTP engine
    ({!Shadow_stage_fail}, {!Shadow_stream_drop}, {!Shadow_diverge},
    {!Swap_partition}, {!Spare_exhausted}) — all strictly pre-swap, so
    any of them firing must leave the source host untouched.  The
    exhaustive one-transplant-per-site [fault-campaign] table iterates
    these against the shadow engine. *)

val cluster_sites : site list
(** Sites consulted by the supervised campaign controller
    ([Host_crash], [Host_timeout], [Host_flap], [Controller_crash]).
    [Host_crash] is also an engine site: the InPlaceTP engine consults
    it for the crash-in-vulnerable-window reboot path. *)

val controlplane_sites : site list
(** Sites consulted by the replicated hierarchical control plane
    ([Cluster.Controlplane]) on the caller's plan, never on a region's
    cursor-tracked campaign plan: [Subctl_crash] after each live
    sub-controller journal append, [Crash_during_resume] before each
    entry replayed by any rebuild or leader handoff, [Root_crash] per
    root heartbeat tick, and [Ctl_partition] per heartbeat receipt.
    Region campaigns see only the host sites. *)

val stream_sites : site list
(** Sites consulted by the CVE-stream campaign service
    ([Stream.Service] / [Stream.Gen]): [Cve_burst] per generated
    arrival, [Campaign_preempt] per critical arrival that finds its
    population busy.  [Controller_crash] is also consulted there (per
    journal append), but it already belongs to {!cluster_sites}. *)

val site_to_string : site -> string
val site_of_string : string -> site option
val pp_site : Format.formatter -> site -> unit

(** Sites hit strictly before the InPlaceTP point-of-no-return (the
    kexec jump).  A fault at one of these aborts the transplant cleanly;
    anything else demands recovery on the target side. *)
val pre_pnr : site -> bool

val shadow_pre_swap : site -> bool
(** Whether the site fires strictly before the shadow-host identity
    swap.  True exactly for {!shadow_sites}: the abort-safety invariant
    (source untouched and running) must hold at every one of them. *)

val nearest_site : string -> string
(** The valid site name closest (Levenshtein) to the given string —
    used by the parse errors to suggest a correction for typos like
    ["shadow_strean_drop"]. *)

type trigger =
  | Nth_hit of int  (** fire on the nth hit of the site, 1-based *)
  | On_vm of string  (** fire on every hit attributed to this VM *)
  | Probability of float  (** fire per-hit with probability in [0,1] *)

type injection = { site : site; trigger : trigger }

val pp_injection : Format.formatter -> injection -> unit

type event = {
  ev_site : site;
  ev_vm : string option;
  ev_hit : int;  (** per-site hit counter at this event, 1-based *)
  ev_fired : bool;
}

type t

val make : ?seed:int64 -> injection list -> t
(** [make injections] builds a plan.  [seed] (default [0xFA17L]) feeds
    the probability stream.  Raises [Hypertp_error.Error] (site
    ["Fault.make"]) on a non-positive [Nth_hit] or a probability
    outside [0, 1]. *)

val none : unit -> t
(** A plan with no injections: every [fire] returns false (but is still
    traced). *)

val restart : t -> t
(** A fresh plan with the same injections and seed: counters, trace and
    probability stream rewound to the beginning. *)

val injections : t -> injection list
val seed : t -> int64

val fire : t -> ?vm:string -> site -> bool
(** [fire plan ~vm site] records a hit of [site] (attributed to [vm] if
    given) and returns whether an injection fires there.  One
    probability draw is consumed per hit of a probability-triggered
    site, fired or not. *)

val hits : t -> site -> int
(** Hits recorded so far at [site]. *)

val fired_count : t -> int
val trace : t -> event list
(** Chronological record of every decision. *)

val trace_length : t -> int
(** [List.length (trace t)], in O(1).  The campaign journal stamps a
    fault cursor on every entry, so this runs once per event — the
    count is maintained incrementally rather than re-walking the
    trace. *)

val pp_trace : Format.formatter -> t -> unit

val parse_injection : string -> (injection, string) result
(** Parse a [site:trigger] spec: ["kexec_jump:1"] (nth hit),
    ["vm_restore:vm=vm3"], ["migration_link_drop:p=0.1"]. *)

type spec = { spec_injection : injection; spec_seed : int64 option }

val parse_spec : string -> (spec, string) result
(** Parse a CLI [--fault] argument: [site:trigger[,seed=N]], e.g.
    ["migration_link_drop:p=0.1,seed=42"]. *)

val of_specs : spec list -> t
(** Combine parsed CLI specs into one plan; the last explicit seed
    wins. *)
