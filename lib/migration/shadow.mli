(** Shadow-host cutover planning: the protocol layer of shadow-host
    MigrationTP.

    Classic MigrationTP (section 4.3) evacuates a VM with its full
    stop-and-copy downtime.  The shadow-host strategy instead
    pre-stages the {e target} hypervisor on a spare host, streams the
    checkpoint while the source keeps serving traffic, buffers and
    replays dirty state in bounded rounds — the same dirty-rate
    recurrence as {!Precopy}, but with a deeper replay budget and a
    much smaller cutover threshold — and finally swaps identities
    atomically.  Downtime shrinks to the final dirty set plus the swap
    handshake; everything else happens while the VM runs.

    The protocol is a five-phase transaction:

    {v stage -> stream -> converge -> swap -> reclaim v}

    Every phase before [swap] is abortable: nothing the protocol did so
    far has touched the source, so an abort simply discards the
    shadow's half-built state and the source keeps running.  The abort
    matrix and the strategy-degradation ladder (shadow -> classic
    MigrationTP -> defer) live in [Hypertp.Migrate.run_shadow]; this
    module owns the analytic plan, the convergence watchdog and the
    fault-aware stream walk.

    Divergence is the watchdog's business, not an error: a guest that
    dirties faster than the replay link drains is detected — a replay
    round that fails to shrink below [watchdog_shrink] x its
    predecessor — and reported as a {!verdict}, so the caller can
    degrade the strategy instead of looping forever. *)

(** The five protocol phases, in execution order. *)
type phase = Stage | Stream | Converge | Swap | Reclaim

val all_phases : phase list
val phase_to_string : phase -> string
val pp_phase : Format.formatter -> phase -> unit

type params = {
  precopy : Precopy.params;  (** link model shared with classic pre-copy *)
  stage_boot : Sim.Time.t;
      (** booting + pre-staging the target hypervisor on the spare —
          paid while the source serves, never inside the downtime *)
  swap_rtts : int;  (** identity-swap handshake round-trips (>= 1) *)
  replay_budget : int;
      (** replay-round cap; deeper than the classic [max_rounds]
          because replay rounds cost no downtime *)
  cutover_threshold_pages : int;
      (** swap once the dirty set shrinks below this (a few pages) *)
  watchdog_shrink : float;
      (** a replay round must shrink below this fraction of its
          predecessor or the watchdog declares divergence; in (0, 1) *)
}

val default_params : nic:Hw.Nic.t -> ?streams:int -> unit -> params
(** Classic {!Precopy.default_params} link model, 20 s stage boot,
    3-RTT swap handshake, replay budget 32, cutover threshold 8 pages,
    watchdog shrink 0.9. *)

type verdict =
  | Converging
  | Diverging of int
      (** the watchdog tripped at this replay-round index (or the
          replay budget ran out with the dirty set still above the
          threshold) *)

val pp_verdict : Format.formatter -> verdict -> unit

type plan = {
  stream_round : Precopy.round;  (** round 0: the full checkpoint *)
  replay_rounds : Precopy.round list;  (** buffered replay, rounds 1.. *)
  verdict : verdict;
  violator : Precopy.round option;
      (** the non-shrinking round behind a [Diverging] verdict:
          {!watchdog_verdict} over
          [stream_round :: replay_rounds @ [violator]] trips at the
          verdict's index; [None] when converging or when the replay
          {e budget} ran out with every round still shrinking *)
  final_pages : int;  (** dirty set crossed during the swap; 0 if diverging *)
  stream_time : Sim.Time.t;
  converge_time : Sim.Time.t;
  cutover_downtime : Sim.Time.t;
      (** final dirty set + one propagation latency + the swap
          handshake; {!Sim.Time.zero} when diverging (no swap) *)
  wire_bytes : Hw.Units.bytes_;  (** framing included, like {!Precopy} *)
}

val plan :
  params -> page_bytes:int -> total_pages:int -> dirty_pages_per_sec:float ->
  plan
(** Closed-form shadow plan: one full stream round, then the
    {!Precopy} dirty recurrence under the shadow replay budget, with
    the watchdog shrink rule applied to every replay round.  Unlike
    {!Precopy.plan} a non-convergent rate is {e not} an error here —
    it comes back as [Diverging] so the caller can walk the
    degradation ladder.  Raises [Invalid_argument] on non-positive
    page counts or a negative/non-finite dirty rate. *)

val watchdog_verdict : params -> Precopy.round list -> verdict
(** The pure watchdog rule over a round list whose head is the
    baseline (the stream round): the first subsequent round whose
    pages fail to shrink below [watchdog_shrink] x its predecessor's
    trips it, reported by its 1-based position.  The analytic {!plan}
    applies this rule round by round; note a {!plan}'s [replay_rounds]
    only ever contain shrinking rounds — the violator is excluded and
    named by the [Diverging] index. *)

val verdict_time : params -> plan -> Sim.Time.t
(** Replay time until the watchdog's verdict, the converge phase of a
    shadow run: the plan's [converge_time] when no round violates (a
    budget run-out included), and [converge_time + watchdog_shrink] x
    the last shrinking round's duration when one does — the violator's
    deadline, where the watchdog trips.  The last shrinking round is
    the stream round when the first replay round already violates. *)

type stream_outcome =
  | Stream_ok of plan  (** converged; ready to swap *)
  | Stream_dropped of {
      drop_round : int;
      spent : Sim.Time.t;  (** wire time burnt before the drop *)
      wasted_bytes : Hw.Units.bytes_;
    }  (** {!Fault.Shadow_stream_drop} killed the checkpoint stream *)
  | Stream_diverged of plan  (** watchdog verdict; [plan.verdict = Diverging] *)

val attempt_stream :
  params -> ?fault:Fault.t -> ?vm:string -> page_bytes:int ->
  total_pages:int -> dirty_pages_per_sec:float -> unit -> stream_outcome
(** One fault-aware walk of the stream + converge phases for one VM.
    {!Fault.Shadow_diverge} is consulted once (per VM): when it fires,
    the effective dirty rate is inflated past the link rate, so the
    watchdog genuinely detects the divergence rather than being told
    about it.  {!Fault.Shadow_stream_drop} is consulted once per round
    walked (stream round included); firing kills the stream at that
    round with the time and bytes burnt so far.  Nothing here touches
    source or destination memory — the walk is analytic, which is what
    makes every abort provably source-intact. *)

val pp_plan : Format.formatter -> plan -> unit
