(** Deterministic pseudo-random number generation.

    A splitmix64 generator: fast, reproducible across platforms, and
    splittable so that independent subsystems (per-VM noise, per-link
    jitter, planner tie-breaking) draw from independent streams without
    perturbing each other when experiment parameters change. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split r] derives an independent generator; [r] advances by one draw. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int r bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)

val float : t -> float -> float
(** [float r bound] is uniform in [\[0, bound)]. *)

val first_float : int64 -> float -> float
(** [first_float seed bound] is [float (create seed) bound]: the first
    draw of a fresh stream, for randomness derived per key, without
    allocating a generator. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box-Muller. *)

val jitter : t -> float -> float
(** [jitter r pct] is a multiplicative factor uniform in
    [\[1-pct, 1+pct\]], used to add small measurement-style noise to
    simulated durations. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
