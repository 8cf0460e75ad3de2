(** Virtual time for the discrete-event simulation.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Using integers keeps event ordering exact and makes the
    simulation fully deterministic; 63-bit native ints give a range of
    about 292 years, far beyond any experiment in the paper. *)

type t = private int
(** A point in (or a span of) virtual time, in nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. Raises [Invalid_argument] if [n < 0]. *)

val us : int -> t
val ms : int -> t
val sec : int -> t

val fits_sec_f : float -> bool
(** [fits_sec_f s] holds when [s] is a finite, non-negative second count
    whose nanoseconds fit in an [int] (below about 4.6e9 s). *)

val of_sec_f : float -> t
(** [of_sec_f s] converts a non-negative float second count, rounding to
    the nearest nanosecond. Raises [Invalid_argument] unless
    [fits_sec_f s]: on negative or non-finite input, and on input whose
    nanoseconds would wrap. *)

val to_sec_f : t -> float
val to_ms_f : t -> float
val to_ns : t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val diff : t -> t -> t
(** [diff a b] is [abs (a - b)]. *)

val scale : float -> t -> t
(** [scale k t] multiplies a duration by a non-negative factor. *)

val max : t -> t -> t
val min : t -> t -> t
val sum : t list -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. ["1.700s"], ["4.96ms"], ["133us"]. *)

val to_string : t -> string
