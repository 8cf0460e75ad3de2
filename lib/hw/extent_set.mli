(** Sets of machine frames, kept as sorted, coalesced extents.

    A set is an ascending array of disjoint half-open frame ranges in
    which no two ranges touch, so a membership or coverage question
    about an extent is one binary search, whatever the extent's length.
    This is how PRAM describes guest memory (2 MiB extents, paper
    section 4.2.5), and what lets the micro-reboot cost time in
    proportion to its metadata rather than to guest RAM.

    Sets are immutable; {!add}, {!remove} and {!union} build new ones
    in time linear in the number of extents. *)

type t

val empty : t

val of_extents : (Frame.Mfn.t * int) list -> t
(** The union of [(start, length)] extents given in any order;
    overlapping and adjacent extents coalesce, empty ones are ignored. *)

val cardinal : t -> int
(** Number of frames in the set. *)

val union : t -> t -> t
val add : t -> Frame.Mfn.t -> int -> t
val remove : t -> Frame.Mfn.t -> int -> t
val mem : t -> Frame.Mfn.t -> bool

val first_mem : t -> Frame.Mfn.t -> int -> Frame.Mfn.t option
(** [first_mem s start len] is the lowest frame of the extent that is
    in [s], if any. *)

val first_absent : t -> Frame.Mfn.t -> int -> Frame.Mfn.t option
(** [first_absent s start len] is the lowest frame of the extent that
    is not in [s], if any. *)

val disjoint : t -> Frame.Mfn.t -> int -> bool
(** No frame of the extent is in the set. *)

val covers : t -> Frame.Mfn.t -> int -> bool
(** Every frame of the extent is in the set. *)
