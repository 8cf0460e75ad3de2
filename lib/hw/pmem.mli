(** Host physical memory.

    Memory is managed in 4 KiB machine frames grouped into 2 MiB chunks
    (512 frames).  The allocator hands out chunks from a deterministically
    shuffled pool so that a VM's memory is scattered across host RAM, as
    it is on a real machine — the situation the PRAM structure exists to
    describe (paper, section 4.2.2).

    Frames carry optional 64-bit {e content tags}.  Guest memory writes a
    tag per guest page; transplant correctness tests compare tags before
    and after the micro-reboot to verify that "Guest State is kept
    untouched" really holds.  Tags are stored as runs: {!fill} stamps a
    whole extent with one tag, {!write} overrides a single frame.

    Reservations are an {!Extent_set.t}, and {!reboot_reset} takes the
    preserved frames as one too, so the micro-reboot classifies each
    2 MiB chunk with one range query and costs time in proportion to
    extents, not to frames. *)

type t

val create : ?seed:int64 -> frames:int -> unit -> t
(** [create ~frames] models a host with [frames] 4 KiB frames.  [frames]
    must be a positive multiple of 512. *)

val total_frames : t -> int
val free_frames : t -> int
val used_frames : t -> int

exception Out_of_memory

val alloc_frames : t -> ?align:int -> int -> Frame.Mfn.t list
(** [alloc_frames t n] allocates [n] frames and lists every one of
    them: in address order within a chunk, with the chunks scattered
    over host memory.  Use {!alloc_extents} to get (start, length)
    runs instead.  [align] (default 1, in frames) must divide 512 and
    forces each contiguous run to start on that alignment; pass 512 to
    obtain 2 MiB-aligned backing for huge pages.  Raises
    {!Out_of_memory}. *)

val alloc_extents : t -> ?align:int -> int -> (Frame.Mfn.t * int) list
(** Like {!alloc_frames} but returns (start, length) extents — the shape
    PRAM page entries are built from. *)

val free_extent : t -> Frame.Mfn.t -> int -> unit
(** Return an extent to the pool, dropping its content tags.  Raises
    [Invalid_argument] if any frame in it is not currently allocated or
    is reserved.  Checked a chunk at a time: a fully allocated chunk is
    not looked at frame by frame. *)

val reserve_extent : t -> Frame.Mfn.t -> int -> unit
(** Mark an allocated extent as reserved (kexec image, PRAM metadata):
    reserved frames survive {!wipe_unpreserved} and {!reboot_reset} and
    cannot be freed until {!unreserve_extent}.  Raises
    [Invalid_argument] if any frame in it is not allocated. *)

val unreserve_extent : t -> Frame.Mfn.t -> int -> unit
val is_reserved : t -> Frame.Mfn.t -> bool
val is_allocated : t -> Frame.Mfn.t -> bool

val write : t -> Frame.Mfn.t -> int64 -> unit
(** Set the content tag of one allocated frame, overriding any {!fill}
    that covered it.  Raises [Invalid_argument] on an unallocated
    frame. *)

val fill : t -> Frame.Mfn.t -> int -> int64 -> unit
(** [fill t start len tag] sets the content tag of every frame of an
    allocated extent, in time independent of [len].  Raises
    [Invalid_argument] if any frame in it is not allocated. *)

val read : t -> Frame.Mfn.t -> int64 option
(** Content tag, if one was written or filled since the frame was last
    allocated. *)

val uniform : t -> Frame.Mfn.t -> int -> int64 option
(** [uniform t start len] is [Some tag] when every frame of the extent
    carries [tag], [None] when a frame is untagged or tags differ.
    Costs one step per tag run in the extent. *)

val wipe_unpreserved : t -> preserve:(Frame.Mfn.t -> bool) -> int
(** Simulate a reboot scrubbing memory: clear the content tag of every
    allocated frame for which [preserve] is false and which is not
    reserved.  Returns the number of frames wiped.  Calls [preserve]
    once per tagged, unreserved frame. *)

val reboot_reset : t -> preserved:Extent_set.t -> int
(** What a kexec actually does to memory: every allocated frame that is
    neither reserved nor in [preserved] is scrubbed {e and} returned to
    the allocator (the old hypervisor's heap, NPTs and management
    structures are reclaimed wholesale — nobody frees them politely).
    Returns the number of frames reclaimed.  Each fully allocated chunk
    costs one range query unless the kept frames straddle it. *)

val iter_allocated : t -> (Frame.Mfn.t -> int64 option -> unit) -> unit
(** [iter_allocated t f] calls [f mfn tag] for every currently allocated
    frame with its content tag (if any), in a deterministic ascending
    order (full chunks by chunk index, then partial-chunk frames by
    frame number) independent of allocation history hash layout.  The
    post-transplant residual audit sweeps memory with this. *)

val pp_usage : Format.formatter -> t -> unit
