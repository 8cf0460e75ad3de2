(** Building the PRAM structure in host memory.

    The builder allocates 4 KiB metadata pages from the host allocator,
    serialises the pointer/root/file-info/node pages into them, reserves
    them so the micro-reboot cannot scrub them, and stamps each metadata
    frame with a sentinel content tag so the parser can detect
    clobbering.  Construction happens {e before} VMs are paused
    (section 4.2.5 optimisation 1); only {!finalize} — sealing the entry
    chains after the final dirty state is known — runs inside the
    downtime window. *)

type file = {
  file_name : string;
  file_size : Hw.Units.bytes_;
  file_mode : int;
  entries : Entry.t list;
}

type image
(** The built structure as it sits in RAM. *)

val sentinel : int64

val build :
  pmem:Hw.Pmem.t -> granularity:Hw.Units.page_kind ->
  (string * Hw.Units.bytes_ * Uisr.Vm_state.memmap_entry list) list -> image
(** One file per VM: (name, size, memory map).  Raises
    [Invalid_argument] on an empty VM list and {!Hw.Pmem.Out_of_memory}
    if metadata does not fit. *)

val crc_offset : int
(** Byte offset of the per-page CRC32 slot (bytes 4-7, free in every
    page kind). *)

val page_crc : bytes -> int32
(** CRC32 of a metadata page, computed with the CRC slot zeroed. *)

val stored_crc : bytes -> int32
(** The stamped checksum; 0 on pages from pre-CRC builds. *)

val pointer_mfn : image -> Hw.Frame.Mfn.t
val files : image -> file list

val file_info_mfns : image -> Hw.Frame.Mfn.t list
(** The file-info page of each VM, in build (= VM) order. *)

val corrupt_file : image -> index:int -> Hw.Frame.Mfn.t
(** Flip one byte inside the [index]-th VM's file-info page — in-page
    bit-rot that leaves the kind byte, links and pmem sentinel intact,
    detectable only by the page CRC.  Returns the damaged frame.
    Raises [Invalid_argument] if there is no such file. *)

val accounting : image -> Layout.accounting
val metadata_extents : image -> (Hw.Frame.Mfn.t * int) list
val page_content : image -> Hw.Frame.Mfn.t -> bytes option
(** Read a metadata page out of the in-RAM image (what a parser running
    after kexec sees). *)

val preserved : image -> Hw.Extent_set.t
(** The frames the micro-reboot must not scrub, coalesced: metadata
    pages and every guest frame covered by an entry.  What
    {!Hw.Pmem.reboot_reset}, [Kexec.execute] and
    [Uisr.Codec.decode_verified] take. *)

val preserve_predicate : image -> Hw.Frame.Mfn.t -> bool
(** Membership in {!preserved}, one binary search per frame. *)

val release : image -> pmem:Hw.Pmem.t -> unit
(** Step 7 of the workflow: free the metadata pages once VMs run again
    ("the portions of the RAM which were used to store ephemeral data
    are freed"). *)
