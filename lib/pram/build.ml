type file = {
  file_name : string;
  file_size : Hw.Units.bytes_;
  file_mode : int;
  entries : Entry.t list;
}

type image = {
  pointer : Hw.Frame.Mfn.t;
  pages : (int, bytes) Hashtbl.t; (* metadata frame -> 4 KiB content *)
  extents : (Hw.Frame.Mfn.t * int) list;
  built_files : file list;
  file_mfns : Hw.Frame.Mfn.t list; (* file-info page per VM, build order *)
  acct : Layout.accounting;
  preserved : Hw.Extent_set.t Lazy.t; (* guest entries and metadata pages *)
}

let sentinel = 0x5052414D5F4D4554L (* "PRAM_MET" *)

(* Per-page CRC32 slot.  Bytes 4-7 are free in every page kind (the
   kind byte sits at 0, counts at 2, links at 8), so the checksum can
   live at the same offset everywhere.  A stored 0 means "unstamped"
   (pre-CRC builds), which parsers accept for compatibility. *)
let crc_offset = 4

let page_crc page =
  let saved = Bytes.get_int32_le page crc_offset in
  Bytes.set_int32_le page crc_offset 0l;
  let crc = Uisr.Wire.crc32 page in
  Bytes.set_int32_le page crc_offset saved;
  crc

let stored_crc page = Bytes.get_int32_le page crc_offset

let stamp_crc page =
  Bytes.set_int32_le page crc_offset 0l;
  Bytes.set_int32_le page crc_offset (Uisr.Wire.crc32 page)

(* Page type bytes, first byte of every metadata page. *)
let byte_pointer = 0xA1
let byte_root = 0xA2
let byte_file = 0xA3
let byte_node = 0xA4

let alloc_page pmem =
  match Hw.Pmem.alloc_extents pmem 1 with
  | [ (mfn, 1) ] -> mfn
  | _ -> assert false (* a single-frame request is one extent *)

let new_page image pmem kind_byte =
  let mfn = alloc_page pmem in
  let page = Bytes.make Layout.page_bytes '\000' in
  Bytes.set_uint8 page 0 kind_byte;
  Hashtbl.replace image.pages (Hw.Frame.Mfn.to_int mfn) page;
  Hw.Pmem.write pmem mfn sentinel;
  Hw.Pmem.reserve_extent pmem mfn 1;
  mfn

let set_u64 page off v = Bytes.set_int64_le page off v
let mfn_u64 mfn = Int64.of_int (Hw.Frame.Mfn.to_int mfn)

(* Node chain for one file: pages of packed entries, each page headed by
   (kind byte, entry count u16 at offset 2, next-node mfn u64 at 8). *)
let write_node_chain image pmem entries =
  let groups =
    let rec split acc current count = function
      | [] -> List.rev (List.rev current :: acc)
      | e :: rest when count = Layout.entries_per_node ->
        split (List.rev current :: acc) [ e ] 1 rest
      | e :: rest -> split acc (e :: current) (count + 1) rest
    in
    split [] [] 0 entries
  in
  (* Build back-to-front so each page knows its successor. *)
  let rec emit = function
    | [] -> Hw.Frame.Mfn.of_int 0 (* null *)
    | group :: rest ->
      let next = emit rest in
      let mfn = new_page image pmem byte_node in
      let page = Hashtbl.find image.pages (Hw.Frame.Mfn.to_int mfn) in
      Bytes.set_uint16_le page 2 (List.length group);
      set_u64 page 8 (mfn_u64 next);
      List.iteri
        (fun i e -> set_u64 page (Layout.node_header_bytes + (8 * i)) (Entry.pack e))
        group;
      mfn
  in
  emit groups

let write_file_info image pmem (f : file) =
  let mfn = new_page image pmem byte_file in
  let first_node = write_node_chain image pmem f.entries in
  let page = Hashtbl.find image.pages (Hw.Frame.Mfn.to_int mfn) in
  set_u64 page 8 (Int64.of_int f.file_size);
  Bytes.set_uint16_le page 16 f.file_mode;
  set_u64 page 24 (mfn_u64 first_node);
  let name = f.file_name in
  let name =
    if String.length name > 255 then String.sub name 0 255 else name
  in
  Bytes.set_uint8 page 32 (String.length name);
  Bytes.blit_string name 0 page 33 (String.length name);
  mfn

let write_roots image pmem file_mfns =
  let groups =
    let rec split acc current count = function
      | [] -> List.rev (List.rev current :: acc)
      | m :: rest when count = Layout.file_pointers_per_root ->
        split (List.rev current :: acc) [ m ] 1 rest
      | m :: rest -> split acc (m :: current) (count + 1) rest
    in
    split [] [] 0 file_mfns
  in
  let rec emit = function
    | [] -> Hw.Frame.Mfn.of_int 0
    | group :: rest ->
      let next = emit rest in
      let mfn = new_page image pmem byte_root in
      let page = Hashtbl.find image.pages (Hw.Frame.Mfn.to_int mfn) in
      Bytes.set_uint16_le page 2 (List.length group);
      set_u64 page 8 (mfn_u64 next);
      List.iteri (fun i m -> set_u64 page (16 + (8 * i)) (mfn_u64 m)) group;
      mfn
  in
  emit groups

let build ~pmem ~granularity vms =
  if vms = [] then invalid_arg "Pram.Build.build: no VMs";
  let built_files =
    List.map
      (fun (name, size, memmap) ->
        {
          file_name = name;
          file_size = size;
          file_mode = 0o600;
          entries = List.concat_map (Entry.of_memmap_entry ~granularity) memmap;
        })
      vms
  in
  let acct =
    Layout.account
      ~entries_per_file:(List.map (fun f -> List.length f.entries) built_files)
  in
  let image =
    {
      pointer = Hw.Frame.Mfn.of_int 0;
      pages = Hashtbl.create 64;
      extents = [];
      built_files;
      file_mfns = [];
      acct;
      preserved = lazy Hw.Extent_set.empty;
    }
  in
  let file_mfns = List.map (write_file_info image pmem) built_files in
  let first_root = write_roots image pmem file_mfns in
  let pointer = new_page image pmem byte_pointer in
  let page = Hashtbl.find image.pages (Hw.Frame.Mfn.to_int pointer) in
  set_u64 page 8 (mfn_u64 first_root);
  (* Seal every page with its checksum once all links are written. *)
  Hashtbl.iter (fun _ page -> stamp_crc page) image.pages;
  let extents =
    Hashtbl.fold
      (fun frame _ acc -> (Hw.Frame.Mfn.of_int frame, 1) :: acc)
      image.pages []
  in
  (* Sorted on first use, at the micro-reboot, not while VMs wait. *)
  let preserved =
    lazy
      (Hw.Extent_set.of_extents
         (List.fold_left
            (fun acc f ->
              List.fold_left
                (fun acc e -> (e.Entry.mfn, Entry.frames e) :: acc)
                acc f.entries)
            extents built_files))
  in
  { image with pointer; extents; file_mfns; preserved }

let pointer_mfn image = image.pointer
let files image = image.built_files
let file_info_mfns image = image.file_mfns

let corrupt_file image ~index =
  match List.nth_opt image.file_mfns index with
  | None -> invalid_arg "Pram.Build.corrupt_file: no such file"
  | Some mfn ->
    let page = Hashtbl.find image.pages (Hw.Frame.Mfn.to_int mfn) in
    (* Flip a byte inside the file-name area: the kind byte, links and
       counts stay plausible, so only the page CRC can catch it.  The
       pmem sentinel is untouched — this is in-page bit-rot, not a
       scrub. *)
    let i = 40 in
    Bytes.set_uint8 page i (Bytes.get_uint8 page i lxor 0xFF);
    mfn
let accounting image = image.acct
let metadata_extents image = image.extents

let page_content image mfn =
  Hashtbl.find_opt image.pages (Hw.Frame.Mfn.to_int mfn)

let preserved image = Lazy.force image.preserved

(* One binary search per call, for callers that ask frame by frame
   (the per-frame scrub in [Hw.Pmem.wipe_unpreserved]). *)
let preserve_predicate image = Hw.Extent_set.mem (preserved image)

let release image ~pmem =
  List.iter
    (fun (mfn, len) ->
      Hw.Pmem.unreserve_extent pmem mfn len;
      Hw.Pmem.free_extent pmem mfn len)
    image.extents;
  Hashtbl.reset image.pages
