type image = {
  kernel : string;
  cmdline : string;
  extents : (Hw.Frame.Mfn.t * int) list;
  nframes : int;
  stamp : int64;
}

let stamp_of kernel =
  (* Content tag marking image frames, derived from the kernel name. *)
  let h = Hashtbl.hash kernel in
  Int64.logor 0x4B45584543000000L (Int64.of_int (h land 0xFFFFFF))

let load ~pmem ~kernel ~size ~cmdline =
  if size <= 0 then invalid_arg "Kexec.load: non-positive image size";
  let nframes = Hw.Units.frames_of_bytes size in
  let extents = Hw.Pmem.alloc_extents pmem nframes in
  let stamp = stamp_of kernel in
  List.iter
    (fun (start, len) ->
      Hw.Pmem.fill pmem start len stamp;
      Hw.Pmem.reserve_extent pmem start len)
    extents;
  { kernel; cmdline; extents; nframes; stamp }

let kernel t = t.kernel
let cmdline t = t.cmdline
let image_frames t = t.nframes

let with_pram_pointer t mfn =
  let arg = Printf.sprintf "pram=0x%x" (Hw.Frame.Mfn.to_int mfn) in
  let cmdline = if t.cmdline = "" then arg else t.cmdline ^ " " ^ arg in
  { t with cmdline }

let pram_pointer_of_cmdline cmdline =
  let words = String.split_on_char ' ' cmdline in
  List.find_map
    (fun word ->
      match String.index_opt word '=' with
      | Some i when String.sub word 0 i = "pram" ->
        let v = String.sub word (i + 1) (String.length word - i - 1) in
        (try Some (Hw.Frame.Mfn.of_int (int_of_string v)) with
        | Failure _ | Invalid_argument _ -> None)
      | Some _ | None -> None)
    words

let clobber ~pmem t =
  (* Overwrite the image's first frame with a wrong tag — the stray-DMA
     / buggy-driver scenario the integrity check exists to catch. *)
  match t.extents with
  | [] -> ()
  | (start, _) :: _ -> Hw.Pmem.write pmem start (Int64.lognot t.stamp)

type jump_report = { frames_wiped : int; image_intact : bool }

let execute ~pmem t ~preserved =
  let frames_wiped = Hw.Pmem.reboot_reset pmem ~preserved in
  let image_intact =
    List.for_all
      (fun (start, len) ->
        match Hw.Pmem.uniform pmem start len with
        | Some tag -> Int64.equal tag t.stamp
        | None -> false)
      t.extents
  in
  { frames_wiped; image_intact }

let unload ~pmem t =
  List.iter
    (fun (start, len) ->
      Hw.Pmem.unreserve_extent pmem start len;
      Hw.Pmem.free_extent pmem start len)
    t.extents

let pp fmt t =
  Format.fprintf fmt "kexec image %s (%d frames) cmdline=%S" t.kernel
    t.nframes t.cmdline
