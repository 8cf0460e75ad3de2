type t = {
  extents : (Hw.Frame.Mfn.t * int) list;
  nframes : int;
  mutable freed : bool;
}

let div_ceil a b = (a + b - 1) / b

let table_frames_needed ~guest_frames ~page_kind =
  if guest_frames <= 0 then invalid_arg "Npt: non-positive guest size";
  let l1 =
    match page_kind with
    | Hw.Units.Page_4k -> div_ceil guest_frames 512
    | Hw.Units.Page_2m -> 0
  in
  let l2 = div_ceil guest_frames (512 * 512) in
  let l3 = div_ceil guest_frames (512 * 512 * 512) in
  let l4 = 1 in
  l1 + l2 + l3 + l4

let build ~pmem ~guest_frames ~page_kind ~metadata_factor =
  if metadata_factor < 1.0 then invalid_arg "Npt.build: factor below 1";
  let base = table_frames_needed ~guest_frames ~page_kind in
  let nframes =
    int_of_float (Float.round (float_of_int base *. metadata_factor))
  in
  let nframes = Stdlib.max 1 nframes in
  let extents = Hw.Pmem.alloc_extents pmem nframes in
  List.iter
    (fun (start, len) -> Hw.Pmem.fill pmem start len 0x4E50540000000000L)
    extents;
  { extents; nframes; freed = false }

let frames t = t.nframes
let bytes t = t.nframes * 4096

let free t ~pmem =
  if not t.freed then begin
    t.freed <- true;
    List.iter (fun (start, len) -> Hw.Pmem.free_extent pmem start len) t.extents
  end

let is_freed t = t.freed
