let chunk_frames = 512 (* one 2 MiB chunk *)

(* A chunk is in exactly one state: free (member of [free_chunks]),
   fully allocated (member of [full]), or partially allocated (entry in
   [partial_free] listing its free offsets; its allocated frames are in
   [palloc]).  Tracking full chunks as single entries keeps multi-GiB
   guest allocations and the kexec reboot reclaim O(chunks), not
   O(frames).

   Reservations are an extent set, and content tags are runs: a map
   from a run's first frame to (end frame, tag), runs disjoint.  A fill
   stamps one run over a whole extent; writing one frame splits out a
   one-frame run that overrides whatever run covered it.  Scrubbing or
   freeing an extent drops the runs inside it, so the reboot's cost
   follows the number of extents and runs, not the number of frames. *)
module Runs = Map.Make (Int)

type t = {
  total_frames : int;
  mutable free_chunks : int list;
  full : (int, unit) Hashtbl.t; (* chunk index -> () *)
  partial_free : (int, int list) Hashtbl.t; (* chunk -> free offsets, sorted *)
  palloc : (int, unit) Hashtbl.t; (* frame -> (), partial chunks only *)
  mutable free_count : int;
  mutable reserved : Extent_set.t;
  mutable tags : (int * int64) Runs.t; (* first frame -> (end frame, tag) *)
}

exception Out_of_memory

let create ?(seed = 0x5EEDL) ~frames () =
  if frames <= 0 || frames mod chunk_frames <> 0 then
    invalid_arg "Pmem.create: frames must be a positive multiple of 512";
  let nchunks = frames / chunk_frames in
  let order = Array.init nchunks (fun i -> i) in
  let rng = Sim.Rng.create seed in
  Sim.Rng.shuffle rng order;
  {
    total_frames = frames;
    free_chunks = Array.to_list order;
    full = Hashtbl.create 4096;
    partial_free = Hashtbl.create 64;
    palloc = Hashtbl.create 4096;
    free_count = frames;
    reserved = Extent_set.empty;
    tags = Runs.empty;
  }

let total_frames t = t.total_frames
let free_frames t = t.free_count
let used_frames t = t.total_frames - t.free_count

let is_allocated t mfn =
  let frame = Frame.Mfn.to_int mfn in
  Hashtbl.mem t.full (frame / chunk_frames) || Hashtbl.mem t.palloc frame

(* The first frame of [lo, hi) that is not allocated, checked a chunk
   at a time: a full chunk is allocated throughout, so only frames of
   other chunks are looked at one by one. *)
let first_unallocated t lo hi =
  let rec chunk c =
    let base = c * chunk_frames in
    if base >= hi then None
    else if Hashtbl.mem t.full c then chunk (c + 1)
    else
      let stop = Stdlib.min hi (base + chunk_frames) in
      let rec frame f =
        if f >= stop then chunk (c + 1)
        else if Hashtbl.mem t.palloc f then frame (f + 1)
        else Some f
      in
      frame (Stdlib.max lo base)
  in
  if lo >= hi then None else chunk (lo / chunk_frames)

(* {2 Content-tag runs} *)

(* Drop every tag in [lo, hi), trimming runs that stick out of it. *)
let clear_tags t lo hi =
  let tags =
    match Runs.find_last_opt (fun s -> s < lo) t.tags with
    | Some (s, (e, v)) when e > lo ->
      let tags = Runs.add s (lo, v) t.tags in
      if e > hi then Runs.add hi (e, v) tags else tags
    | Some _ | None -> t.tags
  in
  let rec drop tags seq =
    match seq () with
    | Seq.Cons ((s, (e, v)), rest) when s < hi ->
      let tags = Runs.remove s tags in
      let tags = if e > hi then Runs.add hi (e, v) tags else tags in
      drop tags rest
    | Seq.Cons _ | Seq.Nil -> tags
  in
  t.tags <- drop tags (Runs.to_seq_from lo tags)

let set_tags t lo hi v =
  clear_tags t lo hi;
  t.tags <- Runs.add lo (hi, v) t.tags

let tag_of t frame =
  match Runs.find_last_opt (fun s -> s <= frame) t.tags with
  | Some (_, (e, v)) when frame < e -> Some v
  | Some _ | None -> None

(* The runs overlapping [lo, hi), clipped to it, ascending. *)
let runs_within t lo hi =
  let first =
    match Runs.find_last_opt (fun s -> s < lo) t.tags with
    | Some (_, (e, v)) when e > lo -> [ (lo, Stdlib.min e hi, v) ]
    | Some _ | None -> []
  in
  let rec collect acc seq =
    match seq () with
    | Seq.Cons ((s, (e, v)), rest) when s < hi ->
      collect ((s, Stdlib.min e hi, v) :: acc) rest
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  first @ collect [] (Runs.to_seq_from lo t.tags)

(* Take a whole fresh chunk as one fully-allocated extent. *)
let take_full_chunk t =
  match t.free_chunks with
  | [] -> raise Out_of_memory
  | chunk :: rest ->
    t.free_chunks <- rest;
    Hashtbl.replace t.full chunk ();
    t.free_count <- t.free_count - chunk_frames;
    (Frame.Mfn.of_int (chunk * chunk_frames), chunk_frames)

(* Take [n] < 512 frames from a fresh chunk, leaving the rest partial. *)
let take_from_fresh_chunk t n =
  match t.free_chunks with
  | [] -> raise Out_of_memory
  | chunk :: rest ->
    t.free_chunks <- rest;
    let base = chunk * chunk_frames in
    for i = 0 to n - 1 do
      Hashtbl.replace t.palloc (base + i) ()
    done;
    Hashtbl.replace t.partial_free chunk
      (List.init (chunk_frames - n) (fun i -> n + i));
    t.free_count <- t.free_count - n;
    (Frame.Mfn.of_int base, n)

(* Carve an aligned run of [n] frames out of a partially-used chunk. *)
let take_from_partial t ~align n =
  let found = ref None in
  let check chunk offsets =
    if !found = None then begin
      let arr = Array.of_list offsets in
      let len = Array.length arr in
      let i = ref 0 in
      while !found = None && !i < len do
        let start = arr.(!i) in
        if start mod align = 0 && !i + n <= len && arr.(!i + n - 1) = start + n - 1
        then begin
          let ok = ref true in
          for k = 0 to n - 1 do
            if arr.(!i + k) <> start + k then ok := false
          done;
          if !ok then found := Some (chunk, start)
        end;
        incr i
      done
    end
  in
  Hashtbl.iter check t.partial_free;
  match !found with
  | None -> None
  | Some (chunk, start) ->
    let offsets = Hashtbl.find t.partial_free chunk in
    let remaining = List.filter (fun o -> o < start || o >= start + n) offsets in
    let base = (chunk * chunk_frames) + start in
    for i = 0 to n - 1 do
      Hashtbl.replace t.palloc (base + i) ()
    done;
    if remaining = [] then begin
      (* Chunk became full: promote. *)
      Hashtbl.remove t.partial_free chunk;
      for off = 0 to chunk_frames - 1 do
        Hashtbl.remove t.palloc ((chunk * chunk_frames) + off)
      done;
      Hashtbl.replace t.full chunk ()
    end
    else Hashtbl.replace t.partial_free chunk remaining;
    t.free_count <- t.free_count - n;
    Some (Frame.Mfn.of_int base, n)

let alloc_extents t ?(align = 1) n =
  if n <= 0 then invalid_arg "Pmem.alloc_extents: non-positive count";
  if align <= 0 || chunk_frames mod align <> 0 then
    invalid_arg "Pmem.alloc_extents: align must divide 512";
  if n > t.free_count then raise Out_of_memory;
  let rec go remaining acc =
    if remaining = 0 then List.rev acc
    else if remaining >= chunk_frames then
      go (remaining - chunk_frames) (take_full_chunk t :: acc)
    else begin
      let want = remaining in
      let want = if want mod align = 0 then want else want - (want mod align) + align in
      let want = Stdlib.min want chunk_frames in
      let extent =
        if want = chunk_frames then take_full_chunk t
        else
          match take_from_partial t ~align want with
          | Some e -> e
          | None -> take_from_fresh_chunk t want
      in
      let _, len = extent in
      go (Stdlib.max 0 (remaining - len)) (extent :: acc)
    end
  in
  go n []

let alloc_frames t ?align n =
  let extents = alloc_extents t ?align n in
  List.concat_map
    (fun (start, len) -> List.init len (fun i -> Frame.Mfn.add start i))
    extents

(* Demote a full chunk to partial with every frame allocated. *)
let demote_full t chunk =
  Hashtbl.remove t.full chunk;
  Hashtbl.replace t.partial_free chunk [];
  for off = 0 to chunk_frames - 1 do
    Hashtbl.replace t.palloc ((chunk * chunk_frames) + off) ()
  done

let release_full_chunk t chunk =
  Hashtbl.remove t.full chunk;
  let base = chunk * chunk_frames in
  clear_tags t base (base + chunk_frames);
  t.free_chunks <- chunk :: t.free_chunks;
  t.free_count <- t.free_count + chunk_frames

let free_partial_frame t frame =
  Hashtbl.remove t.palloc frame;
  clear_tags t frame (frame + 1);
  t.free_count <- t.free_count + 1;
  let chunk = frame / chunk_frames and off = frame mod chunk_frames in
  let offsets = Option.value ~default:[] (Hashtbl.find_opt t.partial_free chunk) in
  let offsets = List.merge Int.compare [ off ] offsets in
  if List.length offsets = chunk_frames then begin
    Hashtbl.remove t.partial_free chunk;
    t.free_chunks <- chunk :: t.free_chunks
  end
  else Hashtbl.replace t.partial_free chunk offsets

let check_allocated t ~what start len =
  let lo = Frame.Mfn.to_int start in
  if first_unallocated t lo (lo + len) <> None then
    invalid_arg (what ^ ": frame not allocated")

let free_extent t start len =
  if len <= 0 then invalid_arg "Pmem.free_extent: non-positive length";
  let base = Frame.Mfn.to_int start in
  (* Report whichever problem comes first in address order. *)
  (match
     ( first_unallocated t base (base + len),
       Extent_set.first_mem t.reserved start len )
   with
  | Some u, Some r when Frame.Mfn.to_int r < u ->
    invalid_arg "Pmem.free_extent: frame is reserved"
  | Some _, _ -> invalid_arg "Pmem.free_extent: frame not allocated"
  | None, Some _ -> invalid_arg "Pmem.free_extent: frame is reserved"
  | None, None -> ());
  (* Fast path: whole aligned chunks. *)
  let i = ref 0 in
  while !i < len do
    let frame = base + !i in
    let chunk = frame / chunk_frames in
    if frame mod chunk_frames = 0 && len - !i >= chunk_frames
       && Hashtbl.mem t.full chunk
    then begin
      release_full_chunk t chunk;
      i := !i + chunk_frames
    end
    else begin
      if Hashtbl.mem t.full chunk then demote_full t chunk;
      free_partial_frame t frame;
      incr i
    end
  done

let reserve_extent t start len =
  check_allocated t ~what:"Pmem.reserve_extent" start len;
  t.reserved <- Extent_set.add t.reserved start len

let unreserve_extent t start len =
  t.reserved <- Extent_set.remove t.reserved start len

let is_reserved t mfn = Extent_set.mem t.reserved mfn

let tag_extent t ~what start len v =
  check_allocated t ~what start len;
  let lo = Frame.Mfn.to_int start in
  if len > 0 then set_tags t lo (lo + len) v

let write t mfn v = tag_extent t ~what:"Pmem.write" mfn 1 v
let fill t start len v = tag_extent t ~what:"Pmem.fill" start len v

let read t mfn = tag_of t (Frame.Mfn.to_int mfn)

let uniform t start len =
  let lo = Frame.Mfn.to_int start in
  let hi = lo + len in
  let rec go next v = function
    | [] -> if next = hi then Some v else None
    | (s, e, v') :: rest ->
      if s = next && Int64.equal v v' then go e v rest else None
  in
  match runs_within t lo hi with
  | (s, e, v) :: rest when s = lo -> go e v rest
  | _ -> None

let wipe_unpreserved t ~preserve =
  (* Victims as [lo, hi) ranges, so a scrubbed run is dropped in one go. *)
  let victims = ref [] and wiped = ref 0 in
  Runs.iter
    (fun s (e, _) ->
      for frame = s to e - 1 do
        let mfn = Frame.Mfn.of_int frame in
        if (not (Extent_set.mem t.reserved mfn)) && not (preserve mfn) then begin
          incr wiped;
          match !victims with
          | (lo, hi) :: rest when hi = frame -> victims := (lo, hi + 1) :: rest
          | l -> victims := (frame, frame + 1) :: l
        end
      done)
    t.tags;
  List.iter (fun (lo, hi) -> clear_tags t lo hi) !victims;
  !wiped

let reboot_reset t ~preserved =
  let keep = Extent_set.union t.reserved preserved in
  let kept frame = Extent_set.mem keep (Frame.Mfn.of_int frame) in
  let reclaimed = ref 0 in
  (* Full chunks, one range query each: release wholesale when nothing
     in the chunk is kept, leave it alone when everything is, and go
     frame by frame only through a chunk the kept set straddles. *)
  let full_chunks = Hashtbl.fold (fun c () acc -> c :: acc) t.full [] in
  List.iter
    (fun chunk ->
      let base = chunk * chunk_frames in
      let start = Frame.Mfn.of_int base in
      if Extent_set.disjoint keep start chunk_frames then begin
        release_full_chunk t chunk;
        reclaimed := !reclaimed + chunk_frames
      end
      else if not (Extent_set.covers keep start chunk_frames) then begin
        let victims = ref [] in
        for o = 0 to chunk_frames - 1 do
          if not (kept (base + o)) then victims := (base + o) :: !victims
        done;
        demote_full t chunk;
        List.iter
          (fun frame ->
            free_partial_frame t frame;
            incr reclaimed)
          !victims
      end)
    full_chunks;
  (* Frames in partial chunks. *)
  let part = Hashtbl.fold (fun frame () acc -> frame :: acc) t.palloc [] in
  List.iter
    (fun frame ->
      if not (kept frame) then begin
        free_partial_frame t frame;
        incr reclaimed
      end)
    part;
  !reclaimed

let iter_allocated t f =
  (* Deterministic ascending frame order regardless of Hashtbl layout:
     full chunks first by sorted chunk index, then frames of partial
     chunks by sorted frame number.  Two same-shaped pools always
     enumerate identically — the residual audit's sweep depends on it. *)
  let full_chunks =
    List.sort Int.compare (Hashtbl.fold (fun c () acc -> c :: acc) t.full [])
  in
  List.iter
    (fun chunk ->
      let base = chunk * chunk_frames in
      let next = ref base in
      let untagged_until stop =
        for frame = !next to stop - 1 do
          f (Frame.Mfn.of_int frame) None
        done
      in
      List.iter
        (fun (s, e, v) ->
          untagged_until s;
          for frame = s to e - 1 do
            f (Frame.Mfn.of_int frame) (Some v)
          done;
          next := e)
        (runs_within t base (base + chunk_frames));
      untagged_until (base + chunk_frames))
    full_chunks;
  let part =
    List.sort Int.compare (Hashtbl.fold (fun fr () acc -> fr :: acc) t.palloc [])
  in
  List.iter (fun frame -> f (Frame.Mfn.of_int frame) (tag_of t frame)) part

let pp_usage fmt t =
  Format.fprintf fmt "frames: %d total, %d used, %d free, %d reserved"
    t.total_frames (used_frames t) t.free_count (Extent_set.cardinal t.reserved)
