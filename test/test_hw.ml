(* Tests for the hardware substrate: units, frames, physical memory,
   CPU, NIC, machine catalog. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* --- Units --- *)

let test_units_sizes () =
  checki "kib" 1024 (Hw.Units.kib 1);
  checki "mib" (1024 * 1024) (Hw.Units.mib 1);
  checki "gib" (1024 * 1024 * 1024) (Hw.Units.gib 1);
  checki "frames per 2m page" 512 (Hw.Units.frames_per_page Hw.Units.Page_2m);
  checki "4k pages in 1gib" 262144
    (Hw.Units.pages_of_bytes Hw.Units.Page_4k (Hw.Units.gib 1));
  checki "2m pages in 1gib" 512
    (Hw.Units.pages_of_bytes Hw.Units.Page_2m (Hw.Units.gib 1))

let test_units_rounding () =
  checki "round up" 2 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 4097);
  checki "exact" 1 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 4096);
  checki "zero" 0 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 0)

let test_units_to_float () =
  checkf "gib" 2.0 (Hw.Units.to_gib_f (Hw.Units.gib 2));
  checkf "kib" 148.0 (Hw.Units.to_kib_f (Hw.Units.kib 148))

(* --- Frame --- *)

let test_frame_typed () =
  let g = Hw.Frame.Gfn.of_int 100 in
  let m = Hw.Frame.Mfn.of_int 200 in
  checki "gfn add" 105 (Hw.Frame.Gfn.to_int (Hw.Frame.Gfn.add g 5));
  checki "mfn offset" 50
    (Hw.Frame.Mfn.offset (Hw.Frame.Mfn.of_int 250) m);
  Alcotest.check_raises "negative gfn"
    (Invalid_argument "gfn.of_int: negative") (fun () ->
      ignore (Hw.Frame.Gfn.of_int (-1)))

(* --- Extent_set --- *)

(* Set operations and range queries against a bitmap over a small
   frame space. *)
let prop_extent_set_matches_bitmap =
  let space = 200 in
  let extent = QCheck.(pair (int_range 0 (space - 1)) (int_range 0 40)) in
  QCheck.Test.make ~count:300 ~name:"extent set agrees with a bitmap"
    QCheck.(
      triple (list_of_size (Gen.int_range 0 8) extent)
        (list_of_size (Gen.int_range 0 4) (pair bool extent))
        extent)
    (fun (base, edits, (qlo, qlen)) ->
      let mfn = Hw.Frame.Mfn.of_int in
      let bits = Array.make (space + 64) false in
      let set_bits v (a, l) = for f = a to a + l - 1 do bits.(f) <- v done in
      List.iter (set_bits true) base;
      let s = Hw.Extent_set.of_extents (List.map (fun (a, l) -> (mfn a, l)) base) in
      let s =
        List.fold_left
          (fun s (add, (a, l)) ->
            set_bits add (a, l);
            if add then Hw.Extent_set.add s (mfn a) l
            else Hw.Extent_set.remove s (mfn a) l)
          s edits
      in
      let frames = List.init (Array.length bits) Fun.id in
      let members = List.filter (fun f -> bits.(f)) frames in
      let in_query = List.filter (fun f -> f >= qlo && f < qlo + qlen) frames in
      let first p = Option.map mfn (List.find_opt p in_query) in
      List.for_all (fun f -> Hw.Extent_set.mem s (mfn f) = bits.(f)) frames
      && Hw.Extent_set.cardinal s = List.length members
      && Hw.Extent_set.first_mem s (mfn qlo) qlen = first (fun f -> bits.(f))
      && Hw.Extent_set.first_absent s (mfn qlo) qlen = first (fun f -> not bits.(f))
      && Hw.Extent_set.union s s = s)

(* --- Pmem --- *)

let mk_pmem ?(frames = 512 * 64) () = Hw.Pmem.create ~frames ()

let test_pmem_alloc_free_counts () =
  let p = mk_pmem () in
  let total = Hw.Pmem.total_frames p in
  let extents = Hw.Pmem.alloc_extents p 1000 in
  checki "allocated count" 1000
    (List.fold_left (fun acc (_, len) -> acc + len) 0 extents);
  checki "used" 1000 (Hw.Pmem.used_frames p);
  List.iter (fun (s, l) -> Hw.Pmem.free_extent p s l) extents;
  checki "all free again" total (Hw.Pmem.free_frames p)

let test_pmem_alignment () =
  let p = mk_pmem () in
  let extents = Hw.Pmem.alloc_extents p ~align:512 1024 in
  List.iter
    (fun (start, len) ->
      checki "aligned start" 0 (Hw.Frame.Mfn.to_int start mod 512);
      checkb "aligned len" true (len mod 512 = 0))
    extents

let test_pmem_no_overlap () =
  let p = mk_pmem () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 20 do
    let frames = Hw.Pmem.alloc_frames p 100 in
    List.iter
      (fun mfn ->
        let f = Hw.Frame.Mfn.to_int mfn in
        checkb "never handed out twice" false (Hashtbl.mem seen f);
        Hashtbl.replace seen f ())
      frames
  done

let test_pmem_oom () =
  let p = mk_pmem ~frames:512 () in
  Alcotest.check_raises "oom" Hw.Pmem.Out_of_memory (fun () ->
      ignore (Hw.Pmem.alloc_extents p 513))

let test_pmem_contents () =
  let p = mk_pmem () in
  let frames = Hw.Pmem.alloc_frames p 10 in
  let mfn = List.nth frames 3 in
  Alcotest.check (Alcotest.option Alcotest.int64) "unwritten" None
    (Hw.Pmem.read p mfn);
  Hw.Pmem.write p mfn 0xDEADL;
  Alcotest.check (Alcotest.option Alcotest.int64) "written" (Some 0xDEADL)
    (Hw.Pmem.read p mfn)

let test_pmem_fill_and_uniform () =
  let p = mk_pmem () in
  let start, len = List.hd (Hw.Pmem.alloc_extents p 64) in
  let some = Alcotest.(check (option int64)) in
  some "untagged extent" None (Hw.Pmem.uniform p start len);
  Hw.Pmem.fill p start len 5L;
  some "filled" (Some 5L) (Hw.Pmem.uniform p start len);
  some "frame of the fill" (Some 5L) (Hw.Pmem.read p (Hw.Frame.Mfn.add start 9));
  Hw.Pmem.write p (Hw.Frame.Mfn.add start 9) 6L;
  some "override reads back" (Some 6L) (Hw.Pmem.read p (Hw.Frame.Mfn.add start 9));
  some "override breaks uniformity" None (Hw.Pmem.uniform p start len);
  some "prefix still uniform" (Some 5L) (Hw.Pmem.uniform p start 9);
  Hw.Pmem.write p (Hw.Frame.Mfn.add start 9) 5L;
  some "same tag restores it" (Some 5L) (Hw.Pmem.uniform p start len);
  Hw.Pmem.fill p (Hw.Frame.Mfn.add start 10) 4 7L;
  some "a later fill overrides" (Some 7L) (Hw.Pmem.read p (Hw.Frame.Mfn.add start 12));
  some "beyond it the old fill" (Some 5L) (Hw.Pmem.read p (Hw.Frame.Mfn.add start 14));
  Alcotest.check_raises "fill of unallocated frames"
    (Invalid_argument "Pmem.fill: frame not allocated") (fun () ->
      Hw.Pmem.fill p (Hw.Frame.Mfn.add start len) 1 1L)

let test_pmem_write_unallocated () =
  let p = mk_pmem () in
  Alcotest.check_raises "unallocated write"
    (Invalid_argument "Pmem.write: frame not allocated") (fun () ->
      Hw.Pmem.write p (Hw.Frame.Mfn.of_int 7) 1L)

let test_pmem_reserve_protects () =
  let p = mk_pmem () in
  let extents = Hw.Pmem.alloc_extents p 4 in
  let start, len = List.hd extents in
  Hw.Pmem.reserve_extent p start len;
  checkb "is reserved" true (Hw.Pmem.is_reserved p start);
  Alcotest.check_raises "reserved free rejected"
    (Invalid_argument "Pmem.free_extent: frame is reserved") (fun () ->
      Hw.Pmem.free_extent p start len);
  Hw.Pmem.unreserve_extent p start len;
  Hw.Pmem.free_extent p start len;
  checkb "freed after unreserve" false (Hw.Pmem.is_allocated p start)

let test_pmem_wipe_semantics () =
  let p = mk_pmem () in
  let keep = Hw.Pmem.alloc_frames p 5 in
  let lose = Hw.Pmem.alloc_frames p 5 in
  List.iter (fun m -> Hw.Pmem.write p m 1L) keep;
  List.iter (fun m -> Hw.Pmem.write p m 2L) lose;
  let keep_set = List.map Hw.Frame.Mfn.to_int keep in
  let wiped =
    Hw.Pmem.wipe_unpreserved p ~preserve:(fun m ->
        List.mem (Hw.Frame.Mfn.to_int m) keep_set)
  in
  checki "wiped count" 5 wiped;
  List.iter
    (fun m ->
      Alcotest.check (Alcotest.option Alcotest.int64) "kept" (Some 1L)
        (Hw.Pmem.read p m))
    keep;
  List.iter
    (fun m ->
      Alcotest.check (Alcotest.option Alcotest.int64) "gone" None
        (Hw.Pmem.read p m))
    lose

let test_pmem_reboot_reset () =
  let p = mk_pmem () in
  let preserved = Hw.Pmem.alloc_frames p 8 in
  let reserved = Hw.Pmem.alloc_frames p 4 in
  let doomed = Hw.Pmem.alloc_frames p 16 in
  List.iter (fun m -> Hw.Pmem.write p m 7L) (preserved @ reserved @ doomed);
  List.iter (fun m -> Hw.Pmem.reserve_extent p m 1) reserved;
  let reclaimed =
    Hw.Pmem.reboot_reset p
      ~preserved:(Hw.Extent_set.of_extents (List.map (fun m -> (m, 1)) preserved))
  in
  checki "reclaimed only the doomed" 16 reclaimed;
  List.iter
    (fun m -> checkb "doomed frames freed" false (Hw.Pmem.is_allocated p m))
    doomed;
  List.iter
    (fun m -> checkb "preserved still allocated" true (Hw.Pmem.is_allocated p m))
    preserved;
  List.iter
    (fun m -> checkb "reserved still allocated" true (Hw.Pmem.is_allocated p m))
    reserved

(* Stateful property: under random interleavings of alloc/free/reserve
   operations, the allocator's counters stay consistent and no frame is
   ever handed out twice. *)
let prop_pmem_random_ops =
  QCheck.Test.make ~name:"pmem invariants under random op sequences" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 999))
    (fun ops ->
      let p = Hw.Pmem.create ~frames:(512 * 32) () in
      let total = Hw.Pmem.total_frames p in
      let live = ref [] in (* (start, len, reserved) *)
      let ok = ref true in
      let live_frames () =
        List.fold_left (fun acc (_, len, _) -> acc + len) 0 !live
      in
      List.iter
        (fun op ->
          match op mod 4 with
          | 0 | 1 -> (
            (* Allocate a small extent list. *)
            let n = 1 + (op mod 700) in
            match Hw.Pmem.alloc_extents p n with
            | extents ->
              List.iter (fun (s, l) -> live := (s, l, false) :: !live) extents
            | exception Hw.Pmem.Out_of_memory -> ())
          | 2 -> (
            (* Free the most recent unreserved extent. *)
            match List.partition (fun (_, _, r) -> not r) !live with
            | (s, l, _) :: rest_un, reserved ->
              Hw.Pmem.free_extent p s l;
              live := rest_un @ reserved
            | [], _ -> ())
          | _ -> (
            (* Reserve the most recent unreserved extent. *)
            match List.partition (fun (_, _, r) -> not r) !live with
            | (s, l, _) :: rest_un, reserved ->
              Hw.Pmem.reserve_extent p s l;
              live := rest_un @ ((s, l, true) :: reserved)
            | [], _ -> ()))
        ops;
      (* Counter consistency. *)
      if Hw.Pmem.used_frames p <> live_frames () then ok := false;
      if Hw.Pmem.free_frames p + Hw.Pmem.used_frames p <> total then ok := false;
      (* Every live extent is still allocated; reserved ones reserved. *)
      List.iter
        (fun (s, l, r) ->
          for i = 0 to l - 1 do
            let m = Hw.Frame.Mfn.add s i in
            if not (Hw.Pmem.is_allocated p m) then ok := false;
            if r && not (Hw.Pmem.is_reserved p m) then ok := false
          done)
        !live;
      (* No overlaps among live extents. *)
      let seen = Hashtbl.create 512 in
      List.iter
        (fun (s, l, _) ->
          for i = 0 to l - 1 do
            let f = Hw.Frame.Mfn.to_int s + i in
            if Hashtbl.mem seen f then ok := false;
            Hashtbl.replace seen f ()
          done)
        !live;
      !ok)

let prop_pmem_alloc_free_idempotent =
  QCheck.Test.make ~name:"pmem alloc/free restores free count"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 600))
    (fun sizes ->
      let p = mk_pmem () in
      let before = Hw.Pmem.free_frames p in
      let all = List.map (fun n -> Hw.Pmem.alloc_extents p n) sizes in
      List.iter
        (fun extents ->
          List.iter (fun (s, l) -> Hw.Pmem.free_extent p s l) extents)
        all;
      Hw.Pmem.free_frames p = before)

(* Differential property: the extent-granular pmem against a naive
   per-frame model.  The model mirrors every allocation the pool hands
   out, keeps one tag and one reserved bit per frame, and scrubs frame
   by frame.  Random schedules of alloc / write / fill / reserve /
   unreserve / free interleave with reboots and wipes under random
   preserved extent sets; afterwards every observable must agree. *)
module Model = struct
  type t = {
    alloc : (int, unit) Hashtbl.t;
    tags : (int, int64) Hashtbl.t;
    reserved : (int, unit) Hashtbl.t;
  }

  let create () =
    { alloc = Hashtbl.create 64; tags = Hashtbl.create 64; reserved = Hashtbl.create 64 }

  let frames start len = List.init len (fun i -> Hw.Frame.Mfn.to_int start + i)

  let scrub m ~kept ~free =
    let victims =
      Hashtbl.fold
        (fun f () acc ->
          if Hashtbl.mem m.reserved f || kept f then acc
          else if free || Hashtbl.mem m.tags f then f :: acc
          else acc)
        m.alloc []
    in
    List.iter
      (fun f ->
        Hashtbl.remove m.tags f;
        if free then Hashtbl.remove m.alloc f)
      victims;
    List.length victims
end

let prop_pmem_matches_frame_model =
  let total = 512 * 16 in
  QCheck.Test.make ~count:150 ~name:"extent pmem agrees with a per-frame model"
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_range 0 9) (int_range 0 100_000) (int_range 0 100_000)))
    (fun ops ->
      let p = Hw.Pmem.create ~seed:7L ~frames:total () in
      let m = Model.create () in
      let live = ref [] in (* (start, len, reserved) *)
      let ok = ref true in
      let fail () = ok := false in
      let nth_live a = List.nth_opt !live (a mod Stdlib.max 1 (List.length !live)) in
      let preserved_set a b =
        let picked =
          List.filteri (fun i _ -> (a lsr (i mod 16)) land 1 = 1) !live
          |> List.map (fun (s, l, _) -> (s, l))
        in
        (* A random range and a half-chunk: the straddling cases. *)
        let lo = b mod total in
        let extra =
          [ (Hw.Frame.Mfn.of_int lo, Stdlib.min (total - lo) (a mod 1500));
            (Hw.Frame.Mfn.of_int (b mod 16 * 512), 256) ]
        in
        picked @ extra
      in
      List.iter
        (fun (kind, a, b) ->
          match kind with
          | 0 | 1 -> (
            let align = List.nth [ 1; 2; 8; 512 ] (b mod 4) in
            match Hw.Pmem.alloc_extents p ~align (1 + (a mod 900)) with
            | extents ->
              List.iter
                (fun (s, l) ->
                  List.iter
                    (fun f ->
                      if Hashtbl.mem m.Model.alloc f then fail ();
                      Hashtbl.replace m.Model.alloc f ())
                    (Model.frames s l);
                  live := (s, l, false) :: !live)
                extents
            | exception Hw.Pmem.Out_of_memory -> ())
          | 2 -> (
            match nth_live a with
            | Some (s, l, _) ->
              let mfn = Hw.Frame.Mfn.add s (b mod l) in
              let v = Int64.of_int (a * 31 + b) in
              Hw.Pmem.write p mfn v;
              Hashtbl.replace m.Model.tags (Hw.Frame.Mfn.to_int mfn) v
            | None -> ())
          | 3 -> (
            match nth_live a with
            | Some (s, l, _) ->
              let off = b mod l in
              let len = 1 + (a mod (l - off)) in
              let v = Int64.of_int b in
              Hw.Pmem.fill p (Hw.Frame.Mfn.add s off) len v;
              List.iter
                (fun f -> Hashtbl.replace m.Model.tags f v)
                (Model.frames (Hw.Frame.Mfn.add s off) len)
            | None -> ())
          | 4 -> (
            match nth_live a with
            | Some ((s, l, false) as e) ->
              Hw.Pmem.reserve_extent p s l;
              List.iter (fun f -> Hashtbl.replace m.Model.reserved f ()) (Model.frames s l);
              live := List.map (fun x -> if x == e then (s, l, true) else x) !live
            | Some (_, _, true) | None -> ())
          | 5 -> (
            match nth_live a with
            | Some ((s, l, true) as e) ->
              Hw.Pmem.unreserve_extent p s l;
              List.iter (Hashtbl.remove m.Model.reserved) (Model.frames s l);
              live := List.map (fun x -> if x == e then (s, l, false) else x) !live
            | Some (_, _, false) | None -> ())
          | 6 | 7 -> (
            match nth_live a with
            | Some ((s, l, false) as e) ->
              Hw.Pmem.free_extent p s l;
              List.iter
                (fun f ->
                  Hashtbl.remove m.Model.alloc f;
                  Hashtbl.remove m.Model.tags f)
                (Model.frames s l);
              live := List.filter (fun x -> x != e) !live
            | Some (_, _, true) | None -> ())
          | 8 ->
            let set = Hw.Extent_set.of_extents (preserved_set a b) in
            let kept f = Hw.Extent_set.mem set (Hw.Frame.Mfn.of_int f) in
            let expect = Model.scrub m ~kept ~free:true in
            if Hw.Pmem.reboot_reset p ~preserved:set <> expect then fail ();
            (* Live extents now hold only surviving frames: re-derive
               them as single frames from the model. *)
            live :=
              Hashtbl.fold
                (fun f () acc ->
                  (Hw.Frame.Mfn.of_int f, 1, Hashtbl.mem m.Model.reserved f) :: acc)
                m.Model.alloc []
              |> List.sort compare
          | _ ->
            let set = Hw.Extent_set.of_extents (preserved_set a b) in
            let kept f = Hw.Extent_set.mem set (Hw.Frame.Mfn.of_int f) in
            let expect = Model.scrub m ~kept ~free:false in
            if Hw.Pmem.wipe_unpreserved p ~preserve:(Hw.Extent_set.mem set) <> expect
            then fail ())
        ops;
      (* Every frame reads back the model's tag and allocation bit. *)
      for f = 0 to total - 1 do
        let mfn = Hw.Frame.Mfn.of_int f in
        if Hw.Pmem.read p mfn <> Hashtbl.find_opt m.Model.tags f then fail ();
        if Hw.Pmem.is_allocated p mfn <> Hashtbl.mem m.Model.alloc f then fail ();
        if Hw.Pmem.is_reserved p mfn <> Hashtbl.mem m.Model.reserved f then fail ()
      done;
      (* The sweep visits each allocated frame once, with its tag. *)
      let swept = ref [] in
      Hw.Pmem.iter_allocated p (fun mfn tag ->
          swept := (Hw.Frame.Mfn.to_int mfn, tag) :: !swept);
      let expected =
        Hashtbl.fold (fun f () acc -> (f, Hashtbl.find_opt m.Model.tags f) :: acc)
          m.Model.alloc []
      in
      if List.sort compare !swept <> List.sort compare expected then fail ();
      let used = Hashtbl.length m.Model.alloc in
      let usage =
        Printf.sprintf "frames: %d total, %d used, %d free, %d reserved" total used
          (total - used) (Hashtbl.length m.Model.reserved)
      in
      if Format.asprintf "%a" Hw.Pmem.pp_usage p <> usage then fail ();
      !ok)

(* --- Golden pin: what a reboot reclaims and the allocation order after it --- *)

let read_golden name =
  let path =
    List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]
  in
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* One seeded host shaped like a transplant: 2 MiB-backed guest chunks,
   a 4 KiB-backed guest run, a per-frame tagged heap, reserved metadata
   pages and a reserved image, one preserved half-chunk (the straddling
   case) and a freed heap extent.  The preserved set is given as
   (start, length) extents. *)
let pmem_reboot_scenario seed =
  let rng = Sim.Rng.create (Int64.of_int (1000 + seed)) in
  let p = Hw.Pmem.create ~seed:(Int64.of_int seed) ~frames:(512 * 64) () in
  let keep = ref [] in
  let guest = Hw.Pmem.alloc_extents p ~align:512 (512 * (2 + Sim.Rng.int rng 4)) in
  List.iter
    (fun (s, l) ->
      keep := (s, l) :: !keep;
      for i = 0 to (l / 512) - 1 do
        Hw.Pmem.write p (Hw.Frame.Mfn.add s (i * 512)) (Sim.Rng.int64 rng)
      done)
    guest;
  let heap = Hw.Pmem.alloc_extents p (1000 + Sim.Rng.int rng 2000) in
  List.iter
    (fun (s, l) ->
      for i = 0 to l - 1 do
        Hw.Pmem.write p (Hw.Frame.Mfn.add s i) 0x4845415048454150L
      done)
    heap;
  let small = Hw.Pmem.alloc_extents p (100 + Sim.Rng.int rng 300) in
  List.iter
    (fun (s, l) ->
      keep := (s, l) :: !keep;
      Hw.Pmem.write p s (Sim.Rng.int64 rng))
    small;
  let meta = List.init 6 (fun _ -> fst (List.hd (Hw.Pmem.alloc_extents p 1))) in
  List.iter
    (fun m ->
      Hw.Pmem.write p m 0x5052414D5F4D4554L;
      Hw.Pmem.reserve_extent p m 1)
    meta;
  let image = Hw.Pmem.alloc_extents p (600 + Sim.Rng.int rng 400) in
  List.iter
    (fun (s, l) ->
      for i = 0 to l - 1 do
        Hw.Pmem.write p (Hw.Frame.Mfn.add s i) 0x4B45584543000001L
      done;
      Hw.Pmem.reserve_extent p s l)
    image;
  (* Straddle: keep the first half of the first heap chunk and one
     frame of the last heap extent. *)
  (match heap with
  | (s, _) :: _ -> keep := (s, 256) :: !keep
  | [] -> ());
  (match List.rev heap with
  | (s, l) :: _ -> keep := (Hw.Frame.Mfn.add s (l / 2), 1) :: !keep
  | [] -> ());
  (match heap with
  | _ :: (s, l) :: _ :: _ -> Hw.Pmem.free_extent p s l
  | _ -> ());
  (* One metadata page lost its reservation and is not preserved. *)
  Hw.Pmem.unreserve_extent p (List.nth meta 2) 1;
  keep := List.map (fun m -> (m, 1)) (List.filteri (fun i _ -> i <> 2) meta) @ !keep;
  (p, !keep, rng)

let render_pmem_reboot seed =
  let p, keep, rng = pmem_reboot_scenario seed in
  let reclaimed =
    Hw.Pmem.reboot_reset p ~preserved:(Hw.Extent_set.of_extents keep)
  in
  let digest = ref 0L and count = ref 0 in
  Hw.Pmem.iter_allocated p (fun mfn tag ->
      incr count;
      let v = Option.value ~default:(-1L) tag in
      let mix acc x =
        Int64.mul (Int64.add (Int64.logxor acc x) 0x9E3779B97F4A7C15L)
          0xBF58476D1CE4E5B9L
      in
      digest := mix (mix !digest (Int64.of_int (Hw.Frame.Mfn.to_int mfn))) v);
  let b = Buffer.create 1024 in
  Printf.bprintf b "seed %d: reclaimed %d, %d allocated, digest %016Lx\n" seed
    reclaimed !count !digest;
  Printf.bprintf b "%s\n" (Format.asprintf "%a" Hw.Pmem.pp_usage p);
  for k = 1 to 32 do
    let align = List.nth [ 1; 1; 2; 8; 512 ] (Sim.Rng.int rng 5) in
    let n = 1 + Sim.Rng.int rng 700 in
    let extents = Hw.Pmem.alloc_extents p ~align n in
    Printf.bprintf b "alloc %2d (%d, align %d):%s\n" k n align
      (String.concat ""
         (List.map
            (fun (s, l) -> Printf.sprintf " %d+%d" (Hw.Frame.Mfn.to_int s) l)
            extents))
  done;
  Buffer.contents b

let test_pmem_reboot_golden () =
  let got =
    String.concat ""
      (List.map render_pmem_reboot [ 1; 2; 3; 4 ])
  in
  Alcotest.check Alcotest.string "reclaim, survivors and next allocations"
    (read_golden "pmem_reboot.txt") got

(* --- Cpu / Nic / Machine --- *)

let test_cpu () =
  let c = Hw.Cpu.create ~sockets:2 ~cores_per_socket:14 ~threads_per_core:2 ~freq_ghz:1.7 in
  checki "cores" 28 (Hw.Cpu.total_cores c);
  checki "threads" 56 (Hw.Cpu.total_threads c);
  checki "usable" 54 (Hw.Cpu.usable_threads c ~reserved:2);
  checki "usable floor" 1 (Hw.Cpu.usable_threads c ~reserved:100)

let test_nic_transfer () =
  let nic = Hw.Nic.create ~bandwidth_gbps:1.0 ~efficiency:1.0 ~latency:Sim.Time.zero () in
  (* 1 Gbps = 125 MB/s; 125 MB should take 1 s. *)
  let t = Hw.Nic.transfer_time nic ~streams:1 125_000_000 in
  checkb "1s +- 1ms" true
    (Float.abs (Sim.Time.to_sec_f t -. 1.0) < 0.001)

let test_nic_stream_sharing () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  let t1 = Hw.Nic.throughput_bytes_per_sec nic ~streams:1 in
  let t4 = Hw.Nic.throughput_bytes_per_sec nic ~streams:4 in
  checkb "4 streams quarter" true (Float.abs ((t1 /. 4.0) -. t4) < 1.0)

let test_machine_catalog () =
  let m1 = Hw.Machine.m1 () and m2 = Hw.Machine.m2 () in
  checki "m1 threads" 8 (Hw.Cpu.total_threads m1.Hw.Machine.cpu);
  checki "m2 threads" 56 (Hw.Cpu.total_threads m2.Hw.Machine.cpu);
  checki "m1 workers" 6 (Hw.Machine.worker_threads m1);
  checki "m1 hosts 12 x 1GiB + 2GiB admin" 14
    (Hw.Machine.max_vms m1 ~vm_ram:(Hw.Units.gib 1));
  checkb "m2 slower per core" true
    (m2.Hw.Machine.costs.Hw.Machine.cpu_factor > 1.0)

let test_machine_pmem () =
  let m1 = Hw.Machine.m1 () in
  let p = Hw.Machine.fresh_pmem m1 in
  checki "16GiB of frames" (16 * 262144) (Hw.Pmem.total_frames p)

let suites =
  [
    ( "hw.units",
      [
        Alcotest.test_case "sizes" `Quick test_units_sizes;
        Alcotest.test_case "rounding" `Quick test_units_rounding;
        Alcotest.test_case "float conversions" `Quick test_units_to_float;
      ] );
    ("hw.frame", [ Alcotest.test_case "typed frames" `Quick test_frame_typed ]);
    ("hw.extent_set", [ qtest prop_extent_set_matches_bitmap ]);
    ( "hw.pmem",
      [
        Alcotest.test_case "alloc/free counts" `Quick test_pmem_alloc_free_counts;
        Alcotest.test_case "alignment" `Quick test_pmem_alignment;
        Alcotest.test_case "no double allocation" `Quick test_pmem_no_overlap;
        Alcotest.test_case "out of memory" `Quick test_pmem_oom;
        Alcotest.test_case "content tags" `Quick test_pmem_contents;
        Alcotest.test_case "fill, override and uniform" `Quick
          test_pmem_fill_and_uniform;
        Alcotest.test_case "unallocated write rejected" `Quick
          test_pmem_write_unallocated;
        Alcotest.test_case "reservation protects" `Quick test_pmem_reserve_protects;
        Alcotest.test_case "wipe honours preserve" `Quick test_pmem_wipe_semantics;
        Alcotest.test_case "reboot reset reclaims" `Quick test_pmem_reboot_reset;
        qtest prop_pmem_alloc_free_idempotent;
        qtest prop_pmem_random_ops;
        qtest prop_pmem_matches_frame_model;
        Alcotest.test_case "reboot golden pin" `Quick test_pmem_reboot_golden;
      ] );
    ( "hw.machine",
      [
        Alcotest.test_case "cpu topology" `Quick test_cpu;
        Alcotest.test_case "nic transfer time" `Quick test_nic_transfer;
        Alcotest.test_case "nic stream sharing" `Quick test_nic_stream_sharing;
        Alcotest.test_case "catalog" `Quick test_machine_catalog;
        Alcotest.test_case "pmem sizing" `Quick test_machine_pmem;
      ] );
  ]
