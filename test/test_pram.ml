(* Tests for PRAM: entry packing, layout accounting, build/parse
   inverse, clobber detection, huge-page vs 4K granularity. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest
let rng () = Sim.Rng.create 0x9A4DL

(* --- Entry --- *)

let test_entry_pack_unpack () =
  let e =
    Pram.Entry.create ~gfn:(Hw.Frame.Gfn.of_int 12345)
      ~mfn:(Hw.Frame.Mfn.of_int 67890) ~order:9
  in
  let e' = Pram.Entry.unpack (Pram.Entry.pack e) in
  checkb "roundtrip" true (Pram.Entry.equal e e');
  checki "frames" 512 (Pram.Entry.frames e)

let prop_entry_pack_roundtrip =
  QCheck.Test.make ~name:"entry pack/unpack roundtrip"
    QCheck.(triple (int_range 0 0x3FFFFFF) (int_range 0 0xFFFFFF) (int_range 0 9))
    (fun (g, m, order) ->
      let e =
        Pram.Entry.create ~gfn:(Hw.Frame.Gfn.of_int g)
          ~mfn:(Hw.Frame.Mfn.of_int m) ~order
      in
      Pram.Entry.equal e (Pram.Entry.unpack (Pram.Entry.pack e)))

let test_entry_bounds () =
  Alcotest.check_raises "order too big"
    (Invalid_argument "Pram.Entry: bad order") (fun () ->
      ignore
        (Pram.Entry.create ~gfn:(Hw.Frame.Gfn.of_int 0)
           ~mfn:(Hw.Frame.Mfn.of_int 0) ~order:10))

let test_entry_granularity () =
  let mm : Uisr.Vm_state.memmap_entry =
    { gfn = Hw.Frame.Gfn.of_int 0; mfn = Hw.Frame.Mfn.of_int 1024; frames = 512 }
  in
  let huge = Pram.Entry.of_memmap_entry ~granularity:Hw.Units.Page_2m mm in
  let small = Pram.Entry.of_memmap_entry ~granularity:Hw.Units.Page_4k mm in
  checki "one 2MiB entry" 1 (List.length huge);
  checki "512 4KiB entries" 512 (List.length small);
  let frames entries =
    List.fold_left (fun acc e -> acc + Pram.Entry.frames e) 0 entries
  in
  checki "same coverage" (frames huge) (frames small)

let test_entry_alignment_split () =
  (* An unaligned host run cannot use a 2 MiB entry. *)
  let mm : Uisr.Vm_state.memmap_entry =
    { gfn = Hw.Frame.Gfn.of_int 0; mfn = Hw.Frame.Mfn.of_int 7; frames = 512 }
  in
  let entries = Pram.Entry.of_memmap_entry ~granularity:Hw.Units.Page_2m mm in
  checkb "split into naturally aligned runs" true (List.length entries > 1);
  List.iter
    (fun (e : Pram.Entry.t) ->
      checki "aligned" 0
        (Hw.Frame.Mfn.to_int e.mfn mod Pram.Entry.frames e))
    entries

(* --- Layout --- *)

let test_layout_paper_sizes () =
  (* Fig 14 ballpark: one 1 GiB VM with 2 MiB pages -> ~16-20 KiB;
     12 VMs -> ~150 KiB. *)
  let one = Pram.Layout.account ~entries_per_file:[ 512 ] in
  checkb "one VM around 16-20 KiB" true
    (one.Pram.Layout.total_bytes >= 16_384 && one.Pram.Layout.total_bytes <= 20_480);
  let twelve = Pram.Layout.account ~entries_per_file:(List.init 12 (fun _ -> 512)) in
  checkb "12 VMs around 150 KiB" true
    (twelve.Pram.Layout.total_bytes >= 140_000
    && twelve.Pram.Layout.total_bytes <= 160_000)

let test_layout_worst_case_rule () =
  (* 8 bytes per 4 KiB page: 1 GiB all-4K -> ~2 MiB of records. *)
  let a = Pram.Layout.account ~entries_per_file:[ 262144 ] in
  let record_bytes = a.Pram.Layout.node_pages * Pram.Layout.page_bytes in
  checkb "~2 MiB of node pages per GiB at 4K" true
    (record_bytes > 2_000_000 && record_bytes < 2_200_000)

let test_layout_node_math () =
  checki "empty file still needs a node page" 1
    (Pram.Layout.node_pages_for ~entries:0);
  checki "exact fill" 1 (Pram.Layout.node_pages_for ~entries:Pram.Layout.entries_per_node);
  checki "spill" 2
    (Pram.Layout.node_pages_for ~entries:(Pram.Layout.entries_per_node + 1))

(* --- Build / Parse --- *)

let build_setup ?(vms = 2) ?(mib = 32) ?(granularity = Hw.Units.Page_2m) () =
  let pmem = Hw.Pmem.create ~frames:(512 * 256) () in
  let mems =
    List.init vms (fun i ->
        ( Printf.sprintf "vm%d" i,
          Vmstate.Guest_mem.create ~pmem ~rng:(rng ()) ~bytes:(Hw.Units.mib mib)
            ~page_kind:Hw.Units.Page_2m () ))
  in
  let inputs =
    List.map
      (fun (n, mem) ->
        (n, Hw.Units.mib mib, Uisr.Vm_state.memmap_of_guest_mem mem))
      mems
  in
  let image = Pram.Build.build ~pmem ~granularity inputs in
  (pmem, mems, image)

let test_build_parse_inverse () =
  let pmem, mems, image = build_setup () in
  match Pram.Parse.parse ~pmem ~image (Pram.Build.pointer_mfn image) with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pram.Parse.pp_error e)
  | Ok files ->
    checki "file per VM" 2 (List.length files);
    List.iter2
      (fun (n, mem) (f : Pram.Parse.parsed_file) ->
        Alcotest.check Alcotest.string "name" n f.name;
        checki "size" (Hw.Units.mib 32) f.size;
        let covered =
          List.fold_left (fun acc e -> acc + Pram.Entry.frames e) 0 f.entries
        in
        checki "covers guest memory" (Hw.Units.frames_of_bytes (Hw.Units.mib 32)) covered;
        (* Every entry points at real backing of this VM. *)
        let backing = Hashtbl.create 64 in
        List.iteri
          (fun i _ ->
            Hashtbl.replace backing
              (Hw.Frame.Mfn.to_int (Vmstate.Guest_mem.mfn_of_page mem i))
              ())
          (List.init (Vmstate.Guest_mem.page_count mem) (fun i -> i));
        List.iter
          (fun (e : Pram.Entry.t) ->
            checkb "entry points into backing" true
              (Hashtbl.mem backing (Hw.Frame.Mfn.to_int e.mfn)))
          f.entries)
      mems files

let test_build_metadata_reserved () =
  let pmem, _, image = build_setup () in
  List.iter
    (fun (mfn, len) ->
      checkb "metadata reserved" true (Hw.Pmem.is_reserved pmem mfn);
      checki "single frames" 1 len)
    (Pram.Build.metadata_extents image)

let test_build_metadata_never_aliases_guest () =
  let _, mems, image = build_setup () in
  let meta = Pram.Build.metadata_extents image in
  List.iter
    (fun (_, mem) ->
      for i = 0 to Vmstate.Guest_mem.page_count mem - 1 do
        let base = Hw.Frame.Mfn.to_int (Vmstate.Guest_mem.mfn_of_page mem i) in
        List.iter
          (fun (m, _) ->
            let f = Hw.Frame.Mfn.to_int m in
            checkb "no alias" false (f >= base && f < base + 512))
          meta
      done)
    mems

let test_parse_detects_clobber () =
  let pmem, _, image = build_setup () in
  (* Scrub one metadata page behind PRAM's back. *)
  let mfn, _ = List.hd (Pram.Build.metadata_extents image) in
  Hw.Pmem.write pmem mfn 0L;
  match Pram.Parse.parse ~pmem ~image (Pram.Build.pointer_mfn image) with
  | Error (Pram.Parse.Clobbered_page m) ->
    checki "right page" (Hw.Frame.Mfn.to_int mfn) (Hw.Frame.Mfn.to_int m)
  | Ok _ -> Alcotest.fail "clobber not detected"
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Pram.Parse.pp_error e)

let test_parse_wrong_pointer () =
  let pmem, _, image = build_setup () in
  let bogus = Hw.Frame.Mfn.of_int 3 in
  checkb "bogus pointer rejected" true
    (Result.is_error (Pram.Parse.parse ~pmem ~image bogus))

let test_preserve_predicate_covers () =
  let _, mems, image = build_setup () in
  let preserve = Pram.Build.preserve_predicate image in
  List.iter
    (fun (_, mem) ->
      for i = 0 to Vmstate.Guest_mem.page_count mem - 1 do
        checkb "guest page preserved" true
          (preserve (Vmstate.Guest_mem.mfn_of_page mem i))
      done)
    mems;
  List.iter
    (fun (mfn, _) -> checkb "metadata preserved" true (preserve mfn))
    (Pram.Build.metadata_extents image);
  checkb "unrelated frame not preserved" false
    (preserve (Hw.Frame.Mfn.of_int (512 * 255)))

let test_release_returns_frames () =
  let pmem, _, image = build_setup () in
  let used_before = Hw.Pmem.used_frames pmem in
  Pram.Build.release image ~pmem;
  checki "metadata freed"
    (used_before - (Pram.Build.accounting image).Pram.Layout.total_pages)
    (Hw.Pmem.used_frames pmem)

let test_granularity_size_difference () =
  let _, _, huge = build_setup ~granularity:Hw.Units.Page_2m () in
  let _, _, small = build_setup ~granularity:Hw.Units.Page_4k () in
  let hb = (Pram.Build.accounting huge).Pram.Layout.total_bytes in
  let sb = (Pram.Build.accounting small).Pram.Layout.total_bytes in
  (* 32 MiB VMs: the gap is bounded by the fixed pointer/root/file pages;
     for 1 GiB VMs it approaches the 512x record-count ratio. *)
  checkb "4K granularity is much bigger" true (sb > 5 * hb)

let test_survives_reboot_reset () =
  let pmem, mems, image = build_setup () in
  ignore (Hw.Pmem.reboot_reset pmem ~preserved:(Pram.Build.preserved image));
  (match Pram.Parse.parse ~pmem ~image (Pram.Build.pointer_mfn image) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pram.Parse.pp_error e));
  List.iter
    (fun (_, mem) ->
      checkb "guest contents survive" true
        (Vmstate.Guest_mem.verify_backing mem = []))
    mems

let prop_build_accounting_consistent =
  QCheck.Test.make ~name:"accounting matches layout for any VM mix" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 5) (int_range 1 16))
    (fun sizes_mib ->
      let pmem = Hw.Pmem.create ~frames:(512 * 512) () in
      let inputs =
        List.mapi
          (fun i mib ->
            let mem =
              Vmstate.Guest_mem.create ~pmem ~rng:(Sim.Rng.create 3L)
                ~bytes:(Hw.Units.mib (mib * 2)) ~page_kind:Hw.Units.Page_2m ()
            in
            ( Printf.sprintf "v%d" i,
              Hw.Units.mib (mib * 2),
              Uisr.Vm_state.memmap_of_guest_mem mem ))
          sizes_mib
      in
      let image = Pram.Build.build ~pmem ~granularity:Hw.Units.Page_2m inputs in
      let acct = Pram.Build.accounting image in
      acct.Pram.Layout.total_pages
      = List.length (Pram.Build.metadata_extents image))

let suites =
  [
    ( "pram.entry",
      [
        Alcotest.test_case "pack/unpack" `Quick test_entry_pack_unpack;
        Alcotest.test_case "bounds" `Quick test_entry_bounds;
        Alcotest.test_case "granularity" `Quick test_entry_granularity;
        Alcotest.test_case "alignment splitting" `Quick test_entry_alignment_split;
        qtest prop_entry_pack_roundtrip;
      ] );
    ( "pram.layout",
      [
        Alcotest.test_case "paper sizes (Fig 14)" `Quick test_layout_paper_sizes;
        Alcotest.test_case "8B/page worst case" `Quick test_layout_worst_case_rule;
        Alcotest.test_case "node page math" `Quick test_layout_node_math;
      ] );
    ( "pram.build_parse",
      [
        Alcotest.test_case "build/parse inverse" `Quick test_build_parse_inverse;
        Alcotest.test_case "metadata reserved" `Quick test_build_metadata_reserved;
        Alcotest.test_case "metadata never aliases guest" `Quick
          test_build_metadata_never_aliases_guest;
        Alcotest.test_case "clobber detection" `Quick test_parse_detects_clobber;
        Alcotest.test_case "bogus pointer" `Quick test_parse_wrong_pointer;
        Alcotest.test_case "preserve predicate" `Quick test_preserve_predicate_covers;
        Alcotest.test_case "release frees metadata" `Quick test_release_returns_frames;
        Alcotest.test_case "granularity size gap" `Quick test_granularity_size_difference;
        Alcotest.test_case "survives reboot reset" `Quick test_survives_reboot_reset;
        qtest prop_build_accounting_consistent;
      ] );
  ]
