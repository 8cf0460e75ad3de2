(* Tests for the architectural VM state vocabulary. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest
let rng () = Sim.Rng.create 0xABCL

(* --- Regs --- *)

let test_regs_msr_ops () =
  let r = Vmstate.Regs.generate (rng ()) in
  let r' = Vmstate.Regs.with_msr r 0x999 42L in
  Alcotest.check (Alcotest.option Alcotest.int64) "inserted" (Some 42L)
    (Vmstate.Regs.msr_value r' 0x999);
  let r'' = Vmstate.Regs.with_msr r' 0x999 43L in
  Alcotest.check (Alcotest.option Alcotest.int64) "replaced" (Some 43L)
    (Vmstate.Regs.msr_value r'' 0x999);
  checki "no duplicate" (List.length r'.Vmstate.Regs.msrs)
    (List.length r''.Vmstate.Regs.msrs);
  Alcotest.check (Alcotest.option Alcotest.int64) "missing" None
    (Vmstate.Regs.msr_value r 0x12345)

let test_regs_with_msr_sorted () =
  let r = Vmstate.Regs.generate (rng ()) in
  let r = Vmstate.Regs.with_msr r 0x1 1L in
  let indices = List.map (fun (m : Vmstate.Regs.msr) -> m.index) r.msrs in
  checkb "0x1 first" true (List.hd indices = 0x1)

let test_regs_equal () =
  let g = rng () in
  let a = Vmstate.Regs.generate g in
  checkb "reflexive" true (Vmstate.Regs.equal a a);
  let b = { a with Vmstate.Regs.gprs = { a.gprs with rax = Int64.add a.gprs.rax 1L } } in
  checkb "gpr change detected" false (Vmstate.Regs.equal a b)

(* --- Lapic --- *)

let test_lapic_pending () =
  let l = Vmstate.Lapic.generate (rng ()) ~apic_id:0 in
  let counted = Vmstate.Lapic.pending_interrupts l in
  let manual =
    Array.fold_left
      (fun acc w ->
        let rec pop x n =
          if Int64.equal x 0L then n
          else pop (Int64.logand x (Int64.sub x 1L)) (n + 1)
        in
        acc + pop w 0)
      0 l.Vmstate.Lapic.irr
  in
  checki "popcount matches" manual counted

let test_lapic_equal_detects () =
  let g = rng () in
  let a = Vmstate.Lapic.generate g ~apic_id:1 in
  checkb "reflexive" true (Vmstate.Lapic.equal a a);
  checkb "id change" false
    (Vmstate.Lapic.equal a { a with Vmstate.Lapic.apic_id = 2 })

(* --- Ioapic --- *)

let test_ioapic_truncate_extend () =
  let io = Vmstate.Ioapic.generate (rng ()) ~pins:48 in
  let t, dropped = Vmstate.Ioapic.truncate io ~pins:24 in
  checki "kept 24" 24 (Vmstate.Ioapic.pin_count t);
  let connected_high =
    Vmstate.Ioapic.connected_pins io - Vmstate.Ioapic.connected_pins t
  in
  checki "dropped = connected high pins" connected_high dropped;
  let e = Vmstate.Ioapic.extend t ~pins:48 in
  checki "extended back" 48 (Vmstate.Ioapic.pin_count e);
  checki "extension adds only masked pins"
    (Vmstate.Ioapic.connected_pins t)
    (Vmstate.Ioapic.connected_pins e)

let test_ioapic_truncate_identity () =
  let io = Vmstate.Ioapic.generate (rng ()) ~pins:24 in
  let t, dropped = Vmstate.Ioapic.truncate io ~pins:24 in
  checkb "no-op truncate" true (Vmstate.Ioapic.equal io t);
  checki "nothing dropped" 0 dropped

let test_ioapic_invalid () =
  let io = Vmstate.Ioapic.generate (rng ()) ~pins:24 in
  Alcotest.check_raises "truncate up"
    (Invalid_argument "Ioapic.truncate: extending, not truncating") (fun () ->
      ignore (Vmstate.Ioapic.truncate io ~pins:48));
  Alcotest.check_raises "extend down"
    (Invalid_argument "Ioapic.extend: truncating, not extending") (fun () ->
      ignore (Vmstate.Ioapic.extend io ~pins:12))

let prop_ioapic_truncate_prefix =
  QCheck.Test.make ~name:"truncate keeps the pin prefix intact"
    QCheck.(int_range 1 24)
    (fun keep ->
      let io = Vmstate.Ioapic.generate (Sim.Rng.create 5L) ~pins:48 in
      let t, _ = Vmstate.Ioapic.truncate io ~pins:keep in
      List.for_all
        (fun i -> io.Vmstate.Ioapic.pins.(i) = t.Vmstate.Ioapic.pins.(i))
        (List.init keep (fun i -> i)))

(* --- Mtrr --- *)

let test_mtrr_msr_roundtrip () =
  let m = Vmstate.Mtrr.generate (rng ()) in
  match Vmstate.Mtrr.of_msrs (Vmstate.Mtrr.to_msrs m) with
  | Some m' -> checkb "roundtrip" true (Vmstate.Mtrr.equal m m')
  | None -> Alcotest.fail "of_msrs failed"

let test_mtrr_incomplete_msrs () =
  let m = Vmstate.Mtrr.generate (rng ()) in
  let msrs = List.tl (Vmstate.Mtrr.to_msrs m) in
  checkb "missing msr detected" true (Vmstate.Mtrr.of_msrs msrs = None)

let test_mtrr_msr_count () =
  let m = Vmstate.Mtrr.generate (rng ()) in
  (* def_type + 11 fixed + 8 variable pairs. *)
  checki "msr count" (1 + 11 + 16) (List.length (Vmstate.Mtrr.to_msrs m))

(* --- Xsave --- *)

let test_xsave_size () =
  let x = Vmstate.Xsave.generate (rng ()) in
  checkb "header + components" true (Vmstate.Xsave.size_bytes x > 64);
  checkb "bv matches xcr0" true (Int64.equal x.xcr0 x.xstate_bv)

(* --- Device --- *)

let test_device_unplug_rescan () =
  let g = rng () in
  let d = Vmstate.Device.generate g ~id:0 ~kind:Vmstate.Device.Net_emulated () in
  let conns = d.tcp_connections in
  let u = Vmstate.Device.unplug d in
  checkb "state dropped" true (Array.length u.emulation_state = 0);
  checki "connections survive unplug" conns u.tcp_connections;
  let r = Vmstate.Device.rescan u g in
  checkb "running again" true (r.run_state = Vmstate.Device.Dev_running);
  checki "connections survive rescan" conns r.tcp_connections;
  checkb "guest-visible equality" true
    (r.id = d.id && r.kind = d.kind && r.tcp_connections = d.tcp_connections)

let test_device_passthrough_rules () =
  let g = rng () in
  let d = Vmstate.Device.generate g ~id:1 ~kind:Vmstate.Device.Net_passthrough () in
  checkb "passthrough" true (Vmstate.Device.is_passthrough d);
  checki "no emulation state" 0 (Array.length d.emulation_state);
  Alcotest.check_raises "unplug rejected"
    (Invalid_argument "Device.unplug: pass-through device") (fun () ->
      ignore (Vmstate.Device.unplug d))

let test_device_rescan_requires_unplug () =
  let g = rng () in
  let d = Vmstate.Device.generate g ~id:2 ~kind:Vmstate.Device.Blk_emulated () in
  Alcotest.check_raises "rescan without unplug"
    (Invalid_argument "Device.rescan: device was not unplugged") (fun () ->
      ignore (Vmstate.Device.rescan d g))

(* --- Virtqueue --- *)

let test_virtqueue_flow () =
  let q = Vmstate.Virtqueue.create (rng ()) ~size:8 ~guest_frames:1024 in
  Vmstate.Virtqueue.quiesce q;
  checki "drained" 0 (Vmstate.Virtqueue.in_flight q);
  Vmstate.Virtqueue.guest_post q 5;
  checki "posted" 5 (Vmstate.Virtqueue.in_flight q);
  Vmstate.Virtqueue.device_complete q 3;
  checki "completed some" 2 (Vmstate.Virtqueue.in_flight q);
  Alcotest.check_raises "overtake rejected"
    (Invalid_argument "Virtqueue.device_complete: overtaking avail") (fun () ->
      Vmstate.Virtqueue.device_complete q 3);
  Alcotest.check_raises "ring full"
    (Invalid_argument "Virtqueue.guest_post: ring full") (fun () ->
      Vmstate.Virtqueue.guest_post q 7);
  Vmstate.Virtqueue.quiesce q;
  checki "quiesced" 0 (Vmstate.Virtqueue.in_flight q)

let test_virtqueue_serialization () =
  let q = Vmstate.Virtqueue.create (rng ()) ~size:16 ~guest_frames:4096 in
  Vmstate.Virtqueue.guest_post q 3;
  let q' = Vmstate.Virtqueue.of_words (Vmstate.Virtqueue.to_words q) in
  checkb "roundtrip" true (Vmstate.Virtqueue.equal q q');
  checki "indices preserved" (Vmstate.Virtqueue.in_flight q)
    (Vmstate.Virtqueue.in_flight q');
  (* Malformed input rejected. *)
  let words = Vmstate.Virtqueue.to_words q in
  checkb "truncated rejected" true
    (try
       ignore (Vmstate.Virtqueue.of_words (Array.sub words 0 3));
       false
     with Invalid_argument _ -> true)

let prop_virtqueue_roundtrip =
  qtest
    (QCheck.Test.make ~name:"virtqueue serialise roundtrip" ~count:50
       QCheck.(pair (int_range 0 5) small_int)
       (fun (size_log, seed) ->
         let q =
           Vmstate.Virtqueue.create
             (Sim.Rng.create (Int64.of_int seed))
             ~size:(1 lsl (size_log + 1))
             ~guest_frames:65536
         in
         Vmstate.Virtqueue.equal q
           (Vmstate.Virtqueue.of_words (Vmstate.Virtqueue.to_words q))))

let test_device_pause_quiesces () =
  let d = Vmstate.Device.generate (rng ()) ~id:0 ~kind:Vmstate.Device.Blk_emulated () in
  let d = { d with queues = Array.map (fun q -> Vmstate.Virtqueue.quiesce q; q) d.queues } in
  Array.iter (fun q -> Vmstate.Virtqueue.guest_post q 4) d.queues;
  checkb "in flight before pause" true (Vmstate.Device.in_flight d > 0);
  let paused = Vmstate.Device.pause d in
  checki "quiesced by pause (4.2.3)" 0 (Vmstate.Device.in_flight paused)

(* --- Guest_mem --- *)

let mk_mem ?(bytes = Hw.Units.mib 64) ?(page_kind = Hw.Units.Page_2m) () =
  let pmem = Hw.Pmem.create ~frames:(512 * 128) () in
  (pmem, Vmstate.Guest_mem.create ~pmem ~rng:(rng ()) ~bytes ~page_kind ())

let test_guest_mem_shape () =
  let _, mem = mk_mem () in
  checki "pages" 32 (Vmstate.Guest_mem.page_count mem);
  checki "no dirty initially" 0 (Vmstate.Guest_mem.dirty_count mem);
  checki "gfn of page 1" 512
    (Hw.Frame.Gfn.to_int (Vmstate.Guest_mem.gfn_of_page mem 1))

let test_guest_mem_write_dirty () =
  let _, mem = mk_mem () in
  Vmstate.Guest_mem.write_page mem 3 123L;
  Vmstate.Guest_mem.write_page mem 3 124L;
  Vmstate.Guest_mem.write_page mem 7 1L;
  checki "dirty distinct pages" 2 (Vmstate.Guest_mem.dirty_count mem);
  Alcotest.check (Alcotest.list Alcotest.int) "dirty list" [ 3; 7 ]
    (Vmstate.Guest_mem.dirty_pages mem);
  Alcotest.check Alcotest.int64 "readback" 124L
    (Vmstate.Guest_mem.read_page mem 3);
  Vmstate.Guest_mem.clear_dirty_page mem 3;
  checki "selective clear" 1 (Vmstate.Guest_mem.dirty_count mem);
  Vmstate.Guest_mem.clear_dirty mem;
  checki "full clear" 0 (Vmstate.Guest_mem.dirty_count mem)

let test_guest_mem_writethrough () =
  let pmem, mem = mk_mem () in
  Vmstate.Guest_mem.write_page mem 0 77L;
  Alcotest.check (Alcotest.option Alcotest.int64) "backing updated" (Some 77L)
    (Hw.Pmem.read pmem (Vmstate.Guest_mem.mfn_of_page mem 0));
  checkb "verify clean" true (Vmstate.Guest_mem.verify_backing mem = [])

let test_guest_mem_clobber_detection () =
  let pmem, mem = mk_mem () in
  Hw.Pmem.write pmem (Vmstate.Guest_mem.mfn_of_page mem 5) 0xBADL;
  let bad = Vmstate.Guest_mem.verify_backing mem in
  checki "one clobbered page" 1 (List.length bad);
  checki "right page" 5 (fst (List.hd bad))

let test_guest_mem_checksum_sensitivity () =
  let _, mem = mk_mem () in
  let c0 = Vmstate.Guest_mem.checksum mem in
  Vmstate.Guest_mem.write_page mem 9 999L;
  checkb "checksum changed" false
    (Int64.equal c0 (Vmstate.Guest_mem.checksum mem))

let test_guest_mem_extents_cover () =
  let _, mem = mk_mem () in
  let total =
    List.fold_left
      (fun acc (_, _, frames) -> acc + frames)
      0
      (Vmstate.Guest_mem.extents mem)
  in
  checki "extents cover all frames" (Hw.Units.frames_of_bytes (Hw.Units.mib 64))
    total

let test_guest_mem_extents_alignment () =
  let _, mem = mk_mem () in
  List.iter
    (fun (_, mfn, _) ->
      checki "2MiB-aligned backing" 0 (Hw.Frame.Mfn.to_int mfn mod 512))
    (Vmstate.Guest_mem.extents mem)

let test_guest_mem_free_returns () =
  let pmem, mem = mk_mem () in
  let before = Hw.Pmem.free_frames pmem in
  Vmstate.Guest_mem.free mem;
  checki "frames returned"
    (before + Hw.Units.frames_of_bytes (Hw.Units.mib 64))
    (Hw.Pmem.free_frames pmem)

let prop_guest_mem_touch_random =
  QCheck.Test.make ~name:"touch_random dirties at most n pages"
    QCheck.(int_range 1 64)
    (fun n ->
      let pmem = Hw.Pmem.create ~frames:(512 * 64) () in
      let mem =
        Vmstate.Guest_mem.create ~pmem ~rng:(Sim.Rng.create 1L)
          ~bytes:(Hw.Units.mib 32) ~page_kind:Hw.Units.Page_2m ()
      in
      Vmstate.Guest_mem.touch_random mem (Sim.Rng.create 2L) n;
      let d = Vmstate.Guest_mem.dirty_count mem in
      d >= 1 && d <= n)

(* --- Vm --- *)

let test_vm_create_shape () =
  let pmem = Hw.Pmem.create ~frames:(512 * 600) () in
  let config =
    Vmstate.Vm.config ~name:"t" ~vcpus:4 ~ram:(Hw.Units.gib 1) ()
  in
  let vm = Vmstate.Vm.create ~pmem ~rng:(rng ()) ~ioapic_pins:48 config in
  checki "vcpus" 4 (Array.length vm.vcpus);
  checki "ioapic pins" 48 (Vmstate.Ioapic.pin_count vm.ioapic);
  checki "devices" 3 (Array.length vm.devices);
  checkb "running" true (Vmstate.Vm.is_running vm);
  checkb "platform reflexive" true
    (Uisr.Guest_view.(diff (of_vm vm) (of_vm vm)) = [])

let test_vm_lifecycle () =
  let pmem = Hw.Pmem.create ~frames:(512 * 64) () in
  let vm =
    Vmstate.Vm.create ~pmem ~rng:(rng ())
      (Vmstate.Vm.config ~name:"t" ~ram:(Hw.Units.mib 32) ())
  in
  Vmstate.Vm.pause vm;
  checkb "paused" false (Vmstate.Vm.is_running vm);
  Vmstate.Vm.resume vm;
  checkb "resumed" true (Vmstate.Vm.is_running vm);
  Vmstate.Vm.suspend vm;
  checkb "suspended" false (Vmstate.Vm.is_running vm)

let test_vm_config_validation () =
  Alcotest.check_raises "zero vcpus"
    (Invalid_argument "Vm.config: non-positive vCPUs") (fun () ->
      ignore (Vmstate.Vm.config ~name:"x" ~vcpus:0 ()))

(* --- wire round-trips through the UISR codec put/get pairs --- *)

let wire_roundtrip put get equal v =
  let w = Uisr.Wire.Writer.create () in
  put w v;
  let r = Uisr.Wire.Reader.create (Uisr.Wire.Writer.contents w) in
  let v' = get r in
  Uisr.Wire.Reader.eof r && equal v v'

let gen_of seed = Sim.Rng.create (Int64.of_int (seed + 1))

let prop_mtrr_wire_roundtrip =
  qtest
    (QCheck.Test.make ~name:"mtrr codec roundtrip" ~count:100 QCheck.small_nat
       (fun seed ->
         wire_roundtrip Uisr.Codec.put_mtrr Uisr.Codec.get_mtrr
           Vmstate.Mtrr.equal
           (Vmstate.Mtrr.generate (gen_of seed))))

let prop_xsave_wire_roundtrip =
  qtest
    (QCheck.Test.make ~name:"xsave codec roundtrip" ~count:100 QCheck.small_nat
       (fun seed ->
         wire_roundtrip Uisr.Codec.put_xsave Uisr.Codec.get_xsave
           Vmstate.Xsave.equal
           (Vmstate.Xsave.generate (gen_of seed))))

let prop_pit_wire_roundtrip =
  qtest
    (QCheck.Test.make ~name:"pit codec roundtrip" ~count:100 QCheck.small_nat
       (fun seed ->
         wire_roundtrip Uisr.Codec.put_pit Uisr.Codec.get_pit Vmstate.Pit.equal
           (Vmstate.Pit.generate (gen_of seed))))

let prop_virtqueue_wire_roundtrip =
  qtest
    (QCheck.Test.make ~name:"virtqueue wire roundtrip" ~count:50
       QCheck.(pair (int_range 0 5) small_nat)
       (fun (size_log, seed) ->
         let q =
           Vmstate.Virtqueue.create (gen_of seed)
             ~size:(1 lsl (size_log + 1))
             ~guest_frames:65536
         in
         wire_roundtrip
           (fun w q ->
             Uisr.Wire.Writer.array w
               (Uisr.Wire.Writer.u64 w)
               (Vmstate.Virtqueue.to_words q))
           (fun r ->
             Vmstate.Virtqueue.of_words
               (Uisr.Wire.Reader.array r Uisr.Wire.Reader.u64))
           Vmstate.Virtqueue.equal q))

let suites =
  [
    ( "vmstate.regs",
      [
        Alcotest.test_case "msr lookup/update" `Quick test_regs_msr_ops;
        Alcotest.test_case "msr insert keeps order" `Quick test_regs_with_msr_sorted;
        Alcotest.test_case "equality" `Quick test_regs_equal;
      ] );
    ( "vmstate.lapic",
      [
        Alcotest.test_case "pending interrupts" `Quick test_lapic_pending;
        Alcotest.test_case "equality" `Quick test_lapic_equal_detects;
      ] );
    ( "vmstate.ioapic",
      [
        Alcotest.test_case "truncate/extend" `Quick test_ioapic_truncate_extend;
        Alcotest.test_case "truncate identity" `Quick test_ioapic_truncate_identity;
        Alcotest.test_case "invalid directions" `Quick test_ioapic_invalid;
        qtest prop_ioapic_truncate_prefix;
      ] );
    ( "vmstate.mtrr",
      [
        Alcotest.test_case "msr roundtrip" `Quick test_mtrr_msr_roundtrip;
        Alcotest.test_case "incomplete msrs" `Quick test_mtrr_incomplete_msrs;
        Alcotest.test_case "msr count" `Quick test_mtrr_msr_count;
        prop_mtrr_wire_roundtrip;
      ] );
    ( "vmstate.xsave",
      [
        Alcotest.test_case "size" `Quick test_xsave_size;
        prop_xsave_wire_roundtrip;
      ] );
    ( "vmstate.pit",
      [ prop_pit_wire_roundtrip ] );
    ( "vmstate.device",
      [
        Alcotest.test_case "unplug/rescan keeps TCP" `Quick test_device_unplug_rescan;
        Alcotest.test_case "pass-through rules" `Quick test_device_passthrough_rules;
        Alcotest.test_case "rescan needs unplug" `Quick test_device_rescan_requires_unplug;
        Alcotest.test_case "pause quiesces rings (4.2.3)" `Quick
          test_device_pause_quiesces;
      ] );
    ( "vmstate.virtqueue",
      [
        Alcotest.test_case "ring flow" `Quick test_virtqueue_flow;
        Alcotest.test_case "serialization" `Quick test_virtqueue_serialization;
        prop_virtqueue_roundtrip;
        prop_virtqueue_wire_roundtrip;
      ] );
    ( "vmstate.guest_mem",
      [
        Alcotest.test_case "shape" `Quick test_guest_mem_shape;
        Alcotest.test_case "writes and dirty bits" `Quick test_guest_mem_write_dirty;
        Alcotest.test_case "write-through" `Quick test_guest_mem_writethrough;
        Alcotest.test_case "clobber detection" `Quick test_guest_mem_clobber_detection;
        Alcotest.test_case "checksum sensitivity" `Quick
          test_guest_mem_checksum_sensitivity;
        Alcotest.test_case "extents cover memory" `Quick test_guest_mem_extents_cover;
        Alcotest.test_case "extent alignment" `Quick test_guest_mem_extents_alignment;
        Alcotest.test_case "free returns frames" `Quick test_guest_mem_free_returns;
        qtest prop_guest_mem_touch_random;
      ] );
    ( "vmstate.vm",
      [
        Alcotest.test_case "creation" `Quick test_vm_create_shape;
        Alcotest.test_case "lifecycle" `Quick test_vm_lifecycle;
        Alcotest.test_case "config validation" `Quick test_vm_config_validation;
      ] );
  ]
