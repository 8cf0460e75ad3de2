(* Tests for the state-integrity subsystem: the salvage decoder and its
   verdicts, PRAM page CRCs with per-file containment, the seeded
   corruption fuzzer, and the engine wiring (salvage-and-resume in
   InPlaceTP, verify-before-ack in MigrationTP). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let state = lazy (Integrity.Gen.vm_state ~seed:0x5EEDL ())
let blob = lazy (Uisr.Codec.encode (Lazy.force state))

(* --- salvage decoder verdicts --- *)

let test_pristine_intact () =
  let r = Uisr.Codec.decode_verified (Lazy.force blob) in
  (match r.Uisr.Integrity.verdict with
  | Uisr.Integrity.Intact -> ()
  | v -> Alcotest.fail (Format.asprintf "%a" Uisr.Integrity.pp_verdict v));
  (match r.Uisr.Integrity.state with
  | Some s ->
    checkb "state recovered" true (Uisr.Vm_state.equal s (Lazy.force state))
  | None -> Alcotest.fail "no state");
  checkb "no diagnostics" true (Uisr.Integrity.diagnostics r = []);
  checki "all sections ok" r.Uisr.Integrity.sections_total
    r.Uisr.Integrity.sections_ok

let test_salvage_pit () =
  let original = Lazy.force state in
  let mutated =
    Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_pit (Lazy.force blob)
  in
  let r = Uisr.Codec.decode_verified mutated in
  match r.Uisr.Integrity.verdict with
  | Uisr.Integrity.Salvaged diags ->
    checkb "diagnostics recorded" true (diags <> []);
    checkb "pit diag named" true
      (List.exists (fun d -> d.Uisr.Integrity.diag_section = "pit") diags);
    (match r.Uisr.Integrity.state with
    | None -> Alcotest.fail "salvage lost the state"
    | Some s ->
      checkb "vcpus preserved" true
        (List.for_all2 Vmstate.Vcpu.equal original.Uisr.Vm_state.vcpus
           s.Uisr.Vm_state.vcpus);
      checkb "devices preserved" true
        (List.length original.Uisr.Vm_state.devices
        = List.length s.Uisr.Vm_state.devices);
      checkb "pit is the reset default" true
        (Vmstate.Pit.equal s.Uisr.Vm_state.pit Uisr.Integrity.default_pit));
    checkb "one section lost" true
      (r.Uisr.Integrity.sections_ok < r.Uisr.Integrity.sections_total)
  | v -> Alcotest.fail (Format.asprintf "%a" Uisr.Integrity.pp_verdict v)

let test_fatal_section_rejected () =
  let mutated =
    Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_vcpu (Lazy.force blob)
  in
  let r = Uisr.Codec.decode_verified mutated in
  match r.Uisr.Integrity.verdict with
  | Uisr.Integrity.Rejected d ->
    checkb "vcpu named" true (d.Uisr.Integrity.diag_section = "vcpu");
    checkb "fatal" true d.Uisr.Integrity.diag_fatal
  | v -> Alcotest.fail (Format.asprintf "%a" Uisr.Integrity.pp_verdict v)

let test_envelope_only_damage_recovers_everything () =
  (* Flip a bit inside the outer CRC itself: every section checksum
     still passes, so the whole state comes back — flagged, not lost. *)
  let b = Bytes.copy (Lazy.force blob) in
  let i = Bytes.length b - 2 in
  Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 1);
  let r = Uisr.Codec.decode_verified b in
  match r.Uisr.Integrity.verdict with
  | Uisr.Integrity.Salvaged diags ->
    checkb "envelope diag" true
      (List.exists
         (fun d -> d.Uisr.Integrity.diag_section = "envelope")
         diags);
    (match r.Uisr.Integrity.state with
    | Some s ->
      checkb "full state recovered" true
        (Uisr.Vm_state.equal s (Lazy.force state))
    | None -> Alcotest.fail "no state")
  | v -> Alcotest.fail (Format.asprintf "%a" Uisr.Integrity.pp_verdict v)

let test_v1_compat () =
  let original = Lazy.force state in
  let b1 = Uisr.Codec.encode_v1 original in
  (match Uisr.Codec.decode b1 with
  | Ok s -> checkb "v1 decode" true (Uisr.Vm_state.equal s original)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Uisr.Codec.pp_error e));
  (match (Uisr.Codec.decode_verified b1).Uisr.Integrity.verdict with
  | Uisr.Integrity.Intact -> ()
  | v -> Alcotest.fail (Format.asprintf "v1 pristine: %a" Uisr.Integrity.pp_verdict v));
  (* v1 has no per-section checksums: any damage rejects the blob. *)
  let r = Uisr.Codec.decode_verified (Uisr.Codec.corrupt b1) in
  match r.Uisr.Integrity.verdict with
  | Uisr.Integrity.Rejected _ -> ()
  | v -> Alcotest.fail (Format.asprintf "v1 corrupt: %a" Uisr.Integrity.pp_verdict v)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_decode_error_carries_offset () =
  (* Satellite: Bad_format diagnostics carry byte offset and section. *)
  let mutated =
    Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_vcpu (Lazy.force blob)
  in
  (* Re-frame the outer CRC so the strict decoder reaches the damaged
     section instead of stopping at the envelope. *)
  let mutated =
    Uisr.Wire.append_crc (Bytes.sub mutated 0 (Bytes.length mutated - 4))
  in
  match Uisr.Codec.decode mutated with
  | Error (Uisr.Codec.Malformed msg) ->
    checkb "offset in message" true (contains ~needle:"at byte" msg);
    checkb "section in message" true (contains ~needle:"in section" msg)
  | _ -> Alcotest.fail "expected Malformed"

(* --- corruption mutators --- *)

let prop_mutant_never_intact_decoder_total =
  QCheck.Test.make ~count:300 ~name:"mutant never intact; decoder never raises"
    QCheck.(pair small_nat (int_bound (List.length Integrity.Corrupt.kinds - 1)))
    (fun (seed, k) ->
      let rng = Sim.Rng.create (Int64.of_int (0x1000 + seed)) in
      let kind = List.nth Integrity.Corrupt.kinds k in
      match Integrity.Corrupt.apply rng kind (Lazy.force blob) with
      | None -> true
      | Some mutated -> (
        match Uisr.Codec.decode_verified mutated with
        | exception _ -> false
        | r -> r.Uisr.Integrity.verdict <> Uisr.Integrity.Intact))

let test_fuzz_campaign () =
  let s = Integrity.Fuzz.run ~seed:0xF00DL ~cases:500 () in
  checkb
    (Format.asprintf "campaign passes: %a" Integrity.Fuzz.pp s)
    true (Integrity.Fuzz.ok s);
  checki "all cases ran" 500 s.Integrity.Fuzz.cases;
  checkb "most mutations applicable" true
    (s.Integrity.Fuzz.applied > 450);
  checkb "some damage salvaged" true (s.Integrity.Fuzz.salvaged > 0);
  checkb "some damage rejected" true (s.Integrity.Fuzz.rejected > 0);
  checkb "every mutator exercised" true
    (List.length s.Integrity.Fuzz.by_kind
    = List.length Integrity.Corrupt.kinds);
  (* Equal seeds replay the campaign bit-for-bit. *)
  let s' = Integrity.Fuzz.run ~seed:0xF00DL ~cases:500 () in
  checkb "deterministic" true (s = s')

(* --- PRAM page CRCs --- *)

let rng () = Sim.Rng.create 0x9A4DL

let pram_setup ?(vms = 3) () =
  let pmem = Hw.Pmem.create ~frames:(512 * 256) () in
  let mems =
    List.init vms (fun i ->
        ( Printf.sprintf "vm%d" i,
          Vmstate.Guest_mem.create ~pmem ~rng:(rng ())
            ~bytes:(Hw.Units.mib 32) ~page_kind:Hw.Units.Page_2m () ))
  in
  let inputs =
    List.map
      (fun (n, mem) ->
        (n, Hw.Units.mib 32, Uisr.Vm_state.memmap_of_guest_mem mem))
      mems
  in
  let image = Pram.Build.build ~pmem ~granularity:Hw.Units.Page_2m inputs in
  (pmem, image)

let test_pram_pages_stamped () =
  let _, image = pram_setup () in
  List.iter
    (fun mfn ->
      match Pram.Build.page_content image mfn with
      | None -> Alcotest.fail "file-info page missing"
      | Some page ->
        let stored = Pram.Build.stored_crc page in
        checkb "stamped" true (not (Int32.equal stored 0l));
        checkb "crc valid" true
          (Int32.equal stored (Pram.Build.page_crc page)))
    (Pram.Build.file_info_mfns image)

let test_pram_crc_containment () =
  let pmem, image = pram_setup () in
  let pointer = Pram.Build.pointer_mfn image in
  (* Pristine: every file parses. *)
  (match Pram.Parse.parse_verified ~pmem ~image pointer with
  | Ok outcomes ->
    checkb "all ok" true
      (List.for_all
         (function Pram.Parse.File_ok _ -> true | _ -> false)
         outcomes)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pram.Parse.pp_error e));
  (* Bit-rot in vm1's file-info page: only vm1 is lost. *)
  let damaged_mfn = Pram.Build.corrupt_file image ~index:1 in
  (match Pram.Parse.parse_verified ~pmem ~image pointer with
  | Error e ->
    Alcotest.fail (Format.asprintf "table lost: %a" Pram.Parse.pp_error e)
  | Ok outcomes ->
    checki "three files" 3 (List.length outcomes);
    List.iteri
      (fun i outcome ->
        match (i, outcome) with
        | 1, Pram.Parse.File_damaged (Pram.Parse.Page_crc_mismatch mfn) ->
          checkb "damaged frame identified" true
            (Hw.Frame.Mfn.to_int mfn = Hw.Frame.Mfn.to_int damaged_mfn)
        | 1, _ -> Alcotest.fail "vm1 should be damaged"
        | _, Pram.Parse.File_ok f ->
          Alcotest.check Alcotest.string "sibling name"
            (Printf.sprintf "vm%d" i) f.Pram.Parse.name
        | _, Pram.Parse.File_damaged e ->
          Alcotest.fail
            (Format.asprintf "sibling vm%d damaged: %a" i Pram.Parse.pp_error e))
      outcomes);
  (* The strict parser rejects the whole table on the same damage. *)
  match Pram.Parse.parse ~pmem ~image pointer with
  | Error (Pram.Parse.Page_crc_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "strict parse accepted bit-rot"
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pram.Parse.pp_error e)

let test_pram_legacy_unstamped_accepted () =
  let pmem, image = pram_setup ~vms:1 () in
  (* Zero every CRC slot: a pre-CRC build.  Parses fine. *)
  List.iter
    (fun mfn ->
      match Pram.Build.page_content image mfn with
      | Some page -> Bytes.set_int32_le page Pram.Build.crc_offset 0l
      | None -> ())
    (List.map fst (Pram.Build.metadata_extents image));
  match Pram.Parse.parse ~pmem ~image (Pram.Build.pointer_mfn image) with
  | Ok files -> checki "one file" 1 (List.length files)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pram.Parse.pp_error e)

(* --- engine wiring --- *)

let small_vm ?(name = "vm0") ?(vcpus = 1) ?(mib = 256)
    ?(workload = Vmstate.Vm.Wl_idle) () =
  Vmstate.Vm.config ~name ~vcpus ~ram:(Hw.Units.mib mib) ~workload ()

let xen_host ?(vms = [ small_vm () ]) () =
  Hypertp.Api.provision ~name:"ih" ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Xen
    vms

let kvm_dst ?(name = "idst") () =
  Hypertp.Api.provision ~name ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Kvm []

let one site trigger = Fault.make [ { Fault.site; trigger } ]

let test_inplace_salvage () =
  let host =
    xen_host
      ~vms:[ small_vm (); small_vm ~name:"vm1" (); small_vm ~name:"vm2" () ]
      ()
  in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Uisr_corrupt (Fault.On_vm "vm1"))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checkb "vm1 salvaged" true (List.map fst d.salvaged = [ "vm1" ]);
    checkb "salvage carries diagnostics" true
      (List.for_all (fun (_, diags) -> diags <> []) d.salvaged);
    checkb "nothing quarantined" true (d.quarantined = []);
    checkb "no full reboot" true (not d.full_reboot)
  | o -> Alcotest.fail (Format.asprintf "%a" Hypertp.Inplace.pp_outcome o));
  (* Salvage is a rung above quarantine: the VM survives. *)
  checki "all three VMs survive" 3 (Hv.Host.vm_count host);
  checkb "all running" true
    (List.for_all Vmstate.Vm.is_running (Hv.Host.vms host));
  checkb "checks hold" true (Hypertp.Inplace.all_ok r.Hypertp.Inplace.checks)

let test_inplace_pram_corrupt_quarantines () =
  let host =
    xen_host
      ~vms:[ small_vm (); small_vm ~name:"vm1" (); small_vm ~name:"vm2" () ]
      ()
  in
  let r =
    Hypertp.Api.transplant_inplace
      ~fault:(one Fault.Pram_corrupt (Fault.On_vm "vm1"))
      ~host ~target:Hv.Kind.Kvm ()
  in
  (match r.Hypertp.Inplace.outcome with
  | Hypertp.Inplace.Recovered d ->
    checkb "vm1 quarantined" true (d.quarantined = [ "vm1" ]);
    checkb "nothing salvaged" true (d.salvaged = [])
  | o -> Alcotest.fail (Format.asprintf "%a" Hypertp.Inplace.pp_outcome o));
  checki "two survivors" 2 (Hv.Host.vm_count host);
  checkb "pram check holds for siblings" true
    r.Hypertp.Inplace.checks.Hypertp.Inplace.pram_parse_ok

let test_migrate_state_retransmit () =
  let src = xen_host () and dst = kvm_dst () in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Uisr_corrupt (Fault.Nth_hit 1))
      ~src ~dst ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  checkb "completed" true (v.Hypertp.Migrate.outcome = Hypertp.Migrate.Completed);
  checki "one retransmit" 1 v.Hypertp.Migrate.state_retransmits;
  checkb "retransmit billed on the wire" true
    (v.Hypertp.Migrate.wire_bytes > v.Hypertp.Migrate.state_bytes);
  checkb "vm landed" true (Hv.Host.vm_count dst = 1 && Hv.Host.vm_count src = 0);
  checkb "memory equal" true r.Hypertp.Migrate.checks.Hypertp.Migrate.memory_equal

let test_migrate_state_corrupt_abort () =
  let src = xen_host () and dst = kvm_dst () in
  let r =
    Hypertp.Migrate.run
      ~fault:(one Fault.Uisr_corrupt (Fault.On_vm "vm0"))
      ~src ~dst ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  (match v.Hypertp.Migrate.outcome with
  | Hypertp.Migrate.Aborted_state_corruption 3 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" Hypertp.Migrate.pp_outcome o));
  checki "two retransmits burnt" 2 v.Hypertp.Migrate.state_retransmits;
  (* Non-destructive: the source VM resumes where it paused. *)
  checki "vm stays on source" 1 (Hv.Host.vm_count src);
  checki "nothing on destination" 0 (Hv.Host.vm_count dst);
  checkb "source vm running" true
    (List.for_all Vmstate.Vm.is_running (Hv.Host.vms src))

let test_new_fault_sites_parse () =
  (match Fault.parse_injection "uisr_corrupt:vm=vm1" with
  | Ok { Fault.site = Fault.Uisr_corrupt; trigger = Fault.On_vm "vm1" } -> ()
  | _ -> Alcotest.fail "uisr_corrupt:vm=vm1");
  (match Fault.parse_injection "pram_corrupt:1" with
  | Ok { Fault.site = Fault.Pram_corrupt; trigger = Fault.Nth_hit 1 } -> ()
  | _ -> Alcotest.fail "pram_corrupt:1");
  checkb "engine sites include corruption" true
    (List.mem Fault.Uisr_corrupt Fault.engine_sites
    && List.mem Fault.Pram_corrupt Fault.engine_sites);
  checkb "post-PNR" true
    ((not (Fault.pre_pnr Fault.Uisr_corrupt))
    && not (Fault.pre_pnr Fault.Pram_corrupt))

(* --- the PRAM-preserved frame map check --- *)

let memmap_extents (st : Uisr.Vm_state.t) =
  List.map (fun (e : Uisr.Vm_state.memmap_entry) -> (e.mfn, e.frames)) st.memmap

let test_memmap_uncovered_tail () =
  let st = Lazy.force state in
  (* Cover every entry but the last of the 2 MiB ones, whose tail half
     is missing: the diagnostic names its first uncovered frame. *)
  let victim =
    List.fold_left
      (fun acc (e : Uisr.Vm_state.memmap_entry) -> if e.frames >= 2 then Some e else acc)
      None st.memmap
    |> Option.get
  in
  let half = victim.frames / 2 in
  let extents =
    List.map
      (fun (mfn, frames) -> if Hw.Frame.Mfn.equal mfn victim.mfn then (mfn, half) else (mfn, frames))
      (memmap_extents st)
  in
  let preserved = Hw.Extent_set.of_extents extents in
  match (Uisr.Codec.decode_verified ~preserved (Lazy.force blob)).Uisr.Integrity.verdict with
  | Uisr.Integrity.Rejected d ->
    Alcotest.check Alcotest.string "names the first uncovered mfn"
      (Printf.sprintf "mfn %d not resolvable in the PRAM-preserved frame map"
         (Hw.Frame.Mfn.to_int victim.mfn + half))
      d.Uisr.Integrity.diag_reason;
    Alcotest.check Alcotest.string "memmap section" "memmap"
      d.Uisr.Integrity.diag_section
  | v -> Alcotest.fail (Format.asprintf "expected rejection, got %a" Uisr.Integrity.pp_verdict v)

let test_memmap_covered_intact () =
  let st = Lazy.force state in
  let intact name extents =
    match
      (Uisr.Codec.decode_verified ~preserved:(Hw.Extent_set.of_extents extents)
         (Lazy.force blob)).Uisr.Integrity.verdict
    with
    | Uisr.Integrity.Intact -> ()
    | v -> Alcotest.fail (Format.asprintf "%s: %a" name Uisr.Integrity.pp_verdict v)
  in
  intact "exactly the memory map" (memmap_extents st);
  (* Every entry as two adjacent halves (or single frames), which the
     set coalesces back into one extent. *)
  intact "adjacent halves coalesce"
    (List.concat_map
       (fun (mfn, frames) ->
         if frames < 2 then [ (mfn, frames) ]
         else
           let h = frames / 2 in
           [ (Hw.Frame.Mfn.add mfn h, frames - h); (mfn, h) ])
       (memmap_extents st));
  (* And a superset: the whole address range the map touches. *)
  let hi =
    List.fold_left
      (fun acc (mfn, frames) -> Stdlib.max acc (Hw.Frame.Mfn.to_int mfn + frames))
      0 (memmap_extents st)
  in
  intact "one covering extent" [ (Hw.Frame.Mfn.of_int 0, hi) ]

let suites =
  [
    ( "integrity.decoder",
      [
        Alcotest.test_case "pristine intact" `Quick test_pristine_intact;
        Alcotest.test_case "memmap tail outside PRAM rejected" `Quick
          test_memmap_uncovered_tail;
        Alcotest.test_case "memmap covered by PRAM intact" `Quick
          test_memmap_covered_intact;
        Alcotest.test_case "pit salvage" `Quick test_salvage_pit;
        Alcotest.test_case "fatal section rejected" `Quick
          test_fatal_section_rejected;
        Alcotest.test_case "envelope-only damage" `Quick
          test_envelope_only_damage_recovers_everything;
        Alcotest.test_case "v1 compatibility" `Quick test_v1_compat;
        Alcotest.test_case "error carries offset" `Quick
          test_decode_error_carries_offset;
      ] );
    ( "integrity.fuzz",
      [
        qtest prop_mutant_never_intact_decoder_total;
        Alcotest.test_case "seeded campaign" `Quick test_fuzz_campaign;
      ] );
    ( "integrity.pram",
      [
        Alcotest.test_case "pages stamped" `Quick test_pram_pages_stamped;
        Alcotest.test_case "per-file containment" `Quick
          test_pram_crc_containment;
        Alcotest.test_case "legacy unstamped accepted" `Quick
          test_pram_legacy_unstamped_accepted;
      ] );
    ( "integrity.engines",
      [
        Alcotest.test_case "inplace salvage" `Quick test_inplace_salvage;
        Alcotest.test_case "inplace pram containment" `Quick
          test_inplace_pram_corrupt_quarantines;
        Alcotest.test_case "migrate retransmit" `Quick
          test_migrate_state_retransmit;
        Alcotest.test_case "migrate corrupt abort" `Quick
          test_migrate_state_corrupt_abort;
        Alcotest.test_case "fault sites parse" `Quick
          test_new_fault_sites_parse;
      ] );
  ]
