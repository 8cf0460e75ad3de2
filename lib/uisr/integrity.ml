(* Structured integrity verdicts for decoded UISR state, plus the
   semantic validator that runs behind [Codec.decode_verified].

   The envelope layer (magic, version, per-section CRCs) catches
   bit-rot; this layer catches state that is well-formed on the wire
   but architecturally impossible — the "CRC-preserving" corruption a
   buggy or hostile encoder could produce. *)

type diagnostic = {
  diag_section : string;
  diag_offset : int option;
  diag_reason : string;
  diag_fatal : bool;
}

type verdict =
  | Intact
  | Salvaged of diagnostic list
  | Rejected of diagnostic

type report = {
  verdict : verdict;
  state : Vm_state.t option;
  sections_total : int;
  sections_ok : int;
}

let diag ?offset ~section ~fatal reason =
  { diag_section = section; diag_offset = offset; diag_reason = reason;
    diag_fatal = fatal }

let pp_diagnostic fmt d =
  Diag.pp fmt
    ~label:(if d.diag_fatal then "fatal" else "salvageable")
    ~subject:d.diag_section ?offset:d.diag_offset d.diag_reason

let pp_verdict fmt = function
  | Intact -> Format.pp_print_string fmt "intact"
  | Salvaged ds -> Format.fprintf fmt "salvaged (%d diagnostics)" (List.length ds)
  | Rejected d -> Format.fprintf fmt "rejected (%a)" pp_diagnostic d

let pp_report fmt r =
  Format.fprintf fmt "%a, %d/%d sections ok" pp_verdict r.verdict r.sections_ok
    r.sections_total

let diagnostics r =
  match r.verdict with
  | Intact -> []
  | Salvaged ds -> ds
  | Rejected d -> [ d ]

(* --- substitute state for salvageable sections --- *)

let default_pit : Vmstate.Pit.t =
  let ch mode =
    { Vmstate.Pit.count = 0; latched_count = 0; status = 0; read_state = 0;
      write_state = 0; mode; bcd = false; gate = true }
  in
  (* Power-on-ish: channel 0 as the rate generator for the tick. *)
  { channels = [| ch 2; ch 0; ch 0 |]; speaker_data_on = false }

let default_ioapic ~pins : Vmstate.Ioapic.t =
  let masked =
    { Vmstate.Ioapic.vector = 0; delivery_mode = 0; dest_mode = 0;
      polarity = 0; trigger_mode = 0; masked = true; dest = 0 }
  in
  { id = 0; pins = Array.make (max pins 1) masked }

(* --- semantic validation --- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_lapic ~section (l : Vmstate.Lapic.t) acc =
  let acc =
    if Array.length l.isr <> 4 || Array.length l.irr <> 4
       || Array.length l.tmr <> 4
    then diag ~section ~fatal:true "LAPIC ISR/IRR/TMR must be 256-bit" :: acc
    else begin
      (* Vectors 0-15 are architecturally illegal interrupt vectors. *)
      let low16 w = Int64.logand w.(0) 0xFFFFL in
      let bad name w =
        if not (Int64.equal (low16 w) 0L) then
          Some (diag ~section ~fatal:true
                  (Printf.sprintf "LAPIC %s has illegal vectors < 16" name))
        else None
      in
      List.filter_map Fun.id
        [ bad "ISR" l.isr; bad "IRR" l.irr; bad "TMR" l.tmr ]
      @ acc
    end
  in
  if Array.length l.lvt <> 7 then
    diag ~section ~fatal:true
      (Printf.sprintf "LAPIC LVT has %d entries, expected 7"
         (Array.length l.lvt))
    :: acc
  else acc

let mtrr_type_valid t = t = 0 || t = 1 || t = 4 || t = 5 || t = 6

let validate_mtrr ~section (m : Vmstate.Mtrr.t) acc =
  let acc =
    if Array.length m.fixed <> Vmstate.Mtrr.fixed_count then
      diag ~section ~fatal:true
        (Printf.sprintf "MTRR has %d fixed registers, expected %d"
           (Array.length m.fixed) Vmstate.Mtrr.fixed_count)
      :: acc
    else acc
  in
  let acc =
    if Array.length m.variable <> Vmstate.Mtrr.variable_count then
      diag ~section ~fatal:true
        (Printf.sprintf "MTRR has %d variable ranges, expected %d"
           (Array.length m.variable) Vmstate.Mtrr.variable_count)
      :: acc
    else acc
  in
  let acc =
    if not (mtrr_type_valid (m.def_type land 0xFF)) then
      diag ~section ~fatal:true
        (Printf.sprintf "MTRR default memory type %d invalid"
           (m.def_type land 0xFF))
      :: acc
    else acc
  in
  let valid_ranges =
    Array.to_list m.variable
    |> List.filter (fun (r : Vmstate.Mtrr.variable_range) ->
           Int64.logand r.mask 0x800L <> 0L)
  in
  let acc =
    List.fold_left
      (fun acc (r : Vmstate.Mtrr.variable_range) ->
        let ty = Int64.to_int (Int64.logand r.base 0xFFL) in
        if not (mtrr_type_valid ty) then
          diag ~section ~fatal:true
            (Printf.sprintf "MTRR variable range memory type %d invalid" ty)
          :: acc
        else if Int64.logand r.base 0xF00L <> 0L then
          diag ~section ~fatal:true "MTRR variable range base reserved bits set"
          :: acc
        else acc)
      acc valid_ranges
  in
  (* Overlap rule: two valid ranges that can cover the same address must
     agree on type unless one of them is UC (which always wins). *)
  let addr_bits = 0xFFFFFF000L in
  let rec overlaps acc = function
    | [] -> acc
    | (a : Vmstate.Mtrr.variable_range) :: rest ->
      let acc =
        List.fold_left
          (fun acc (b : Vmstate.Mtrr.variable_range) ->
            let m =
              Int64.logand addr_bits (Int64.logand a.mask b.mask)
            in
            let same_region =
              Int64.equal (Int64.logand a.base m) (Int64.logand b.base m)
            in
            let ta = Int64.to_int (Int64.logand a.base 0xFFL) in
            let tb = Int64.to_int (Int64.logand b.base 0xFFL) in
            if same_region && ta <> tb && ta <> 0 && tb <> 0 then
              diag ~section ~fatal:true
                (Printf.sprintf
                   "overlapping MTRR ranges with conflicting types %d/%d" ta tb)
              :: acc
            else acc)
          acc rest
      in
      overlaps acc rest
  in
  overlaps acc valid_ranges

let validate_xsave ~section (x : Vmstate.Xsave.t) acc =
  let acc =
    if Int64.logand x.xcr0 1L = 0L then
      diag ~section ~fatal:true "XCR0 bit 0 (x87) must be set" :: acc
    else acc
  in
  let acc =
    if Int64.logand x.xstate_bv (Int64.lognot x.xcr0) <> 0L then
      diag ~section ~fatal:true "XSTATE_BV enables components outside XCR0"
      :: acc
    else acc
  in
  let rec comps prev acc = function
    | [] -> acc
    | (c : Vmstate.Xsave.component) :: rest ->
      let acc =
        if c.id < 0 || c.id > 62 then
          diag ~section ~fatal:true
            (Printf.sprintf "XSAVE component id %d out of range" c.id)
          :: acc
        else if c.id <= prev then
          diag ~section ~fatal:true
            (Printf.sprintf "XSAVE component ids not strictly increasing at %d"
               c.id)
          :: acc
        else if Int64.logand x.xstate_bv (Int64.shift_left 1L c.id) = 0L then
          diag ~section ~fatal:true
            (Printf.sprintf "XSAVE component %d not enabled in XSTATE_BV" c.id)
          :: acc
        else if Array.length c.data <> Vmstate.Xsave.component_words c.id then
          diag ~section ~fatal:true
            (Printf.sprintf
               "XSAVE component %d area is %d words, architecture says %d" c.id
               (Array.length c.data)
               (Vmstate.Xsave.component_words c.id))
          :: acc
        else acc
      in
      comps (max prev c.id) acc rest
  in
  comps (-1) acc x.components

let validate_vcpus t acc =
  match t.Vm_state.vcpus with
  | [] ->
    [ diag ~section:"vcpu" ~fatal:true "VM has no vCPUs" ]
  | vcpus ->
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc (v : Vmstate.Vcpu.t) ->
        let section = Printf.sprintf "vcpu[%d]" v.index in
        let acc =
          if Hashtbl.mem seen v.index then
            diag ~section ~fatal:true
              (Printf.sprintf "duplicate vCPU index %d" v.index)
            :: acc
          else begin
            Hashtbl.add seen v.index ();
            acc
          end
        in
        acc
        |> validate_lapic ~section v.lapic
        |> validate_mtrr ~section v.mtrr
        |> validate_xsave ~section v.xsave)
      acc vcpus

let validate_ioapic (io : Vmstate.Ioapic.t) acc =
  let section = "ioapic" in
  let acc =
    if Array.length io.pins = 0 then
      diag ~section ~fatal:false "IOAPIC has no pins" :: acc
    else acc
  in
  Array.to_list io.pins
  |> List.mapi (fun i p -> (i, p))
  |> List.fold_left
       (fun acc (i, (p : Vmstate.Ioapic.redirection)) ->
         if p.delivery_mode > 7 || p.dest_mode > 1 || p.polarity > 1
            || p.trigger_mode > 1
         then
           diag ~section ~fatal:false
             (Printf.sprintf "pin %d has out-of-range redirection fields" i)
           :: acc
         else if (not p.masked) && p.vector < 0x10 then
           diag ~section ~fatal:false
             (Printf.sprintf "unmasked pin %d routes illegal vector %d" i
                p.vector)
           :: acc
         else acc)
       acc

let validate_pit (p : Vmstate.Pit.t) acc =
  if Array.length p.channels <> 3 then
    diag ~section:"pit" ~fatal:false
      (Printf.sprintf "PIT has %d channels, expected 3"
         (Array.length p.channels))
    :: acc
  else acc

let validate_devices t acc =
  let section = "devices" in
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (d : Vm_state.device_snapshot) ->
      let acc =
        if Hashtbl.mem seen d.dev_id then
          diag ~section ~fatal:true
            (Printf.sprintf "duplicate device id %d" d.dev_id)
          :: acc
        else begin
          Hashtbl.add seen d.dev_id ();
          acc
        end
      in
      let acc =
        if d.dev_unplugged
           && (Array.length d.dev_emulation_state > 0
              || Array.length d.dev_queues > 0)
        then
          diag ~section ~fatal:true
            (Printf.sprintf "unplugged device %d still carries state" d.dev_id)
          :: acc
        else acc
      in
      (* Every serialized queue must be a decodable virtqueue with sane
         indices (of_words checks ring size, framing and used<=avail). *)
      Array.to_list d.dev_queues
      |> List.mapi (fun qi q -> (qi, q))
      |> List.fold_left
           (fun acc (qi, q) ->
             match Vmstate.Virtqueue.of_words q with
             | (_ : Vmstate.Virtqueue.t) -> acc
             | exception Invalid_argument msg ->
               diag ~section ~fatal:true
                 (Printf.sprintf "device %d queue %d: %s" d.dev_id qi msg)
               :: acc)
           acc)
    acc t.Vm_state.devices

let validate_memmap ?preserved t acc =
  let section = "memmap" in
  let entries = t.Vm_state.memmap in
  let acc =
    List.fold_left
      (fun acc (e : Vm_state.memmap_entry) ->
        if not (is_pow2 e.frames) then
          diag ~section ~fatal:true
            (Printf.sprintf "entry at gfn %d has non-power-of-two size %d"
               (Hw.Frame.Gfn.to_int e.gfn) e.frames)
          :: acc
        else acc)
      acc entries
  in
  let sorted =
    List.sort
      (fun (a : Vm_state.memmap_entry) b ->
        compare (Hw.Frame.Gfn.to_int a.gfn) (Hw.Frame.Gfn.to_int b.gfn))
      entries
  in
  let rec disjoint acc = function
    | (a : Vm_state.memmap_entry) :: (b :: _ as rest) ->
      let acc =
        if Hw.Frame.Gfn.to_int a.gfn + a.frames > Hw.Frame.Gfn.to_int b.gfn
        then
          diag ~section ~fatal:true
            (Printf.sprintf "entries overlap at gfn %d"
               (Hw.Frame.Gfn.to_int b.gfn))
          :: acc
        else acc
      in
      disjoint acc rest
    | _ -> acc
  in
  let acc = disjoint acc sorted in
  let expected = Hw.Units.frames_of_bytes t.Vm_state.ram_bytes in
  let total = Vm_state.total_mapped_frames t in
  let acc =
    if total <> expected then
      diag ~section ~fatal:true
        (Printf.sprintf "maps %d frames but the VM has %d frames of RAM" total
           expected)
      :: acc
    else acc
  in
  match preserved with
  | None -> acc
  | Some set ->
    (* One range query per entry, naming the first uncovered frame. *)
    List.fold_left
      (fun acc (e : Vm_state.memmap_entry) ->
        match Hw.Extent_set.first_absent set e.mfn e.frames with
        | None -> acc
        | Some mfn ->
          diag ~section ~fatal:true
            (Printf.sprintf
               "mfn %d not resolvable in the PRAM-preserved frame map"
               (Hw.Frame.Mfn.to_int mfn))
          :: acc)
      acc entries

let validate_vm_info t acc =
  let section = "vm_info" in
  let acc =
    if String.length t.Vm_state.vm_name = 0 then
      diag ~section ~fatal:true "empty VM name" :: acc
    else acc
  in
  if t.Vm_state.ram_bytes <= 0 then
    diag ~section ~fatal:true "non-positive RAM size" :: acc
  else acc

let validate ?preserved (t : Vm_state.t) =
  []
  |> validate_vm_info t
  |> validate_vcpus t
  |> validate_ioapic t.ioapic
  |> validate_pit t.pit
  |> validate_devices t
  |> validate_memmap ?preserved t
  |> List.rev

let verdict_of ~outer_ok ~scan_diags ~semantic_diags ~state ~sections_total
    ~sections_ok =
  let diags = scan_diags @ semantic_diags in
  match List.find_opt (fun d -> d.diag_fatal) diags with
  | Some d -> { verdict = Rejected d; state = None; sections_total; sections_ok }
  | None ->
    if diags = [] && outer_ok then
      { verdict = Intact; state = Some state; sections_total; sections_ok }
    else
      let diags =
        if outer_ok then diags
        else
          diag ~section:"envelope" ~fatal:false
            "outer CRC mismatch (recovered from per-section checksums)"
          :: diags
      in
      { verdict = Salvaged diags; state = Some state; sections_total;
        sections_ok }

let rejected ?offset ~section ~sections_total ~sections_ok reason =
  { verdict = Rejected (diag ?offset ~section ~fatal:true reason);
    state = None; sections_total; sections_ok }
