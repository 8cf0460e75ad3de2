type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Crc_mismatch of string
  | Malformed of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated blob"
  | Bad_magic -> Format.pp_print_string fmt "bad magic"
  | Unsupported_version v -> Format.fprintf fmt "unsupported version %d" v
  | Crc_mismatch msg -> Format.fprintf fmt "crc mismatch: %s" msg
  | Malformed msg -> Format.fprintf fmt "malformed: %s" msg

let format_version = 2
let legacy_format_version = 1
let magic = "UISR"

(* v2 envelope flags byte. *)
let flag_section_crcs = 0x01

(* Section tags. *)
let tag_vm_info = 0x0001
let tag_vcpu = 0x0010
let tag_ioapic = 0x0011
let tag_pit = 0x0012
let tag_devices = 0x0020
let tag_memmap = 0x0030

let section_name tag =
  if tag = tag_vm_info then "vm_info"
  else if tag = tag_vcpu then "vcpu"
  else if tag = tag_ioapic then "ioapic"
  else if tag = tag_pit then "pit"
  else if tag = tag_devices then "devices"
  else if tag = tag_memmap then "memmap"
  else Printf.sprintf "tag 0x%04x" tag

open Wire

(* --- encoders --- *)

let put_gprs w (g : Vmstate.Regs.gprs) =
  List.iter (Writer.u64 w)
    [ g.rax; g.rbx; g.rcx; g.rdx; g.rsi; g.rdi; g.rsp; g.rbp;
      g.r8; g.r9; g.r10; g.r11; g.r12; g.r13; g.r14; g.r15;
      g.rip; g.rflags ]

let put_segment w (s : Vmstate.Regs.segment) =
  Writer.u16 w s.selector;
  Writer.u64 w s.base;
  Writer.i32 w s.limit;
  Writer.u16 w s.attrs

let put_sregs w (s : Vmstate.Regs.sregs) =
  List.iter (put_segment w) [ s.cs; s.ds; s.es; s.fs; s.gs; s.ss; s.tr; s.ldt ];
  List.iter (Writer.u64 w) [ s.cr0; s.cr2; s.cr3; s.cr4; s.efer; s.apic_base ]

let put_msr w (m : Vmstate.Regs.msr) =
  Writer.u32 w m.index;
  Writer.u64 w m.value

let put_fpu w (f : Vmstate.Regs.fpu) =
  Writer.u16 w f.fcw;
  Writer.u16 w f.fsw;
  Writer.u16 w f.ftw;
  Writer.i32 w f.mxcsr;
  Writer.array w (Writer.u64 w) f.st;
  Writer.array w (Writer.u64 w) f.xmm

let put_lapic w (l : Vmstate.Lapic.t) =
  Writer.u32 w l.apic_id;
  Writer.u32 w l.version;
  Writer.u8 w l.tpr;
  Writer.i32 w l.ldr;
  Writer.i32 w l.dfr;
  Writer.i32 w l.svr;
  Writer.array w (Writer.u64 w) l.isr;
  Writer.array w (Writer.u64 w) l.irr;
  Writer.array w (Writer.u64 w) l.tmr;
  Writer.array w (Writer.i32 w) l.lvt;
  Writer.i32 w l.timer_dcr;
  Writer.i32 w l.timer_icr;
  Writer.i32 w l.timer_ccr;
  Writer.bool w l.enabled

let put_mtrr w (m : Vmstate.Mtrr.t) =
  Writer.u32 w m.def_type;
  Writer.array w (Writer.u64 w) m.fixed;
  Writer.array w
    (fun (r : Vmstate.Mtrr.variable_range) ->
      Writer.u64 w r.base;
      Writer.u64 w r.mask)
    m.variable

let put_xsave w (x : Vmstate.Xsave.t) =
  Writer.u64 w x.xcr0;
  Writer.u64 w x.xstate_bv;
  Writer.list w
    (fun (c : Vmstate.Xsave.component) ->
      Writer.u32 w c.id;
      Writer.array w (Writer.u64 w) c.data)
    x.components

let put_vcpu w (v : Vmstate.Vcpu.t) =
  Writer.u32 w v.index;
  put_gprs w v.regs.gprs;
  put_sregs w v.regs.sregs;
  Writer.list w (put_msr w) v.regs.msrs;
  put_fpu w v.regs.fpu;
  put_lapic w v.lapic;
  put_mtrr w v.mtrr;
  put_xsave w v.xsave

let put_ioapic w (io : Vmstate.Ioapic.t) =
  Writer.u32 w io.id;
  Writer.array w
    (fun (r : Vmstate.Ioapic.redirection) ->
      Writer.u8 w r.vector;
      Writer.u8 w r.delivery_mode;
      Writer.u8 w r.dest_mode;
      Writer.u8 w r.polarity;
      Writer.u8 w r.trigger_mode;
      Writer.bool w r.masked;
      Writer.u8 w r.dest)
    io.pins

let put_pit w (p : Vmstate.Pit.t) =
  Writer.array w
    (fun (c : Vmstate.Pit.channel) ->
      Writer.u16 w c.count;
      Writer.u16 w c.latched_count;
      Writer.u8 w c.status;
      Writer.u8 w c.read_state;
      Writer.u8 w c.write_state;
      Writer.u8 w c.mode;
      Writer.bool w c.bcd;
      Writer.bool w c.gate)
    p.channels;
  Writer.bool w p.speaker_data_on

let device_kind_code = function
  | Vmstate.Device.Net_emulated -> 0
  | Vmstate.Device.Net_passthrough -> 1
  | Vmstate.Device.Blk_emulated -> 2
  | Vmstate.Device.Blk_passthrough -> 3
  | Vmstate.Device.Serial_console -> 4

let device_kind_of_code r = function
  | 0 -> Vmstate.Device.Net_emulated
  | 1 -> Vmstate.Device.Net_passthrough
  | 2 -> Vmstate.Device.Blk_emulated
  | 3 -> Vmstate.Device.Blk_passthrough
  | 4 -> Vmstate.Device.Serial_console
  | n -> Reader.fail r (Printf.sprintf "device kind %d" n)

let put_device w (d : Vm_state.device_snapshot) =
  Writer.u32 w d.dev_id;
  Writer.u8 w (device_kind_code d.dev_kind);
  Writer.bool w d.dev_unplugged;
  Writer.array w (Writer.u64 w) d.dev_emulation_state;
  Writer.array w (fun q -> Writer.array w (Writer.u64 w) q) d.dev_queues;
  Writer.u32 w d.dev_tcp_connections

let put_memmap_entry w (e : Vm_state.memmap_entry) =
  Writer.u64 w (Int64.of_int (Hw.Frame.Gfn.to_int e.gfn));
  Writer.u64 w (Int64.of_int (Hw.Frame.Mfn.to_int e.mfn));
  Writer.u32 w e.frames

let put_vm_info ~wstring w (t : Vm_state.t) =
  wstring w t.vm_name;
  wstring w t.source_hypervisor;
  Writer.u8 w (match t.page_kind with Hw.Units.Page_4k -> 0 | Hw.Units.Page_2m -> 1);
  Writer.u64 w (Int64.of_int t.ram_bytes);
  (match t.workload with
  | Vmstate.Vm.Wl_idle -> Writer.u8 w 0; wstring w ""
  | Vmstate.Vm.Wl_redis -> Writer.u8 w 1; wstring w ""
  | Vmstate.Vm.Wl_mysql -> Writer.u8 w 2; wstring w ""
  | Vmstate.Vm.Wl_spec app -> Writer.u8 w 3; wstring w app
  | Vmstate.Vm.Wl_darknet -> Writer.u8 w 4; wstring w ""
  | Vmstate.Vm.Wl_streaming -> Writer.u8 w 5; wstring w "");
  Writer.bool w t.inplace_compatible

(* One pooled writer shared across every encode: per-VM translation in
   a fleet campaign reuses the same backing buffer and section scratch
   pool instead of allocating O(sections) buffers per VM.  Safe because
   encoding is synchronous and non-reentrant (section bodies only call
   put_* helpers), and [Writer.contents] copies the bytes out. *)
let pooled_writer = lazy (Writer.create ())

let encode_body ~version (t : Vm_state.t) =
  let w = Lazy.force pooled_writer in
  Writer.reset w;
  (* header *)
  Writer.u8 w (Char.code magic.[0]);
  Writer.u8 w (Char.code magic.[1]);
  Writer.u8 w (Char.code magic.[2]);
  Writer.u8 w (Char.code magic.[3]);
  Writer.u16 w version;
  let wstring, wsection =
    if version >= 2 then begin
      Writer.u8 w flag_section_crcs;
      (Writer.string, Writer.section_crc)
    end
    else (Writer.string16, Writer.section)
  in
  wsection w ~tag:tag_vm_info (fun w -> put_vm_info ~wstring w t);
  List.iter
    (fun v -> wsection w ~tag:tag_vcpu (fun w -> put_vcpu w v))
    t.vcpus;
  wsection w ~tag:tag_ioapic (fun w -> put_ioapic w t.ioapic);
  wsection w ~tag:tag_pit (fun w -> put_pit w t.pit);
  wsection w ~tag:tag_devices (fun w ->
      Writer.list w (put_device w) t.devices);
  wsection w ~tag:tag_memmap (fun w ->
      Writer.list w (put_memmap_entry w) t.memmap);
  Writer.contents w

let encode t = Wire.append_crc (encode_body ~version:format_version t)
let encode_v1 t = Wire.append_crc (encode_body ~version:legacy_format_version t)

(* --- decoders --- *)

let get_gprs r : Vmstate.Regs.gprs =
  let u () = Reader.u64 r in
  let rax = u () in let rbx = u () in let rcx = u () in let rdx = u () in
  let rsi = u () in let rdi = u () in let rsp = u () in let rbp = u () in
  let r8 = u () in let r9 = u () in let r10 = u () in let r11 = u () in
  let r12 = u () in let r13 = u () in let r14 = u () in let r15 = u () in
  let rip = u () in let rflags = u () in
  { rax; rbx; rcx; rdx; rsi; rdi; rsp; rbp; r8; r9; r10; r11; r12; r13;
    r14; r15; rip; rflags }

let get_segment r : Vmstate.Regs.segment =
  let selector = Reader.u16 r in
  let base = Reader.u64 r in
  let limit = Reader.i32 r in
  let attrs = Reader.u16 r in
  { selector; base; limit; attrs }

let get_sregs r : Vmstate.Regs.sregs =
  let cs = get_segment r in let ds = get_segment r in
  let es = get_segment r in let fs = get_segment r in
  let gs = get_segment r in let ss = get_segment r in
  let tr = get_segment r in let ldt = get_segment r in
  let cr0 = Reader.u64 r in let cr2 = Reader.u64 r in
  let cr3 = Reader.u64 r in let cr4 = Reader.u64 r in
  let efer = Reader.u64 r in let apic_base = Reader.u64 r in
  { cs; ds; es; fs; gs; ss; tr; ldt; cr0; cr2; cr3; cr4; efer; apic_base }

let get_msr r : Vmstate.Regs.msr =
  let index = Reader.u32 r in
  let value = Reader.u64 r in
  { index; value }

let get_fpu r : Vmstate.Regs.fpu =
  let fcw = Reader.u16 r in
  let fsw = Reader.u16 r in
  let ftw = Reader.u16 r in
  let mxcsr = Reader.i32 r in
  let st = Reader.array r Reader.u64 in
  let xmm = Reader.array r Reader.u64 in
  { fcw; fsw; ftw; mxcsr; st; xmm }

let get_lapic r : Vmstate.Lapic.t =
  let apic_id = Reader.u32 r in
  let version = Reader.u32 r in
  let tpr = Reader.u8 r in
  let ldr = Reader.i32 r in
  let dfr = Reader.i32 r in
  let svr = Reader.i32 r in
  let isr = Reader.array r Reader.u64 in
  let irr = Reader.array r Reader.u64 in
  let tmr = Reader.array r Reader.u64 in
  let lvt = Reader.array r Reader.i32 in
  let timer_dcr = Reader.i32 r in
  let timer_icr = Reader.i32 r in
  let timer_ccr = Reader.i32 r in
  let enabled = Reader.bool r in
  { apic_id; version; tpr; ldr; dfr; svr; isr; irr; tmr; lvt; timer_dcr;
    timer_icr; timer_ccr; enabled }

let get_mtrr r : Vmstate.Mtrr.t =
  let def_type = Reader.u32 r in
  let fixed = Reader.array r Reader.u64 in
  let variable =
    Reader.array r (fun r ->
        let base = Reader.u64 r in
        let mask = Reader.u64 r in
        { Vmstate.Mtrr.base; mask })
  in
  { def_type; fixed; variable }

let get_xsave r : Vmstate.Xsave.t =
  let xcr0 = Reader.u64 r in
  let xstate_bv = Reader.u64 r in
  let components =
    Reader.list r (fun r ->
        let id = Reader.u32 r in
        let data = Reader.array r Reader.u64 in
        { Vmstate.Xsave.id; data })
  in
  { xcr0; xstate_bv; components }

let get_vcpu r : Vmstate.Vcpu.t =
  let index = Reader.u32 r in
  let gprs = get_gprs r in
  let sregs = get_sregs r in
  let msrs = Reader.list r get_msr in
  let fpu = get_fpu r in
  let lapic = get_lapic r in
  let mtrr = get_mtrr r in
  let xsave = get_xsave r in
  { index; regs = { gprs; sregs; msrs; fpu }; lapic; mtrr; xsave }

let get_ioapic r : Vmstate.Ioapic.t =
  let id = Reader.u32 r in
  let pins =
    Reader.array r (fun r ->
        let vector = Reader.u8 r in
        let delivery_mode = Reader.u8 r in
        let dest_mode = Reader.u8 r in
        let polarity = Reader.u8 r in
        let trigger_mode = Reader.u8 r in
        let masked = Reader.bool r in
        let dest = Reader.u8 r in
        { Vmstate.Ioapic.vector; delivery_mode; dest_mode; polarity;
          trigger_mode; masked; dest })
  in
  { id; pins }

let get_pit r : Vmstate.Pit.t =
  let channels =
    Reader.array r (fun r ->
        let count = Reader.u16 r in
        let latched_count = Reader.u16 r in
        let status = Reader.u8 r in
        let read_state = Reader.u8 r in
        let write_state = Reader.u8 r in
        let mode = Reader.u8 r in
        let bcd = Reader.bool r in
        let gate = Reader.bool r in
        { Vmstate.Pit.count; latched_count; status; read_state; write_state;
          mode; bcd; gate })
  in
  let speaker_data_on = Reader.bool r in
  { channels; speaker_data_on }

let get_device r : Vm_state.device_snapshot =
  let dev_id = Reader.u32 r in
  let dev_kind = device_kind_of_code r (Reader.u8 r) in
  let dev_unplugged = Reader.bool r in
  let dev_emulation_state = Reader.array r Reader.u64 in
  let dev_queues = Reader.array r (fun r -> Reader.array r Reader.u64) in
  let dev_tcp_connections = Reader.u32 r in
  { dev_id; dev_kind; dev_unplugged; dev_emulation_state; dev_queues;
    dev_tcp_connections }

let get_memmap_entry r : Vm_state.memmap_entry =
  let gfn = Hw.Frame.Gfn.of_int (Int64.to_int (Reader.u64 r)) in
  let mfn = Hw.Frame.Mfn.of_int (Int64.to_int (Reader.u64 r)) in
  let frames = Reader.u32 r in
  { gfn; mfn; frames }

type partial = {
  mutable p_name : string option;
  mutable p_source : string option;
  mutable p_page_kind : Hw.Units.page_kind option;
  mutable p_ram : int option;
  mutable p_workload : Vmstate.Vm.workload_kind option;
  mutable p_inplace : bool option;
  mutable p_vcpus : Vmstate.Vcpu.t list; (* reversed *)
  mutable p_ioapic : Vmstate.Ioapic.t option;
  mutable p_pit : Vmstate.Pit.t option;
  mutable p_devices : Vm_state.device_snapshot list option;
  mutable p_memmap : Vm_state.memmap_entry list option;
}

let empty_partial () =
  { p_name = None; p_source = None; p_page_kind = None; p_ram = None;
    p_workload = None; p_inplace = None;
    p_vcpus = []; p_ioapic = None; p_pit = None; p_devices = None;
    p_memmap = None }

let get_vm_info ~rstring r p =
  p.p_name <- Some (rstring r);
  p.p_source <- Some (rstring r);
  p.p_page_kind <-
    Some
      (match Reader.u8 r with
      | 0 -> Hw.Units.Page_4k
      | 1 -> Hw.Units.Page_2m
      | n -> Reader.fail r (Printf.sprintf "page kind %d" n));
  p.p_ram <- Some (Int64.to_int (Reader.u64 r));
  let wl_code = Reader.u8 r in
  let wl_arg = rstring r in
  p.p_workload <-
    Some
      (match wl_code with
      | 0 -> Vmstate.Vm.Wl_idle
      | 1 -> Vmstate.Vm.Wl_redis
      | 2 -> Vmstate.Vm.Wl_mysql
      | 3 -> Vmstate.Vm.Wl_spec wl_arg
      | 4 -> Vmstate.Vm.Wl_darknet
      | 5 -> Vmstate.Vm.Wl_streaming
      | n -> Reader.fail r (Printf.sprintf "workload %d" n));
  p.p_inplace <- Some (Reader.bool r)

(* Decode one section's payload into the partial.  Raises on unknown
   tags and on any malformation inside the payload. *)
let apply_section ~rstring ~tag r p =
  if tag = tag_vm_info then get_vm_info ~rstring r p
  else if tag = tag_vcpu then p.p_vcpus <- get_vcpu r :: p.p_vcpus
  else if tag = tag_ioapic then p.p_ioapic <- Some (get_ioapic r)
  else if tag = tag_pit then p.p_pit <- Some (get_pit r)
  else if tag = tag_devices then p.p_devices <- Some (Reader.list r get_device)
  else if tag = tag_memmap then
    p.p_memmap <- Some (Reader.list r get_memmap_entry)
  else Reader.fail r (Printf.sprintf "unknown tag 0x%x" tag)

let assemble p =
  match (p.p_name, p.p_source, p.p_page_kind, p.p_ram, p.p_ioapic,
         p.p_pit, p.p_devices, p.p_memmap, p.p_workload, p.p_inplace)
  with
  | ( Some vm_name, Some source_hypervisor, Some page_kind,
      Some ram_bytes, Some ioapic, Some pit, Some devices, Some memmap,
      Some workload, Some inplace_compatible )
    ->
    Some
      {
        Vm_state.vm_name;
        vcpus = List.rev p.p_vcpus;
        ioapic;
        pit;
        devices;
        page_kind;
        ram_bytes;
        memmap;
        source_hypervisor;
        workload;
        inplace_compatible;
      }
  | _ -> None

let decode blob =
  match Wire.check_crc blob with
  | Error msg -> Error (Crc_mismatch msg)
  | Ok body -> (
    let r = Reader.create body in
    try
      let m =
        try String.init 4 (fun _ -> Char.chr (Reader.u8 r))
        with Reader.Truncated -> raise Exit
      in
      if not (String.equal m magic) then Error Bad_magic
      else begin
        let version = Reader.u16 r in
        if version <> format_version && version <> legacy_format_version then
          Error (Unsupported_version version)
        else begin
          let rstring, rsection =
            if version >= 2 then begin
              let _flags = Reader.u8 r in
              let rsection =
                if _flags land flag_section_crcs <> 0 then Reader.section_crc
                else Reader.section
              in
              (Reader.string, rsection)
            end
            else (Reader.string16, Reader.section)
          in
          let p = empty_partial () in
          while not (Reader.eof r) do
            rsection r (fun ~tag r -> apply_section ~rstring ~tag r p)
          done;
          match assemble p with
          | Some state -> Ok state
          | None -> Error (Malformed "missing mandatory section")
        end
      end
    with
    | Reader.Truncated | Exit -> Error Truncated
    | Reader.Bad_format e -> Error (Malformed (Reader.format_error_to_string e)))

(* --- the salvage decoder --- *)

let fatal_tag tag =
  tag = tag_vm_info || tag = tag_vcpu || tag = tag_devices || tag = tag_memmap

let singleton_present p tag =
  (tag = tag_vm_info && p.p_name <> None)
  || (tag = tag_ioapic && p.p_ioapic <> None)
  || (tag = tag_pit && p.p_pit <> None)
  || (tag = tag_devices && p.p_devices <> None)
  || (tag = tag_memmap && p.p_memmap <> None)

let decode_verified_v2 ?preserved ~outer_ok body =
  let blen = Bytes.length body in
  let flags = Bytes.get_uint8 body 6 in
  let has_crc = flags land flag_section_crcs <> 0 in
  let trailer = if has_crc then 4 else 0 in
  let p = empty_partial () in
  let scan_diags = ref [] in
  let total = ref 0 and ok = ref 0 in
  let add d = scan_diags := d :: !scan_diags in
  let pos = ref 7 in
  let stop = ref false in
  while (not !stop) && !pos < blen do
    if blen - !pos < 6 + trailer then begin
      add
        (Integrity.diag ~offset:!pos ~section:"envelope" ~fatal:false
           (Printf.sprintf "%d bytes of trailing garbage (truncated section header)"
              (blen - !pos)));
      stop := true
    end
    else begin
      let tag = Bytes.get_uint16_le body !pos in
      let name = section_name tag in
      let slen =
        Int32.to_int (Bytes.get_int32_le body (!pos + 2)) land 0xFFFFFFFF
      in
      if slen > blen - !pos - 6 - trailer then begin
        add
          (Integrity.diag ~offset:!pos ~section:name ~fatal:(fatal_tag tag)
             (Printf.sprintf
                "section claims %d bytes but only %d remain (length-field lie)"
                slen
                (blen - !pos - 6 - trailer)));
        stop := true
      end
      else begin
        incr total;
        let payload_pos = !pos + 6 in
        let crc_ok =
          (not has_crc)
          ||
          let stored = Bytes.get_int32_le body (payload_pos + slen) in
          Int32.equal stored (Wire.crc32_sub body ~pos:payload_pos ~len:slen)
        in
        if not crc_ok then
          add
            (Integrity.diag ~offset:!pos ~section:name ~fatal:(fatal_tag tag)
               "section CRC mismatch, content discarded")
        else if singleton_present p tag then
          add
            (Integrity.diag ~offset:!pos ~section:name ~fatal:false
               "duplicate section ignored (first occurrence wins)")
        else begin
          let payload = Bytes.sub body payload_pos slen in
          let r = Reader.create ~section:tag payload in
          match
            apply_section ~rstring:Reader.string ~tag r p;
            if Reader.remaining r > 0 then
              Reader.fail r
                (Printf.sprintf "%d bytes unconsumed" (Reader.remaining r))
          with
          | () -> incr ok
          | exception Reader.Truncated ->
            add
              (Integrity.diag ~offset:!pos ~section:name ~fatal:(fatal_tag tag)
                 "section payload truncated")
          | exception Reader.Bad_format e ->
            add
              (Integrity.diag ~offset:!pos ~section:name ~fatal:(fatal_tag tag)
                 (Reader.format_error_to_string e))
          | exception Invalid_argument msg ->
            add
              (Integrity.diag ~offset:!pos ~section:name ~fatal:(fatal_tag tag)
                 msg)
        end;
        pos := payload_pos + slen + trailer
      end
    end
  done;
  let scan_diags = List.rev !scan_diags in
  (* Salvage rung: substitute power-on defaults for damaged or missing
     non-critical sections. *)
  let scan_diags =
    if p.p_pit = None then begin
      p.p_pit <- Some Integrity.default_pit;
      scan_diags
      @ [ Integrity.diag ~section:"pit" ~fatal:false
            "PIT section unusable; substituted power-on defaults" ]
    end
    else scan_diags
  in
  let scan_diags =
    if p.p_ioapic = None then begin
      p.p_ioapic <- Some (Integrity.default_ioapic ~pins:24);
      scan_diags
      @ [ Integrity.diag ~section:"ioapic" ~fatal:false
            "IOAPIC section unusable; substituted all-masked pins" ]
    end
    else scan_diags
  in
  let scan_diags =
    if p.p_vcpus = [] then
      scan_diags
      @ [ Integrity.diag ~section:"vcpu" ~fatal:true "no usable vCPU section" ]
    else scan_diags
  in
  match assemble p with
  | None -> (
    match List.find_opt (fun d -> d.Integrity.diag_fatal) scan_diags with
    | Some d ->
      { Integrity.verdict = Rejected d; state = None;
        sections_total = !total; sections_ok = !ok }
    | None ->
      Integrity.rejected ~section:"envelope" ~sections_total:!total
        ~sections_ok:!ok "mandatory section missing")
  | Some state ->
    let semantic_diags = Integrity.validate ?preserved state in
    Integrity.verdict_of ~outer_ok ~scan_diags ~semantic_diags ~state
      ~sections_total:!total ~sections_ok:!ok

let decode_verified ?preserved blob =
  let len = Bytes.length blob in
  let reject ?offset ~section reason =
    Integrity.rejected ?offset ~section ~sections_total:0 ~sections_ok:0 reason
  in
  try
    if len < 10 then reject ~section:"envelope" "blob too short to be a UISR"
    else begin
      let outer_ok, body =
        match Wire.check_crc blob with
        | Ok body -> (true, body)
        | Error _ -> (false, Bytes.sub blob 0 (len - 4))
      in
      if Bytes.length body < 6 then
        reject ~section:"envelope" "blob too short to be a UISR"
      else if
        not
          (Char.equal (Bytes.get body 0) magic.[0]
          && Char.equal (Bytes.get body 1) magic.[1]
          && Char.equal (Bytes.get body 2) magic.[2]
          && Char.equal (Bytes.get body 3) magic.[3])
      then reject ~offset:0 ~section:"envelope" "bad magic"
      else begin
        let version = Bytes.get_uint16_le body 4 in
        if version = legacy_format_version then begin
          (* v1 has no per-section checksums: the envelope CRC is all
             there is, so damage cannot be localized or salvaged. *)
          if not outer_ok then
            reject ~section:"envelope"
              "v1 blob with envelope CRC mismatch (no per-section checksums \
               to salvage from)"
          else
            match decode blob with
            | Error e ->
              reject ~section:"envelope" (Format.asprintf "%a" pp_error e)
            | Ok state ->
              let sections = 5 + List.length state.Vm_state.vcpus in
              let semantic_diags = Integrity.validate ?preserved state in
              Integrity.verdict_of ~outer_ok:true ~scan_diags:[]
                ~semantic_diags ~state ~sections_total:sections
                ~sections_ok:sections
        end
        else if version = format_version then begin
          if Bytes.length body < 7 then
            reject ~section:"envelope" "v2 blob truncated before flags"
          else decode_verified_v2 ?preserved ~outer_ok body
        end
        else
          reject ~offset:4 ~section:"envelope"
            (Printf.sprintf "unsupported version %d" version)
      end
    end
  with e ->
    (* decode_verified is total by contract; this is the backstop. *)
    reject ~section:"envelope"
      (Printf.sprintf "decoder exception: %s" (Printexc.to_string e))

(* --- deterministic corruption helpers --- *)

let corrupt blob =
  if Bytes.length blob = 0 then invalid_arg "Codec.corrupt: empty blob";
  let b = Bytes.copy blob in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  b

let corrupt_section ~tag blob =
  let b = Bytes.copy blob in
  let blen = Bytes.length b - 4 (* outer CRC *) in
  if blen < 7 then invalid_arg "Codec.corrupt_section: blob too short";
  if Bytes.get_uint16_le b 4 <> format_version then
    invalid_arg "Codec.corrupt_section: not a v2 blob";
  let trailer =
    if Bytes.get_uint8 b 6 land flag_section_crcs <> 0 then 4 else 0
  in
  let rec find pos =
    if pos + 6 > blen then
      invalid_arg
        (Printf.sprintf "Codec.corrupt_section: no section 0x%04x" tag)
    else begin
      let t = Bytes.get_uint16_le b pos in
      let slen = Int32.to_int (Bytes.get_int32_le b (pos + 2)) land 0xFFFFFFFF in
      if t = tag then begin
        if slen = 0 then
          invalid_arg "Codec.corrupt_section: empty section payload";
        let i = pos + 6 + (slen / 2) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))
      end
      else find (pos + 6 + slen + trailer)
    end
  in
  find 7;
  b

let size_bytes t = Bytes.length (encode t)

let platform_size_bytes t =
  let without_memmap = { t with Vm_state.memmap = [] } in
  (* Subtract the empty memmap section's framing too. *)
  Bytes.length (encode without_memmap)
