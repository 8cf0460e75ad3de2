(* Differential post-transplant residual-state auditor.

   After a transplant commits, the target-hypervisor world should be
   indistinguishable from a world where the target had been running all
   along: the micro-reboot reclaims the source's HV State wholesale, the
   PRAM metadata is released, staged blobs are dropped, and management
   state is regenerated rather than copied.  This module checks that
   claim differentially — it sweeps the post-transplant world and
   compares what it finds against a fresh-boot reference of the target,
   flagging anything the reference cannot explain. *)

(* --- severity ladder --- *)

type severity = Benign | Fingerprintable | Exploitable

let severity_to_string = function
  | Benign -> "benign"
  | Fingerprintable -> "fingerprintable"
  | Exploitable -> "exploitable"

let severity_of_string = function
  | "benign" -> Some Benign
  | "fingerprintable" -> Some Fingerprintable
  | "exploitable" -> Some Exploitable
  | _ -> None

let severity_rank = function
  | Benign -> 0
  | Fingerprintable -> 1
  | Exploitable -> 2

let pp_severity fmt s = Format.pp_print_string fmt (severity_to_string s)

(* --- findings --- *)

type kind =
  | Orphan_pram_page
  | Unreclaimed_hv_frame
  | Stale_kexec_frame
  | Unattributed_frame
  | Stale_uisr_blob
  | Mgmt_not_regenerated
  | Clock_skew
  | Device_mismatch

let all_kinds =
  [ Orphan_pram_page; Unreclaimed_hv_frame; Stale_kexec_frame;
    Unattributed_frame; Stale_uisr_blob; Mgmt_not_regenerated; Clock_skew;
    Device_mismatch ]

let kind_to_string = function
  | Orphan_pram_page -> "orphan_pram_page"
  | Unreclaimed_hv_frame -> "unreclaimed_hv_frame"
  | Stale_kexec_frame -> "stale_kexec_frame"
  | Unattributed_frame -> "unattributed_frame"
  | Stale_uisr_blob -> "stale_uisr_blob"
  | Mgmt_not_regenerated -> "mgmt_not_regenerated"
  | Clock_skew -> "clock_skew"
  | Device_mismatch -> "device_mismatch"

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_to_string k) s) all_kinds

type finding = {
  f_kind : kind;
  f_severity : severity;
  f_subject : string; (* "mfn:N", a VM name, or "host"; never has spaces *)
  f_frame : int option;
  f_tag : int64 option;
  f_reason : string;
}

let pp_finding fmt f =
  Uisr.Diag.pp fmt
    ~label:(severity_to_string f.f_severity)
    ~subject:(kind_to_string f.f_kind ^ " " ^ f.f_subject)
    f.f_reason

type report = {
  r_source : string;
  r_target : string;
  r_frames_swept : int;
  r_guest_frames : int;
  r_findings : finding list;
}

let clean r = r.r_findings = []

let count r sev =
  List.length (List.filter (fun f -> f.f_severity = sev) r.r_findings)

let worst r =
  List.fold_left
    (fun acc f ->
      match acc with
      | Some s when severity_rank s >= severity_rank f.f_severity -> acc
      | _ -> Some f.f_severity)
    None r.r_findings

let pp_report fmt r =
  if clean r then
    Format.fprintf fmt "audit %s->%s: clean (%d frames swept, %d guest)"
      r.r_source r.r_target r.r_frames_swept r.r_guest_frames
  else begin
    Format.fprintf fmt
      "audit %s->%s: %d findings (%d exploitable, %d fingerprintable, %d \
       benign) over %d frames"
      r.r_source r.r_target
      (List.length r.r_findings)
      (count r Exploitable) (count r Fingerprintable) (count r Benign)
      r.r_frames_swept;
    List.iter (fun f -> Format.fprintf fmt "@,  %a" pp_finding f) r.r_findings
  end

(* --- deterministic serialization --- *)

module J = Sim.Journal

let magic = "hypertp-audit-report v1"

let header { J.field; _ } r =
  let r_source = field "source" J.str r.r_source in
  let r_target = field "target" J.str r.r_target in
  let r_frames_swept = field "frames_swept" J.int r.r_frames_swept in
  let r_guest_frames = field "guest_frames" J.int r.r_guest_frames in
  { r with r_source; r_target; r_frames_swept; r_guest_frames }

let kinds = J.conv kind_to_string kind_of_string
let severities = J.conv severity_to_string severity_of_string
let hex = J.conv (Printf.sprintf "0x%Lx") Int64.of_string_opt

let finding { J.field; optional; _ } f =
  let f_kind = field "kind" kinds f.f_kind in
  let f_severity = field "severity" severities f.f_severity in
  let f_subject = field "subject" J.str f.f_subject in
  let f_frame = optional "frame" J.int f.f_frame in
  let f_tag = optional "tag" hex f.f_tag in
  (* free text: last, so it may run to the end of the line *)
  let f_reason = field "reason" J.rest f.f_reason in
  { f_kind; f_severity; f_subject; f_frame; f_tag; f_reason }

let total { J.field; _ } n = field "findings" J.int n

let to_string r =
  let b = Buffer.create 256 in
  J.line b magic;
  J.put_line b "" header r;
  List.iter (J.put_line b "finding" finding) r.r_findings;
  J.put_line b "end" total (List.length r.r_findings);
  Buffer.contents b

let of_string s =
  (* templates only: reading replaces every field *)
  let r =
    { r_source = ""; r_target = ""; r_frames_swept = 0; r_guest_frames = 0;
      r_findings = [] }
  in
  let f =
    { f_kind = Clock_skew; f_severity = Benign; f_subject = ""; f_frame = None;
      f_tag = None; f_reason = "" }
  in
  J.parse s (fun rd ->
      J.magic rd magic;
      let r = J.get_line rd "" header r in
      let rec findings acc =
        if J.at_tag rd "finding" then findings (J.get_line rd "finding" finding f :: acc)
        else List.rev acc
      in
      let r_findings = findings [] in
      let at = J.mark rd and n = List.length r_findings in
      let stated = J.get_line rd "end" total 0 in
      if stated <> n then
        J.fail ~at rd "finding count mismatch: end says %d, parsed %d" stated n;
      { r with r_findings })

(* --- reference worlds --- *)

type reference = {
  ref_hv : string;
  ref_tags : int64 list; (* sorted distinct non-guest content tags *)
}

let guest_frame_set vms =
  let set = Hashtbl.create 4096 in
  List.iter
    (fun vm ->
      List.iter
        (fun (_gfn, mfn, len) ->
          let base = Hw.Frame.Mfn.to_int mfn in
          for i = 0 to len - 1 do
            Hashtbl.replace set (base + i) ()
          done)
        (Vmstate.Guest_mem.extents vm.Vmstate.Vm.mem))
    vms;
  set

let reference_of_fresh_boot ?(seed = 0xA0D17L) ~machine target =
  let module T = (val target : Hv.Intf.S) in
  let host = Hv.Host.create ~seed ~name:"audit-reference" machine in
  Hv.Host.boot_hypervisor host target;
  ignore
    (Hv.Host.create_vm host
       (Vmstate.Vm.config ~name:"audit-ref-vm" ~ram:(Hw.Units.mib 64) ()));
  let guest = guest_frame_set (Hv.Host.vms host) in
  let tags = Hashtbl.create 16 in
  Hw.Pmem.iter_allocated host.Hv.Host.pmem (fun mfn tag ->
      match tag with
      | Some t when not (Hashtbl.mem guest (Hw.Frame.Mfn.to_int mfn)) ->
        Hashtbl.replace tags t ()
      | Some _ | None -> ());
  { ref_hv = T.name;
    ref_tags =
      List.sort Int64.compare (Hashtbl.fold (fun t () acc -> t :: acc) tags [])
  }

(* --- the audited world --- *)

type world = {
  w_host : Hv.Host.t;
  w_staging : (string * bytes) list;
  w_baseline : (string * Uisr.Vm_state.t) list;
  w_downtime : Sim.Time.t;
  w_salvaged : string list;
}

let world ?(staging = []) ?(baseline = []) ?(downtime = Sim.Time.zero)
    ?(salvaged = []) host =
  { w_host = host; w_staging = staging; w_baseline = baseline;
    w_downtime = downtime; w_salvaged = salvaged }

(* Content-tag conventions of the simulated machine.  The kexec stamp
   is a prefix (low 24 bits carry a kernel-name hash) and a clobbered
   image frame carries the bitwise complement of its stamp. *)
let kexec_tag_prefix = 0x4B45584543000000L
let kexec_prefix_mask = 0xFFFFFFFFFF000000L

let is_kexec_tag tag =
  Int64.equal (Int64.logand tag kexec_prefix_mask) kexec_tag_prefix
  || Int64.equal
       (Int64.logand (Int64.lognot tag) kexec_prefix_mask)
       kexec_tag_prefix

(* --- the sweep --- *)

let run ~reference ?source w =
  let host = w.w_host in
  let pmem = host.Hv.Host.pmem in
  let guest = guest_frame_set (Hv.Host.vms host) in
  let frames_swept = ref 0 and guest_frames = ref 0 in
  let frame_findings = ref [] in
  let legit t = List.exists (Int64.equal t) reference.ref_tags in
  let source_tags =
    match source with Some s -> s.ref_tags | None -> []
  in
  let from_source t = List.exists (Int64.equal t) source_tags in
  let add kind severity frame tag reason =
    frame_findings :=
      { f_kind = kind; f_severity = severity;
        f_subject = Printf.sprintf "mfn:%d" frame; f_frame = Some frame;
        f_tag = Some tag; f_reason = reason }
      :: !frame_findings
  in
  Hw.Pmem.iter_allocated pmem (fun mfn tag ->
      incr frames_swept;
      let frame = Hw.Frame.Mfn.to_int mfn in
      if Hashtbl.mem guest frame then incr guest_frames
      else
        match tag with
        | None -> () (* untagged: carries no recoverable content *)
        | Some t when Int64.equal t Pram.Build.sentinel ->
          add Orphan_pram_page Exploitable frame t
            "PRAM metadata page still allocated after release"
        | Some t when is_kexec_tag t ->
          add Stale_kexec_frame Fingerprintable frame t
            "kexec image frame survived the transplant"
        | Some t when legit t -> ()
        | Some t when from_source t ->
          add Unreclaimed_hv_frame Exploitable frame t
            (Printf.sprintf
               "frame still tagged by the source hypervisor%s"
               (match source with
               | Some s -> " " ^ s.ref_hv
               | None -> ""))
        | Some t ->
          add Unattributed_frame Fingerprintable frame t
            (Printf.sprintf
               "allocated frame tagged by neither %s nor any guest"
               reference.ref_hv));
  let staging_findings =
    List.map
      (fun (name, blob) ->
        let severity, reason =
          match Uisr.Codec.decode blob with
          | Ok st
            when not
                   (String.equal st.Uisr.Vm_state.source_hypervisor
                      reference.ref_hv) ->
            ( Exploitable,
              Printf.sprintf
                "staged UISR blob still stamped by source hypervisor %s"
                st.Uisr.Vm_state.source_hypervisor )
          | Ok _ -> (Fingerprintable, "staged UISR blob retained after commit")
          | Error _ ->
            (Fingerprintable, "undecodable staged UISR blob retained")
        in
        { f_kind = Stale_uisr_blob; f_severity = severity; f_subject = name;
          f_frame = None; f_tag = None; f_reason = reason })
      w.w_staging
  in
  let vm_findings =
    List.concat_map
      (fun (name, (base : Uisr.Vm_state.t)) ->
        match Hv.Host.find_vm host name with
        | None -> []
        | Some vm ->
          let salvaged = List.mem name w.w_salvaged in
          let pit_ok =
            Vmstate.Pit.equal vm.Vmstate.Vm.pit base.Uisr.Vm_state.pit
            (* a salvaged VM's PIT was replaced with power-on defaults —
               regenerated state, not residue *)
            || (salvaged
               && Vmstate.Pit.equal vm.Vmstate.Vm.pit
                    Uisr.Integrity.default_pit)
          in
          let clock =
            if pit_ok then []
            else
              [ { f_kind = Clock_skew; f_severity = Fingerprintable;
                  f_subject = name; f_frame = None; f_tag = None;
                  f_reason =
                    Printf.sprintf
                      "PIT state diverged from the pre-transplant capture \
                       (guest timers are frozen across the modeled %.6fs \
                       downtime)"
                      (Sim.Time.to_sec_f w.w_downtime) } ]
          in
          let devices =
            let current = Array.to_list vm.Vmstate.Vm.devices in
            let missing_or_changed =
              List.filter_map
                (fun (s : Uisr.Vm_state.device_snapshot) ->
                  match
                    List.find_opt
                      (fun (d : Vmstate.Device.t) -> d.id = s.dev_id)
                      current
                  with
                  | None ->
                    Some
                      (Printf.sprintf "device %d vanished during re-enumeration"
                         s.dev_id)
                  | Some d when d.kind <> s.dev_kind ->
                    Some
                      (Printf.sprintf "device %d changed kind on re-enumeration"
                         s.dev_id)
                  | Some d when d.tcp_connections <> s.dev_tcp_connections ->
                    Some
                      (Printf.sprintf
                         "device %d TCP connections changed (%d -> %d)"
                         s.dev_id s.dev_tcp_connections d.tcp_connections)
                  | Some _ -> None)
                base.Uisr.Vm_state.devices
            in
            let extra =
              List.filter_map
                (fun (d : Vmstate.Device.t) ->
                  if
                    List.exists
                      (fun (s : Uisr.Vm_state.device_snapshot) ->
                        s.dev_id = d.id)
                      base.Uisr.Vm_state.devices
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "device %d appeared out of nowhere on re-enumeration"
                         d.id))
                current
            in
            List.map
              (fun reason ->
                { f_kind = Device_mismatch; f_severity = Fingerprintable;
                  f_subject = name; f_frame = None; f_tag = None;
                  f_reason = reason })
              (missing_or_changed @ extra)
          in
          clock @ devices)
      w.w_baseline
  in
  let mgmt_findings =
    if Hv.Host.management_consistent host then []
    else
      [ { f_kind = Mgmt_not_regenerated; f_severity = Exploitable;
          f_subject = "host"; f_frame = None; f_tag = None;
          f_reason =
            "management state inconsistent with the running domains — copied \
             verbatim instead of regenerated" } ]
  in
  { r_source = (match source with Some s -> s.ref_hv | None -> "-");
    r_target = reference.ref_hv;
    r_frames_swept = !frames_swept;
    r_guest_frames = !guest_frames;
    r_findings =
      List.rev !frame_findings @ staging_findings @ vm_findings
      @ mgmt_findings }

(* --- the scrub pass --- *)

type scrub = {
  sc_world : world;
  sc_scrubbed : finding list;
  sc_unscrubbed : finding list;
  sc_frames_freed : int;
  sc_mgmt_rebuilds : int;
}

let scrub w report =
  let pmem = w.w_host.Hv.Host.pmem in
  let frames_freed = ref 0 and mgmt = ref 0 in
  let staging = ref w.w_staging in
  let scrubbed = ref [] and unscrubbed = ref [] in
  let ok f = scrubbed := f :: !scrubbed in
  let failed f = unscrubbed := f :: !unscrubbed in
  List.iter
    (fun f ->
      match (f.f_kind, f.f_frame) with
      | ( ( Orphan_pram_page | Unreclaimed_hv_frame | Stale_kexec_frame
          | Unattributed_frame ),
          Some frame ) ->
        let mfn = Hw.Frame.Mfn.of_int frame in
        if Hw.Pmem.is_allocated pmem mfn then begin
          if Hw.Pmem.is_reserved pmem mfn then
            Hw.Pmem.unreserve_extent pmem mfn 1;
          Hw.Pmem.free_extent pmem mfn 1;
          incr frames_freed
        end;
        ok f
      | Stale_uisr_blob, _ ->
        staging := List.filter (fun (n, _) -> n <> f.f_subject) !staging;
        ok f
      | Clock_skew, _ -> (
        match
          (Hv.Host.find_vm w.w_host f.f_subject,
           List.assoc_opt f.f_subject w.w_baseline)
        with
        | Some vm, Some base ->
          let dst = vm.Vmstate.Vm.pit.Vmstate.Pit.channels in
          let src = base.Uisr.Vm_state.pit.Vmstate.Pit.channels in
          for i = 0 to Stdlib.min (Array.length dst) (Array.length src) - 1 do
            dst.(i) <- src.(i)
          done;
          ok f
        | _ -> failed f)
      | Mgmt_not_regenerated, _ ->
        ignore (Hv.Host.rebuild_management_state w.w_host);
        incr mgmt;
        ok f
      | (Device_mismatch | Orphan_pram_page | Unreclaimed_hv_frame
        | Stale_kexec_frame | Unattributed_frame), _ ->
        (* guest-visible device topology cannot be un-observed, and a
           frame finding without a frame cannot be located *)
        failed f)
    report.r_findings;
  { sc_world = { w with w_staging = !staging };
    sc_scrubbed = List.rev !scrubbed;
    sc_unscrubbed = List.rev !unscrubbed;
    sc_frames_freed = !frames_freed;
    sc_mgmt_rebuilds = !mgmt }

(* --- seeded residual planting (ground truth for the auditor) --- *)

module Plant = struct
  type t =
    | Pram_page
    | Hv_frames of int
    | Kexec_frame
    | Stale_blob of string
    | Clock_skew_plant of string

  let to_string = function
    | Pram_page -> "pram_page"
    | Hv_frames n -> Printf.sprintf "hv_frames:%d" n
    | Kexec_frame -> "kexec_frame"
    | Stale_blob vm -> "stale_blob:" ^ vm
    | Clock_skew_plant vm -> "clock_skew:" ^ vm

  let expected_finding = function
    | Pram_page -> Orphan_pram_page
    | Hv_frames _ -> Unreclaimed_hv_frame
    | Kexec_frame -> Stale_kexec_frame
    | Stale_blob _ -> Stale_uisr_blob
    | Clock_skew_plant _ -> Clock_skew

  (* A stale staged kernel that was never unloaded. *)
  let stale_kexec_stamp = Int64.logor kexec_tag_prefix 0x57A1EL

  let source_plant_tag ~reference ~source =
    (* a tag the source world owns but the target reference does not —
       the signature of an unreclaimed source-HV frame *)
    match
      List.find_opt
        (fun t -> not (List.exists (Int64.equal t) reference.ref_tags))
        source.ref_tags
    with
    | Some t -> t
    | None -> 0x5245534944554553L (* "RESIDUES": still not in the reference *)

  let apply ~reference ~source w kinds =
    let pmem = w.w_host.Hv.Host.pmem in
    let staging = ref w.w_staging in
    let plant_frames n tag =
      List.iter
        (fun mfn -> Hw.Pmem.write pmem mfn tag)
        (Hw.Pmem.alloc_frames pmem n)
    in
    List.iter
      (fun k ->
        match k with
        | Pram_page -> plant_frames 1 Pram.Build.sentinel
        | Hv_frames n ->
          plant_frames (Stdlib.max 1 n) (source_plant_tag ~reference ~source)
        | Kexec_frame -> plant_frames 1 stale_kexec_stamp
        | Stale_blob vm ->
          let blob =
            match List.assoc_opt vm w.w_baseline with
            | Some st -> Uisr.Codec.encode st
            | None -> Bytes.of_string "not even a UISR blob"
          in
          staging := !staging @ [ (vm, blob) ]
        | Clock_skew_plant vm -> (
          match Hv.Host.find_vm w.w_host vm with
          | Some v ->
            let ch = v.Vmstate.Vm.pit.Vmstate.Pit.channels in
            if Array.length ch > 0 then
              ch.(0) <-
                { (ch.(0)) with
                  Vmstate.Pit.count = (ch.(0).Vmstate.Pit.count + 0x1234) land 0xFFFF }
          | None -> ()))
      kinds;
    { w with w_staging = !staging }

  let random_plan ~rng ~vms n =
    let pick_vm () =
      match vms with
      | [] -> None
      | _ -> Some (List.nth vms (Sim.Rng.int rng (List.length vms)))
    in
    List.init n (fun _ ->
        match Sim.Rng.int rng 5 with
        | 0 -> Pram_page
        | 1 -> Hv_frames (1 + Sim.Rng.int rng 4)
        | 2 -> Kexec_frame
        | 3 -> (
          match pick_vm () with Some vm -> Stale_blob vm | None -> Pram_page)
        | _ -> (
          match pick_vm () with
          | Some vm -> Clock_skew_plant vm
          | None -> Kexec_frame))
end
