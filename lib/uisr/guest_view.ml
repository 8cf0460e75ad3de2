type device = { id : int; kind : Vmstate.Device.kind; tcp_connections : int }

type t = {
  vcpus : Vmstate.Vcpu.t list;
  ioapic : Vmstate.Ioapic.t;
  pit : Vmstate.Pit.t;
  devices : device list;
}

let of_state (s : Vm_state.t) =
  let device (d : Vm_state.device_snapshot) =
    { id = d.dev_id; kind = d.dev_kind; tcp_connections = d.dev_tcp_connections }
  in
  { vcpus = s.vcpus; ioapic = s.ioapic; pit = s.pit;
    devices = List.map device s.devices }

let of_vm (vm : Vmstate.Vm.t) =
  let device (d : Vmstate.Device.t) =
    { id = d.id; kind = d.kind; tcp_connections = d.tcp_connections }
  in
  { vcpus = Array.to_list vm.vcpus; ioapic = vm.ioapic; pit = vm.pit;
    devices = List.map device (Array.to_list vm.devices) }

type difference =
  | Msr_dropped of { vcpu : int; msr : int }
  | Ioapic_pins_unshared of { before : int; after : int }
  | Pit_reset
  | Vcpu_count of { before : int; after : int }
  | Vcpu_changed of int
  | Ioapic_changed
  | Pit_changed
  | Device_vanished of int
  | Device_kind_changed of int
  | Device_connections of { id : int; before : int; after : int }
  | Device_appeared of int

let allowed = function
  | Msr_dropped _ | Ioapic_pins_unshared _ | Pit_reset -> true
  | _ -> false

let is_device = function
  | Device_vanished _ | Device_kind_changed _ | Device_connections _
  | Device_appeared _ -> true
  | _ -> false

let platform_preserved = List.for_all (fun d -> allowed d || is_device d)
let devices_preserved = List.for_all (fun d -> not (is_device d))

(* Each difference is pushed onto [acc]; [diff] reverses the lot. *)
let diff_vcpus ~dropped before after acc =
  let nb = List.length before and na = List.length after in
  if nb <> na then Vcpu_count { before = nb; after = na } :: acc
  else
    List.fold_left2
      (fun acc (b : Vmstate.Vcpu.t) a ->
        (* Compare without the MSRs a fixup dropped. *)
        let gone, kept =
          if dropped = [] then ([], b.regs.msrs)
          else
            List.partition
              (fun (m : Vmstate.Regs.msr) -> List.mem m.index dropped)
              b.regs.msrs
        in
        let acc =
          List.fold_left
            (fun acc (m : Vmstate.Regs.msr) ->
              Msr_dropped { vcpu = b.index; msr = m.index } :: acc)
            acc gone
        in
        let b =
          if gone = [] then b else { b with regs = { b.regs with msrs = kept } }
        in
        if Vmstate.Vcpu.equal b a then acc else Vcpu_changed b.index :: acc)
      acc before after

let diff_ioapic before after acc =
  let pb = Vmstate.Ioapic.pin_count before in
  let pa = Vmstate.Ioapic.pin_count after in
  (* Only the pins both sides have are compared. *)
  let cut io =
    if pb = pa then io else fst (Vmstate.Ioapic.truncate io ~pins:(min pb pa))
  in
  let acc =
    if Vmstate.Ioapic.equal (cut before) (cut after) then acc
    else Ioapic_changed :: acc
  in
  if pb = pa then acc else Ioapic_pins_unshared { before = pb; after = pa } :: acc

let diff_pit ~salvaged before after acc =
  if Vmstate.Pit.equal before after then acc
  else if salvaged && Vmstate.Pit.equal after Integrity.default_pit then
    Pit_reset :: acc
  else Pit_changed :: acc

let diff_devices before after acc =
  let acc =
    List.fold_left
      (fun acc b ->
        match List.find_opt (fun a -> a.id = b.id) after with
        | None -> Device_vanished b.id :: acc
        | Some a when a.kind <> b.kind -> Device_kind_changed b.id :: acc
        | Some a when a.tcp_connections <> b.tcp_connections ->
          Device_connections
            { id = b.id; before = b.tcp_connections; after = a.tcp_connections }
          :: acc
        | Some _ -> acc)
      acc before
  in
  List.fold_left
    (fun acc a ->
      if List.exists (fun b -> b.id = a.id) before then acc
      else Device_appeared a.id :: acc)
    acc after

let diff ?(fixups = []) ?(salvaged = false) before after =
  let dropped =
    List.filter_map (function Fixup.Msr_dropped i -> Some i | _ -> None) fixups
  in
  []
  |> diff_vcpus ~dropped before.vcpus after.vcpus
  |> diff_ioapic before.ioapic after.ioapic
  |> diff_pit ~salvaged before.pit after.pit
  |> diff_devices before.devices after.devices
  |> List.rev

let pp_difference fmt d =
  let p f = Format.fprintf fmt f in
  match d with
  | Msr_dropped { vcpu; msr } ->
    p "MSR 0x%x dropped from vCPU %d by a fixup" msr vcpu
  | Ioapic_pins_unshared { before; after } ->
    p "IOAPIC pin count changed (%d -> %d)" before after
  | Pit_reset -> p "PIT at reset defaults after salvage"
  | Vcpu_count { before; after } -> p "vCPU count changed (%d -> %d)" before after
  | Vcpu_changed i -> p "vCPU %d changed" i
  | Ioapic_changed -> p "IOAPIC changed on the shared pins"
  | Pit_changed -> p "PIT changed"
  | Device_vanished id -> p "device %d vanished during re-enumeration" id
  | Device_kind_changed id -> p "device %d changed kind on re-enumeration" id
  | Device_connections { id; before; after } ->
    p "device %d TCP connections changed (%d -> %d)" id before after
  | Device_appeared id -> p "device %d appeared out of nowhere on re-enumeration" id
