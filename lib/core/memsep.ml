type report = {
  guest_state_bytes : Hw.Units.bytes_;
  vmi_state_bytes : Hw.Units.bytes_;
  management_state_bytes : Hw.Units.bytes_;
  hv_state_bytes : Hw.Units.bytes_;
}

let of_host host =
  let (Hv.Host.Packed ((module H), hv, _)) = Hv.Host.running_exn host in
  let doms = H.domains hv in
  let guest =
    List.fold_left
      (fun acc d -> acc + Vmstate.Guest_mem.bytes (H.vm d).Vmstate.Vm.mem)
      0 doms
  in
  let vmi = List.fold_left (fun acc d -> acc + H.vmi_state_bytes hv d) 0 doms in
  {
    guest_state_bytes = guest;
    vmi_state_bytes = vmi;
    management_state_bytes = H.management_state_bytes hv;
    hv_state_bytes = H.hv_state_bytes;
  }

let translated_fraction r =
  let total =
    r.guest_state_bytes + r.vmi_state_bytes + r.management_state_bytes
    + r.hv_state_bytes
  in
  if total = 0 then 0.0
  else float_of_int r.vmi_state_bytes /. float_of_int total

let pp fmt r =
  Format.fprintf fmt
    "@[<v>guest state:      %a (kept in place)@,\
     VM_i state:       %a (translated via UISR)@,\
     management state: %a (rebuilt)@,\
     HV state:         %a (reinitialised)@,\
     translated fraction: %.4f%%@]"
    Hw.Units.pp_bytes r.guest_state_bytes Hw.Units.pp_bytes r.vmi_state_bytes
    Hw.Units.pp_bytes r.management_state_bytes Hw.Units.pp_bytes
    r.hv_state_bytes
    (100.0 *. translated_fraction r)
