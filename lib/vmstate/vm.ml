type workload_kind =
  | Wl_idle
  | Wl_redis
  | Wl_mysql
  | Wl_spec of string
  | Wl_darknet
  | Wl_streaming

type config = {
  name : string;
  vcpus : int;
  ram : Hw.Units.bytes_;
  page_kind : Hw.Units.page_kind;
  device_kinds : Device.kind list;
  workload : workload_kind;
  inplace_compatible : bool;
  compat_ioapic_pins : int option;
}

let config ?(vcpus = 1) ?(ram = Hw.Units.gib 1) ?(page_kind = Hw.Units.Page_2m)
    ?(device_kinds = [ Device.Net_emulated; Device.Blk_emulated; Device.Serial_console ])
    ?(workload = Wl_idle) ?(inplace_compatible = true) ?compat_ioapic_pins
    ~name () =
  if vcpus <= 0 then invalid_arg "Vm.config: non-positive vCPUs";
  if ram <= 0 then invalid_arg "Vm.config: non-positive RAM";
  (match compat_ioapic_pins with
  | Some n when n <= 0 -> invalid_arg "Vm.config: non-positive IOAPIC cap"
  | Some _ | None -> ());
  { name; vcpus; ram; page_kind; device_kinds; workload; inplace_compatible;
    compat_ioapic_pins }

type run_state = Running | Paused | Suspended

type t = {
  config : config;
  vcpus : Vcpu.t array;
  ioapic : Ioapic.t;
  pit : Pit.t;
  devices : Device.t array;
  mem : Guest_mem.t;
  mutable run_state : run_state;
}

let create ~pmem ~rng ?(ioapic_pins = Ioapic.kvm_pins) (config : config) =
  let vcpus =
    Array.init config.vcpus (fun index -> Vcpu.generate rng ~index)
  in
  let pins =
    match config.compat_ioapic_pins with
    | Some cap -> Stdlib.min cap ioapic_pins
    | None -> ioapic_pins
  in
  let ioapic = Ioapic.generate rng ~pins in
  let pit = Pit.generate rng in
  let devices =
    Array.of_list
      (List.mapi
         (fun id kind ->
           Device.generate rng ~id ~kind
             ~guest_frames:(Hw.Units.frames_of_bytes config.ram) ())
         config.device_kinds)
  in
  let mem =
    Guest_mem.create ~pmem ~rng ~bytes:config.ram ~page_kind:config.page_kind ()
  in
  { config; vcpus; ioapic; pit; devices; mem; run_state = Running }

let pause t =
  t.run_state <- Paused;
  (* The section 4.2.3 handshake: pausing the guest quiesces its devices
     (in-flight ring buffers complete), leaving driver and emulation in
     a consistent state. *)
  Array.iteri
    (fun i d ->
      if d.Device.run_state = Device.Dev_running then
        t.devices.(i) <- Device.pause d)
    t.devices

let resume t =
  t.run_state <- Running;
  (* Resuming the guest notifies paused device drivers to continue
     (section 4.2.3); unplugged devices wait for an explicit rescan. *)
  Array.iteri
    (fun i d ->
      if d.Device.run_state = Device.Dev_paused then
        t.devices.(i) <- Device.resume d)
    t.devices
let suspend t = t.run_state <- Suspended
let is_running t = t.run_state = Running

let total_tcp_connections t =
  Array.fold_left (fun acc d -> acc + d.Device.tcp_connections) 0 t.devices

let pp_workload fmt = function
  | Wl_idle -> Format.pp_print_string fmt "idle"
  | Wl_redis -> Format.pp_print_string fmt "redis"
  | Wl_mysql -> Format.pp_print_string fmt "mysql"
  | Wl_spec app -> Format.fprintf fmt "spec:%s" app
  | Wl_darknet -> Format.pp_print_string fmt "darknet"
  | Wl_streaming -> Format.pp_print_string fmt "streaming"

let pp fmt t =
  let state =
    match t.run_state with
    | Running -> "running"
    | Paused -> "paused"
    | Suspended -> "suspended"
  in
  Format.fprintf fmt "%s: %d vCPU, %a, %a pages, %a [%s]" t.config.name
    t.config.vcpus Hw.Units.pp_bytes t.config.ram Hw.Units.pp_page_kind
    t.config.page_kind pp_workload t.config.workload state
