type event =
  | Disclosed of string
  | Host_transplanted of { host : string; to_hv : string; downtime : Sim.Time.t }
  | Patch_released
  | Host_patched of { host : string; downtime : Sim.Time.t }

type outcome = {
  events : (Sim.Time.t * event) array;
  exposed_host_hours : float;
  baseline_exposed_host_hours : float;
  total_vm_downtime : Sim.Time.t;
  transplants : int;
}

let hours t = Sim.Time.to_sec_f t /. 3600.0

let default_topology = Topology.uniform ~regions:1 ~hosts:8 ~vms_per_host:4 ()

let simulate ?(topology = default_topology) ?window_days
    ?(stagger = Sim.Time.sec 600) ~cve_id () =
  let site = "Fleet.simulate" in
  (* The fleet is the topology's regions concatenated in order, each
     host carrying its region's VM density. *)
  let topology = Topology.validate_exn topology in
  let hosts = Topology.hosts topology in
  let per_host_vms = Array.make hosts 0 in
  let k = ref 0 in
  Array.iter
    (fun r ->
      Array.fill per_host_vms !k r.Topology.rg_hosts r.Topology.rg_vms_per_host;
      k := !k + r.Topology.rg_hosts)
    (Topology.regions topology);
  let record =
    match Cve.Nvd.find cve_id with
    | Some r -> r
    | None ->
      Hypertp_error.raise_errorf ~site
        ~hint:"list known ids with the `cve` CLI command" "unknown CVE %s"
        cve_id
  in
  let target =
    match
      Cve.Window.advise
        ~fleet:(List.map Hv.Kind.to_string Hv.Kind.all)
        ~current:"xen" record
    with
    | Cve.Window.Transplant_to hv -> Option.get (Hv.Kind.of_string hv)
    | Cve.Window.Wait_for_patch | Cve.Window.No_action ->
      Hypertp_error.raise_error ~site
        ~hint:"only critical CVEs against the running hypervisor trigger a \
               transplant"
        "the policy would not act on this CVE"
    | Cve.Window.No_safe_alternative ->
      Hypertp_error.raise_error ~site
        "no safe alternative in the repertoire"
  in
  let window_days =
    match window_days with
    | Some d -> d
    | None -> Option.value ~default:30 record.Cve.Nvd.window_days
  in
  let window = Sim.Time.sec (window_days * 24 * 3600) in
  (* Real simulated hosts: transplants below actually run. *)
  let fleet =
    Array.init hosts (fun i ->
        Hypertp.Api.provision
          ~seed:(Int64.of_int (1000 + i))
          ~name:(Printf.sprintf "host%02d" i)
          ~machine:(Hw.Machine.g5k_node ()) ~hv:Hv.Kind.Xen
          (List.init per_host_vms.(i) (fun j ->
               Vmstate.Vm.config
                 ~name:(Printf.sprintf "h%02d-vm%d" i j)
                 ~ram:(Hw.Units.gib 1) ())))
  in
  let engine = Sim.Engine.create () in
  (* Exactly 2 events per host plus disclosure and patch release, so
     the buffer is sized once; the handler appends in engine dispatch
     order, which is the documented (time, schedule-order) order. *)
  let events =
    Sim.Vec.create ~capacity:((2 * hosts) + 2) (Sim.Time.zero, Patch_released)
  in
  let emit ev = Sim.Vec.push events (Sim.Engine.now engine, ev) in
  let total_downtime = ref Sim.Time.zero in
  let transplants = ref 0 in
  (* Exposure accrues as each host leaves the vulnerable hypervisor,
     capped at the patch release; every host has an out-transplant, so
     when the run ends the sum covers the whole fleet. *)
  let exposed = ref 0.0 in
  let transplant i target =
    let report = Hypertp.Api.transplant_inplace ~host:fleet.(i) ~target () in
    assert (Hypertp.Inplace.all_ok report.Hypertp.Inplace.checks);
    let downtime = Hypertp.Phases.downtime report.Hypertp.Inplace.phases in
    incr transplants;
    total_downtime :=
      Sim.Time.add !total_downtime
        (Sim.Time.scale (float_of_int per_host_vms.(i)) downtime);
    downtime
  in
  (* One handler plays the whole timeline.  Payload: [-1] disclosure,
     [-2] patch release, [2i] host [i] transplants to the safe target,
     [2i + 1] host [i] transplants back. *)
  let on_event p =
    if p = -1 then emit (Disclosed cve_id)
    else if p = -2 then emit Patch_released
    else begin
      let i = p lsr 1 in
      let host = fleet.(i).Hv.Host.host_name in
      if p land 1 = 0 then begin
        let downtime = transplant i target in
        exposed :=
          !exposed +. hours (Sim.Time.min (Sim.Engine.now engine) window);
        emit
          (Host_transplanted
             { host; to_hv = Hv.Kind.to_string target; downtime })
      end
      else begin
        let downtime = transplant i Hv.Kind.Xen in
        emit (Host_patched { host; downtime })
      end
    end
  in
  let ev = Sim.Engine.handler engine on_event in
  (* t0: disclosure; hosts transplant to the safe target one after
     another (operators stagger rollouts).  t_patch: the fixed
     hypervisor ships; hosts transplant back on the same stagger. *)
  let slot i =
    Sim.Time.add (Sim.Time.sec 60) (Sim.Time.scale (float_of_int i) stagger)
  in
  Sim.Engine.schedule_event engine Sim.Time.zero ev (-1);
  for i = 0 to hosts - 1 do
    Sim.Engine.schedule_event engine (slot i) ev (2 * i)
  done;
  Sim.Engine.schedule_event engine window ev (-2);
  for i = 0 to hosts - 1 do
    Sim.Engine.schedule_event engine (Sim.Time.add window (slot i)) ev
      ((2 * i) + 1)
  done;
  Sim.Engine.run engine;
  {
    events = Sim.Vec.to_array events;
    exposed_host_hours = !exposed;
    baseline_exposed_host_hours = float_of_int hosts *. hours window;
    total_vm_downtime = !total_downtime;
    transplants = !transplants;
  }

let pp_event fmt (at, ev) =
  let at = Sim.Time.to_sec_f at in
  match ev with
  | Disclosed id -> Format.fprintf fmt "%8.0fs  disclosed %s" at id
  | Host_transplanted { host; to_hv; downtime } ->
    Format.fprintf fmt "%8.0fs  %s -> %s (downtime %a)" at host to_hv
      Sim.Time.pp downtime
  | Patch_released -> Format.fprintf fmt "%8.0fs  patch released" at
  | Host_patched { host; downtime } ->
    Format.fprintf fmt "%8.0fs  %s patched (downtime %a)" at host Sim.Time.pp
      downtime

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%d transplants; exposure %.1f host-hours vs %.1f without HyperTP \
     (%.2f%%); total VM downtime %a@]"
    o.transplants o.exposed_host_hours o.baseline_exposed_host_hours
    (100.0 *. o.exposed_host_hours /. o.baseline_exposed_host_hours)
    Sim.Time.pp o.total_vm_downtime
