(* Fleet-level vulnerability-window timeline (Fig. 1): a critical Xen
   CVE is disclosed, the fleet transplants onto a safe hypervisor within
   the hour, and transplants back when the patch ships days later.

   Run with: dune exec examples/fleet_timeline.exe *)

let () =
  Format.printf "=== fleet vulnerability-window timeline ===@.@.";
  let cve_id = "CVE-2016-6258" in
  (match Cve.Nvd.find cve_id with
  | Some r ->
    Format.printf "incident: %a@." Cve.Nvd.pp_record r;
    (match r.window_days with
    | Some d -> Format.printf "documented patch window: %d days@.@." d
    | None -> ())
  | None -> assert false);

  let outcome =
    Cluster.Fleet.simulate
      ~topology:(Cluster.Topology.uniform ~regions:1 ~hosts:6 ~vms_per_host:3 ())
      ~cve_id ()
  in

  Format.printf "--- timeline ---@.";
  Array.iter
    (fun (at, ev) ->
      let t = Sim.Time.to_sec_f at in
      let stamp =
        if t < 3600.0 then Printf.sprintf "t+%4.0fs " t
        else Printf.sprintf "t+%5.1fd" (t /. 86400.0)
      in
      match ev with
      | Cluster.Fleet.Disclosed id ->
        Format.printf "%s  CVE %s disclosed; fleet is exposed@." stamp id
      | Cluster.Fleet.Host_transplanted { host; to_hv; downtime } ->
        Format.printf "%s  %s transplanted to %s (VM downtime %a)@." stamp
          host to_hv Sim.Time.pp downtime
      | Cluster.Fleet.Patch_released ->
        Format.printf "%s  patched Xen released@." stamp
      | Cluster.Fleet.Host_patched { host; downtime } ->
        Format.printf "%s  %s back on patched Xen (VM downtime %a)@." stamp
          host Sim.Time.pp downtime)
    outcome.events;

  Format.printf "@.--- outcome ---@.%a@." Cluster.Fleet.pp_outcome outcome;
  Format.printf
    "@.The window shrinks from the full patch latency to the rollout@.\
     stagger, at the price of a few seconds of downtime per VM per hop.@."
