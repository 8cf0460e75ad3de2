(* Tests for the cluster layer: model, BtrPlace-style planner, upgrade
   timing, Nova orchestration. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let paper_model ?(inplace_fraction = 0.0) () =
  Cluster.Model.make ~nodes:10 ~vms_per_node:10 ~vm_ram:(Hw.Units.gib 4)
    ~node_ram:(Hw.Units.gib 96) ~inplace_fraction
    ~workload_mix:
      [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
        (Vmstate.Vm.Wl_idle, 0.4) ]
    ()

(* --- Model --- *)

let test_model_shape () =
  let m = paper_model () in
  checki "nodes" 10 (List.length m.Cluster.Model.nodes);
  checki "vms" 100 (Cluster.Model.total_vms m);
  List.iter
    (fun n -> checki "10 per node" 10 (List.length n.Cluster.Model.placed))
    m.Cluster.Model.nodes

let test_model_inplace_fraction () =
  let m = paper_model ~inplace_fraction:0.6 () in
  let compat =
    List.fold_left
      (fun acc n ->
        acc
        + List.length
            (List.filter
               (fun vm -> vm.Cluster.Model.inplace_compatible)
               n.Cluster.Model.placed))
      0 m.Cluster.Model.nodes
  in
  checki "60 compatible" 60 compat

let test_model_capacity () =
  let m = paper_model () in
  let node = List.hd m.Cluster.Model.nodes in
  checkb "40 GiB used" true (Cluster.Model.used_ram node = Hw.Units.gib 40);
  let vm = List.hd node.Cluster.Model.placed in
  checkb "more fits" true (Cluster.Model.fits node vm);
  Cluster.Model.evict node vm;
  checki "evicted" 9 (List.length node.Cluster.Model.placed);
  Cluster.Model.place node vm;
  checki "replaced" 10 (List.length node.Cluster.Model.placed)

(* Every out-of-range input is a structured error raised before any
   allocation: NaN fails the range checks, and counts get the topology
   bounds. *)
let test_model_rejects_bad_inputs () =
  let mix = [ (Vmstate.Vm.Wl_idle, 1.0) ] in
  let rejects ?(nodes = 10) ?(vms_per_node = 10) ?(inplace_fraction = 0.5)
      ?(workload_mix = mix) () =
    match
      Cluster.Model.make ~nodes ~vms_per_node ~vm_ram:(Hw.Units.gib 4)
        ~node_ram:(Hw.Units.gib 96) ~inplace_fraction ~workload_mix ()
    with
    | _ -> false
    | exception Hypertp.Error.Error e -> e.Hypertp.Error.site = "Model.make"
  in
  List.iter
    (fun (name, rejected) -> checkb name true rejected)
    [
      ("zero nodes", rejects ~nodes:0 ());
      ("negative nodes", rejects ~nodes:(-1) ());
      ("max_int nodes", rejects ~nodes:max_int ());
      ("nodes past the host bound", rejects ~nodes:(Cluster.Topology.max_hosts + 1) ());
      ("zero VMs per node", rejects ~vms_per_node:0 ());
      ("max_int VMs per node", rejects ~vms_per_node:max_int ());
      ( "product past the VM total",
        rejects ~nodes:Cluster.Topology.max_hosts
          ~vms_per_node:Cluster.Topology.max_vms_per_host () );
      ("fraction above 1", rejects ~inplace_fraction:1.5 ());
      ("negative fraction", rejects ~inplace_fraction:(-0.1) ());
      ("NaN fraction", rejects ~inplace_fraction:Float.nan ());
      ("mix short of 1", rejects ~workload_mix:[ (Vmstate.Vm.Wl_idle, 0.5) ] ());
      ( "NaN mix share",
        rejects ~workload_mix:[ (Vmstate.Vm.Wl_idle, Float.nan) ] () );
      ( "negative mix share",
        rejects
          ~workload_mix:
            [ (Vmstate.Vm.Wl_idle, 1.5); (Vmstate.Vm.Wl_streaming, -0.5) ]
          () );
    ]

let test_model_workload_mix () =
  let m = paper_model () in
  let count kind =
    List.fold_left
      (fun acc n ->
        acc
        + List.length
            (List.filter (fun vm -> vm.Cluster.Model.workload = kind)
               n.Cluster.Model.placed))
      0 m.Cluster.Model.nodes
  in
  checki "30% streaming" 30 (count Vmstate.Vm.Wl_streaming);
  checki "40% idle" 40 (count Vmstate.Vm.Wl_idle)

(* --- Btrplace --- *)

let test_plan_all_upgraded () =
  let m = paper_model () in
  let _ = Cluster.Btrplace.plan_upgrade m in
  List.iter
    (fun n -> checkb "upgraded" true n.Cluster.Model.upgraded)
    m.Cluster.Model.nodes;
  checkb "capacity safe" true (Cluster.Btrplace.capacity_safe m);
  checki "no vm lost" 100 (Cluster.Model.total_vms m)

let test_plan_migration_counts_shape () =
  (* Fig. 13: ~150 migrations at 0% falling to ~25 at 80%. *)
  let count f =
    (Cluster.Btrplace.plan_upgrade (paper_model ~inplace_fraction:f ())).migration_count
  in
  let c0 = count 0.0 and c20 = count 0.2 and c60 = count 0.6 and c80 = count 0.8 in
  checkb "monotone decreasing" true (c0 > c20 && c20 > c60 && c60 > c80);
  checkb "baseline near paper's 154" true (c0 > 100 && c0 < 170);
  checkb "80% near paper's 25" true (c80 > 15 && c80 < 35);
  checkb "60% cuts ~3/4 (paper: 73%)" true
    (float_of_int c60 /. float_of_int c0 < 0.45)

let test_plan_inplace_vms_never_move () =
  let m = paper_model ~inplace_fraction:0.8 () in
  let plan = Cluster.Btrplace.plan_upgrade m in
  Array.iter
    (fun action ->
      match action with
      | Cluster.Btrplace.Migrate { vm; _ } ->
        checkb "only incompatible vms migrate" false vm.Cluster.Model.inplace_compatible
      | Cluster.Btrplace.Take_offline _ | Cluster.Btrplace.Upgrade_inplace _
      | Cluster.Btrplace.Bring_online _ ->
        ())
    plan.Cluster.Btrplace.actions

let test_plan_inplace_vm_accounting () =
  let plan = Cluster.Btrplace.plan_upgrade (paper_model ~inplace_fraction:0.8 ()) in
  checki "80 vms ride in place" 80 plan.Cluster.Btrplace.inplace_vm_count

let test_plan_rejects_overfull () =
  (* 10 VMs x 16 GiB on 96 GiB nodes: evicting one node's worth cannot
     fit anywhere once headroom is counted. *)
  let m =
    Cluster.Model.make ~nodes:2 ~vms_per_node:10 ~vm_ram:(Hw.Units.gib 9)
      ~node_ram:(Hw.Units.gib 96) ~inplace_fraction:0.0
      ~workload_mix:[ (Vmstate.Vm.Wl_idle, 1.0) ] ()
  in
  checkb "no capacity raises" true
    (try
       ignore (Cluster.Btrplace.plan_upgrade m);
       false
     with Cluster.Btrplace.No_capacity _ -> true)

(* --- Upgrade timing --- *)

let test_upgrade_sweep_shape () =
  let sweep =
    Cluster.Upgrade.sweep ~fractions:[ 0.0; 0.2; 0.4; 0.6; 0.8 ] ()
  in
  let totals =
    List.map (fun (_, t) -> Sim.Time.to_sec_f t.Cluster.Upgrade.total) sweep
  in
  (match totals with
  | t0 :: rest ->
    (* Baseline in the paper's "up to 19 minutes" ballpark. *)
    checkb "baseline 10-20 min" true (t0 > 600.0 && t0 < 1_200.0);
    let last = List.nth rest (List.length rest - 1) in
    let gain = 1.0 -. (last /. t0) in
    checkb "80% in-place cuts ~80% (Fig 13)" true (gain > 0.70 && gain < 0.90);
    checkb "monotone" true
      (List.for_all2 (fun a b -> b < a) (t0 :: List.tl totals) totals
      || List.sort Float.compare totals = List.rev totals)
  | [] -> Alcotest.fail "empty sweep")

let test_migration_op_time_sane () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  let vm =
    { Cluster.Model.vm_name = "v"; ram = Hw.Units.gib 4;
      inplace_compatible = false; workload = Vmstate.Vm.Wl_idle }
  in
  let t = Sim.Time.to_sec_f (Cluster.Upgrade.migration_op_time ~nic ~vm) in
  (* 4 GiB at ~1.2 GB/s + setup: several seconds. *)
  checkb "5-12s per op" true (t > 5.0 && t < 12.0)

(* --- Nova --- *)

let mk_nova () =
  let mk i vms =
    Hypertp.Api.provision
      ~seed:(Int64.of_int (500 + i))
      ~name:(Printf.sprintf "c%d" i)
      ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Xen vms
  in
  let h0 =
    mk 0
      [
        Vmstate.Vm.config ~name:"stay" ~ram:(Hw.Units.mib 256) ();
        Vmstate.Vm.config ~name:"move" ~ram:(Hw.Units.mib 256)
          ~inplace_compatible:false ();
      ]
  in
  let h1 = mk 1 [] in
  let nova = Cluster.Nova.create () in
  Cluster.Nova.add_host nova h0;
  Cluster.Nova.add_host nova h1;
  (nova, h0, h1)

let test_nova_db_tracks_placement () =
  let nova, _, _ = mk_nova () in
  checkb "consistent initially" true (Cluster.Nova.db_consistent nova);
  Alcotest.check (Alcotest.option Alcotest.string) "placement" (Some "c0")
    (Cluster.Nova.host_of_vm nova "stay")

let test_nova_host_live_upgrade () =
  let nova, h0, h1 = mk_nova () in
  let r = Cluster.Nova.host_live_upgrade nova ~host:"c0" ~target:Hv.Kind.Kvm in
  checki "one evacuation" 1 (List.length r.Cluster.Nova.migrated_away);
  Alcotest.check (Alcotest.option Alcotest.string) "moved to c1" (Some "c1")
    (Cluster.Nova.host_of_vm nova "move");
  Alcotest.check (Alcotest.option Alcotest.string) "stayed" (Some "c0")
    (Cluster.Nova.host_of_vm nova "stay");
  checkb "inplace ran" true (r.Cluster.Nova.inplace <> None);
  checkb "c0 on kvm" true (Hv.Host.hypervisor_kind h0 = Some Hv.Kind.Kvm);
  checkb "c1 untouched hv" true (Hv.Host.hypervisor_kind h1 = Some Hv.Kind.Xen);
  checkb "db consistent after" true (Cluster.Nova.db_consistent nova)

let test_nova_empty_host_plain_reboot () =
  let nova, _, _ = mk_nova () in
  let r = Cluster.Nova.host_live_upgrade nova ~host:"c1" ~target:Hv.Kind.Kvm in
  checkb "no inplace needed" true (r.Cluster.Nova.inplace = None);
  checkb "db consistent" true (Cluster.Nova.db_consistent nova)

let test_nova_scheduler_affinity () =
  (* The HyperTP-aware filter co-locates VMs by InPlaceTP compatibility
     (section 4.5.2 item 4). *)
  let mk i vms =
    Hypertp.Api.provision
      ~seed:(Int64.of_int (700 + i))
      ~name:(Printf.sprintf "s%d" i)
      ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Kvm vms
  in
  let compat_host =
    mk 0
      [
        Vmstate.Vm.config ~name:"c1" ~ram:(Hw.Units.mib 256) ();
        Vmstate.Vm.config ~name:"c2" ~ram:(Hw.Units.mib 256) ();
      ]
  in
  let incompat_host =
    mk 1
      [
        Vmstate.Vm.config ~name:"i1" ~ram:(Hw.Units.mib 256)
          ~inplace_compatible:false ();
      ]
  in
  let nova = Cluster.Nova.create () in
  Cluster.Nova.add_host nova compat_host;
  Cluster.Nova.add_host nova incompat_host;
  (* A compatible instance lands with the compatible crowd even though
     the other host is less loaded. *)
  Alcotest.check Alcotest.string "compatible co-located" "s0"
    (Cluster.Nova.schedule_instance nova
       (Vmstate.Vm.config ~name:"new-c" ~ram:(Hw.Units.mib 256) ()));
  Alcotest.check Alcotest.string "incompatible co-located" "s1"
    (Cluster.Nova.schedule_instance nova
       (Vmstate.Vm.config ~name:"new-i" ~ram:(Hw.Units.mib 256)
          ~inplace_compatible:false ()));
  let placed =
    Cluster.Nova.boot_instance nova
      (Vmstate.Vm.config ~name:"new-c" ~ram:(Hw.Units.mib 256) ())
  in
  Alcotest.check Alcotest.string "booted where scheduled" "s0" placed;
  checkb "db consistent" true (Cluster.Nova.db_consistent nova);
  checkb "affinity stays perfect" true
    (Cluster.Nova.affinity_score nova "s0" = 1.0)

let test_nova_scheduler_capacity () =
  let tiny =
    Hypertp.Api.provision ~seed:801L ~name:"tiny" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm
      [ Vmstate.Vm.config ~name:"fat" ~ram:(Hw.Units.gib 13) () ]
  in
  let nova = Cluster.Nova.create () in
  Cluster.Nova.add_host nova tiny;
  Alcotest.check_raises "no capacity"
    (Invalid_argument "Nova.schedule_instance: no host has capacity")
    (fun () ->
      ignore
        (Cluster.Nova.schedule_instance nova
           (Vmstate.Vm.config ~name:"big" ~ram:(Hw.Units.gib 8) ())))

let test_nova_unknown_host () =
  let nova, _, _ = mk_nova () in
  Alcotest.check_raises "unknown" (Invalid_argument "Nova: unknown host zz")
    (fun () ->
      ignore (Cluster.Nova.host_live_upgrade nova ~host:"zz" ~target:Hv.Kind.Kvm))

(* --- Libvirt (G2) --- *)

let test_libvirt_connect_and_list () =
  let host =
    Hypertp.Api.provision ~seed:901L ~name:"lv" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen
      [ Vmstate.Vm.config ~name:"d1" ~vcpus:2 ~ram:(Hw.Units.mib 256) () ]
  in
  let conn = Cluster.Libvirt.connect host ~uri:"xen:///system" in
  let doms = Cluster.Libvirt.list_all_domains conn in
  checki "one domain" 1 (List.length doms);
  let info = Cluster.Libvirt.dominfo conn "d1" in
  checki "vcpus" 2 info.Cluster.Libvirt.dom_vcpus;
  checki "memory kib" (256 * 1024) info.Cluster.Libvirt.dom_memory_kib;
  checkb "running" true (info.Cluster.Libvirt.dom_state = Cluster.Libvirt.Dom_running);
  Cluster.Libvirt.suspend conn "d1";
  checkb "paused via G2" true
    ((Cluster.Libvirt.dominfo conn "d1").Cluster.Libvirt.dom_state
    = Cluster.Libvirt.Dom_paused);
  Cluster.Libvirt.resume conn "d1";
  checkb "resumed via G2" true
    ((Cluster.Libvirt.dominfo conn "d1").Cluster.Libvirt.dom_state
    = Cluster.Libvirt.Dom_running)

let test_libvirt_uri_mismatch () =
  let host =
    Hypertp.Api.provision ~seed:903L ~name:"lvm" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm []
  in
  checkb "wrong scheme rejected" true
    (try
       ignore (Cluster.Libvirt.connect host ~uri:"xen:///system");
       false
     with Cluster.Libvirt.Uri_mismatch _ -> true);
  ignore (Cluster.Libvirt.connect host ~uri:"qemu:///system")

let test_libvirt_survives_transplant () =
  (* The sysadmin story of section 4.5.1: after the transplant, the same
     G2 operations work — only the connection URI scheme changes, which
     the orchestrator's reconnect handles. *)
  let host =
    Hypertp.Api.provision ~seed:905L ~name:"lvt" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen
      [ Vmstate.Vm.config ~name:"d1" ~ram:(Hw.Units.mib 256) () ]
  in
  let conn = Cluster.Libvirt.connect host ~uri:"xen:///system" in
  ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ());
  (* The old connection notices the swap... *)
  checkb "stale connection flagged" true
    (try
       ignore (Cluster.Libvirt.list_all_domains conn);
       false
     with Cluster.Libvirt.Uri_mismatch _ -> true);
  (* ...and a reconnect restores service with identical semantics. *)
  let conn = Cluster.Libvirt.reconnect conn in
  let info = Cluster.Libvirt.dominfo conn "d1" in
  checkb "same domain visible under kvm" true
    (info.Cluster.Libvirt.dom_state = Cluster.Libvirt.Dom_running);
  (* Fully generic code path: *)
  let names =
    Cluster.Libvirt.hypervisor_agnostic
      (fun c ->
        List.map
          (fun d -> d.Cluster.Libvirt.dom_name)
          (Cluster.Libvirt.list_all_domains c))
      host
  in
  Alcotest.check (Alcotest.list Alcotest.string) "agnostic listing" [ "d1" ] names

(* --- Fleet timeline --- *)

let flat_topology hosts vms_per_host =
  Cluster.Topology.uniform ~regions:1 ~hosts ~vms_per_host ()

let test_fleet_timeline () =
  let o =
    Cluster.Fleet.simulate ~topology:(flat_topology 3 2) ~window_days:2
      ~cve_id:"CVE-2016-6258" ()
  in
  checki "two transplants per host" 6 o.Cluster.Fleet.transplants;
  checkb "exposure tiny vs baseline" true
    (o.Cluster.Fleet.exposed_host_hours
    < 0.05 *. o.Cluster.Fleet.baseline_exposed_host_hours);
  let events = Array.to_list o.Cluster.Fleet.events in
  checkb "events in time order" true
    (let rec ordered = function
       | (a, _) :: ((b, _) :: _ as rest) ->
         Sim.Time.compare a b <= 0 && ordered rest
       | [ _ ] | [] -> true
     in
     ordered events);
  (* Disclosure first, patch release before any Host_patched. *)
  (match events with
  | (_, Cluster.Fleet.Disclosed _) :: _ -> ()
  | _ -> Alcotest.fail "disclosure must come first");
  let patched_before_release =
    let released = ref false in
    List.exists
      (fun (_, ev) ->
        match ev with
        | Cluster.Fleet.Patch_released ->
          released := true;
          false
        | Cluster.Fleet.Host_patched _ -> not !released
        | Cluster.Fleet.Disclosed _ | Cluster.Fleet.Host_transplanted _ ->
          false)
      events
  in
  checkb "no host patched before the patch exists" false patched_before_release

(* Golden pin of the Fig. 13 sweep: exact migration counts and totals
   at the paper's fractions, plus the ~80 % time-gain shape.  Any
   planner or cost-model drift shows up here first. *)
let test_upgrade_sweep_golden () =
  let sweep = Cluster.Upgrade.sweep ~fractions:[ 0.0; 0.5; 0.8; 1.0 ] () in
  let golden =
    [ (0.0, 120, 916.562); (0.5, 64, 475.009); (0.8, 24, 190.330);
      (1.0, 0, 19.390) ]
  in
  List.iter2
    (fun (f, migs, total) ((f', t) : float * Cluster.Upgrade.timing) ->
      checkb "fractions align" true (Float.abs (f -. f') < 1e-9);
      checki
        (Printf.sprintf "migrations at %.1f" f)
        migs t.Cluster.Upgrade.migration_count;
      checkb
        (Printf.sprintf "total at %.1f (golden %.3f s)" f total)
        true
        (Float.abs (total -. Sim.Time.to_sec_f t.Cluster.Upgrade.total) < 0.01))
    golden sweep;
  let total_at f =
    Sim.Time.to_sec_f (List.assoc f (List.map (fun (f, t) -> (f, t.Cluster.Upgrade.total)) sweep))
  in
  let gain = 1.0 -. (total_at 0.8 /. total_at 0.0) in
  checkb "80% in-place gains ~80% (Fig 13)" true (gain > 0.75 && gain < 0.85)

(* --- Fleet exposure arithmetic --- *)

(* The vulnerability window integral: a host stops accruing exposure at
   its FIRST transplant (to the safe hypervisor); the transplant back
   after the patch adds nothing. *)
let first_transplants (o : Cluster.Fleet.outcome) =
  let tbl = Hashtbl.create 16 in
  let disclosed = ref Sim.Time.zero in
  Array.iter
    (fun ((t, ev) : Sim.Time.t * Cluster.Fleet.event) ->
      match ev with
      | Cluster.Fleet.Disclosed _ -> disclosed := t
      | Cluster.Fleet.Host_transplanted { host; _ } ->
        if not (Hashtbl.mem tbl host) then Hashtbl.add tbl host t
      | Cluster.Fleet.Patch_released | Cluster.Fleet.Host_patched _ -> ())
    o.Cluster.Fleet.events;
  (!disclosed, tbl)

let test_fleet_exposure_integral () =
  let o = Cluster.Fleet.simulate ~cve_id:"CVE-2016-6258" () in
  let disclosed, firsts = first_transplants o in
  checki "transplant out and back per host" (2 * Hashtbl.length firsts)
    o.Cluster.Fleet.transplants;
  let integral =
    Hashtbl.fold
      (fun _ t acc ->
        acc +. (Sim.Time.to_sec_f (Sim.Time.sub t disclosed) /. 3600.0))
      firsts 0.0
  in
  checkb "exposure = sum of first-transplant times" true
    (Float.abs (integral -. o.Cluster.Fleet.exposed_host_hours) < 1e-6);
  checkb "strictly below the no-transplant baseline" true
    (o.Cluster.Fleet.exposed_host_hours > 0.0
    && o.Cluster.Fleet.exposed_host_hours
       < o.Cluster.Fleet.baseline_exposed_host_hours)

let test_fleet_stagger_scales_exposure () =
  let at stagger =
    (Cluster.Fleet.simulate ~stagger ~cve_id:"CVE-2016-6258" ())
      .Cluster.Fleet.exposed_host_hours
  in
  let fast = at (Sim.Time.sec 60)
  and default_ =
    (Cluster.Fleet.simulate ~cve_id:"CVE-2016-6258" ())
      .Cluster.Fleet.exposed_host_hours
  and slow = at (Sim.Time.sec 3600) in
  checkb "tighter stagger strictly reduces exposure" true
    (fast < default_ && default_ < slow);
  (* Pinned values for the default 8-host scenario. *)
  checkb "default exposure pinned (4.8 host-hours)" true
    (Float.abs (default_ -. 4.8) < 0.05);
  checkb "60 s stagger pinned (0.6 host-hours)" true
    (Float.abs (fast -. 0.6) < 0.05);
  checkb "1 h stagger pinned (28.13 host-hours)" true
    (Float.abs (slow -. 28.1333) < 0.05)

let test_fleet_rejects_medium () =
  checkb "medium flaw: policy refuses" true
    (try
       ignore (Cluster.Fleet.simulate ~cve_id:"CVE-2015-8104" ());
       false
     with Hypertp.Error.Error e -> e.Hypertp.Error.site = "Fleet.simulate")

(* Counts past the topology bounds are rejected up front, as a
   structured error: an allocation sized by [max_int] would raise
   Invalid_argument instead. *)
let test_fleet_rejects_huge_counts () =
  let rejects ?(vms_per_host = 4) hosts =
    match
      Cluster.Fleet.simulate ~topology:(flat_topology hosts vms_per_host)
        ~cve_id:"CVE-2016-6258" ()
    with
    | _ -> false
    | exception Hypertp.Error.Error e -> e.Hypertp.Error.site = "Topology"
  in
  checkb "max_int hosts" true (rejects max_int);
  checkb "one host past the bound" true (rejects (Cluster.Topology.max_hosts + 1));
  checkb "negative hosts" true (rejects (-1));
  checkb "max_int VMs per host" true (rejects ~vms_per_host:max_int 8)

(* --- incremental exposure accounting == recomputed integral --- *)

(* Fleet: the running sum kept as transplants fire must equal the
   integral recomputed from the event log after the fact. *)
let fleet_integral (o : Cluster.Fleet.outcome) =
  let firsts = Hashtbl.create 16 in
  let disclosed = ref Sim.Time.zero in
  Array.iter
    (fun (t, ev) ->
      match ev with
      | Cluster.Fleet.Disclosed _ -> disclosed := t
      | Cluster.Fleet.Host_transplanted { host; _ } ->
        if not (Hashtbl.mem firsts host) then Hashtbl.add firsts host t
      | Cluster.Fleet.Patch_released | Cluster.Fleet.Host_patched _ -> ())
    o.Cluster.Fleet.events;
  Hashtbl.fold
    (fun _ t acc ->
      acc +. (Sim.Time.to_sec_f (Sim.Time.sub t !disclosed) /. 3600.0))
    firsts 0.0

let test_fleet_incremental_exposure_qcheck () =
  let gen =
    QCheck.(
      pair (int_range 2 12)
        (pair (int_range 1 3) (int_range 30 3600)))
  in
  let prop (hosts, (vms_per_host, stagger_s)) =
    let o =
      Cluster.Fleet.simulate ~topology:(flat_topology hosts vms_per_host)
        ~stagger:(Sim.Time.sec stagger_s) ~cve_id:"CVE-2016-6258" ()
    in
    let integral = fleet_integral o in
    if Float.abs (integral -. o.Cluster.Fleet.exposed_host_hours) > 1e-6 then
      QCheck.Test.fail_reportf
        "incremental %.9f <> integral %.9f (hosts=%d stagger=%ds)"
        o.Cluster.Fleet.exposed_host_hours integral hosts stagger_s;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"fleet incremental exposure" gen prop)

let suites =
  [
    ( "cluster.model",
      [
        Alcotest.test_case "shape" `Quick test_model_shape;
        Alcotest.test_case "inplace fraction" `Quick test_model_inplace_fraction;
        Alcotest.test_case "capacity ops" `Quick test_model_capacity;
        Alcotest.test_case "workload mix" `Quick test_model_workload_mix;
        Alcotest.test_case "rejects bad inputs" `Quick
          test_model_rejects_bad_inputs;
      ] );
    ( "cluster.btrplace",
      [
        Alcotest.test_case "full upgrade" `Quick test_plan_all_upgraded;
        Alcotest.test_case "migration counts (Fig 13)" `Quick
          test_plan_migration_counts_shape;
        Alcotest.test_case "compatible vms never move" `Quick
          test_plan_inplace_vms_never_move;
        Alcotest.test_case "inplace accounting" `Quick test_plan_inplace_vm_accounting;
        Alcotest.test_case "overfull rejected" `Quick test_plan_rejects_overfull;
      ] );
    ( "cluster.upgrade",
      [
        Alcotest.test_case "sweep shape (Fig 13)" `Quick test_upgrade_sweep_shape;
        Alcotest.test_case "sweep golden pin (Fig 13)" `Quick
          test_upgrade_sweep_golden;
        Alcotest.test_case "op timing" `Quick test_migration_op_time_sane;
      ] );
    ( "cluster.nova",
      [
        Alcotest.test_case "db tracks placement" `Quick test_nova_db_tracks_placement;
        Alcotest.test_case "host live upgrade" `Quick test_nova_host_live_upgrade;
        Alcotest.test_case "empty host reboot" `Quick test_nova_empty_host_plain_reboot;
        Alcotest.test_case "scheduler affinity filter" `Quick
          test_nova_scheduler_affinity;
        Alcotest.test_case "scheduler capacity" `Quick test_nova_scheduler_capacity;
        Alcotest.test_case "unknown host" `Quick test_nova_unknown_host;
      ] );
    ( "cluster.libvirt",
      [
        Alcotest.test_case "connect and manage (G2)" `Quick
          test_libvirt_connect_and_list;
        Alcotest.test_case "uri mismatch" `Quick test_libvirt_uri_mismatch;
        Alcotest.test_case "survives transplant" `Quick
          test_libvirt_survives_transplant;
      ] );
    ( "cluster.fleet",
      [
        Alcotest.test_case "vulnerability-window timeline (Fig 1)" `Quick
          test_fleet_timeline;
        Alcotest.test_case "exposure integral ends at transplant" `Quick
          test_fleet_exposure_integral;
        Alcotest.test_case "stagger scales exposure" `Quick
          test_fleet_stagger_scales_exposure;
        Alcotest.test_case "medium flaws rejected" `Quick test_fleet_rejects_medium;
        Alcotest.test_case "huge flat counts rejected" `Quick
          test_fleet_rejects_huge_counts;
        Alcotest.test_case "fleet incremental (qcheck)" `Slow
          test_fleet_incremental_exposure_qcheck;
      ] );
  ]
