(* Regeneration of the paper's figures: 6 (time breakdown), 7/10
   (InPlaceTP scalability both directions), 8/9 (MigrationTP downtime
   and total time sweeps), 11/12 (application timelines), 13 (cluster),
   14 (memory overhead), plus the section 4.2.5 ablations. *)

open Bench_util

let inplace_once ?(options = Hypertp.Options.default) ?obs ~machine ~src_kind
    ~seed vms =
  let host =
    match src_kind with
    | Hv.Kind.Xen -> fresh_xen_host ~machine ~seed vms
    | Hv.Kind.Kvm -> fresh_kvm_host ~machine ~seed vms
    | Hv.Kind.Bhyve ->
      Hypertp.Api.provision ~seed ~name:"bench-src" ~machine ~hv:Hv.Kind.Bhyve
        vms
  in
  Hypertp.Inplace.run ~options ?obs
    ~rng:(Sim.Rng.create (Int64.add seed 7L))
    ~host
    ~target:(Hypertp.Api.hypervisor_of (Hv.Kind.other src_kind))
    ()

let phase_stats reports select =
  Sim.Stats.summarize
    (List.map (fun r -> Sim.Time.to_sec_f (select r.Hypertp.Inplace.phases)) reports)

(* --- Fig 6 --- *)

let fig6 () =
  header "Fig 6: InPlaceTP time breakdown, Xen->KVM, single 1 vCPU / 1 GiB VM";
  Format.printf
    "machine   PRAM    Transl  Reboot  Restore  | downtime  total  | network@.";
  List.iter
    (fun machine ->
      let reports =
        repeat (fun rng ->
            inplace_once ~machine ~src_kind:Hv.Kind.Xen ~seed:(seed_of_rng rng)
              [ vm_config () ])
      in
      List.iter
        (fun r -> assert (Hypertp.Inplace.all_ok r.Hypertp.Inplace.checks))
        reports;
      let m select = (phase_stats reports select).Sim.Stats.mean in
      Format.printf
        "%-8s  %.3f   %.3f   %.3f   %.3f    | %.3f     %.3f  | %.3f@."
        machine.Hw.Machine.name
        (m (fun p -> p.Hypertp.Phases.pram))
        (m (fun p -> p.Hypertp.Phases.translation))
        (m (fun p -> p.Hypertp.Phases.reboot))
        (m (fun p -> p.Hypertp.Phases.restoration))
        (m Hypertp.Phases.downtime)
        (m Hypertp.Phases.total)
        (m (fun p -> p.Hypertp.Phases.network)))
    [ Hw.Machine.m1 (); Hw.Machine.m2 () ];
  (* Span-derived cross-check: re-run once per machine with a tracer
     attached and recover the breakdown from the trace alone.  The
     derived downtime must equal the report's to the tick. *)
  Format.printf "@.span-derived breakdown (one traced run each):@.";
  List.iter
    (fun machine ->
      let tr = Obs.Tracer.create () in
      let r =
        inplace_once ~obs:tr ~machine ~src_kind:Hv.Kind.Xen ~seed:1234L
          [ vm_config () ]
      in
      let derived = Hypertp.Phases.of_trace (Obs.Tracer.spans tr) in
      assert (
        Sim.Time.equal
          (Hypertp.Phases.downtime derived)
          (Hypertp.Phases.downtime r.Hypertp.Inplace.phases));
      Format.printf "%-8s  %a@." machine.Hw.Machine.name Hypertp.Phases.pp
        derived)
    [ Hw.Machine.m1 (); Hw.Machine.m2 () ];
  note
    "paper M1: pram 0.45, transl 0.08, reboot 1.52, restore 0.12 -> downtime 1.7, network 6.6@.";
  note
    "paper M2: pram 0.50, transl 0.24, reboot 2.40, restore 0.34 -> downtime 3.01, network 2.3@."

(* --- Fig 7 / Fig 10 --- *)

let scalability_sweep ~src_kind () =
  let directions =
    Printf.sprintf "%s->%s"
      (Hv.Kind.to_string src_kind)
      (Hv.Kind.to_string (Hv.Kind.other src_kind))
  in
  List.iter
    (fun machine ->
      subheader
        (Printf.sprintf "%s on %s: vCPU sweep (1 GiB)" directions
           machine.Hw.Machine.name);
      Format.printf "vcpus  pram   transl reboot restore | downtime@.";
      List.iter
        (fun vcpus ->
          let reports =
            repeat (fun rng ->
                inplace_once ~machine ~src_kind ~seed:(seed_of_rng rng)
                  [ vm_config ~vcpus () ])
          in
          let m select = (phase_stats reports select).Sim.Stats.mean in
          Format.printf "%5d  %.3f  %.3f  %.3f  %.3f   | %.3f@." vcpus
            (m (fun p -> p.Hypertp.Phases.pram))
            (m (fun p -> p.Hypertp.Phases.translation))
            (m (fun p -> p.Hypertp.Phases.reboot))
            (m (fun p -> p.Hypertp.Phases.restoration))
            (m Hypertp.Phases.downtime))
        [ 1; 2; 4; 6; 8; 10 ];
      subheader
        (Printf.sprintf "%s on %s: memory sweep (1 vCPU)" directions
           machine.Hw.Machine.name);
      Format.printf "GiB    pram   transl reboot restore | downtime@.";
      List.iter
        (fun gib ->
          let reports =
            repeat (fun rng ->
                inplace_once ~machine ~src_kind ~seed:(seed_of_rng rng)
                  [ vm_config ~gib () ])
          in
          let m select = (phase_stats reports select).Sim.Stats.mean in
          Format.printf "%5d  %.3f  %.3f  %.3f  %.3f   | %.3f@." gib
            (m (fun p -> p.Hypertp.Phases.pram))
            (m (fun p -> p.Hypertp.Phases.translation))
            (m (fun p -> p.Hypertp.Phases.reboot))
            (m (fun p -> p.Hypertp.Phases.restoration))
            (m Hypertp.Phases.downtime))
        [ 2; 4; 6; 8; 10; 12 ];
      subheader
        (Printf.sprintf "%s on %s: #VM sweep (1 vCPU / 1 GiB each)" directions
           machine.Hw.Machine.name);
      Format.printf "#VMs   pram   transl reboot restore | downtime@.";
      List.iter
        (fun nvms ->
          let vms =
            List.init nvms (fun i -> vm_config ~name:(Printf.sprintf "vm%d" i) ())
          in
          let reports =
            repeat (fun rng ->
                inplace_once ~machine ~src_kind ~seed:(seed_of_rng rng) vms)
          in
          let m select = (phase_stats reports select).Sim.Stats.mean in
          Format.printf "%5d  %.3f  %.3f  %.3f  %.3f   | %.3f@." nvms
            (m (fun p -> p.Hypertp.Phases.pram))
            (m (fun p -> p.Hypertp.Phases.translation))
            (m (fun p -> p.Hypertp.Phases.reboot))
            (m (fun p -> p.Hypertp.Phases.restoration))
            (m Hypertp.Phases.downtime))
        [ 2; 4; 6; 8; 10; 12 ])
    [ Hw.Machine.m1 (); Hw.Machine.m2 () ]

let fig7 () =
  header "Fig 7: InPlaceTP scalability, Xen->KVM";
  scalability_sweep ~src_kind:Hv.Kind.Xen ();
  note "paper: downtime within 1.7-3.6 s (M1) and 2.94-4.28 s (M2)@."

let fig10 () =
  header "Fig 10: InPlaceTP scalability, KVM->Xen";
  scalability_sweep ~src_kind:Hv.Kind.Kvm ();
  note "paper: ~7.8 s on M1 and ~17.8 s on M2, dominated by the Xen+dom0 boot@."

(* --- Fig 8 / Fig 9 --- *)

let migration_sweep ~dst_kind ~configs ~seed_base =
  List.map
    (fun (label, vms) ->
      let per_rep =
        repeat (fun rng ->
            let seed = Int64.add seed_base (seed_of_rng rng) in
            let src = fresh_xen_host ~seed vms in
            let dst = fresh_dst ~seed:(Int64.add seed 1L) dst_kind in
            (Hypertp.Api.transplant_migration ~rng ~src ~dst ())
              .Hypertp.Migrate.per_vm)
      in
      (label, List.concat per_rep))
    configs

let fig8_9 () =
  header "Fig 8 + Fig 9: MigrationTP vs Xen->Xen across sweeps";
  let sweeps =
    [
      ( "vCPUs (1 GiB)",
        List.map
          (fun v -> (string_of_int v, [ vm_config ~vcpus:v () ]))
          [ 1; 2; 4; 6; 8; 10 ] );
      ( "memory GiB (1 vCPU)",
        List.map
          (fun g -> (string_of_int g, [ vm_config ~gib:g () ]))
          [ 2; 4; 6; 8; 10; 12 ] );
      ( "#VMs (1 vCPU / 1 GiB)",
        List.map
          (fun n ->
            ( string_of_int n,
              List.init n (fun i -> vm_config ~name:(Printf.sprintf "v%d" i) ()) ))
          [ 2; 4; 6; 8; 10; 12 ] );
    ]
  in
  List.iter
    (fun (sweep_name, configs) ->
      subheader (Printf.sprintf "sweep: %s" sweep_name);
      Format.printf
        "point | Xen downtime(ms)             | TP downtime(ms)              | Xen total(s) | TP total(s)@.";
      List.iter2
        (fun (label, xen_vms) (_, tp_vms) ->
          let dms l =
            Sim.Stats.summarize
              (List.map
                 (fun (v : Hypertp.Migrate.vm_report) -> Sim.Time.to_ms_f v.downtime)
                 l)
          in
          let tot l =
            Sim.Stats.summarize
              (List.map
                 (fun (v : Hypertp.Migrate.vm_report) ->
                   Sim.Time.to_sec_f v.total_time)
                 l)
          in
          let x = dms xen_vms and t = dms tp_vms in
          Format.printf
            "%5s | med %6.1f [%6.1f..%6.1f] | med %6.2f [%6.2f..%6.2f] | %8.2f | %8.2f@."
            label x.Sim.Stats.median x.Sim.Stats.min x.Sim.Stats.max
            t.Sim.Stats.median t.Sim.Stats.min t.Sim.Stats.max
            (tot xen_vms).Sim.Stats.max (tot tp_vms).Sim.Stats.max)
        (migration_sweep ~dst_kind:Hv.Kind.Xen ~configs ~seed_base:1000L)
        (migration_sweep ~dst_kind:Hv.Kind.Kvm ~configs ~seed_base:2000L))
    sweeps;
  note "paper Fig 8: Xen ~130 ms with wide spread on multi-VM; TP constant ms-scale@.";
  note "paper Fig 9: totals grow with memory size, near-equal between systems@."

(* --- Fig 11 / Fig 12 --- *)

let timeline_schedules () =
  (* Measure the real gaps once, then build guest-visible schedules. *)
  let host = fresh_xen_host ~seed:301L [ vm_config ~vcpus:2 ~gib:8 ~workload:Vmstate.Vm.Wl_redis () ] in
  let ip = Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm () in
  let ip_gap = Sim.Time.to_sec_f (Hypertp.Phases.downtime_with_network ip.phases) in
  let src = fresh_xen_host ~seed:303L [ vm_config ~vcpus:2 ~gib:8 ~workload:Vmstate.Vm.Wl_redis () ] in
  let dst = fresh_dst ~seed:305L Hv.Kind.Kvm in
  let mig = Hypertp.Api.transplant_migration ~src ~dst () in
  let v = List.hd mig.Hypertp.Migrate.per_vm in
  let precopy = Sim.Time.to_sec_f v.Hypertp.Migrate.precopy_time in
  let down = Sim.Time.to_sec_f v.Hypertp.Migrate.downtime in
  let at = 50.0 in
  let sched_ip =
    Workload.Sched.make ~initial:Workload.Profile.P_xen
      [ (at, Workload.Sched.Stopped);
        (at +. ip_gap, Workload.Sched.Running Workload.Profile.P_kvm) ]
  in
  let sched_mig =
    Workload.Sched.make ~initial:Workload.Profile.P_xen
      [ (at, Workload.Sched.Degraded (Workload.Profile.P_xen, 1.1));
        (at +. precopy, Workload.Sched.Stopped);
        (at +. precopy +. down, Workload.Sched.Running Workload.Profile.P_kvm) ]
  in
  (sched_ip, ip_gap, sched_mig, precopy, down)

let print_series name trace =
  Format.printf "%s (10 s buckets):@." name;
  List.iter
    (fun (t, v) -> Format.printf "  t=%5.0fs  %10.1f@." (Sim.Time.to_sec_f t) v)
    (Sim.Trace.bucketize trace ~width:(Sim.Time.sec 10))

let fig11 () =
  header "Fig 11: Redis QPS under InPlaceTP and MigrationTP (2 vCPU, 8 GiB)";
  let sched_ip, ip_gap, sched_mig, precopy, down = timeline_schedules () in
  let rng = Sim.Rng.create 307L in
  subheader
    (Printf.sprintf "InPlaceTP: service gap %.1f s incl. NIC re-init (paper ~9 s)"
       ip_gap);
  print_series "redis QPS" (Workload.Redis.qps_timeline ~rng ~sched:sched_ip ~duration_s:200.0);
  let t = Workload.Redis.qps_timeline ~rng ~sched:sched_ip ~duration_s:200.0 in
  Format.printf "improvement after landing on KVM: +%.0f%% (paper ~37%%)@."
    (100.0
    *. ((Workload.Redis.mean_qps t ~from_s:80.0 ~until_s:190.0
        /. Workload.Redis.mean_qps t ~from_s:10.0 ~until_s:45.0)
       -. 1.0));
  subheader
    (Printf.sprintf
       "MigrationTP: pre-copy %.0f s (paper ~78 s), downtime %.0f ms" precopy
       (1000.0 *. down));
  print_series "redis QPS"
    (Workload.Redis.qps_timeline ~rng ~sched:sched_mig ~duration_s:250.0)

let fig12 () =
  header "Fig 12: MySQL latency/QPS under InPlaceTP and MigrationTP";
  let sched_ip, ip_gap, sched_mig, precopy, _ = timeline_schedules () in
  let rng = Sim.Rng.create 311L in
  subheader (Printf.sprintf "InPlaceTP (gap %.1f s)" ip_gap);
  let lat, qps = Workload.Mysql.timelines ~rng ~sched:sched_ip ~duration_s:150.0 in
  print_series "latency ms" lat;
  print_series "QPS" qps;
  subheader (Printf.sprintf "MigrationTP (pre-copy %.0f s; paper ~76 s)" precopy);
  let lat, qps = Workload.Mysql.timelines ~rng ~sched:sched_mig ~duration_s:200.0 in
  print_series "latency ms" lat;
  print_series "QPS" qps;
  let base = Sim.Trace.mean_between lat Sim.Time.zero (Sim.Time.sec 49) in
  let during = Sim.Trace.mean_between lat (Sim.Time.sec 55) (Sim.Time.sec 120) in
  Format.printf "latency increase during pre-copy: +%.0f%% (paper +252%%)@."
    (100.0 *. ((during /. base) -. 1.0));
  let qbase = Sim.Trace.mean_between qps Sim.Time.zero (Sim.Time.sec 49) in
  let qduring = Sim.Trace.mean_between qps (Sim.Time.sec 55) (Sim.Time.sec 120) in
  Format.printf "throughput drop during pre-copy: -%.0f%% (paper -68%%)@."
    (100.0 *. (1.0 -. (qduring /. qbase)))

(* --- Fig 13 --- *)

let fig13 () =
  header "Fig 13: cluster upgrade, 10 nodes x 10 VMs (1 vCPU / 4 GiB)";
  let sweep = Cluster.Upgrade.sweep ~fractions:[ 0.0; 0.2; 0.4; 0.6; 0.8 ] () in
  let baseline =
    match sweep with
    | (_, t) :: _ -> Sim.Time.to_sec_f t.Cluster.Upgrade.total
    | [] -> assert false
  in
  Format.printf "in-place%%  #migrations  total time     time gain@.";
  List.iter
    (fun (f, t) ->
      Format.printf "   %3.0f      %5d       %8.1f s     %3.0f%%@."
        (100.0 *. f) t.Cluster.Upgrade.migration_count
        (Sim.Time.to_sec_f t.Cluster.Upgrade.total)
        (100.0 *. (1.0 -. (Sim.Time.to_sec_f t.Cluster.Upgrade.total /. baseline))))
    sweep;
  note "paper: 154 migrations at 0%%; 109 at 20%% (17%% gain); 73%% fewer at 60%% (68%% gain); 25 at 80%% (~80%% gain, 3m54 vs up to 19min)@."

(* --- Fig 14 --- *)

let fig14 () =
  header "Fig 14: memory overhead (PRAM structures + UISR formats)";
  let measure vms =
    let r = inplace_once ~machine:(Hw.Machine.m1 ()) ~src_kind:Hv.Kind.Xen ~seed:401L vms in
    ( r.Hypertp.Inplace.pram_accounting.Pram.Layout.total_bytes,
      r.Hypertp.Inplace.uisr_platform_bytes )
  in
  subheader "vCPU sweep (1 GiB VM)";
  Format.printf "vcpus  pram(KiB)  uisr(KiB)@.";
  List.iter
    (fun v ->
      let p, u = measure [ vm_config ~vcpus:v () ] in
      Format.printf "%5d  %9.1f  %9.1f@." v
        (Hw.Units.to_kib_f p) (Hw.Units.to_kib_f u))
    [ 1; 2; 4; 6; 8; 10 ];
  subheader "memory sweep (1 vCPU)";
  Format.printf "GiB    pram(KiB)  uisr(KiB)@.";
  List.iter
    (fun g ->
      let p, u = measure [ vm_config ~gib:g () ] in
      Format.printf "%5d  %9.1f  %9.1f@." g
        (Hw.Units.to_kib_f p) (Hw.Units.to_kib_f u))
    [ 2; 4; 6; 8; 10; 12 ];
  subheader "#VM sweep (1 vCPU / 1 GiB each)";
  Format.printf "#VMs   pram(KiB)  uisr(KiB)@.";
  List.iter
    (fun n ->
      let p, u =
        measure (List.init n (fun i -> vm_config ~name:(Printf.sprintf "v%d" i) ()))
      in
      Format.printf "%5d  %9.1f  %9.1f@." n
        (Hw.Units.to_kib_f p) (Hw.Units.to_kib_f u))
    [ 2; 4; 6; 8; 10; 12 ];
  note "paper: PRAM 16 KiB (1 GiB VM) -> 60 KiB (12 GiB); 148 KiB for 12 VMs;@.";
  note "       UISR 5 KiB (1 vCPU) -> 38 KiB (10 vCPUs); total 21-98 KiB per VM@."

(* --- memory separation (Fig 2) --- *)

let memsep () =
  header "Fig 2: memory separation on a loaded M2 host (8 x 4 GiB VMs)";
  List.iter
    (fun hv ->
      let host =
        Hypertp.Api.provision ~seed:77L ~name:"ms" ~machine:(Hw.Machine.m2 ())
          ~hv
          (List.init 8 (fun i ->
               vm_config ~name:(Printf.sprintf "v%d" i) ~vcpus:2 ~gib:4 ()))
      in
      subheader (Printf.sprintf "under %s" (Hv.Host.hypervisor_name host));
      Format.printf "%a@." Hypertp.Memsep.pp (Hypertp.Memsep.of_host host))
    Hv.Kind.all;
  note "Guest State dominates everywhere: the transplant only ever@.";
  note "translates the tiny VM_i slice, which is the design's point@."

(* --- repertoire extension (section 3.1 + UISR scaling claim) --- *)

let repertoire () =
  header "Repertoire extension: all six transplant directions (1 vCPU / 1 GiB, M1)";
  Format.printf "direction        downtime   dominated by@.";
  let kinds = Hv.Kind.all in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Hv.Kind.equal src dst) then begin
            let reports =
              repeat (fun rng ->
                  let host =
                    Hypertp.Api.provision ~seed:(seed_of_rng rng)
                      ~name:"rep-src" ~machine:(Hw.Machine.m1 ()) ~hv:src
                      [ vm_config () ]
                  in
                  Hypertp.Inplace.run
                    ~rng:(Sim.Rng.create (seed_of_rng rng))
                    ~host ~target:(Hypertp.Api.hypervisor_of dst) ())
            in
            List.iter
              (fun r -> assert (Hypertp.Inplace.all_ok r.Hypertp.Inplace.checks))
              reports;
            let d = (phase_stats reports Hypertp.Phases.downtime).Sim.Stats.mean in
            let reboot =
              (phase_stats reports (fun p -> p.Hypertp.Phases.reboot)).Sim.Stats.mean
            in
            Format.printf "%-6s -> %-6s  %6.3f s   reboot %.0f%%@."
              (Hv.Kind.to_string src) (Hv.Kind.to_string dst) d
              (100.0 *. reboot /. d)
          end)
        kinds)
    kinds;
  note
    "adding bhyve to the Xen/KVM pair cost one Intf.S implementation; every@.";
  note
    "direction works because each side only speaks UISR (section 3.1)@."

(* --- fleet timeline (Fig 1) --- *)

let fleet () =
  header "Fig 1 scenario: fleet exposure with and without HyperTP";
  List.iter
    (fun cve_id ->
      subheader cve_id;
      let o = Cluster.Fleet.simulate ~cve_id () in
      Format.printf "%a@." Cluster.Fleet.pp_outcome o)
    [ "CVE-2016-6258" (* 7-day window *); "CVE-2015-3456" (* VENOM: escape to bhyve *) ];
  note "without a third hypervisor, VENOM would leave no safe alternative@."

(* --- supervised campaign controller --- *)

let campaign_probabilities = [ 0.0; 0.3; 0.7 ]

let campaign () =
  header "Supervised rolling-transplant campaign (admission + breaker + ladder)";
  let results =
    Cluster.Campaign.sweep ~probabilities:campaign_probabilities ()
  in
  Format.printf "%-6s %-10s %-11s %-9s %-7s %s@." "p" "wall" "exposed-hh"
    "deferred" "trips" "statuses (inplace/drained/retried/exposed)";
  List.iter
    (fun (p, (r : Cluster.Campaign.report)) ->
      let count s =
        List.length
          (List.filter
             (fun h -> h.Cluster.Campaign.hr_status = s)
             r.Cluster.Campaign.hosts)
      in
      Format.printf "%-6.2f %-10s %-11.3f %-9d %-7d %d/%d/%d/%d@." p
        (Sim.Time.to_string r.Cluster.Campaign.wall_clock)
        r.Cluster.Campaign.exposed_host_hours
        (List.length r.Cluster.Campaign.deferred)
        r.Cluster.Campaign.breaker_trips
        (count Cluster.Campaign.Upgraded_inplace)
        (count Cluster.Campaign.Drained)
        (count Cluster.Campaign.Deferred_resolved)
        (count Cluster.Campaign.Deferred_exposed))
    results;
  (* Machine-readable trajectory point for CI. *)
  let oc = open_out "BENCH_campaign.json" in
  let cfg = Cluster.Campaign.default_config in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"campaign\",\n  \"nodes\": %d,\n  \
     \"vms_per_node\": %d,\n  \"concurrency\": %d,\n  \"points\": [\n"
    cfg.Cluster.Campaign.nodes cfg.Cluster.Campaign.vms_per_node
    cfg.Cluster.Campaign.concurrency;
  List.iteri
    (fun i (p, (r : Cluster.Campaign.report)) ->
      Printf.fprintf oc
        "    {\"probability\": %g, \"wall_clock_s\": %.3f, \
         \"exposed_host_hours\": %.4f, \"breaker_trips\": %d, \
         \"deferred_hosts\": %d}%s\n"
        p
        (Sim.Time.to_sec_f r.Cluster.Campaign.wall_clock)
        r.Cluster.Campaign.exposed_host_hours
        r.Cluster.Campaign.breaker_trips
        (List.length r.Cluster.Campaign.deferred)
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  note "wrote BENCH_campaign.json@."

(* --- ablations (section 4.2.5) --- *)

let ablation () =
  header "Ablation: the four InPlaceTP optimisations (section 4.2.5)";
  let base = Hypertp.Options.default in
  let variants =
    [
      ("all optimisations on", base);
      ("no preparation before pause",
       { base with Hypertp.Options.prepare_before_pause = false });
      ("no parallel translation",
       { base with Hypertp.Options.parallel_translation = false });
      ("no huge-page PRAM", { base with Hypertp.Options.huge_page_pram = false });
      ("no early restoration",
       { base with Hypertp.Options.early_restoration = false });
      ("everything off", Hypertp.Options.all_off);
    ]
  in
  let vms = List.init 6 (fun i -> vm_config ~name:(Printf.sprintf "v%d" i) ~gib:2 ()) in
  Format.printf "%-30s downtime   total      pram bytes@." "configuration";
  List.iter
    (fun (label, options) ->
      let reports =
        repeat (fun rng ->
            inplace_once ~options ~machine:(Hw.Machine.m1 ())
              ~src_kind:Hv.Kind.Xen ~seed:(seed_of_rng rng) vms)
      in
      let m select = (phase_stats reports select).Sim.Stats.mean in
      let pram_bytes =
        (List.hd reports).Hypertp.Inplace.pram_accounting.Pram.Layout.total_bytes
      in
      Format.printf "%-30s %.3f s    %.3f s   %9d@." label
        (m Hypertp.Phases.downtime) (m Hypertp.Phases.total) pram_bytes)
    variants
