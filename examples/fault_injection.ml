(* Fault injection: abort, rollback, recovery and retry across the two
   transplant mechanisms, plus the campaign-level failure-probability
   sweep.

   Run with: dune exec examples/fault_injection.exe *)

let fresh_host () =
  Hypertp.Api.provision ~name:"host0" ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    [ Vmstate.Vm.config ~name:"vm0" ~workload:Vmstate.Vm.Wl_redis ();
      Vmstate.Vm.config ~name:"vm1" () ]

let () =
  Format.printf "=== HyperTP fault injection ===@.@.";

  (* 1. A fault before the point of no return: the transplant aborts
     and rolls back — VMs resume on Xen, memory provably untouched. *)
  Format.printf "--- pre-PNR fault: uisr_encode on vm1 ---@.";
  let host = fresh_host () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Uisr_encode; trigger = Fault.On_vm "vm1" } ]
  in
  let r = Hypertp.Api.transplant_inplace ~fault ~host ~target:Hv.Kind.Kvm () in
  Format.printf "%a@." Hypertp.Inplace.pp_report r;
  Format.printf "host still runs: %s@.@." (Hv.Host.hypervisor_name host);

  (* 2. A fault after the point of no return: the source hypervisor is
     gone, so the ReHype-style ladder recovers on the target side. *)
  Format.printf "--- post-PNR fault: vm_restore (first hit) ---@.";
  let host = fresh_host () in
  let fault =
    Fault.make [ { Fault.site = Fault.Vm_restore; trigger = Fault.Nth_hit 1 } ]
  in
  let r = Hypertp.Api.transplant_inplace ~fault ~host ~target:Hv.Kind.Kvm () in
  Format.printf "%a@." Hypertp.Inplace.pp_report r;
  Format.printf "host now runs: %s@.@." (Hv.Host.hypervisor_name host);

  (* 3. MigrationTP under a flaky link: drop the first attempt, retry
     with backoff, complete on the second. *)
  Format.printf "--- migration link drop + retry ---@.";
  let src = fresh_host () in
  let dst =
    Hypertp.Api.provision ~name:"dst" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm []
  in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Migration_link_drop; trigger = Fault.Nth_hit 1 } ]
  in
  let r = Hypertp.Api.transplant_migration ~fault ~src ~dst () in
  Format.printf "%a@.@." Hypertp.Migrate.pp_report r;

  (* 4. The cluster-level question: how much wall-clock does a given
     per-host failure probability add to a supervised rolling upgrade,
     and does every VM survive?  (It does — failed hosts fall down the
     campaign's degradation ladder: drain, or defer and retry.) *)
  Format.printf "--- campaign sweep: host-crash probability ---@.";
  List.iter
    (fun (p, (r : Cluster.Campaign.report)) ->
      let failed =
        List.length
          (List.filter
             (fun h -> h.Cluster.Campaign.hr_manifestations <> [])
             r.Cluster.Campaign.hosts)
      in
      Format.printf "p=%.2f  %d/%d hosts failed, wall-clock %a, %d/%d VMs \
                     accounted@."
        p failed
        (List.length r.Cluster.Campaign.hosts)
        Sim.Time.pp r.Cluster.Campaign.wall_clock
        (Cluster.Campaign.vms_accounted r)
        r.Cluster.Campaign.vms_total)
    (Cluster.Campaign.sweep ~probabilities:[ 0.0; 0.25; 0.5 ] ())
