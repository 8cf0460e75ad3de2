type timing = {
  migration_count : int;
  inplace_vm_count : int;
  migration_time : Sim.Time.t;
  upgrade_tail : Sim.Time.t;
  total : Sim.Time.t;
}

(* Per-action setup: BtrPlace/Nova round-trips, pre-migration checks,
   storage hand-off.  Calibrated so a ~150-migration plan lands near the
   paper's "up to 19 minutes". *)
let migration_setup = Sim.Time.of_sec_f 3.5

(* Both estimates are pure in a small profile key — (nic, RAM,
   workload) and the riding-VM count respectively — but campaign
   planning asks for them once per host.  Memoised so a 10k-host fleet
   computes each distinct profile once instead of building 10k
   identical Precopy plans and boot models. *)
let mig_memo :
    (Hw.Nic.t * Hw.Units.bytes_ * Vmstate.Vm.workload_kind, Sim.Time.t)
    Hypertp.Costs.Memo.t =
  Hypertp.Costs.Memo.create 64

let migration_op_time ~nic ~(vm : Model.vm) =
  Hypertp.Costs.Memo.find_or_add mig_memo
    (nic, vm.Model.ram, vm.Model.workload)
    (fun (nic, ram, workload) ->
      let params = Migration.Precopy.default_params ~nic () in
      let plan =
        Migration.Precopy.plan params ~page_bytes:Hw.Units.page_size_4k
          ~total_pages:(Hw.Units.frames_of_bytes ram)
          ~dirty_pages_per_sec:
            (Workload.Profile.dirty_pages_per_sec workload ~ram
               ~page_kind:Hw.Units.Page_2m)
      in
      Sim.Time.sum
        [ migration_setup; plan.Migration.Precopy.precopy_time;
          plan.Migration.Precopy.stop_copy_time ])

let inplace_memo : (int, Sim.Time.t) Hypertp.Costs.Memo.t =
  Hypertp.Costs.Memo.create 16

let inplace_host_time ~vms =
  (* kexec into the target on a G5K node + per-VM translate/restore.
     Host-level, not per-VM downtime: boot dominates.  The same estimate
     feeds Campaign's straggler deadlines. *)
  Hypertp.Costs.Memo.find_or_add inplace_memo vms (fun vms ->
      let machine = Hw.Machine.g5k_node () in
      let boot = Sim.Time.to_sec_f (Xenhv.Xen.boot_time ~machine) in
      Sim.Time.of_sec_f
        (Hypertp.Costs.expected_host_upgrade_seconds ~boot_seconds:boot ~vms))

let reboot_host_time = Sim.Time.sec 60 (* firmware + full kernel boot *)

let execute ~nic (plan : Btrplace.plan) =
  Hypertp.Log.info (fun m ->
      m "upgrade: executing plan with %d migrations, %d VMs in place"
        plan.Btrplace.migration_count plan.Btrplace.inplace_vm_count);
  let migration_time = ref Sim.Time.zero in
  let last_upgrade = ref Sim.Time.zero in
  Array.iter
    (fun action ->
      match action with
      | Btrplace.Migrate { vm; src; dst } ->
        let op = migration_op_time ~nic ~vm in
        Hypertp.Log.debug (fun m ->
            m "upgrade: migrate %s %s -> %s (%a)" vm.Model.vm_name src dst
              Sim.Time.pp op);
        migration_time := Sim.Time.add !migration_time op
      | Btrplace.Upgrade_inplace { node; vms_in_place } ->
        Hypertp.Log.debug (fun m ->
            m "upgrade: in-place %s with %d VMs riding" node vms_in_place);
        last_upgrade :=
          (if vms_in_place > 0 then inplace_host_time ~vms:vms_in_place
           else reboot_host_time)
      | Btrplace.Take_offline _ | Btrplace.Bring_online _ -> ())
    plan.Btrplace.actions;
  let t =
    {
      migration_count = plan.Btrplace.migration_count;
      inplace_vm_count = plan.Btrplace.inplace_vm_count;
      migration_time = !migration_time;
      upgrade_tail = !last_upgrade;
      total = Sim.Time.add !migration_time !last_upgrade;
    }
  in
  Hypertp.Log.info (fun m ->
      m "upgrade: plan executed, total %a" Sim.Time.pp t.total);
  t

let sweep ?(nodes = 10) ?(vms_per_node = 10) ~fractions () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  List.map
    (fun fraction ->
      let model =
        Model.make ~nodes ~vms_per_node ~vm_ram:(Hw.Units.gib 4)
          ~node_ram:(Hw.Units.gib 96) ~inplace_fraction:fraction
          ~workload_mix:
            [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
              (Vmstate.Vm.Wl_idle, 0.4) ]
          ()
      in
      let plan = Btrplace.plan_upgrade model in
      assert (Btrplace.capacity_safe model);
      (fraction, execute ~nic plan))
    fractions

let pp_timing fmt t =
  Format.fprintf fmt
    "%d migrations (%a) + %d VMs in place (tail %a) => total %a"
    t.migration_count Sim.Time.pp t.migration_time t.inplace_vm_count
    Sim.Time.pp t.upgrade_tail Sim.Time.pp t.total
