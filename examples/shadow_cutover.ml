(* Near-zero-downtime transplant with a shadow host.

   Classic MigrationTP pays a full stop-and-copy downtime per VM.  The
   shadow-host strategy pre-stages the target hypervisor on a spare,
   streams the checkpoint and replays dirty state while the source
   keeps serving, and swaps identities atomically: the downtime
   shrinks to the final dirty set plus the swap handshake.  Every
   phase before the swap is abortable with the source provably
   untouched; aborts walk the degradation ladder (shadow -> classic
   MigrationTP -> defer).

   Run with: dune exec examples/shadow_cutover.exe *)

let provision_pair () =
  let src =
    Hypertp.Api.provision ~name:"prod0" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Xen
      [ Vmstate.Vm.config ~name:"vm0" ~workload:Vmstate.Vm.Wl_redis ();
        Vmstate.Vm.config ~name:"vm1" () ]
  in
  let spare = Hv.Host.create ~name:"spare0" (Hw.Machine.m1 ()) in
  (src, spare)

let () =
  Format.printf "=== shadow-host MigrationTP ===@.@.";

  (* 1. The calm run: stage the target on the spare, stream, converge,
     swap.  Compare the cutover downtime against classic MigrationTP
     on the same pair. *)
  Format.printf "--- calm cutover ---@.";
  let src, spare = provision_pair () in
  let r = Hypertp.Api.transplant_shadow ~src ~spare ~target:Hv.Kind.Kvm () in
  Format.printf "%a@.@." Hypertp.Migrate.pp_shadow_report r;

  let csrc, cspare = provision_pair () in
  Hv.Host.boot_hypervisor cspare (Hypertp.Api.hypervisor_of Hv.Kind.Kvm);
  let classic =
    Hypertp.Api.transplant_migration ~src:csrc ~dst:cspare ()
  in
  let classic_downtime =
    List.fold_left
      (fun acc (v : Hypertp.Migrate.vm_report) -> Sim.Time.max acc v.downtime)
      Sim.Time.zero classic.Hypertp.Migrate.per_vm
  in
  Format.printf
    "classic MigrationTP downtime on the same pair: %a@.shadow cutover \
     downtime: %a@.@."
    Sim.Time.pp classic_downtime Sim.Time.pp r.Hypertp.Migrate.sh_downtime;

  (* 2. A fault before the swap.  The checkpoint stream dies; the abort
     handler verifies the source intact and degrades to classic
     MigrationTP against the already-staged spare. *)
  Format.printf "--- stream drop: degrade to classic ---@.";
  let src, spare = provision_pair () in
  let fault =
    Fault.make ~seed:3L
      [ { Fault.site = Fault.Shadow_stream_drop; trigger = Fault.Nth_hit 2 } ]
  in
  let r = Hypertp.Api.transplant_shadow ~fault ~src ~spare ~target:Hv.Kind.Kvm () in
  Format.printf "%a@.@." Hypertp.Migrate.pp_shadow_report r;

  (* 3. The same fault with the ladder disabled: the run defers — the
     source keeps its VMs and the exposure window stays open. *)
  Format.printf "--- stream drop, ladder off: defer ---@.";
  let src, spare = provision_pair () in
  let fault =
    Fault.make ~seed:3L
      [ { Fault.site = Fault.Shadow_stream_drop; trigger = Fault.Nth_hit 2 } ]
  in
  let r =
    Hypertp.Api.transplant_shadow ~fault ~ladder:false ~src ~spare
      ~target:Hv.Kind.Kvm ()
  in
  Format.printf "%a@.@." Hypertp.Migrate.pp_shadow_report r;
  Format.printf "source still holds: %s@."
    (String.concat ", " (Hv.Host.vm_names src));

  (* 4. A guest that outruns the link.  The convergence watchdog (a
     replay round must shrink below 0.9 x its predecessor) trips
     instead of looping forever. *)
  Format.printf "@.--- injected divergence: watchdog trips ---@.";
  let src, spare = provision_pair () in
  let fault =
    Fault.make ~seed:9L
      [ { Fault.site = Fault.Shadow_diverge; trigger = Fault.Nth_hit 1 } ]
  in
  let r = Hypertp.Api.transplant_shadow ~fault ~src ~spare ~target:Hv.Kind.Kvm () in
  Format.printf "%a@." Hypertp.Migrate.pp_shadow_report r;
  Format.printf "watchdog trips: %d (round deadlines met: %d)@."
    r.Hypertp.Migrate.sh_watchdog_trips r.Hypertp.Migrate.sh_watchdog_cancels
