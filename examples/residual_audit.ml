(* Residual-state auditing: prove the transplant left nothing of the
   source hypervisor behind, and scrub it when it did.

   The post-commit audit sweeps the target world against a fresh-boot
   reference of the target hypervisor: every allocated frame's content
   tag must be attributable to the target or to a riding guest, every
   staged UISR blob must be gone, and the guest-visible platform state
   must match the pre-transplant baseline modulo the modeled downtime.

   Run with: dune exec examples/residual_audit.exe *)

let fresh_host () =
  Hypertp.Api.provision ~name:"host0" ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    [ Vmstate.Vm.config ~name:"vm0" ~workload:Vmstate.Vm.Wl_redis ();
      Vmstate.Vm.config ~name:"vm1" () ]

let audit = Hypertp.Inplace.Scrub

let () =
  Format.printf "=== HyperTP residual-state audit ===@.@.";

  (* 1. Calm path: a fault-free transplant must audit clean — zero
     findings, outcome still Committed. *)
  Format.printf "--- calm transplant, audit armed ---@.";
  let host = fresh_host () in
  let r =
    Hypertp.Api.transplant_inplace ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  Format.printf "%a@." Hypertp.Inplace.pp_report r;
  (match r.Hypertp.Inplace.audit with
  | Some a -> Format.printf "%a@.@." Audit.pp_report a
  | None -> assert false);

  (* 2. A residual leak: the transplant leaves orphaned PRAM pages,
     source heap frames, a stale kernel frame and a retained staged
     blob behind.  The audit flags all of it, the scrub pass frees the
     frames and drops the blob, and the recheck comes back clean — but
     the run reports Recovered, never Committed. *)
  Format.printf "--- residual leak: audit, scrub, recheck ---@.";
  let host = fresh_host () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Residual_leak; trigger = Fault.Nth_hit 1 } ]
  in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  Format.printf "%a@.@." Hypertp.Inplace.pp_report r;

  (* 3. The scrub itself fails: the ladder escalates to the full-reboot
     rung rather than handing back a world with known residue. *)
  Format.printf "--- residual leak + scrub failure: full reboot ---@.";
  let host = fresh_host () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Residual_leak; trigger = Fault.Nth_hit 1 };
        { Fault.site = Fault.Scrub_fail; trigger = Fault.Nth_hit 1 } ]
  in
  let r =
    Hypertp.Api.transplant_inplace ~fault ~audit ~host ~target:Hv.Kind.Kvm ()
  in
  Format.printf "%a@.@." Hypertp.Inplace.pp_report r;

  (* 4. MigrationTP gets the same rung: the destination world is swept
     after the last VM lands. *)
  Format.printf "--- audited MigrationTP ---@.";
  let src = fresh_host () in
  let dst =
    Hypertp.Api.provision ~name:"dst" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm []
  in
  let r =
    Hypertp.Api.transplant_migration ~audit ~src ~dst ()
  in
  Format.printf "%a@." Hypertp.Migrate.pp_report r
