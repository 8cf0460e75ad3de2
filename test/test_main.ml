(* Aggregated test runner: one Alcotest suite per library. *)

let () =
  Alcotest.run "hypertp"
    (Test_sim.suites @ Test_hw.suites @ Test_vmstate.suites
   @ Test_workload.suites @ Test_uisr.suites @ Test_pram.suites
   @ Test_kexec.suites @ Test_hv.suites @ Test_xen_kvm.suites
   @ Test_bhyve.suites @ Test_migration.suites @ Test_shadow.suites
   @ Test_cve.suites
   @ Test_fault.suites @ Test_integrity.suites @ Test_audit.suites
   @ Test_hypertp.suites
   @ Test_cluster.suites @ Test_campaign.suites @ Test_controlplane.suites
   @ Test_topology.suites @ Test_journal.suites
   @ Test_extras.suites @ Test_obs.suites @ Test_stream.suites
   @ Test_flags.suites)
