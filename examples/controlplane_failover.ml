(* Replicated hierarchical control plane: surviving controller crashes.

   The fleet is split into regions, each run by its own campaign
   controller (journal, breaker, ladder, admission budget) under a root
   supervisor that shares out the concurrency budget and rebuilds any
   dead region from its journal.  The headline
   property demonstrated below: no matter where the controllers crash
   or partition — including a second crash in the middle of a resume
   replay — the final report and merged journal are byte-identical to
   the uninterrupted run.

   Run with: dune exec examples/controlplane_failover.exe *)

module CP = Cluster.Controlplane

let host_faults =
  [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.25 };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability 0.1 };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability 0.1 } ]

let () =
  Format.printf "=== HyperTP hierarchical control plane ===@.@.";
  let cfg =
    { CP.default_config with CP.regions = 3; hosts_per_region = 8;
      global_concurrency = 6 }
  in

  (* 1. The reference run: host faults only, controllers never die. *)
  Format.printf "--- reference run (host faults, healthy controllers) ---@.";
  let reference =
    match CP.run ~fault:(Fault.make ~seed:11L host_faults) cfg with
    | CP.Finished (report, bundle) ->
      Format.printf "%s@." (CP.summary report);
      (CP.summary report, CP.merged_to_string bundle)
    | CP.Crashed _ -> assert false
  in

  (* 2. Kill a sub-controller mid-campaign and partition another.  The
     crashed region is rebuilt from its journal at once; the partitioned
     one goes silent, so the root fences and rebuilds it the same way.
     The run still [Finished]s, and everything derived from the timeline
     is unchanged. *)
  Format.printf "--- sub-controller crash + supervision partition ---@.";
  let chaotic =
    Fault.make ~seed:11L
      (host_faults
      @ [ { Fault.site = Fault.Subctl_crash; trigger = Fault.Nth_hit 9 };
          { Fault.site = Fault.Ctl_partition; trigger = Fault.Nth_hit 4 } ])
  in
  (match CP.run ~fault:chaotic cfg with
  | CP.Finished (report, bundle) ->
    Format.printf "report byte-identical to reference: %b@."
      (CP.summary report = fst reference);
    Format.printf "merged journal byte-identical to reference: %b@.@."
      (CP.merged_to_string bundle = snd reference)
  | CP.Crashed _ -> assert false);

  (* 3. Kill the root itself, then kill the next leader again while it
     is replaying a region journal (the double-fault).  Each death
     surfaces a bundle; handing it to [resume] is a leader handoff that
     rebuilds every region from its sub-journal.  The chaos
     plan is threaded through the chain as-is, so each Nth_hit fires
     exactly once. *)
  Format.printf "--- root crash, then crash during the resume replay ---@.";
  let double_fault =
    Fault.make ~seed:11L
      (host_faults
      @ [ { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit 4 };
          { Fault.site = Fault.Crash_during_resume; trigger = Fault.Nth_hit 7 } ])
  in
  let rec drive n = function
    | CP.Finished (report, bundle) ->
      Format.printf "finished after %d leader handoffs@." n;
      (report, bundle)
    | CP.Crashed bundle ->
      Format.printf "leader died with %d journaled events; handing off@."
        (CP.bundle_length bundle);
      drive (n + 1) (CP.resume ~fault:double_fault bundle)
  in
  let report, bundle = drive 0 (CP.run ~fault:double_fault cfg) in
  Format.printf "report byte-identical to reference: %b@."
    (CP.summary report = fst reference);
  Format.printf "merged journal byte-identical to reference: %b@.@."
    (CP.merged_to_string bundle = snd reference);

  (* 4. Bundles are plain text: durable, diffable, resumable. *)
  let text = CP.bundle_to_string bundle in
  Format.printf "--- bundle round-trip (%d bytes) ---@." (String.length text);
  (match CP.bundle_of_string text with
  | Ok bundle' ->
    Format.printf "round-trip preserved every entry: %b@."
      (CP.bundle_to_string bundle' = text)
  | Error e -> Format.printf "parse failed: %s@." e)
