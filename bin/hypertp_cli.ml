(* hypertp-cli: drive the HyperTP simulator from the command line.

   Subcommands:
     cve       - query the vulnerability study and the transplant policy
     inplace   - run an InPlaceTP transplant on a simulated host
     migrate   - run a MigrationTP (or homogeneous) live migration
     memsep    - show the memory-separation classification of a host
     cluster   - plan and time a rolling cluster upgrade
     respond   - the one-click CVE response flow *)

open Cmdliner

(* --- shared argument converters --- *)

let machine_conv =
  let parse = function
    | "m1" | "M1" -> Ok (Hw.Machine.m1 ())
    | "m2" | "M2" -> Ok (Hw.Machine.m2 ())
    | "g5k" | "G5K" -> Ok (Hw.Machine.g5k_node ())
    | s -> Error (`Msg (Printf.sprintf "unknown machine %S (m1|m2|g5k)" s))
  in
  let print fmt (m : Hw.Machine.t) = Format.pp_print_string fmt m.name in
  Arg.conv (parse, print)

let hv_conv =
  let parse s =
    match Hv.Kind.of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown hypervisor %S (xen|kvm)" s))
  in
  Arg.conv (parse, Hv.Kind.pp)

let machine_arg =
  Arg.(value & opt machine_conv (Hw.Machine.m1 ())
       & info [ "machine" ] ~docv:"MACHINE" ~doc:"Host machine model (m1|m2|g5k).")

let source_arg =
  Arg.(value & opt hv_conv Hv.Kind.Xen
       & info [ "source" ] ~docv:"HV" ~doc:"Hypervisor the host starts on.")

let target_arg =
  Arg.(value & opt hv_conv Hv.Kind.Kvm
       & info [ "target" ] ~docv:"HV" ~doc:"Hypervisor to transplant onto.")

let vms_arg =
  Arg.(value & opt int 1 & info [ "vms" ] ~docv:"N" ~doc:"Number of VMs.")

let vcpus_arg =
  Arg.(value & opt int 1 & info [ "vcpus" ] ~docv:"N" ~doc:"vCPUs per VM.")

let gib_arg =
  Arg.(value & opt int 1 & info [ "gib" ] ~docv:"N" ~doc:"GiB of RAM per VM.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let fault_conv =
  let parse s =
    match Fault.parse_spec s with Ok sp -> Ok sp | Error e -> Error (`Msg e)
  in
  let print fmt (sp : Fault.spec) =
    Format.fprintf fmt "%a:..." Fault.pp_site sp.Fault.spec_injection.Fault.site
  in
  Arg.conv (parse, print)

let fault_arg =
  Arg.(value & opt_all fault_conv []
       & info [ "fault" ] ~docv:"SITE:TRIGGER[,seed=N]"
           ~doc:"Arm a fault injection, e.g. $(b,kexec_jump:1) (fire on the \
                 first hit), $(b,vm_restore:vm=vm0) (fire for that VM), or \
                 $(b,migration_link_drop:p=0.1,seed=7) (fire with probability \
                 0.1, RNG seeded with 7).  Repeatable.")

let fault_of_specs = function [] -> None | specs -> Some (Fault.of_specs specs)

let topology_conv =
  let parse s =
    match Cluster.Topology.of_spec s with
    | Ok t -> Ok t
    | Error e -> Error (`Msg e)
  in
  let print fmt t = Format.pp_print_string fmt (Cluster.Topology.spec t) in
  Arg.conv (parse, print)

let topology_arg ~doc =
  Arg.(value & opt (some topology_conv) None
       & info [ "topology" ] ~docv:"SPEC" ~doc)

let shard_mode_conv =
  let parse s =
    match Sim.Shard.of_string s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  let print fmt m = Format.pp_print_string fmt (Sim.Shard.to_string m) in
  Arg.conv (parse, print)

let audit_flag =
  Arg.(value & flag
       & info [ "audit" ]
           ~doc:"Arm the post-commit residual audit: sweep the target world \
                 against a fresh-boot reference after the transplant, \
                 scrub-and-recheck on findings.")

let audit_of_flag armed =
  if armed then Some Hypertp.Ctx.audit_default else None

let print_fault_trace = function
  | None -> ()
  | Some f -> Format.printf "fault trace:@.%a@." Fault.pp_trace f

let verbose_arg =
  let setup verbosity =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level
      (Some
         (match List.length verbosity with
         | 0 -> Logs.Warning
         | 1 -> Logs.Info
         | _ -> Logs.Debug))
  in
  Term.(const setup
        $ Arg.(value & flag_all
               & info [ "v"; "verbose" ]
                   ~doc:"Increase log verbosity (repeatable): $(b,-v) \
                         narrates each workflow step, $(b,-v -v) adds \
                         span-level debug detail."))

(* --- observability plumbing shared by inplace/migrate/campaign --- *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"PATH"
           ~doc:"Write a Chrome trace_event JSON recording of the run here \
                 (open in Perfetto or chrome://tracing).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"PATH"
           ~doc:"Write an OpenMetrics text snapshot of the run's counters, \
                 gauges and histograms here.")

let obs_of_paths trace_out metrics_out =
  ( Option.map (fun _ -> Obs.Tracer.create ()) trace_out,
    Option.map (fun _ -> Obs.Metrics.create ()) metrics_out )

let write_obs trace_out metrics_out obs metrics =
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  (match (trace_out, obs) with
  | Some path, Some tr ->
    write path (Obs.Export.chrome_trace tr);
    Format.printf "trace (%d spans) written to %s@." (Obs.Tracer.count tr) path
  | _ -> ());
  match (metrics_out, metrics) with
  | Some path, Some m ->
    write path (Obs.Export.open_metrics m);
    Format.printf "metrics written to %s@." path
  | _ -> ()

let provision ~machine ~hv ~vms ~vcpus ~gib ~seed =
  let configs =
    List.init vms (fun i ->
        Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus
          ~ram:(Hw.Units.gib gib) ())
  in
  Hypertp.Api.provision ~seed ~name:"cli-host" ~machine ~hv configs

(* --- cve --- *)

let cve_cmd =
  let action =
    Arg.(value & pos 0 (enum [ ("table", `Table); ("show", `Show); ("windows", `Windows) ]) `Table
         & info [] ~docv:"ACTION" ~doc:"table | show | windows")
  in
  let id =
    Arg.(value & pos 1 string "" & info [] ~docv:"CVE-ID" ~doc:"CVE identifier for 'show'.")
  in
  let run action id =
    match action with
    | `Table ->
      let rows = Cve.Nvd.table1 () in
      Format.printf "year   xen crit/med   kvm crit/med   common@.";
      List.iter
        (fun (r : Cve.Nvd.table1_row) ->
          Format.printf "%4d   %3d / %3d      %3d / %3d      %d / %d@."
            r.row_year r.xen_crit r.xen_med r.kvm_crit r.kvm_med
            r.common_crit r.common_med)
        rows
    | `Windows ->
      Format.printf "KVM: %a@." Cve.Window.pp_stats (Cve.Window.kvm_stats ());
      Format.printf "Xen: %a@." Cve.Window.pp_stats (Cve.Window.xen_stats ())
    | `Show -> (
      match Cve.Nvd.find id with
      | Some r ->
        Format.printf "%a@." Cve.Nvd.pp_record r;
        Format.printf "advice for a Xen fleet: %a@." Cve.Window.pp_advice
          (Cve.Window.advise ~fleet:[ "xen"; "kvm" ] ~current:"xen" r);
        Format.printf "advice for a KVM fleet: %a@." Cve.Window.pp_advice
          (Cve.Window.advise ~fleet:[ "xen"; "kvm" ] ~current:"kvm" r)
      | None ->
        Format.eprintf "unknown CVE %s@." id;
        exit 1)
  in
  Cmd.v (Cmd.info "cve" ~doc:"Query the vulnerability study (Table 1, section 2.2)")
    Term.(const run $ action $ id)

(* --- inplace --- *)

let inplace_cmd =
  let run () machine source target vms vcpus gib seed fault_specs audit
      trace_out metrics_out =
    if Hv.Kind.equal source target then begin
      Format.eprintf "source and target hypervisors must differ@.";
      exit 1
    end;
    let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    let fault = fault_of_specs fault_specs in
    let obs, metrics = obs_of_paths trace_out metrics_out in
    let report =
      Hypertp.Api.transplant_inplace
        ~ctx:(Hypertp.Ctx.make ?audit:(audit_of_flag audit) ())
        ~rng:(Sim.Rng.create seed) ?fault ?obs ?metrics ~host ~target ()
    in
    Format.printf "%a@." Hypertp.Inplace.pp_report report;
    Format.printf "fixups:@.";
    List.iter
      (fun (vm, fixes) -> Format.printf "  %s: %a@." vm Uisr.Fixup.pp_list fixes)
      report.fixups;
    (match report.Hypertp.Inplace.audit with
    | Some a -> Format.printf "%a@." Audit.pp_report a
    | None -> ());
    print_fault_trace fault;
    write_obs trace_out metrics_out obs metrics;
    if not (Hypertp.Inplace.all_ok report.checks) then exit 2
  in
  Cmd.v
    (Cmd.info "inplace" ~doc:"Run an InPlaceTP micro-reboot transplant")
    Term.(const run $ verbose_arg $ machine_arg $ source_arg $ target_arg
          $ vms_arg $ vcpus_arg $ gib_arg $ seed_arg $ fault_arg $ audit_flag
          $ trace_out_arg $ metrics_out_arg)

(* --- migrate --- *)

let migrate_cmd =
  let run () machine source target vms vcpus gib seed fault_specs audit
      trace_out metrics_out =
    let src = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    let dst =
      Hypertp.Api.provision ~seed:(Int64.add seed 1L) ~name:"cli-dst" ~machine
        ~hv:target []
    in
    let fault = fault_of_specs fault_specs in
    let obs, metrics = obs_of_paths trace_out metrics_out in
    let report =
      Hypertp.Api.transplant_migration
        ~ctx:(Hypertp.Ctx.make ?audit:(audit_of_flag audit) ())
        ~rng:(Sim.Rng.create seed) ?fault ?obs ?metrics ~src ~dst ()
    in
    Format.printf "%a@." Hypertp.Migrate.pp_report report;
    (match report.Hypertp.Migrate.audit with
    | Some a -> Format.printf "%a@." Audit.pp_report a
    | None -> ());
    print_fault_trace fault;
    write_obs trace_out metrics_out obs metrics;
    if not report.Hypertp.Migrate.checks.Hypertp.Migrate.residual_clean then
      exit 2
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Run a MigrationTP (heterogeneous) or homogeneous live migration")
    Term.(const run $ verbose_arg $ machine_arg $ source_arg $ target_arg
          $ vms_arg $ vcpus_arg $ gib_arg $ seed_arg $ fault_arg $ audit_flag
          $ trace_out_arg $ metrics_out_arg)

(* --- shadow --- *)

let shadow_cmd =
  let no_ladder =
    Arg.(value & flag
         & info [ "no-ladder" ]
             ~doc:"Disable the degradation ladder: any pre-swap abort \
                   defers (the source keeps serving) instead of falling \
                   back to classic MigrationTP on the staged spare.")
  in
  let compare_flag =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Also run classic MigrationTP on an identical pair and \
                   print the downtime ratio.")
  in
  let run () machine source target vms vcpus gib seed fault_specs no_ladder
      compare trace_out metrics_out =
    let src = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    let spare = Hv.Host.create ~name:"cli-spare" machine in
    let fault = fault_of_specs fault_specs in
    let obs, metrics = obs_of_paths trace_out metrics_out in
    let r =
      Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create seed) ?fault ?obs
        ?metrics ~ladder:(not no_ladder) ~src ~spare ~target ()
    in
    Format.printf "%a@." Hypertp.Migrate.pp_shadow_report r;
    if compare then begin
      let csrc = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
      let cspare = Hv.Host.create ~name:"cli-spare" machine in
      Hv.Host.boot_hypervisor cspare (Hypertp.Api.hypervisor_of target);
      let classic =
        Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create seed) ~src:csrc
          ~dst:cspare ()
      in
      let classic_downtime =
        List.fold_left
          (fun acc (v : Hypertp.Migrate.vm_report) ->
            Sim.Time.max acc v.Hypertp.Migrate.downtime)
          Sim.Time.zero classic.Hypertp.Migrate.per_vm
      in
      Format.printf
        "classic MigrationTP downtime: %a@.shadow/classic downtime ratio: \
         %.3f@."
        Sim.Time.pp classic_downtime
        (Sim.Time.to_sec_f r.Hypertp.Migrate.sh_downtime
        /. Sim.Time.to_sec_f classic_downtime)
    end;
    print_fault_trace fault;
    write_obs trace_out metrics_out obs metrics;
    if not r.Hypertp.Migrate.sh_source_intact then exit 2
  in
  Cmd.v
    (Cmd.info "shadow"
       ~doc:"Run a shadow-host MigrationTP: pre-stage the target on a \
             spare, stream and converge while the source serves, swap \
             identities atomically; pre-swap faults abort with the source \
             verified intact and walk the degradation ladder")
    Term.(const run $ verbose_arg $ machine_arg $ source_arg $ target_arg
          $ vms_arg $ vcpus_arg $ gib_arg $ seed_arg $ fault_arg $ no_ladder
          $ compare_flag $ trace_out_arg $ metrics_out_arg)

(* --- audit --- *)

let audit_cmd =
  let no_scrub =
    Arg.(value & flag
         & info [ "no-scrub" ]
             ~doc:"Report findings without remediating them.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"Write the serialized audit report here (deterministic for \
                   a fixed seed; the CI golden diffs against it).")
  in
  let run () machine source target vms vcpus gib seed fault_specs no_scrub
      out =
    if Hv.Kind.equal source target then begin
      Format.eprintf "source and target hypervisors must differ@.";
      exit 1
    end;
    let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    let fault = fault_of_specs fault_specs in
    let ctx =
      Hypertp.Ctx.make ~rng:(Sim.Rng.create seed) ?fault
        ~audit:{ Hypertp.Ctx.audit_scrub = not no_scrub } ()
    in
    let report = Hypertp.Api.transplant_inplace ~ctx ~host ~target () in
    let a =
      match report.Hypertp.Inplace.audit with
      | Some a -> a
      | None -> assert false (* the audit was armed *)
    in
    Format.printf "%a@.outcome: %a@." Audit.pp_report a
      Hypertp.Inplace.pp_outcome report.Hypertp.Inplace.outcome;
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Audit.to_string a);
      close_out oc;
      Format.printf "report written to %s@." path
    | None -> ());
    print_fault_trace fault;
    (* Exit discipline mirrors the severity ladder on the FINAL world:
       2 = exploitable residue left, 1 = fingerprintable residue left. *)
    if Audit.worst a = Some Audit.Exploitable then exit 2
    else if not (Audit.clean a) then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run an audited InPlaceTP transplant and report residual \
             source-hypervisor state (exit 2 if an exploitable finding is \
             left in the final world)")
    Term.(const run $ verbose_arg $ machine_arg $ source_arg $ target_arg
          $ vms_arg $ vcpus_arg $ gib_arg $ seed_arg $ fault_arg $ no_scrub
          $ out)

(* --- memsep --- *)

let memsep_cmd =
  let run machine source vms vcpus gib seed =
    let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    Format.printf "%a@.%a@." Hv.Host.pp host Hypertp.Memsep.pp
      (Hypertp.Memsep.of_host host)
  in
  Cmd.v
    (Cmd.info "memsep"
       ~doc:"Show the Fig. 2 memory-separation classification of a host")
    Term.(const run $ machine_arg $ source_arg $ vms_arg $ vcpus_arg $ gib_arg
          $ seed_arg)

(* --- cluster --- *)

let cluster_cmd =
  let nodes =
    Arg.(value & opt int 10 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let per_node =
    Arg.(value & opt int 10 & info [ "vms-per-node" ] ~docv:"N" ~doc:"VMs per node.")
  in
  let fraction =
    Arg.(value & opt float 0.8
         & info [ "inplace-fraction" ] ~docv:"F"
             ~doc:"Share of VMs tolerating InPlaceTP downtime.")
  in
  let fault_sweep =
    Arg.(value & opt (some (list float)) None
         & info [ "fault-sweep" ] ~docv:"P1,P2,..."
             ~doc:"Also run $(b,Upgrade.sweep_faulty) at these per-host \
                   failure probabilities and print the per-probability \
                   table.")
  in
  let run nodes vms_per_node fraction fault_sweep seed =
    let sweep =
      Cluster.Upgrade.sweep ~nodes ~vms_per_node ~fractions:[ 0.0; fraction ] ()
    in
    (match sweep with
    | [ (_, base); (_, t) ] ->
      Format.printf "migration-only baseline: %a@." Cluster.Upgrade.pp_timing base;
      Format.printf "with %.0f%% in-place:      %a@." (100.0 *. fraction)
        Cluster.Upgrade.pp_timing t;
      Format.printf "time gain: %.0f%%@."
        (100.0
        *. (1.0
           -. Sim.Time.to_sec_f t.Cluster.Upgrade.total
              /. Sim.Time.to_sec_f base.Cluster.Upgrade.total))
    | _ -> assert false);
    match fault_sweep with
    | None -> ()
    | Some probabilities ->
      Format.printf "@.per-host failure sweep (%dx%d, shared seed %Ld):@."
        nodes vms_per_node seed;
      Format.printf "%-6s %-9s %-10s %-10s %-10s %-10s %s@." "p" "failures"
        "in-place" "drained" "recovered" "added" "total";
      List.iter
        (fun (p, (t : Cluster.Upgrade.faulty_timing)) ->
          Format.printf "%-6.2f %-9d %-10d %-10d %-10d %-10s %a@." p
            (List.length t.Cluster.Upgrade.failures)
            t.Cluster.Upgrade.vms_inplace_ok
            t.Cluster.Upgrade.vms_migrated_fallback
            t.Cluster.Upgrade.vms_recovered
            (Sim.Time.to_string t.Cluster.Upgrade.added_time)
            Sim.Time.pp t.Cluster.Upgrade.total_with_faults)
        (Cluster.Upgrade.sweep_faulty ~nodes ~vms_per_node ~seed
           ~probabilities ())
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Plan and time a rolling cluster upgrade (Fig. 13)")
    Term.(const run $ nodes $ per_node $ fraction $ fault_sweep $ seed_arg)

(* --- respond --- *)

let respond_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let apply =
    Arg.(value & flag & info [ "apply" ] ~doc:"Actually run the transplant.")
  in
  let run machine source vms vcpus gib seed id apply =
    let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
    let mode = if apply then `Apply else `Advise in
    let r = Hypertp.Api.respond_to_cve ~host ~cve_id:id ~mode () in
    Format.printf "advice: %a@." Cve.Window.pp_advice r.advice;
    match r.outcome with
    | `Applied report -> Format.printf "%a@." Hypertp.Inplace.pp_report report
    | `Advised target ->
      Format.printf "(advice only; pass --apply to transplant to %a)@."
        Hv.Kind.pp target
    | `No_action -> Format.printf "(no transplant performed)@."
    | `No_safe_alternative ->
      Format.printf "(no safe alternative in the repertoire)@."
  in
  Cmd.v
    (Cmd.info "respond" ~doc:"One-click CVE response (Fig. 1b)")
    Term.(const run $ machine_arg $ source_arg $ vms_arg $ vcpus_arg $ gib_arg
          $ seed_arg $ id $ apply)

(* --- snapshot --- *)

let snapshot_cmd =
  let file =
    Arg.(required & opt (some string) None
         & info [ "file"; "f" ] ~docv:"PATH" ~doc:"Snapshot file.")
  in
  let action =
    Arg.(value & pos 0 (enum [ ("save", `Save); ("restore", `Restore) ]) `Save
         & info [] ~docv:"ACTION" ~doc:"save | restore")
  in
  let run action file machine source target vms vcpus gib seed =
    match action with
    | `Save ->
      let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
      let snap = Hypertp.Snapshot.capture host "vm0" in
      let blob = Hypertp.Snapshot.to_bytes snap in
      let oc = open_out_bin file in
      output_bytes oc blob;
      close_out oc;
      Format.printf "saved %s (%d bytes, %d bytes of guest memory) to %s@."
        (Hypertp.Snapshot.vm_name snap) (Bytes.length blob)
        (Hypertp.Snapshot.memory_bytes snap) file
    | `Restore -> (
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let blob = Bytes.create len in
      really_input ic blob 0 len;
      close_in ic;
      match Hypertp.Snapshot.of_bytes blob with
      | Error e ->
        Format.eprintf "cannot restore: %s@." e;
        exit 1
      | Ok snap ->
        let host =
          Hypertp.Api.provision ~seed ~name:"restore-host" ~machine ~hv:target
            []
        in
        let fixups = Hypertp.Snapshot.restore snap host in
        Format.printf
          "restored %s (suspended under %s) onto %s@.fixups: %a@."
          (Hypertp.Snapshot.vm_name snap)
          (Hypertp.Snapshot.source_hypervisor snap)
          (Hv.Host.hypervisor_name host) Uisr.Fixup.pp_list fixups)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Suspend a VM to a file and resume it under any hypervisor")
    Term.(const run $ action $ file $ machine_arg $ source_arg $ target_arg
          $ vms_arg $ vcpus_arg $ gib_arg $ seed_arg)

(* --- fault-campaign --- *)

let fault_campaign_cmd =
  let sweep =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"Also sweep the per-host failure probability over a 10x10 \
                   cluster upgrade.")
  in
  let list_flag =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List every injection site with its consulting engine and \
                   the valid trigger forms, without running anything.")
  in
  let list_sites () =
    (* Triggers are uniform across sites: parse_injection accepts
       site:N (fire on the Nth hit), site:p=F (per-hit probability) and
       site:vm=NAME (fire for that VM only). *)
    Format.printf "%-24s %-14s %s@." "site" "consulted by"
      "valid triggers (--fault site:TRIGGER[,seed=N])";
    let row engine site =
      Format.printf "%-24s %-14s %s@."
        (Fault.site_to_string site) engine "N | p=F | vm=NAME"
    in
    List.iter (row "inplace")
      (List.filter
         (fun s ->
           not
             (List.mem s
                [ Fault.Migration_link_drop; Fault.Migration_link_degrade ]))
         Fault.engine_sites);
    List.iter (row "migration")
      [ Fault.Migration_link_drop; Fault.Migration_link_degrade ];
    List.iter (row "shadow") Fault.shadow_sites;
    List.iter (row "campaign") Fault.cluster_sites;
    List.iter (row "controlplane") Fault.controlplane_sites;
    List.iter (row "stream") Fault.stream_sites
  in
  let rec run machine source target vms vcpus gib seed sweep list =
    if list then list_sites ()
    else run_campaign machine source target vms vcpus gib seed sweep
  and run_campaign machine source target vms vcpus gib seed sweep =
    (* One run per engine-level injection site, fault fired on its first
       hit: the exhaustive deterministic campaign.  Cluster-level sites
       are listed separately — they are consulted by the campaign
       controller, not by a single transplant. *)
    Format.printf "%-24s %-12s %-10s %s@." "site" "engine" "survival"
      "outcome";
    List.iter
      (fun site ->
        let fault =
          Fault.make ~seed
            [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
        in
        match site with
        | Fault.Migration_link_drop | Fault.Migration_link_degrade ->
          let src = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
          let dst =
            Hypertp.Api.provision ~seed:(Int64.add seed 1L) ~name:"c-dst"
              ~machine ~hv:target []
          in
          let r =
            Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create seed) ~fault
              ~src ~dst ()
          in
          let alive = Hv.Host.vm_count src + Hv.Host.vm_count dst in
          let outcome =
            Format.asprintf "%a"
              Format.(
                pp_print_list
                  ~pp_sep:(fun f () -> pp_print_string f "; ")
                  (fun f (v : Hypertp.Migrate.vm_report) ->
                    fprintf f "%s %a" v.vm_name Hypertp.Migrate.pp_outcome
                      v.outcome))
              r.Hypertp.Migrate.per_vm
          in
          Format.printf "%-24s %-12s %d/%-8d %s@."
            (Fault.site_to_string site) "migration" alive vms outcome
        | _ ->
          let host = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
          let r =
            Hypertp.Api.transplant_inplace ~rng:(Sim.Rng.create seed) ~fault
              ~host ~target ()
          in
          let alive = Hv.Host.vm_count host in
          Format.printf "%-24s %-12s %d/%-8d %a@."
            (Fault.site_to_string site) "inplace" alive vms
            Hypertp.Inplace.pp_outcome r.Hypertp.Inplace.outcome)
      Fault.engine_sites;
    (* Shadow sites, against the shadow-host engine: every one is
       pre-swap, so the source must survive each abort and the report
       must name the rung of the degradation ladder actually taken. *)
    List.iter
      (fun site ->
        let fault =
          Fault.make ~seed [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
        in
        let src = provision ~machine ~hv:source ~vms ~vcpus ~gib ~seed in
        let spare = Hv.Host.create ~name:"c-spare" machine in
        let r =
          Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create seed) ~fault
            ~src ~spare ~target ()
        in
        let alive = Hv.Host.vm_count src + Hv.Host.vm_count spare in
        Format.printf "%-24s %-12s %d/%-8d %a%s@."
          (Fault.site_to_string site) "shadow" alive vms
          Hypertp.Migrate.pp_shadow_strategy r.Hypertp.Migrate.sh_strategy
          (if r.Hypertp.Migrate.sh_source_intact then ""
           else " [SOURCE DAMAGED]"))
      Fault.shadow_sites;
    Format.printf
      "@.cluster-level sites (exercised by 'campaign --fault' and 'cluster \
       --fault-sweep', not per-transplant): %s@."
      (String.concat ", " (List.map Fault.site_to_string Fault.cluster_sites));
    Format.printf
      "control-plane sites (exercised by 'controlplane --fault' against the \
       hierarchical root/sub-controller supervisor): %s@."
      (String.concat ", "
         (List.map Fault.site_to_string Fault.controlplane_sites));
    Format.printf
      "stream sites (exercised by 'serve --fault' against the CVE-stream \
       campaign service): %s@."
      (String.concat ", " (List.map Fault.site_to_string Fault.stream_sites));
    if sweep then begin
      Format.printf "@.cluster sweep (10x10, host-crash probability):@.";
      Format.printf "%-6s %-9s %-10s %-10s %-10s %s@." "p" "failures"
        "in-place" "drained" "recovered" "total";
      List.iter
        (fun (p, (t : Cluster.Upgrade.faulty_timing)) ->
          Format.printf "%-6.2f %-9d %-10d %-10d %-10d %a@." p
            (List.length t.Cluster.Upgrade.failures)
            t.Cluster.Upgrade.vms_inplace_ok
            t.Cluster.Upgrade.vms_migrated_fallback
            t.Cluster.Upgrade.vms_recovered Sim.Time.pp
            t.Cluster.Upgrade.total_with_faults)
        (Cluster.Upgrade.sweep_faulty ~seed
           ~probabilities:[ 0.0; 0.1; 0.25; 0.5; 0.75; 1.0 ]
           ())
    end
  in
  Cmd.v
    (Cmd.info "fault-campaign"
       ~doc:"Exhaustive fault-injection campaign: one transplant per \
             injection site, printing the outcome and VM survival")
    Term.(const run $ machine_arg $ source_arg $ target_arg $ vms_arg
          $ vcpus_arg $ gib_arg $ seed_arg $ sweep $ list_flag)

(* --- campaign --- *)

let campaign_cmd =
  let nodes =
    Arg.(value & opt int 10 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let per_node =
    Arg.(value & opt int 10
         & info [ "vms-per-node" ] ~docv:"N" ~doc:"VMs per node.")
  in
  let fraction =
    Arg.(value & opt float 1.0
         & info [ "inplace-fraction" ] ~docv:"F"
             ~doc:"Share of VMs tolerating InPlaceTP downtime.")
  in
  let concurrency =
    Arg.(value & opt int Cluster.Campaign.default_config.Cluster.Campaign.concurrency
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Hosts upgraded in parallel (clamped by spare capacity).")
  in
  let straggler =
    Arg.(value & opt float
           Cluster.Campaign.default_config.Cluster.Campaign.straggler_factor
         & info [ "straggler-factor" ] ~docv:"F"
             ~doc:"Escalate a host attempt after F x its expected duration.")
  in
  let breaker_window =
    Arg.(value & opt int
           Cluster.Campaign.default_config.Cluster.Campaign.breaker_window
         & info [ "breaker-window" ] ~docv:"K"
             ~doc:"Circuit-breaker rolling window (last K attempts).")
  in
  let breaker_threshold =
    Arg.(value & opt float
           Cluster.Campaign.default_config.Cluster.Campaign.breaker_threshold
         & info [ "breaker-threshold" ] ~docv:"F"
             ~doc:"Trip when failures/K reaches F.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 120.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:"Pause admission for this long after a trip.")
  in
  let shadow_spares =
    Arg.(value & opt int
           Cluster.Campaign.default_config.Cluster.Campaign.shadow_spares
         & info [ "shadow-spares" ] ~docv:"N"
             ~doc:"Staged spare lanes for the shadow-cutover rung of the \
                   degradation ladder (0 disables the rung; journals are \
                   then byte-identical to pre-shadow campaigns).")
  in
  let topology =
    topology_arg
      ~doc:"Run a region-sharded fleet campaign over this topology instead \
            of a single cluster ($(b,--nodes)/$(b,--vms-per-node) are \
            ignored).  SPEC is $(b,RxHxV) (R regions of H hosts x V VMs) or \
            $(b,name:hosts:vms[:spares[:wire]];...).  Prints the \
            schedule-independent fleet report; $(b,--journal) then writes \
            the concatenated per-region journals."
  in
  let shard_mode =
    Arg.(value & opt (some shard_mode_conv) None
         & info [ "mode"; "shards" ] ~docv:"MODE"
             ~doc:"Shard schedule for $(b,--topology): $(b,seq), \
                   $(b,rotated:K) or $(b,parallel:SxD) (S shards on D \
                   domains).  Results are byte-identical across modes; only \
                   wall-clock changes.")
  in
  let journal_file =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write the campaign journal here (crash or success).")
  in
  let resume_from =
    Arg.(value & opt (some string) None
         & info [ "resume-from" ] ~docv:"PATH"
             ~doc:"Resume a crashed campaign from this journal (cluster \
                   shape and knobs come from the journal; pass the same \
                   $(b,--fault) specs as the original run).")
  in
  let sweep =
    Arg.(value & opt (some (list float)) None
         & info [ "sweep" ] ~docv:"P1,P2,..."
             ~doc:"Run one campaign per host-crash probability instead of a \
                   single campaign.")
  in
  let run () nodes vms_per_node fraction concurrency straggler breaker_window
      breaker_threshold breaker_cooldown shadow_spares topology shard_mode
      seed specs journal_file resume_from sweep trace_out metrics_out =
    let config =
      {
        Cluster.Campaign.default_config with
        Cluster.Campaign.nodes;
        vms_per_node;
        inplace_fraction = fraction;
        concurrency;
        straggler_factor = straggler;
        breaker_window;
        breaker_threshold;
        breaker_cooldown = Sim.Time.of_sec_f breaker_cooldown;
        shadow_spares;
        seed;
      }
    in
    let fault = fault_of_specs specs in
    let write_journal j =
      match journal_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Cluster.Campaign.journal_to_string j);
        close_out oc;
        Format.printf "journal (%d entries) written to %s@."
          (Cluster.Campaign.journal_length j) path
    in
    match topology with
    | Some tp ->
      if sweep <> None || resume_from <> None then begin
        Format.eprintf
          "campaign: --topology is incompatible with --sweep and \
           --resume-from@.";
        exit 1
      end;
      let fr =
        Cluster.Campaign.run_fleet ?fault ?sharding:shard_mode ~topology:tp
          config
      in
      Format.printf "%a@." Cluster.Campaign.pp_fleet fr;
      (match journal_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Cluster.Campaign.fleet_journals_to_string fr);
        close_out oc;
        Format.printf "fleet journals written to %s@." path)
    | None -> (
      if shard_mode <> None then begin
        Format.eprintf "campaign: --mode requires --topology@.";
        exit 1
      end;
      match sweep with
    | Some probabilities ->
      Format.printf "%-6s %-10s %-9s %-9s %-8s %s@." "p" "wall" "exposed-hh"
        "deferred" "trips" "statuses";
      List.iter
        (fun (p, (r : Cluster.Campaign.report)) ->
          let count s =
            List.length
              (List.filter
                 (fun h -> h.Cluster.Campaign.hr_status = s)
                 r.Cluster.Campaign.hosts)
          in
          Format.printf "%-6.2f %-10s %-9.3f %-9d %-8d %d/%d/%d/%d/%d@." p
            (Sim.Time.to_string r.Cluster.Campaign.wall_clock)
            r.Cluster.Campaign.exposed_host_hours
            (List.length r.Cluster.Campaign.deferred)
            r.Cluster.Campaign.breaker_trips
            (count Cluster.Campaign.Upgraded_inplace)
            (count Cluster.Campaign.Shadow_cutover)
            (count Cluster.Campaign.Drained)
            (count Cluster.Campaign.Deferred_resolved)
            (count Cluster.Campaign.Deferred_exposed))
        (Cluster.Campaign.sweep ~config ~probabilities ())
    | None -> (
      let obs, metrics = obs_of_paths trace_out metrics_out in
      let result =
        match resume_from with
        | Some path ->
          let ic = open_in path in
          let len = in_channel_length ic in
          let raw = really_input_string ic len in
          close_in ic;
          (match Cluster.Campaign.journal_of_string raw with
          | Ok j -> Cluster.Campaign.resume ?fault ?obs ?metrics j
          | Error e ->
            Format.eprintf "cannot resume: %s@." e;
            exit 1)
        | None -> Cluster.Campaign.run ?fault ?obs ?metrics config
      in
      match result with
      | Cluster.Campaign.Finished (r, j) ->
        Format.printf "%a@." Cluster.Campaign.pp_report r;
        List.iter
          (fun h -> Format.printf "  %a@." Cluster.Campaign.pp_host_record h)
          r.Cluster.Campaign.hosts;
        write_journal j;
        write_obs trace_out metrics_out obs metrics
      | Cluster.Campaign.Crashed j ->
        Format.printf
          "controller crashed after %d journaled events; resume with \
           --resume-from@."
          (Cluster.Campaign.journal_length j);
        write_journal j;
        write_obs trace_out metrics_out obs metrics))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a supervised rolling-transplant campaign on the event \
             engine: admission control, straggler deadlines, degradation \
             ladder, circuit breaker, checkpoint/resume")
    Term.(const run $ verbose_arg $ nodes $ per_node $ fraction $ concurrency
          $ straggler $ breaker_window $ breaker_threshold $ breaker_cooldown
          $ shadow_spares $ topology $ shard_mode $ seed_arg $ fault_arg
          $ journal_file $ resume_from $ sweep $ trace_out_arg
          $ metrics_out_arg)

(* --- controlplane --- *)

let controlplane_cmd =
  let module CP = Cluster.Controlplane in
  let d = CP.default_config in
  let regions =
    Arg.(value & opt int d.CP.regions
         & info [ "regions" ] ~docv:"N"
             ~doc:"Regions, each run by its own sub-controller.")
  in
  let hosts_per_region =
    Arg.(value & opt int d.CP.hosts_per_region
         & info [ "hosts-per-region" ] ~docv:"N" ~doc:"Hosts per region.")
  in
  let vms_per_host =
    Arg.(value & opt int d.CP.vms_per_host
         & info [ "vms-per-host" ] ~docv:"N"
             ~doc:"VMs riding through each in-place upgrade.")
  in
  let concurrency =
    Arg.(value & opt int d.CP.global_concurrency
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Fleet-wide admission budget, split across regions and \
                   reallocated as regions finish.")
  in
  let straggler =
    Arg.(value & opt float d.CP.straggler_factor
         & info [ "straggler-factor" ] ~docv:"F"
             ~doc:"Escalate a host attempt after F x its expected duration.")
  in
  let breaker_window =
    Arg.(value & opt int d.CP.breaker_window
         & info [ "breaker-window" ] ~docv:"K"
             ~doc:"Per-region circuit-breaker rolling window.")
  in
  let breaker_threshold =
    Arg.(value & opt float d.CP.breaker_threshold
         & info [ "breaker-threshold" ] ~docv:"F"
             ~doc:"Trip a region's breaker when failures/K reaches F.")
  in
  let breaker_cooldown =
    Arg.(value & opt float (Sim.Time.to_sec_f d.CP.breaker_cooldown)
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:"Pause a region's admission for this long after a trip.")
  in
  let hb_every =
    Arg.(value & opt float (Sim.Time.to_sec_f d.CP.heartbeat_every)
         & info [ "hb-every" ] ~docv:"SECONDS"
             ~doc:"Sub-controller heartbeat period.")
  in
  let hb_timeout =
    Arg.(value & opt float (Sim.Time.to_sec_f d.CP.heartbeat_timeout)
         & info [ "hb-timeout" ] ~docv:"SECONDS"
             ~doc:"The root fences a sub-controller after this much \
                   heartbeat silence and rebuilds it from its journal.")
  in
  let realloc_lag =
    Arg.(value & opt float (Sim.Time.to_sec_f d.CP.realloc_lag)
         & info [ "realloc-lag" ] ~docv:"SECONDS"
             ~doc:"Lease delay before a finished region's admission slots \
                   take effect elsewhere; must be at least hb-timeout + 2 x \
                   hb-every.")
  in
  let topology =
    topology_arg
      ~doc:"Take the region grid from this topology spec ($(b,RxHxV) or \
            $(b,name:hosts:vms;...)) instead of \
            $(b,--regions)/$(b,--hosts-per-region)/$(b,--vms-per-host).  \
            Must be uniform: every region the same hosts x VMs."
  in
  let bundle_file =
    Arg.(value & opt (some string) None
         & info [ "bundle" ] ~docv:"PATH"
             ~doc:"Write the region journals (the leader-handoff bundle) \
                   here, on success or on a root crash.")
  in
  let resume_from =
    Arg.(value & opt (some string) None
         & info [ "resume-from" ] ~docv:"PATH"
             ~doc:"Leader handoff: rebuild the global view from this bundle \
                   and drive the campaign to completion.  Pass the same \
                   host-site $(b,--fault) specs (and seed) as the crashed \
                   run; control-plane triggers (root_crash, ...) are not \
                   cursor-tracked and may be dropped so the new leader does \
                   not die the same death.")
  in
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Print the merged journal (all regions, one line per \
                   entry) after the run.")
  in
  let run () regions hosts_per_region vms_per_host concurrency straggler
      breaker_window breaker_threshold breaker_cooldown hb_every hb_timeout
      realloc_lag topology seed specs bundle_file resume_from timeline
      trace_out metrics_out =
    let config =
      {
        CP.regions;
        hosts_per_region;
        vms_per_host;
        global_concurrency = concurrency;
        straggler_factor = straggler;
        breaker_window;
        breaker_threshold;
        breaker_cooldown = Sim.Time.of_sec_f breaker_cooldown;
        jitter_pct = d.CP.jitter_pct;
        drain_flakiness = d.CP.drain_flakiness;
        heartbeat_every = Sim.Time.of_sec_f hb_every;
        heartbeat_timeout = Sim.Time.of_sec_f hb_timeout;
        realloc_lag = Sim.Time.of_sec_f realloc_lag;
        seed;
      }
    in
    let config =
      match topology with
      | Some tp -> CP.config_of_topology tp config
      | None -> config
    in
    let fault = fault_of_specs specs in
    let obs, metrics = obs_of_paths trace_out metrics_out in
    let write_bundle b =
      match bundle_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (CP.bundle_to_string b);
        close_out oc;
        Format.printf "bundle (%d entries across %d regions) written to %s@."
          (CP.bundle_length b) (CP.bundle_config b).CP.regions path
    in
    let result =
      match resume_from with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let raw = really_input_string ic len in
        close_in ic;
        (match CP.bundle_of_string raw with
        | Ok b -> CP.resume ?fault ?obs ?metrics b
        | Error e ->
          Format.eprintf "cannot resume: %s@." e;
          exit 1)
      | None -> CP.run ?fault ?obs ?metrics config
    in
    match result with
    | CP.Finished (r, b) ->
      print_string (CP.summary r);
      if timeline then print_string (CP.merged_to_string b);
      write_bundle b;
      write_obs trace_out metrics_out obs metrics
    | CP.Crashed b ->
      Format.printf
        "root supervisor died with %d journaled events; hand off with \
         --resume-from@."
        (CP.bundle_length b);
      write_bundle b;
      write_obs trace_out metrics_out obs metrics;
      exit 2
  in
  Cmd.v
    (Cmd.info "controlplane"
       ~doc:"Run the replicated hierarchical control plane: one campaign \
             controller per region, each with its own journal, under a root \
             supervisor that rebuilds dead regions from their journals; \
             survives sub-controller crashes, supervision partitions, root \
             crashes and crashes during resume with a byte-identical final \
             report")
    Term.(const run $ verbose_arg $ regions $ hosts_per_region $ vms_per_host
          $ concurrency $ straggler $ breaker_window $ breaker_threshold
          $ breaker_cooldown $ hb_every $ hb_timeout $ realloc_lag $ topology
          $ seed_arg $ fault_arg $ bundle_file $ resume_from $ timeline
          $ trace_out_arg $ metrics_out_arg)

(* --- serve --- *)

let serve_cmd =
  let module S = Stream.Service in
  let d = S.default_config in
  let years =
    Arg.(value & opt float d.S.years
         & info [ "years" ] ~docv:"Y"
             ~doc:"Virtual years of CVE traffic to serve.")
  in
  let hosts =
    Arg.(value & opt int (d.S.mix.S.xen_hosts + d.S.mix.S.kvm_hosts)
         & info [ "hosts" ] ~docv:"N"
             ~doc:"Xen+KVM fleet size, split evenly (Xen gets the odd host).")
  in
  let bhyve_hosts =
    Arg.(value & opt int d.S.mix.S.bhyve_hosts
         & info [ "bhyve-hosts" ] ~docv:"N"
             ~doc:"Hosts whose home hypervisor is bhyve, on top of \
                   $(b,--hosts).")
  in
  let vms_per_host =
    Arg.(value & opt int d.S.vms_per_host
         & info [ "vms-per-host" ] ~docv:"N"
             ~doc:"VMs riding through each host transplant.")
  in
  let rate =
    Arg.(value & opt float d.S.rate_per_year
         & info [ "rate" ] ~docv:"R"
             ~doc:"Mean CVE arrivals per year across the taxonomy classes.")
  in
  let policy_conv =
    let parse s =
      match Stream.Policy.kind_of_string s with
      | Some k -> Ok k
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown policy %S (expected %s)" s
                (String.concat "|"
                   (List.map Stream.Policy.kind_to_string
                      Stream.Policy.all_kinds))))
    in
    Arg.conv (parse, Stream.Policy.pp_kind)
  in
  let policy =
    Arg.(value & opt policy_conv d.S.policy
         & info [ "policy" ] ~docv:"KIND"
             ~doc:"Mitigation policy: $(b,cost-aware), $(b,transplant-all) \
                   or $(b,defer-all).")
  in
  let tempo =
    Arg.(value & opt float d.S.tempo
         & info [ "tempo" ] ~docv:"F"
             ~doc:"Operational stretch: one simulated campaign second \
                   occupies F calendar seconds (maintenance windows, soak \
                   gates).")
  in
  let concurrency =
    Arg.(value & opt int d.S.concurrency
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Hosts upgraded in parallel within a campaign.")
  in
  let batch_days =
    Arg.(value & opt float d.S.batch_days
         & info [ "batch-days" ] ~docv:"D"
             ~doc:"Admission tick: arrivals are drained every D virtual \
                   days.")
  in
  let preempt =
    Arg.(value & flag
         & info [ "preempt" ]
             ~doc:"Let every critical arrival preempt in-flight campaigns \
                   on its population (otherwise only the \
                   $(b,campaign_preempt) fault site does).")
  in
  let topology =
    topology_arg
      ~doc:"Take the host populations from this topology's regions, mapped \
            by name onto the repertoire (e.g. $(b,xen:20:4;kvm:16:4)); \
            overrides $(b,--hosts)/$(b,--bhyve-hosts)/$(b,--vms-per-host) \
            (the VM density comes from the first region)."
  in
  let journal_file =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write the service journal here (crash or success).")
  in
  let resume_from =
    Arg.(value & opt (some string) None
         & info [ "resume-from" ] ~docv:"PATH"
             ~doc:"Resume a crashed service from this journal (config and \
                   seed come from the journal; pass the same $(b,--fault) \
                   specs as the original run).")
  in
  let run () years hosts bhyve_hosts vms_per_host topology rate policy tempo
      concurrency batch_days preempt seed specs journal_file resume_from
      trace_out metrics_out =
    let mix, vms_per_host =
      match topology with
      | Some tp ->
        ( S.mix_of_topology tp,
          (Cluster.Topology.regions tp).(0).Cluster.Topology.rg_vms_per_host )
      | None ->
        ( { S.xen_hosts = (hosts + 1) / 2;
            kvm_hosts = hosts / 2;
            bhyve_hosts },
          vms_per_host )
    in
    let config =
      {
        d with
        S.years;
        mix;
        vms_per_host;
        rate_per_year = rate;
        policy;
        tempo;
        concurrency;
        batch_days;
        preempt;
        seed;
      }
    in
    let fault = fault_of_specs specs in
    let obs, metrics = obs_of_paths trace_out metrics_out in
    let write_journal j =
      match journal_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (S.journal_to_string j);
        close_out oc;
        Format.printf "journal (%d entries) written to %s@."
          (S.journal_length j) path
    in
    let result =
      match resume_from with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let raw = really_input_string ic len in
        close_in ic;
        (match S.journal_of_string raw with
        | Ok j -> S.resume ?fault ?obs ?metrics j
        | Error e ->
          Format.eprintf "cannot resume: %s@." e;
          exit 1)
      | None -> S.run ?fault ?obs ?metrics config
    in
    match result with
    | S.Finished (r, j) ->
      Format.printf "%a@." S.pp_report r;
      write_journal j;
      write_obs trace_out metrics_out obs metrics;
      if r.S.uncovered_critical > 0 then begin
        Format.eprintf
          "serve: %d critical windows stayed uncovered though a campaign \
           was cheaper@."
          r.S.uncovered_critical;
        exit 2
      end
    | S.Crashed j ->
      Format.printf
        "service crashed after %d journaled events; resume with \
         --resume-from@."
        (S.journal_length j);
      write_journal j;
      write_obs trace_out metrics_out obs metrics;
      exit 3
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the CVE-stream campaign service: a seeded multi-year \
             vulnerability stream against a static fleet, with cost-aware \
             per-CVE decisions, contention-safe campaign booking, \
             preemption and a crash-survivable journal (exit 2 if any \
             critical window stayed uncovered though a campaign was \
             cheaper, 3 on a controller crash)")
    Term.(const run $ verbose_arg $ years $ hosts $ bhyve_hosts
          $ vms_per_host $ topology $ rate $ policy $ tempo $ concurrency
          $ batch_days $ preempt $ seed_arg $ fault_arg $ journal_file
          $ resume_from $ trace_out_arg $ metrics_out_arg)

(* --- fleet --- *)

let fleet_cmd =
  let id =
    Arg.(value & pos 0 string "CVE-2016-6258"
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let hosts =
    Arg.(value & opt int 8 & info [ "hosts" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let topology =
    topology_arg
      ~doc:"Region-aware fleet shape ($(b,RxHxV) or \
            $(b,name:hosts:vms;...)); overrides $(b,--hosts) and sets each \
            host's VM density from its region."
  in
  let run id hosts topology =
    let o = Cluster.Fleet.simulate ~hosts ?topology ~cve_id:id () in
    Array.iter
      (fun (at, ev) ->
        match ev with
        | Cluster.Fleet.Disclosed id ->
          Format.printf "%8.0fs  disclosed %s@." (Sim.Time.to_sec_f at) id
        | Cluster.Fleet.Host_transplanted { host; to_hv; downtime } ->
          Format.printf "%8.0fs  %s -> %s (downtime %a)@."
            (Sim.Time.to_sec_f at) host to_hv Sim.Time.pp downtime
        | Cluster.Fleet.Patch_released ->
          Format.printf "%8.0fs  patch released@." (Sim.Time.to_sec_f at)
        | Cluster.Fleet.Host_patched { host; downtime } ->
          Format.printf "%8.0fs  %s patched (downtime %a)@."
            (Sim.Time.to_sec_f at) host Sim.Time.pp downtime)
      o.Cluster.Fleet.events;
    Format.printf "%a@." Cluster.Fleet.pp_outcome o
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate the Fig. 1 vulnerability-window timeline on a fleet")
    Term.(const run $ id $ hosts $ topology)

(* --- verify --- *)

let verify_cmd =
  let file =
    Arg.(value & opt (some string) None
         & info [ "file"; "f" ] ~docv:"PATH"
             ~doc:"UISR blob to verify; omit to verify a freshly generated \
                   one (seeded).")
  in
  let corrupt =
    let sections =
      [ ("vm_info", Uisr.Codec.tag_vm_info); ("vcpu", Uisr.Codec.tag_vcpu);
        ("ioapic", Uisr.Codec.tag_ioapic); ("pit", Uisr.Codec.tag_pit);
        ("devices", Uisr.Codec.tag_devices); ("memmap", Uisr.Codec.tag_memmap) ]
    in
    Arg.(value & opt (some (enum sections)) None
         & info [ "corrupt" ] ~docv:"SECTION"
             ~doc:"Flip a payload byte in that section before verifying \
                   (demonstrates salvage vs quarantine).")
  in
  let run file corrupt seed =
    let blob =
      match file with
      | Some path ->
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        close_in ic;
        b
      | None -> Integrity.Gen.blob ~seed ()
    in
    let blob =
      match corrupt with
      | None -> blob
      | Some tag -> Uisr.Codec.corrupt_section ~tag blob
    in
    let report = Uisr.Codec.decode_verified blob in
    Format.printf "%a@." Uisr.Integrity.pp_report report;
    match report.Uisr.Integrity.verdict with
    | Uisr.Integrity.Intact | Uisr.Integrity.Salvaged _ -> ()
    | Uisr.Integrity.Rejected _ -> exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the salvage decoder over a UISR blob and print its \
             integrity report (exit 1 on a quarantine verdict)")
    Term.(const run $ file $ corrupt $ seed_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 500
         & info [ "cases" ] ~docv:"N" ~doc:"Mutated payloads to run.")
  in
  let run cases vcpus seed =
    let stats = Integrity.Fuzz.run ~vcpus ~seed ~cases () in
    Format.printf "%a@." Integrity.Fuzz.pp stats;
    if not (Integrity.Fuzz.ok stats) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Seeded corruption campaign against the salvage decoder (exit 1 \
             if any mutant raises or is accepted as pristine)")
    Term.(const run $ cases $ vcpus_arg $ seed_arg)

let () =
  let info =
    Cmd.info "hypertp-cli" ~version:"1.0.0"
      ~doc:"HyperTP: hypervisor transplant simulator (EuroSys'21 reproduction)"
  in
  (* ~catch:false so structured simulator errors reach our handler and
     render uniformly instead of as cmdliner backtraces. *)
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group info
            [ cve_cmd; inplace_cmd; migrate_cmd; shadow_cmd; audit_cmd;
              memsep_cmd; cluster_cmd; campaign_cmd; controlplane_cmd;
              respond_cmd; fleet_cmd; serve_cmd; snapshot_cmd; fault_campaign_cmd;
              verify_cmd; fuzz_cmd ]))
  with Hypertp.Error.Error e ->
    Format.eprintf "hypertp-cli: %s@." (Hypertp.Error.to_string e);
    exit 3
