(* hypertp-cli: drive the HyperTP simulator from the command line.

   Subcommands:
     cve            - query the vulnerability study and the transplant policy
     inplace        - run an InPlaceTP transplant on a simulated host
     migrate        - run a MigrationTP (or homogeneous) live migration
     shadow         - run a shadow-host MigrationTP with its abort ladder
     audit          - run an audited InPlaceTP and report residual state
     memsep         - show the memory-separation classification of a host
     cluster        - plan and time a rolling cluster upgrade
     campaign       - run a supervised rolling campaign, or a sharded fleet
     controlplane   - run the replicated hierarchical control plane
     respond        - the one-click CVE response flow
     fleet          - simulate the Fig. 1 vulnerability-window timeline
     serve          - run the CVE-stream campaign service
     snapshot       - suspend a VM to a file, resume it under any hypervisor
     fault-campaign - one transplant per fault-injection site
     verify         - run the salvage decoder over a UISR blob
     fuzz           - corruption-fuzz the salvage decoder

   The flags shared across subcommands, and their checks, live in [Flags]. *)

open Cmdliner

(* --- arguments only this executable uses --- *)

let target_arg =
  Arg.(value & opt Flags.hypervisor Hv.Kind.Kvm
       & info [ "target" ] ~docv:"HV" ~doc:"Hypervisor to transplant onto.")

let fault_arg =
  let of_specs = function [] -> None | specs -> Some (Fault.of_specs specs) in
  Term.(const of_specs
        $ Arg.(value & opt_all Flags.fault_spec []
               & info [ "fault" ] ~docv:"SITE:TRIGGER[,seed=N]"
                   ~doc:"Arm a fault injection, e.g. $(b,kexec_jump:1) (fire on \
                         the first hit), $(b,vm_restore:vm=vm0) (fire for that \
                         VM), or $(b,migration_link_drop:p=0.1,seed=7) (fire \
                         with probability 0.1, RNG seeded with 7).  \
                         Repeatable."))

let topology_arg ~doc =
  Arg.(value & opt (some Flags.topology) None
       & info [ "topology" ] ~docv:"SPEC" ~doc)

let path_arg name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let audit_arg =
  Term.(const (fun armed -> if armed then Some Hypertp.Inplace.Scrub else None)
        $ Arg.(value & flag
               & info [ "audit" ]
                   ~doc:"Arm the post-commit residual audit: sweep the target \
                         world against a fresh-boot reference after the \
                         transplant, scrub-and-recheck on findings."))

let require_distinct (h : Flags.host) target =
  if Hv.Kind.equal h.source target then begin
    Format.eprintf "source and target hypervisors must differ@.";
    exit 1
  end

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

(* --- files: journals, bundles, reports, snapshots --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* Write [contents] and say so on stdout: "<what> written to <path>". *)
let save path contents what =
  write_file path contents;
  Format.printf "%s written to %s@." what path

let resume ~of_string path =
  match of_string (read_file path) with
  | Ok j -> j
  | Error e ->
    Format.eprintf "cannot resume: %s@." e;
    exit 1

(* --- observability plumbing shared by inplace/migrate/campaign --- *)

type obs = {
  trace_out : string option;
  metrics_out : string option;
  tracer : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
}

let obs_arg =
  let make trace_out metrics_out =
    { trace_out; metrics_out;
      tracer = Option.map (fun _ -> Obs.Tracer.create ()) trace_out;
      metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out }
  in
  Term.(const make
        $ path_arg "trace-out"
            ~doc:"Write a Chrome trace_event JSON recording of the run here \
                  (open in Perfetto or chrome://tracing)."
        $ path_arg "metrics-out"
            ~doc:"Write an OpenMetrics text snapshot of the run's counters, \
                  gauges and histograms here.")

let write_obs o =
  (match (o.trace_out, o.tracer) with
  | Some path, Some tr ->
    save path (Obs.Export.chrome_trace tr)
      (Printf.sprintf "trace (%d spans)" (Obs.Tracer.count tr))
  | _ -> ());
  match (o.metrics_out, o.metrics) with
  | Some path, Some m -> save path (Obs.Export.open_metrics m) "metrics"
  | _ -> ()

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
  let run () (h : Flags.host) target fault audit o =
    require_distinct h target;
    let host = Flags.provision h in
    let report =
      Hypertp.Api.transplant_inplace ~rng:(Sim.Rng.create h.seed) ?fault
        ?obs:o.tracer ?metrics:o.metrics ?audit ~host ~target ()
    in
    Format.printf "%a@." Hypertp.Inplace.pp_report report;
    Format.printf "fixups:@.";
    List.iter
      (fun (vm, fixes) -> Format.printf "  %s: %a@." vm Uisr.Fixup.pp_list fixes)
      report.fixups;
    Option.iter (Format.printf "%a@." Audit.pp_report) report.Hypertp.Inplace.audit;
    print_fault_trace fault;
    write_obs o;
    if not (Hypertp.Inplace.all_ok report.checks) then exit 2
  in
  Cmd.v
    (Cmd.info "inplace"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:"a check on the report's checks line failed (guest memory, \
                  PRAM parse, kexec image, UISR round trip, management \
                  state, platform or devices)."
         :: Cmd.Exit.defaults)
       ~doc:"Run an InPlaceTP micro-reboot transplant")
    Term.(const run $ verbose_arg $ Flags.host $ target_arg $ fault_arg
          $ audit_arg $ obs_arg)

(* --- migrate --- *)

let migrate_cmd =
  let run () (h : Flags.host) target fault audit o =
    let src = Flags.provision h in
    let dst =
      Hypertp.Api.provision ~seed:(Int64.add h.seed 1L) ~name:"cli-dst"
        ~machine:h.machine ~hv:target []
    in
    let report =
      Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create h.seed) ?fault
        ?obs:o.tracer ?metrics:o.metrics ?audit ~src ~dst ()
    in
    Format.printf "%a@." Hypertp.Migrate.pp_report report;
    Option.iter (Format.printf "%a@." Audit.pp_report) report.Hypertp.Migrate.audit;
    print_fault_trace fault;
    write_obs o;
    if not (Hypertp.Migrate.all_ok report.checks) then exit 2
  in
  Cmd.v
    (Cmd.info "migrate"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:"a landed VM failed a check on the checks line: memory, \
                  connections, management state, platform, devices, or \
                  residue with $(b,--audit)."
         :: Cmd.Exit.defaults)
       ~doc:"Run a MigrationTP (heterogeneous) or homogeneous live migration")
    Term.(const run $ verbose_arg $ Flags.host $ target_arg $ fault_arg
          $ audit_arg $ obs_arg)

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
  let run () (h : Flags.host) target fault no_ladder compare o =
    let src = Flags.provision h in
    let spare = Hv.Host.create ~name:"cli-spare" h.machine in
    let r =
      Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create h.seed) ?fault
        ?obs:o.tracer ?metrics:o.metrics ~ladder:(not no_ladder) ~src ~spare
        ~target ()
    in
    Format.printf "%a@." Hypertp.Migrate.pp_shadow_report r;
    if compare then begin
      let csrc = Flags.provision h in
      let cspare = Hv.Host.create ~name:"cli-spare" h.machine in
      Hv.Host.boot_hypervisor cspare (Hypertp.Api.hypervisor_of target);
      let classic =
        Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create h.seed)
          ~src:csrc ~dst:cspare ()
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
    write_obs o;
    let landed =
      List.for_all Hypertp.Migrate.all_ok
        (Option.to_list r.sh_checks
        @ List.map (fun (c : Hypertp.Migrate.report) -> c.checks)
            (Option.to_list r.sh_classic))
    in
    if not (r.sh_source_intact && landed) then exit 2
  in
  Cmd.v
    (Cmd.info "shadow"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:"an abort left the source damaged, or a landed VM failed a \
                  check on a checks line (the cutover's, or the classic \
                  fallback's): memory, connections, management state, \
                  platform or devices."
         :: Cmd.Exit.defaults)
       ~doc:"Run a shadow-host MigrationTP: pre-stage the target on a \
             spare, stream and converge while the source serves, swap \
             identities atomically; pre-swap faults abort with the source \
             verified intact and walk the degradation ladder")
    Term.(const run $ verbose_arg $ Flags.host $ target_arg $ fault_arg
          $ no_ladder $ compare_flag $ obs_arg)

(* --- audit --- *)

let audit_cmd =
  let no_scrub =
    Arg.(value & flag
         & info [ "no-scrub" ]
             ~doc:"Report findings without remediating them.")
  in
  let out =
    path_arg "out"
      ~doc:"Write the serialized audit report here (deterministic for a \
            fixed seed; the CI golden diffs against it)."
  in
  let run () (h : Flags.host) target fault no_scrub out =
    require_distinct h target;
    let host = Flags.provision h in
    let report =
      Hypertp.Api.transplant_inplace ~rng:(Sim.Rng.create h.seed) ?fault
        ~audit:(if no_scrub then Hypertp.Inplace.Report_only else Scrub)
        ~host ~target ()
    in
    let a =
      match report.Hypertp.Inplace.audit with
      | Some a -> a
      | None -> assert false (* the audit was armed *)
    in
    Format.printf "%a@.outcome: %a@." Audit.pp_report a
      Hypertp.Inplace.pp_outcome report.Hypertp.Inplace.outcome;
    Option.iter (fun path -> save path (Audit.to_string a) "report") out;
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
    Term.(const run $ verbose_arg $ Flags.host $ target_arg $ fault_arg
          $ no_scrub $ out)

(* --- memsep --- *)

let memsep_cmd =
  let run h =
    let host = Flags.provision h in
    Format.printf "%a@.%a@." Hv.Host.pp host Hypertp.Memsep.pp
      (Hypertp.Memsep.of_host host)
  in
  Cmd.v
    (Cmd.info "memsep"
       ~doc:"Show the Fig. 2 memory-separation classification of a host")
    Term.(const run $ Flags.host)

(* --- cluster --- *)

(* The cluster shape of [cluster] and [campaign]. *)
let nodes_arg =
  Arg.(value & opt int 10 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let vms_per_node_arg =
  Arg.(value & opt int 10 & info [ "vms-per-node" ] ~docv:"N" ~doc:"VMs per node.")

let fraction_arg default =
  Arg.(value & opt float default
       & info [ "inplace-fraction" ] ~docv:"F"
           ~doc:"Share of VMs tolerating InPlaceTP downtime.")

let cluster_cmd =
  let run nodes vms_per_node fraction =
    let sweep =
      Cluster.Upgrade.sweep ~nodes ~vms_per_node ~fractions:[ 0.0; fraction ] ()
    in
    match sweep with
    | [ (_, base); (_, t) ] ->
      Format.printf "migration-only baseline: %a@." Cluster.Upgrade.pp_timing base;
      Format.printf "with %.0f%% in-place:      %a@." (100.0 *. fraction)
        Cluster.Upgrade.pp_timing t;
      Format.printf "time gain: %.0f%%@."
        (100.0
        *. (1.0
           -. Sim.Time.to_sec_f t.Cluster.Upgrade.total
              /. Sim.Time.to_sec_f base.Cluster.Upgrade.total))
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Plan and time a rolling cluster upgrade (Fig. 13)")
    Term.(const run $ nodes_arg $ vms_per_node_arg $ fraction_arg 0.8)

(* --- respond --- *)

let respond_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let apply =
    Arg.(value & flag & info [ "apply" ] ~doc:"Actually run the transplant.")
  in
  let run h id apply =
    let host = Flags.provision h in
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
    Term.(const run $ Flags.host $ id $ apply)

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
  let run action file (h : Flags.host) target =
    match action with
    | `Save ->
      let host = Flags.provision h in
      let snap = Hypertp.Snapshot.capture host "vm0" in
      let blob = Hypertp.Snapshot.to_bytes snap in
      write_file file (Bytes.to_string blob);
      Format.printf "saved %s (%d bytes, %d bytes of guest memory) to %s@."
        (Hypertp.Snapshot.vm_name snap) (Bytes.length blob)
        (Hypertp.Snapshot.memory_bytes snap) file
    | `Restore -> (
      match Hypertp.Snapshot.of_bytes (Bytes.of_string (read_file file)) with
      | Error e ->
        Format.eprintf "cannot restore: %s@." e;
        exit 1
      | Ok snap ->
        let host =
          Hypertp.Api.provision ~seed:h.seed ~name:"restore-host"
            ~machine:h.machine ~hv:target []
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
    Term.(const run $ action $ file $ Flags.host $ target_arg)

(* --- fault-campaign --- *)

let fault_campaign_cmd =
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
  let run_sites (h : Flags.host) target =
    (* One run per engine-level injection site, fault fired on its first
       hit: the exhaustive deterministic campaign.  Cluster-level sites
       are listed separately — they are consulted by the campaign
       controller, not by a single transplant. *)
    Format.printf "%-24s %-12s %-10s %s@." "site" "engine" "survival"
      "outcome";
    List.iter
      (fun site ->
        let fault =
          Fault.make ~seed:h.seed [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
        in
        match site with
        | Fault.Migration_link_drop | Fault.Migration_link_degrade ->
          let src = Flags.provision h in
          let dst =
            Hypertp.Api.provision ~seed:(Int64.add h.seed 1L) ~name:"c-dst"
              ~machine:h.machine ~hv:target []
          in
          let r =
            Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create h.seed)
              ~fault ~src ~dst ()
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
            (Fault.site_to_string site) "migration" alive h.vms outcome
        | _ ->
          let host = Flags.provision h in
          let r =
            Hypertp.Api.transplant_inplace ~rng:(Sim.Rng.create h.seed) ~fault
              ~host ~target ()
          in
          let alive = Hv.Host.vm_count host in
          Format.printf "%-24s %-12s %d/%-8d %a@."
            (Fault.site_to_string site) "inplace" alive h.vms
            Hypertp.Inplace.pp_outcome r.Hypertp.Inplace.outcome)
      Fault.engine_sites;
    (* Shadow sites, against the shadow-host engine: every one is
       pre-swap, so the source must survive each abort and the report
       must name the rung of the degradation ladder actually taken. *)
    List.iter
      (fun site ->
        let fault =
          Fault.make ~seed:h.seed [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
        in
        let src = Flags.provision h in
        let spare = Hv.Host.create ~name:"c-spare" h.machine in
        let r =
          Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create h.seed) ~fault
            ~src ~spare ~target ()
        in
        let alive = Hv.Host.vm_count src + Hv.Host.vm_count spare in
        Format.printf "%-24s %-12s %d/%-8d %a%s@."
          (Fault.site_to_string site) "shadow" alive h.vms
          Hypertp.Migrate.pp_shadow_strategy r.Hypertp.Migrate.sh_strategy
          (if r.Hypertp.Migrate.sh_source_intact then ""
           else " [SOURCE DAMAGED]"))
      Fault.shadow_sites;
    Format.printf
      "@.cluster-level sites (exercised by 'campaign --fault' and 'campaign \
       --sweep', not per-transplant): %s@."
      (String.concat ", " (List.map Fault.site_to_string Fault.cluster_sites));
    Format.printf
      "control-plane sites (exercised by 'controlplane --fault' against the \
       hierarchical root/sub-controller supervisor): %s@."
      (String.concat ", "
         (List.map Fault.site_to_string Fault.controlplane_sites));
    Format.printf
      "stream sites (exercised by 'serve --fault' against the CVE-stream \
       campaign service): %s@."
      (String.concat ", " (List.map Fault.site_to_string Fault.stream_sites))
  in
  let run h target list = if list then list_sites () else run_sites h target in
  Cmd.v
    (Cmd.info "fault-campaign"
       ~doc:"Exhaustive fault-injection campaign: one transplant per \
             injection site, printing the outcome and VM survival")
    Term.(const run $ Flags.host $ target_arg $ list_flag)

(* --- campaign --- *)

let campaign_cmd =
  let concurrency =
    Arg.(value & opt int Cluster.Campaign.default_config.Cluster.Campaign.concurrency
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Hosts upgraded in parallel (clamped by spare capacity).")
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
    Arg.(value & opt (some Flags.shard_mode) None
         & info [ "mode"; "shards" ] ~docv:"MODE"
             ~doc:"Shard schedule for $(b,--topology): $(b,seq), \
                   $(b,rotated:K) or $(b,parallel:SxD) (S shards on D \
                   domains, D at most 128).  Results are byte-identical \
                   across modes; only wall-clock changes.")
  in
  let journal_file =
    path_arg "journal" ~doc:"Write the campaign journal here (crash or success)."
  in
  let resume_from =
    path_arg "resume-from"
      ~doc:"Resume a crashed campaign from this journal (cluster shape and \
            knobs come from the journal; pass the same $(b,--fault) specs as \
            the original run)."
  in
  let sweep =
    Arg.(value & opt (some (list float)) None
         & info [ "sweep" ] ~docv:"P1,P2,..."
             ~doc:"Run one campaign per host-crash probability instead of a \
                   single campaign.")
  in
  let run () nodes vms_per_node inplace_fraction concurrency knobs
      shadow_spares topology shard_mode seed fault journal_file resume_from
      sweep o =
    let config =
      { knobs with
        Cluster.Campaign.nodes; vms_per_node; inplace_fraction; concurrency;
        shadow_spares; seed }
    in
    let write_journal j =
      Option.iter
        (fun path ->
          save path (Cluster.Campaign.journal_to_string j)
            (Printf.sprintf "journal (%d entries)"
               (Cluster.Campaign.journal_length j)))
        journal_file
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
      Option.iter
        (fun path ->
          save path (Cluster.Campaign.fleet_journals_to_string fr)
            "fleet journals")
        journal_file
    | None -> (
      if shard_mode <> None then begin
        Format.eprintf "campaign: --mode requires --topology@.";
        exit 1
      end;
      match sweep with
    | Some probabilities ->
      let results = Cluster.Campaign.sweep ~config ~probabilities () in
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
        results
    | None -> (
      let result =
        match resume_from with
        | Some path ->
          Cluster.Campaign.resume ?fault ?obs:o.tracer ?metrics:o.metrics
            (resume ~of_string:Cluster.Campaign.journal_of_string path)
        | None ->
          Cluster.Campaign.run ?fault ?obs:o.tracer ?metrics:o.metrics config
      in
      match result with
      | Cluster.Campaign.Finished (r, j) ->
        Format.printf "%a@." Cluster.Campaign.pp_report r;
        List.iter
          (fun h -> Format.printf "  %a@." Cluster.Campaign.pp_host_record h)
          r.Cluster.Campaign.hosts;
        write_journal j;
        write_obs o
      | Cluster.Campaign.Crashed j ->
        Format.printf
          "controller crashed after %d journaled events; resume with \
           --resume-from@."
          (Cluster.Campaign.journal_length j);
        write_journal j;
        write_obs o))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a supervised rolling-transplant campaign on the event \
             engine: admission control, straggler deadlines, degradation \
             ladder, circuit breaker, checkpoint/resume")
    Term.(const run $ verbose_arg $ nodes_arg $ vms_per_node_arg
          $ fraction_arg Cluster.Campaign.default_config.inplace_fraction $ concurrency
          $ Flags.campaign_knobs $ shadow_spares $ topology $ shard_mode
          $ Flags.seed $ fault_arg $ journal_file $ resume_from $ sweep
          $ obs_arg)

(* --- controlplane --- *)

let controlplane_cmd =
  let module CP = Cluster.Controlplane in
  let d = CP.default_config in
  let topology =
    let default =
      Cluster.Topology.uniform ~regions:d.CP.regions
        ~hosts:(d.CP.regions * d.CP.hosts_per_region)
        ~vms_per_host:d.CP.vms_per_host ()
    in
    Arg.(value & opt Flags.topology default
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Region grid: $(b,RxHxV) (R regions, each run by its own \
                   sub-controller, of H hosts x V VMs) or \
                   $(b,name:hosts:vms;...).  Must be uniform: every region \
                   the same hosts x VMs.")
  in
  let concurrency =
    Arg.(value & opt int d.CP.global_concurrency
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Fleet-wide admission budget, split across regions and \
                   reallocated as regions finish.")
  in
  let hb_every =
    Flags.seconds ~flag:"hb-every" ~default:d.CP.heartbeat_every
      ~doc:"Sub-controller heartbeat period."
  in
  let hb_timeout =
    Flags.seconds ~flag:"hb-timeout" ~default:d.CP.heartbeat_timeout
      ~doc:"The root fences a sub-controller after this much heartbeat \
            silence and rebuilds it from its journal."
  in
  let realloc_lag =
    Flags.seconds ~flag:"realloc-lag" ~default:d.CP.realloc_lag
      ~doc:"Lease delay before a finished region's admission slots take \
            effect elsewhere; must be at least hb-timeout + 2 x hb-every."
  in
  let bundle_file =
    path_arg "bundle"
      ~doc:"Write the region journals (the leader-handoff bundle) here, on \
            success or on a root crash."
  in
  let resume_from =
    path_arg "resume-from"
      ~doc:"Leader handoff: rebuild the global view from this bundle and \
            drive the campaign to completion.  Pass the same host-site \
            $(b,--fault) specs (and seed) as the crashed run; control-plane \
            triggers (root_crash, ...) are not cursor-tracked and may be \
            dropped so the new leader does not die the same death."
  in
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Print the merged journal (all regions, one line per \
                   entry) after the run.")
  in
  let run () topology global_concurrency (k : Cluster.Campaign.config)
      heartbeat_every heartbeat_timeout realloc_lag seed fault bundle_file
      resume_from timeline o =
    let config =
      CP.config_of_topology topology
        { d with
          CP.global_concurrency;
          straggler_factor = k.straggler_factor;
          breaker_window = k.breaker_window;
          breaker_threshold = k.breaker_threshold;
          breaker_cooldown = k.breaker_cooldown;
          heartbeat_every; heartbeat_timeout; realloc_lag; seed }
    in
    let write_bundle b =
      Option.iter
        (fun path ->
          save path (CP.bundle_to_string b)
            (Printf.sprintf "bundle (%d entries across %d regions)"
               (CP.bundle_length b) (CP.bundle_config b).CP.regions))
        bundle_file
    in
    let result =
      match resume_from with
      | Some path ->
        CP.resume ?fault ?obs:o.tracer ?metrics:o.metrics
          (resume ~of_string:CP.bundle_of_string path)
      | None -> CP.run ?fault ?obs:o.tracer ?metrics:o.metrics config
    in
    match result with
    | CP.Finished (r, b) ->
      print_string (CP.summary r);
      if timeline then print_string (CP.merged_to_string b);
      write_bundle b;
      write_obs o
    | CP.Crashed b ->
      Format.printf
        "root supervisor died with %d journaled events; hand off with \
         --resume-from@."
        (CP.bundle_length b);
      write_bundle b;
      write_obs o;
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
    Term.(const run $ verbose_arg $ topology $ concurrency
          $ Flags.campaign_knobs $ hb_every $ hb_timeout $ realloc_lag
          $ Flags.seed $ fault_arg $ bundle_file $ resume_from $ timeline
          $ obs_arg)

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
    (* Checked before the split: [hosts + 1] wraps at [max_int]. *)
    Term.(const (Flags.int_in ~flag:"hosts" 0 Cluster.Topology.max_hosts)
          $ Arg.(value & opt int (d.S.mix.S.xen_hosts + d.S.mix.S.kvm_hosts)
                 & info [ "hosts" ] ~docv:"N"
                     ~doc:"Xen+KVM fleet size, split evenly (Xen gets the \
                           odd host)."))
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
  let policy =
    let kinds =
      List.map (fun k -> (Stream.Policy.kind_to_string k, k)) Stream.Policy.all_kinds
    in
    Arg.(value & opt (enum kinds) d.S.policy
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
    path_arg "journal" ~doc:"Write the service journal here (crash or success)."
  in
  let resume_from =
    path_arg "resume-from"
      ~doc:"Resume a crashed service from this journal (config and seed come \
            from the journal; pass the same $(b,--fault) specs as the \
            original run)."
  in
  let run () years hosts bhyve_hosts vms_per_host topology rate policy tempo
      concurrency batch_days preempt seed fault journal_file resume_from o =
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
    let write_journal j =
      Option.iter
        (fun path ->
          save path (S.journal_to_string j)
            (Printf.sprintf "journal (%d entries)" (S.journal_length j)))
        journal_file
    in
    let result =
      match resume_from with
      | Some path ->
        S.resume ?fault ?obs:o.tracer ?metrics:o.metrics
          (resume ~of_string:S.journal_of_string path)
      | None -> S.run ?fault ?obs:o.tracer ?metrics:o.metrics config
    in
    match result with
    | S.Finished (r, j) ->
      Format.printf "%a@." S.pp_report r;
      write_journal j;
      write_obs o;
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
      write_obs o;
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
          $ batch_days $ preempt $ Flags.seed $ fault_arg $ journal_file
          $ resume_from $ obs_arg)

(* --- fleet --- *)

let fleet_cmd =
  let id =
    Arg.(value & pos 0 string "CVE-2016-6258"
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let topology =
    topology_arg
      ~doc:"Fleet shape ($(b,RxHxV) or $(b,name:hosts:vms;...)), default \
            $(b,1x8x4); each host carries its region's VM density."
  in
  let run id topology =
    let o = Cluster.Fleet.simulate ?topology ~cve_id:id () in
    Array.iter (Format.printf "%a@." Cluster.Fleet.pp_event)
      o.Cluster.Fleet.events;
    Format.printf "%a@." Cluster.Fleet.pp_outcome o
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate the Fig. 1 vulnerability-window timeline on a fleet")
    Term.(const run $ id $ topology)

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
      | Some path -> Bytes.of_string (read_file path)
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
    Term.(const run $ file $ corrupt $ Flags.seed)

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
    Term.(const run $ cases $ Flags.vcpus $ Flags.seed)

let () =
  Flags.eval
    (Cmd.group
       (Cmd.info "hypertp-cli" ~version:"1.0.0"
          ~doc:"HyperTP: hypervisor transplant simulator (EuroSys'21 \
                reproduction)")
       [ cve_cmd; inplace_cmd; migrate_cmd; shadow_cmd; audit_cmd; memsep_cmd;
         cluster_cmd; campaign_cmd; controlplane_cmd; respond_cmd; fleet_cmd;
         serve_cmd; snapshot_cmd; fault_campaign_cmd; verify_cmd; fuzz_cmd ])
