type checks = {
  guest_memory_intact : bool;
  pram_parse_ok : bool;
  kexec_image_intact : bool;
  uisr_roundtrip_ok : bool;
  management_consistent : bool;
  platform_preserved : bool;
  devices_preserved : bool;
}

let all_ok c =
  c.guest_memory_intact && c.pram_parse_ok && c.kexec_image_intact
  && c.uisr_roundtrip_ok && c.management_consistent && c.platform_preserved
  && c.devices_preserved

type audit = Scrub | Report_only

type recovery_detail = {
  recovery_faults : Fault.site list;
  restore_retries : int;
  quarantined : string list;
  salvaged : (string * string list) list;
  mgmt_rebuilds : int;
  full_reboot : bool;
  recovery_time : Sim.Time.t;
  audit_findings : int;
  audit_scrubbed : int;
}

type outcome =
  | Committed
  | Rolled_back of Fault.site
  | Recovered of recovery_detail

type report = {
  source : string;
  target : string;
  vm_count : int;
  phases : Phases.t;
  fixups : (string * Uisr.Fixup.t list) list;
  uisr_platform_bytes : int;
  pram_accounting : Pram.Layout.accounting;
  frames_wiped : int;
  checks : checks;
  outcome : outcome;
  audit : Audit.report option;
}

(* Transplant aborted before the point-of-no-return: unwind staging and
   resume on the source hypervisor. *)
exception Rollback of Fault.site

let empty_accounting =
  {
    Pram.Layout.pointer_pages = 0;
    root_pages = 0;
    file_info_pages = 0;
    node_pages = 0;
    total_pages = 0;
    total_bytes = 0;
    entry_count = 0;
  }

(* Recovery-ladder cost constants (ReHype-style, Le & Tamir 2014): a
   failed per-VM restore attempt, triaging a quarantined VM, and the
   last-resort full firmware reboot. *)
let restore_retry_seconds = 0.5
let quarantine_triage_seconds = 0.1
let salvage_repair_seconds = 0.05
let full_reboot_seconds = 60.0

type audit_outcome =
  | Audit_clean
  | Audit_reported
  | Audit_scrub_failed
  | Audit_scrubbed of int

type audit_result = {
  audit_report : Audit.report;
  audit_found : int;
  audit_outcome : audit_outcome;
}

let audit_rung ~mode ~what ~fire ~charge ~source ~target ?victim world =
  let host = world.Audit.w_host in
  let machine = host.Hv.Host.machine in
  let reference = Audit.reference_of_fresh_boot ~machine target in
  let source = Audit.reference_of_fresh_boot ~machine source in
  let world =
    if fire Fault.Residual_leak then
      (* The transplant left residue behind: orphaned PRAM, source heap
         frames, a stale kernel frame and a retained staged blob.  The
         sweep below must catch all of it. *)
      Audit.Plant.apply ~reference ~source world
        ([ Audit.Plant.Pram_page; Audit.Plant.Hv_frames 2;
           Audit.Plant.Kexec_frame ]
        @ match victim with Some v -> [ Audit.Plant.Stale_blob v ] | None -> [])
    else world
  in
  let sweep w =
    let r = Audit.run ~reference ~source w in
    charge "audit"
      [ ("findings", string_of_int (List.length r.Audit.r_findings)) ]
      (Costs.audit_sweep_seconds machine ~frames_swept:r.Audit.r_frames_swept
         ~vms:(List.length (Hv.Host.vms host)));
    r
  in
  let first = sweep world in
  let found = List.length first.Audit.r_findings in
  let result report outcome =
    { audit_report = report; audit_found = found; audit_outcome = outcome }
  in
  if found = 0 then result first Audit_clean
  else begin
    Log.warn (fun m -> m "%s audit: %d residual finding(s)" what found);
    match mode with
    | Report_only -> result first Audit_reported
    | Scrub when fire Fault.Scrub_fail -> result first Audit_scrub_failed
    | Scrub ->
      let sc = Audit.scrub world first in
      charge "scrub"
        [ ("freed", string_of_int sc.Audit.sc_frames_freed) ]
        (Costs.scrub_seconds machine ~frames_freed:sc.Audit.sc_frames_freed
           ~findings:found);
      let second = sweep sc.Audit.sc_world in
      result second (Audit_scrubbed (List.length second.Audit.r_findings))
  end

(* Replay the finished run's timeline into an optional tracer and roll
   the phase durations into the metrics registry.  Phase spans are laid
   back-to-back from t=0 using the exact [Sim.Time.t] values stored in
   the report, so [Phases.of_trace] reconciles with the report to the
   tick; recovery-ladder rungs become sequential children of the
   recovery phase, per-VM restores parallel children of restoration. *)
let emit_obs obs metrics ~source ~target ~(phases : Phases.t) ~rungs ~restores
    ~outcome_label ~events =
  let track = "inplace" in
  let root =
    Otrace.start obs ~at:Sim.Time.zero ~track
      ~attrs:
        [ ("engine", "inplace"); ("source", source); ("target", target);
          ("outcome", outcome_label) ]
      "inplace"
  in
  let c = ref Sim.Time.zero in
  let phase name d children =
    let s =
      Otrace.start obs ~at:!c ?parent:root ~track (Phases.span_prefix ^ name)
    in
    children s !c;
    c := Sim.Time.add !c d;
    Otrace.finish obs s ~at:!c
  in
  phase "pram" phases.Phases.pram (fun _ _ -> ());
  phase "translation" phases.Phases.translation (fun _ _ -> ());
  phase "reboot" phases.Phases.reboot (fun _ _ -> ());
  let reboot_end = !c in
  phase "restoration" phases.Phases.restoration (fun p start ->
      List.iter
        (fun (vm, secs) ->
          ignore
            (Otrace.span obs ~at:start
               ~until:(Sim.Time.add start (Sim.Time.of_sec_f secs))
               ?parent:p ~track:("vm:" ^ vm) ~attrs:[ ("vm", vm) ]
               ("restore:" ^ vm)))
        restores);
  phase "recovery" phases.Phases.recovery (fun p start ->
      let rc = ref start in
      List.iter
        (fun (short, attrs, secs) ->
          let until = Sim.Time.add !rc (Sim.Time.of_sec_f secs) in
          ignore
            (Otrace.span obs ~at:!rc ~until ?parent:p ~track ~attrs
               ("rung:" ^ short));
          rc := until)
        rungs);
  (* The NIC starts initialising when the new kernel boots and runs in
     parallel with restoration (section 5.2). *)
  ignore
    (Otrace.span obs ~at:reboot_end
       ~until:(Sim.Time.add reboot_end phases.Phases.network) ?parent:root
       ~track:"network"
       (Phases.span_prefix ^ "network"));
  List.iter (fun (at, label) -> Otrace.event root ~at label) events;
  let stop = Sim.Time.max !c (Sim.Time.add reboot_end phases.Phases.network) in
  Otrace.finish obs root ~at:stop;
  let obs_phase name d =
    Otrace.observe metrics
      ~labels:[ ("engine", "inplace"); ("phase", name) ]
      ~buckets:Otrace.seconds_buckets "hypertp_phase_seconds"
      (Sim.Time.to_sec_f d)
  in
  obs_phase "pram" phases.Phases.pram;
  obs_phase "translation" phases.Phases.translation;
  obs_phase "reboot" phases.Phases.reboot;
  obs_phase "restoration" phases.Phases.restoration;
  obs_phase "recovery" phases.Phases.recovery;
  obs_phase "network" phases.Phases.network;
  Otrace.observe metrics
    ~labels:[ ("engine", "inplace") ]
    ~buckets:Otrace.seconds_buckets "hypertp_downtime_seconds"
    (Sim.Time.to_sec_f (Phases.downtime phases));
  List.iter
    (fun (short, _, _) ->
      Otrace.count metrics
        ~labels:[ ("engine", "inplace"); ("rung", short) ]
        "hypertp_recovery_rungs_total")
    rungs;
  Otrace.count metrics
    ~labels:[ ("engine", "inplace"); ("outcome", outcome_label) ]
    "hypertp_transplants_total"

let run ?(options = Options.default) ?rng ?fault ?obs ?metrics ?audit
    ~(host : Hv.Host.t) ~target:(module T : Hv.Intf.S) () =
  let rng = match rng with Some r -> r | None -> Sim.Rng.create 0x1A2BL in
  let (Hv.Host.Packed ((module S), _, _)) = Hv.Host.running_exn host in
  if Hv.Kind.equal S.kind T.kind then
    invalid_arg "Inplace.run: target equals the running hypervisor";
  let vm_names = Hv.Host.vm_names host in
  if vm_names = [] then invalid_arg "Inplace.run: no VMs to transplant";
  let machine = host.Hv.Host.machine in
  let pmem = host.Hv.Host.pmem in
  let workers =
    if options.Options.parallel_translation then Hw.Machine.worker_threads machine
    else 1
  in
  let obs = Option.map Otrace.attach obs in
  let jit () = Sim.Rng.jitter rng 0.02 in
  let fire ?vm site = Otrace.fire fault metrics ~engine:"inplace" ?vm site in
  Log.info (fun m ->
      m "InPlaceTP %s -> %s on %s: %d VMs, options %a" S.name T.name
        machine.Hw.Machine.name (List.length vm_names) Options.pp options);

  (* Per-VM pre-transplant ground truth for the correctness checks. *)
  let vms = List.map (fun n -> (n, Option.get (Hv.Host.find_vm host n))) vm_names in
  let checksums_before =
    List.map (fun (n, vm) -> (n, Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem)) vms
  in
  let memory_intact =
    List.for_all (fun (n, vm0) ->
        let vm = Option.get (Hv.Host.find_vm host n) in
        Vmstate.Guest_mem.verify_backing vm.Vmstate.Vm.mem = []
        && Int64.equal
             (Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem)
             (List.assoc n checksums_before)
        && vm.Vmstate.Vm.mem == vm0.Vmstate.Vm.mem (* literally in place *))
  in

  (* Staging state, unwound transactionally if a pre-PNR fault fires. *)
  let staged_image = ref None in
  let staged_pram = ref None in
  let paused = ref false in
  let pram_spent = ref 0.0 in
  let translation_spent = ref 0.0 in
  let built_acct = ref empty_accounting in
  try
    (* Step 1: stage the target's kernel image (ahead of time). *)
    let image =
      Kexec.load ~pmem ~kernel:T.name ~size:T.kernel_image_bytes
        ~cmdline:"console=ttyS0"
    in
    staged_image := Some image;
    if fire Fault.Kexec_load then raise (Rollback Fault.Kexec_load);

    (* Step 2a: build PRAM while VMs run (or later, inside the downtime,
       if the preparation optimisation is off). *)
    let granularity =
      if options.Options.huge_page_pram then Hw.Units.Page_2m else Hw.Units.Page_4k
    in
    let pram_inputs =
      List.map
        (fun (n, vm) ->
          ( n,
            vm.Vmstate.Vm.config.ram,
            Uisr.Vm_state.memmap_of_guest_mem vm.Vmstate.Vm.mem ))
        vms
    in
    List.iter
      (fun (n, _) ->
        if fire ~vm:n Fault.Pram_build then raise (Rollback Fault.Pram_build))
      vms;
    let pram_image = Pram.Build.build ~pmem ~granularity pram_inputs in
    staged_pram := Some pram_image;
    let acct = Pram.Build.accounting pram_image in
    built_acct := acct;
    let per_file_entries =
      List.map
        (fun f -> List.length f.Pram.Build.entries)
        (Pram.Build.files pram_image)
    in
    let pram_jobs =
      List.map2
        (fun (_, vm) entries ->
          Costs.pram_build_seconds machine
            ~gib:(Hw.Units.to_gib_f vm.Vmstate.Vm.config.ram)
            ~entries)
        vms per_file_entries
    in
    let pram_seconds = Costs.makespan ~workers pram_jobs *. jit () in
    pram_spent := pram_seconds;
    Log.debug (fun m ->
        m "PRAM built: %a (%.3f s)" Pram.Layout.pp_accounting acct pram_seconds);

    (* Step 2b: pause all VMs — downtime begins. *)
    Hv.Host.pause_all host;
    paused := true;
    Log.debug (fun m -> m "VMs paused; downtime window opens");

    (* Step 3: translate VM_i State to UISR (to_uisr_xxx family). *)
    let save_jobs =
      let (Hv.Host.Packed ((module S), shv, table)) = Hv.Host.running_exn host in
      List.map
        (fun (n, _) ->
          match Hashtbl.find_opt table n with
          | None -> assert false
          | Some dom -> Sim.Time.to_sec_f (S.save_cost shv dom))
        vms
    in
    translation_spent := Costs.makespan ~workers save_jobs;
    let uisrs = Hv.Host.to_uisr_all host in
    let blobs =
      List.map
        (fun (n, u) ->
          if fire ~vm:n Fault.Uisr_encode then raise (Rollback Fault.Uisr_encode);
          let b = Uisr.Codec.encode u in
          translation_spent :=
            !translation_spent +. Costs.uisr_encode_seconds ~bytes_len:(Bytes.length b);
          (n, u, b))
        uisrs
    in
    let uisr_platform_bytes =
      List.fold_left
        (fun acc (_, u, _) -> acc + Uisr.Codec.platform_size_bytes u)
        0 blobs
    in
    let encode_seconds =
      List.fold_left
        (fun acc (_, _, b) -> acc +. Costs.uisr_encode_seconds ~bytes_len:(Bytes.length b))
        0.0 blobs
    in
    let total_gib = List.fold_left (fun acc (_, vm) -> acc +. Hw.Units.to_gib_f vm.Vmstate.Vm.config.ram) 0.0 vms in
    let translation_seconds =
      (Costs.makespan ~workers save_jobs +. encode_seconds
      +. Costs.pram_finalize_seconds machine ~total_gib (List.length vms))
      *. jit ()
    in
    (* Without the preparation optimisation PRAM construction happens here,
       inside the downtime window. *)
    let pram_phase, translation_seconds =
      if options.Options.prepare_before_pause then (pram_seconds, translation_seconds)
      else (0.0, translation_seconds +. pram_seconds)
    in

    (* Point of no return: drop the source hypervisor without orderly
       teardown — the micro-reboot reclaims its heap, NPTs and
       management state; guest memory stays allocated and in place.
       From here on a fault cannot abort; it must be recovered from on
       the target side (ReHype-style). *)
    let detached = Hv.Host.crash_hypervisor host in
    let recovery_faults = ref [] in
    let note site =
      if not (List.mem site !recovery_faults) then
        recovery_faults := site :: !recovery_faults
    in
    (* After the point of no return every fired site is one to recover
       from. *)
    let fire_noted ?vm site = fire ?vm site && (note site; true) in
    let recovery_seconds = ref 0.0 in
    let full_reboot = ref false in
    (* Recovery-ladder rungs in firing order, each a (name, span attrs,
       seconds) triple: the trace lays them out sequentially inside the
       recovery phase span, and their seconds sum to recovery_seconds. *)
    let rungs = ref [] in
    let rung short attrs secs =
      recovery_seconds := !recovery_seconds +. secs;
      rungs := (short, attrs, secs) :: !rungs
    in

    (* Step 4: micro-reboot into the target with the PRAM pointer on its
       command line. *)
    let image = Kexec.with_pram_pointer image (Pram.Build.pointer_mfn pram_image) in
    staged_image := Some image;
    let preserved = Pram.Build.preserved pram_image in
    if fire Fault.Kexec_jump then Kexec.clobber ~pmem image;
    let jump = Kexec.execute ~pmem image ~preserved in
    Log.debug (fun m ->
        m "kexec jump: %d frames reclaimed, image %s" jump.Kexec.frames_wiped
          (if jump.Kexec.image_intact then "intact" else "CLOBBERED"));
    if not jump.Kexec.image_intact then begin
      (* The integrity check caught a clobbered image after the source
         hypervisor was already gone: fall back to a full firmware
         reboot of the target — PRAM-preserved guest memory still
         rides along (ReHype's microreboot premise). *)
      note Fault.Kexec_jump;
      full_reboot := true;
      rung "full_reboot" [ ("cause", "kexec_clobber") ] full_reboot_seconds;
      Log.warn (fun m -> m "kexec image clobbered: full-reboot fallback")
    end;
    if fire_noted Fault.Host_crash then begin
      (* The host crashes during the vulnerable window between jump and
         restoration: account a full reboot, then proceed to restore
         from the preserved PRAM + UISR staging. *)
      full_reboot := true;
      rung "full_reboot" [ ("cause", "host_crash") ] full_reboot_seconds
    end;
    let pointer =
      match Kexec.pram_pointer_of_cmdline (Kexec.cmdline image) with
      | Some mfn -> mfn
      | None -> invalid_arg "Inplace.run: PRAM pointer lost from cmdline"
    in
    (* In-page bit-rot during the vulnerable window: flip a byte inside
       one VM's file-info page.  The pmem sentinel stays intact, so only
       the per-page CRC added at build time can catch it. *)
    List.iteri
      (fun i (n, _) ->
        if fire_noted ~vm:n Fault.Pram_corrupt then begin
          ignore (Pram.Build.corrupt_file pram_image ~index:i)
        end)
      vms;
    (* Early boot: the target parses PRAM sequentially and reserves guest
       memory before its allocator comes up.  The verified parse
       contains per-file damage: a VM whose pages fail their CRC is
       lost, but its siblings still parse and get re-reserved. *)
    let parsed = Pram.Parse.parse_verified ~pmem ~image:pram_image pointer in
    let pram_damaged = ref [] in
    let pram_parse_ok =
      match parsed with
      | Ok outcomes ->
        List.length outcomes = List.length vms
        && List.for_all2
             (fun (n, vm) outcome ->
               match outcome with
               | Pram.Parse.File_damaged err ->
                 Log.warn (fun m ->
                     m "PRAM file for %s damaged: %a" n Pram.Parse.pp_error err);
                 pram_damaged := n :: !pram_damaged;
                 (* Contained damage is the recovery ladder's business
                    (the VM is quarantined below), not a parse failure. *)
                 true
               | Pram.Parse.File_ok f ->
                 String.equal f.Pram.Parse.name n
                 && List.fold_left (fun a e -> a + Pram.Entry.frames e) 0 f.entries
                    = Hw.Units.frames_of_bytes vm.Vmstate.Vm.config.ram)
             vms outcomes
      | Error err ->
        Log.warn (fun m -> m "PRAM table lost: %a" Pram.Parse.pp_error err);
        false
    in
    let covered_frames =
      List.fold_left
        (fun acc (_, vm) -> acc + Hw.Units.frames_of_bytes vm.Vmstate.Vm.config.ram)
        0 vms
    in
    let parse_seconds =
      Costs.pram_parse_seconds machine ~metadata_pages:acct.Pram.Layout.total_pages
        ~entries:acct.Pram.Layout.entry_count ~covered_frames
    in
    let boot_seconds = Sim.Time.to_sec_f (T.boot_time ~machine) in
    let reboot_seconds = (boot_seconds +. parse_seconds) *. jit () in
    Hv.Host.boot_hypervisor host (module T);
    Kexec.unload ~pmem image;
    staged_image := None;

    (* Step 5+6: restore each VM from UISR onto its untouched memory.
       Recovery ladder on post-PNR faults: retry a failed restore up to
       the configured limit, quarantine VMs whose UISR blob no longer
       decodes, and escalate management-rebuild failures. *)
    let quarantined = ref [] in
    let salvaged = ref [] in
    let restore_retries = ref 0 in
    let restore_results =
      List.filter_map
        (fun (n, u, blob) ->
          let blob =
            if fire_noted ~vm:n Fault.Uisr_decode then begin
              (* Damage a mandatory section: the per-section CRC catches
                 it, but there is no salvaging a vCPU table. *)
              Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_vcpu blob
            end
            else blob
          in
          let blob =
            if fire_noted ~vm:n Fault.Uisr_corrupt then begin
              (* Damage a salvageable section: the decoder discards the
                 PIT and substitutes architectural reset defaults. *)
              Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_pit blob
            end
            else blob
          in
          let quarantine why =
            Log.warn (fun m -> m "quarantining %s: %s" n why);
            quarantined := n :: !quarantined;
            rung "quarantine" [ ("vm", n); ("why", why) ]
              quarantine_triage_seconds;
            None
          in
          let restore ~before ~salvage =
            let roundtrip = Uisr.Vm_state.equal before u in
            let mem = (List.assoc n detached).Vmstate.Vm.mem in
            let rec attempt k =
              if fire_noted ~vm:n Fault.Vm_restore then begin
                rung "restore_retry" [ ("vm", n) ] restore_retry_seconds;
                if k > options.Options.restore_retry_limit then None
                else begin
                  incr restore_retries;
                  attempt (k + 1)
                end
              end
              else Some (Hv.Host.restore_from_uisr host ~mem before)
            in
            match attempt 1 with
            | None -> quarantine "restore retries exhausted"
            | Some fixups -> Some (n, u, fixups, roundtrip, salvage)
          in
          if List.mem n !pram_damaged then
            quarantine "PRAM file-info page failed its CRC; frames not re-reserved"
          else
            let report = Uisr.Codec.decode_verified ~preserved blob in
            match report.Uisr.Integrity.verdict with
            | Uisr.Integrity.Intact -> (
              match report.Uisr.Integrity.state with
              | None -> quarantine "decoder returned no state" (* unreachable *)
              | Some decoded -> restore ~before:decoded ~salvage:None)
            | Uisr.Integrity.Salvaged diags -> (
              match report.Uisr.Integrity.state with
              | None -> quarantine "salvage produced no state" (* unreachable *)
              | Some s ->
                let msgs =
                  List.map
                    (fun d ->
                      Format.asprintf "%a" Uisr.Integrity.pp_diagnostic d)
                    diags
                in
                Log.warn (fun m ->
                    m "salvaging %s: %d diagnostic(s)" n (List.length diags));
                salvaged := (n, msgs) :: !salvaged;
                rung "salvage" [ ("vm", n) ] salvage_repair_seconds;
                restore ~before:s ~salvage:(Some msgs))
            | Uisr.Integrity.Rejected d ->
              quarantine
                (Format.asprintf "UISR rejected (%a)" Uisr.Integrity.pp_diagnostic
                   d))
        blobs
    in
    let survivors = List.length restore_results in
    let restore_jobs =
      let (Hv.Host.Packed ((module T'), thv, table)) = Hv.Host.running_exn host in
      List.map
        (fun (n, _, _, _, _) ->
          match Hashtbl.find_opt table n with
          | None -> assert false
          | Some dom -> Sim.Time.to_sec_f (T'.restore_cost thv dom))
        restore_results
    in
    let rebuild_cost = Sim.Time.to_sec_f (Hv.Host.rebuild_management_state host) in
    let mgmt_rebuilds = ref 0 in
    let rec mgmt_attempt k =
      if fire_noted Fault.Mgmt_rebuild then begin
        if k >= 3 then begin
          full_reboot := true;
          rung "full_reboot" [ ("cause", "mgmt_rebuild") ] full_reboot_seconds
        end
        else begin
          incr mgmt_rebuilds;
          rung "mgmt_rebuild" []
            (Sim.Time.to_sec_f (Hv.Host.rebuild_management_state host));
          mgmt_attempt (k + 1)
        end
      end
    in
    mgmt_attempt 1;
    let restoration_raw =
      Costs.makespan ~workers restore_jobs
      +. rebuild_cost
      +. Costs.resume_seconds ~nvms:survivors
    in
    (* With early restoration, VM restores start as soon as the services
       KVM VMs need are up (section 4.2.5); without it they wait for the
       whole system to settle, paying a boot-tail penalty. *)
    let restoration_seconds =
      (if options.Options.early_restoration then restoration_raw
       else restoration_raw +. (0.15 *. boot_seconds))
      *. jit ()
    in

    (* Step 7: resume guests, free ephemeral PRAM metadata. *)
    Hv.Host.resume_all host;
    Pram.Build.release pram_image ~pmem;
    staged_pram := None;
    Log.info (fun m ->
        m "transplant complete: downtime %.3f s"
          (translation_seconds +. reboot_seconds +. restoration_seconds
          +. !recovery_seconds));

    (* Step 8 (optional, armed by [?audit]): post-commit residual audit.  Sweep
       the target world against a fresh-boot reference of the target,
       scrub-and-recheck on findings, and escalate the recovery ladder
       if the scrub fails — a world with known residue must not report
       Committed.  Audit and scrub time are charged as recovery rungs,
       so the obs spans and the downtime model both see them. *)
    let audit_result =
      Option.map
        (fun mode ->
          let downtime =
            Sim.Time.of_sec_f
              (translation_seconds +. reboot_seconds +. restoration_seconds
              +. !recovery_seconds)
          in
          audit_rung ~mode ~what:"post-commit" ~fire:fire_noted ~charge:rung
            ~source:(module S : Hv.Intf.S)
            ~target:(module T : Hv.Intf.S) ~victim:(fst (List.hd vms))
            (Audit.world
               ~baseline:(List.map (fun (n, u, _) -> (n, u)) blobs)
               ~downtime ~salvaged:(List.map fst !salvaged) host))
        audit
    in
    let audit_found, audit_scrubbed =
      match audit_result with
      | None -> (0, 0)
      | Some a ->
        let reboot cause msg =
          full_reboot := true;
          rung "full_reboot" [ ("cause", cause) ] full_reboot_seconds;
          Log.warn (fun m -> m "%s: full-reboot fallback" msg)
        in
        match a.audit_outcome with
        | Audit_clean | Audit_reported -> (a.audit_found, 0)
        | Audit_scrub_failed ->
          reboot "scrub_fail" "scrub failed";
          (a.audit_found, 0)
        | Audit_scrubbed left ->
          if left > 0 then
            reboot "residual_state"
              (Printf.sprintf "scrub left %d finding(s)" left);
          (a.audit_found, a.audit_found - left)
    in

    (* Checks, over the VMs that survived (quarantined ones are the
       recovery report's business, not the invariants'). *)
    let surviving_vms =
      List.filter (fun (n, _) -> not (List.mem n !quarantined)) vms
    in
    let guest_memory_intact = memory_intact surviving_vms in
    (* Every restored VM must land with the platform it was captured
       with; a salvaged one may have its PIT at reset defaults. *)
    let diffs =
      List.concat_map
        (fun (n, u, fixups, _, salvage) ->
          Uisr.Guest_view.diff ~fixups ~salvaged:(salvage <> None)
            (Uisr.Guest_view.of_state u)
            (Uisr.Guest_view.of_vm (Option.get (Hv.Host.find_vm host n))))
        restore_results
    in
    let checks =
      {
        guest_memory_intact;
        pram_parse_ok;
        (* A full-reboot fallback reloads the target from scratch and
           does not depend on the (possibly clobbered) staged image. *)
        kexec_image_intact = jump.Kexec.image_intact || !full_reboot;
        (* A salvaged blob is not expected to decode to its source. *)
        uisr_roundtrip_ok =
          List.for_all (fun (_, _, _, ok, salvage) -> ok || salvage <> None)
            restore_results;
        management_consistent = Hv.Host.management_consistent host;
        platform_preserved = Uisr.Guest_view.platform_preserved diffs;
        devices_preserved = Uisr.Guest_view.devices_preserved diffs;
      }
    in
    let outcome =
      if
        !recovery_faults = [] && !restore_retries = 0 && !quarantined = []
        && !salvaged = [] && !mgmt_rebuilds = 0
        && not !full_reboot && audit_found = 0
      then Committed
      else
        Recovered
          {
            recovery_faults = List.rev !recovery_faults;
            restore_retries = !restore_retries;
            quarantined = List.rev !quarantined;
            salvaged = List.rev !salvaged;
            mgmt_rebuilds = !mgmt_rebuilds;
            full_reboot = !full_reboot;
            recovery_time = Sim.Time.of_sec_f !recovery_seconds;
            audit_findings = audit_found;
            audit_scrubbed;
          }
    in
    let phases =
      {
        Phases.pram = Sim.Time.of_sec_f pram_phase;
        translation = Sim.Time.of_sec_f translation_seconds;
        reboot = Sim.Time.of_sec_f reboot_seconds;
        restoration = Sim.Time.of_sec_f restoration_seconds;
        recovery = Sim.Time.of_sec_f !recovery_seconds;
        network = Hw.Nic.init_time machine.Hw.Machine.nic;
      }
    in
    let restores =
      List.map2
        (fun (n, _, _, _, _) secs -> (n, secs))
        restore_results restore_jobs
    in
    emit_obs obs metrics ~source:S.name ~target:T.name ~phases
      ~rungs:(List.rev !rungs) ~restores
      ~outcome_label:(match outcome with Committed -> "committed" | _ -> "recovered")
      ~events:
        [ (phases.Phases.pram, "vms_paused");
          ( Sim.Time.add phases.Phases.pram phases.Phases.translation,
            "point_of_no_return" );
          (Phases.total phases, "vms_resumed") ];
    {
      source = S.name;
      target = T.name;
      vm_count = List.length vms;
      phases;
      fixups = List.map (fun (n, _, f, _, _) -> (n, f)) restore_results;
      uisr_platform_bytes;
      pram_accounting = acct;
      frames_wiped = jump.Kexec.frames_wiped;
      checks;
      outcome;
      audit = Option.map (fun a -> a.audit_report) audit_result;
    }
  with Rollback site ->
    (* Abort cleanly: discard staging, resume every VM on the source
       hypervisor, and prove with the regular checks that nothing
       leaked.  The paper's pipeline makes this cheap — before the
       kexec jump the source hypervisor still owns the machine. *)
    (match !staged_pram with
    | Some p -> Pram.Build.release p ~pmem
    | None -> ());
    (match !staged_image with
    | Some i -> Kexec.unload ~pmem i
    | None -> ());
    let resume_cost =
      if !paused then begin
        Hv.Host.resume_all host;
        Costs.resume_seconds ~nvms:(List.length vms)
      end
      else 0.0
    in
    Log.warn (fun m ->
        m "transplant rolled back at %a: VMs resumed on %s" Fault.pp_site site
          S.name);
    let checks =
      {
        guest_memory_intact = memory_intact vms;
        (* The aborted steps never ran; their checks hold vacuously. *)
        pram_parse_ok = true;
        kexec_image_intact = true;
        uisr_roundtrip_ok = true;
        management_consistent = Hv.Host.management_consistent host;
        platform_preserved = true;
        devices_preserved = true;
      }
    in
    let phases =
      {
        Phases.pram = Sim.Time.of_sec_f !pram_spent;
        translation = Sim.Time.of_sec_f !translation_spent;
        reboot = Sim.Time.zero;
        restoration = Sim.Time.of_sec_f resume_cost;
        recovery = Sim.Time.zero;
        network = Sim.Time.zero;
      }
    in
    emit_obs obs metrics ~source:S.name ~target:T.name ~phases ~rungs:[]
      ~restores:[] ~outcome_label:"rolled_back"
      ~events:
        [ ( Phases.total phases,
            Format.asprintf "rollback:%a" Fault.pp_site site ) ];
    {
      source = S.name;
      target = T.name;
      vm_count = List.length vms;
      phases;
      fixups = [];
      uisr_platform_bytes = 0;
      pram_accounting = !built_acct;
      frames_wiped = 0;
      checks;
      outcome = Rolled_back site;
      audit = None;
    }

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Rolled_back site ->
    Format.fprintf fmt "rolled back (fault at %a)" Fault.pp_site site
  | Recovered d ->
    Format.fprintf fmt
      "recovered in %a (faults: %a; %d restore retries, %d extra mgmt rebuilds%s%s%s)"
      Sim.Time.pp d.recovery_time
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         Fault.pp_site)
      d.recovery_faults d.restore_retries d.mgmt_rebuilds
      (match d.salvaged with
      | [] -> ""
      | s ->
        ", salvaged: "
        ^ String.concat " "
            (List.map
               (fun (vm, diags) ->
                 Printf.sprintf "%s(%d diag)" vm (List.length diags))
               s))
      (match d.quarantined with
      | [] -> ""
      | q -> ", quarantined: " ^ String.concat " " q)
      ((if d.audit_findings > 0 then
          Printf.sprintf ", audit: %d finding(s), %d scrubbed"
            d.audit_findings d.audit_scrubbed
        else "")
      ^ if d.full_reboot then ", full reboot" else "")

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>InPlaceTP %s -> %s (%d VMs)@,%a@,pram: %a@,uisr platform: %a@,\
     frames wiped: %d@,outcome: %a@,checks: %s@]"
    r.source r.target r.vm_count Phases.pp r.phases Pram.Layout.pp_accounting
    r.pram_accounting Hw.Units.pp_bytes r.uisr_platform_bytes r.frames_wiped
    pp_outcome r.outcome
    (if all_ok r.checks then "all ok" else "FAILED")
