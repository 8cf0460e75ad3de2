type outcome =
  | Completed
  | Completed_after_retries of int
  | Aborted_link_failure of int
  | Aborted_state_corruption of int

type retry_params = {
  max_attempts : int;
  backoff_base : Sim.Time.t;
  backoff_factor : float;
}

let default_retry =
  { max_attempts = 3; backoff_base = Sim.Time.ms 500; backoff_factor = 2.0 }

type vm_report = {
  vm_name : string;
  rounds : int;
  precopy_time : Sim.Time.t;
  downtime : Sim.Time.t;
  queue_wait : Sim.Time.t;
  retries : int;
  retry_wait : Sim.Time.t;
  wasted_time : Sim.Time.t;
  state_retransmits : int;
  total_time : Sim.Time.t;
  wire_bytes : Hw.Units.bytes_;
  state_bytes : int;
  fixups : Uisr.Fixup.t list;
  outcome : outcome;
}

type checks = {
  memory_equal : bool;
  connections_preserved : bool;
  management_consistent : bool;
  residual_clean : bool;
  platform_preserved : bool;
  devices_preserved : bool;
}

let all_ok c =
  c.memory_equal && c.connections_preserved && c.management_consistent
  && c.residual_clean && c.platform_preserved && c.devices_preserved

let all_true =
  { memory_equal = true; connections_preserved = true;
    management_consistent = true; residual_clean = true;
    platform_preserved = true; devices_preserved = true }

type report = {
  kind : [ `Migration_tp | `Homogeneous ];
  src_hv : string;
  dst_hv : string;
  per_vm : vm_report list;
  total_time : Sim.Time.t;
  checks : checks;
  audit : Audit.report option;
  audit_time : Sim.Time.t;
}

let setup_time = Sim.Time.ms 400 (* connection + capability negotiation *)

let pp_outcome fmt = function
  | Completed -> Format.pp_print_string fmt "completed"
  | Completed_after_retries n -> Format.fprintf fmt "completed after %d retries" n
  | Aborted_link_failure round ->
    Format.fprintf fmt "aborted (link failure, round %d)" round
  | Aborted_state_corruption attempts ->
    Format.fprintf fmt "aborted (state corrupt on all %d transmissions)"
      attempts

(* One pre-copy attempt over the analytic plan, walking its rounds and
   consulting the fault plan for link faults.  A degraded link halves
   the round's bandwidth (the round takes twice as long); a dropped
   link aborts the attempt at that round. *)
type attempt_result =
  | Link_ok of Sim.Time.t (* extra time from degraded rounds *)
  | Link_dropped of int * Sim.Time.t * Hw.Units.bytes_
      (* round index, time on the wire, bytes on the wire *)

let attempt_precopy ~(fire : ?vm:string -> Fault.site -> bool) ~vm:n
    ~page_wire_bytes (plan : Migration.Precopy.plan) =
  let rec walk i degrade_extra spent bytes = function
    | [] -> Link_ok degrade_extra
    | (r : Migration.Precopy.round) :: rest ->
      if fire ~vm:n Fault.Migration_link_drop then
        (* Everything up to and including this round was on the wire
           when the link died. *)
        Link_dropped
          ( i,
            Sim.Time.sum [ spent; degrade_extra; r.duration ],
            bytes + (r.pages_sent * page_wire_bytes) )
      else
        let degrade_extra =
          if fire ~vm:n Fault.Migration_link_degrade then
            Sim.Time.add degrade_extra r.duration
          else degrade_extra
        in
        walk (i + 1) degrade_extra
          (Sim.Time.add spent r.duration)
          (bytes + (r.pages_sent * page_wire_bytes))
          rest
  in
  walk 0 Sim.Time.zero Sim.Time.zero 0 plan.Migration.Precopy.rounds

(* Replay one VM's finished migration onto the optional tracer, laying
   segments back-to-back from t=0 on track ["vm:<name>"] using the
   report's own durations (setup, each dropped attempt + backoff,
   pre-copy with per-round children, downtime), so the root span's
   extent equals [total_time] exactly.  [dropped] lists the link-failed
   attempts in firing order as (round, wire time, backoff) — backoff is
   [None] only when the attempt budget ran out. *)
(* Metric labels must be low-cardinality enums, unlike the free-text
   span attribute built from [pp_outcome]. *)
let outcome_metric_label = function
  | Completed | Completed_after_retries _ -> "completed"
  | Aborted_link_failure _ -> "aborted_link_failure"
  | Aborted_state_corruption _ -> "aborted_state_corruption"

let emit_vm_obs obs metrics ~(plan : Migration.Precopy.plan) ~dropped
    (r : vm_report) =
  let outcome_label = Format.asprintf "%a" pp_outcome r.outcome in
  let track = "vm:" ^ r.vm_name in
  let root =
    Otrace.start obs ~at:Sim.Time.zero ~track
      ~attrs:
        [ ("engine", "migrate"); ("vm", r.vm_name);
          ("outcome", outcome_label) ]
      ("migrate:" ^ r.vm_name)
  in
  let c = ref Sim.Time.zero in
  let seg ?(attrs = []) name d =
    let until = Sim.Time.add !c d in
    let s = Otrace.span obs ~at:!c ~until ?parent:root ~track ~attrs name in
    c := until;
    s
  in
  ignore (seg "setup" setup_time);
  let dropped_wire =
    List.fold_left
      (fun acc (round, w_time, backoff) ->
        ignore
          (seg "precopy_attempt"
             ~attrs:
               [ ("result", "link_dropped"); ("round", string_of_int round) ]
             w_time);
        (match backoff with
        | Some b -> ignore (seg "backoff" b)
        | None -> ());
        Sim.Time.add acc w_time)
      Sim.Time.zero dropped
  in
  (match r.outcome with
  | Aborted_link_failure _ -> ()
  | Completed | Completed_after_retries _ | Aborted_state_corruption _ ->
    let p =
      seg "precopy"
        ~attrs:[ ("rounds", string_of_int r.rounds) ]
        r.precopy_time
    in
    (* Children use the analytic plan's raw round durations; the parent
       carries the jitter and any degraded-link stretch. *)
    let rc = ref (Sim.Time.sub !c r.precopy_time) in
    List.iter
      (fun (round : Migration.Precopy.round) ->
        let until = Sim.Time.add !rc round.duration in
        ignore
          (Otrace.span obs ~at:!rc ~until ?parent:p ~track
             ~attrs:[ ("pages_sent", string_of_int round.pages_sent) ]
             "round");
        rc := until)
      plan.Migration.Precopy.rounds;
    (match r.outcome with
    | Aborted_state_corruption _ ->
      (* The report folds the retransmission waste into wasted_time;
         what the dropped attempts did not burn was spent here. *)
      ignore
        (seg "state_retransmit"
           ~attrs:
             [ ("transmissions", string_of_int (r.state_retransmits + 1)) ]
           (Sim.Time.sub r.wasted_time dropped_wire))
    | _ ->
      let d =
        seg "downtime"
          ~attrs:
            [ ("queue_wait", Sim.Time.to_string r.queue_wait);
              ("state_retransmits", string_of_int r.state_retransmits) ]
          r.downtime
      in
      let dt_start = Sim.Time.sub !c r.downtime in
      for k = 1 to r.state_retransmits do
        Otrace.event d ~at:dt_start ("retransmit:" ^ string_of_int k)
      done));
  Otrace.finish obs root ~at:r.total_time;
  let labels = [ ("engine", "migrate") ] in
  Otrace.count metrics
    ~labels:(labels @ [ ("outcome", outcome_metric_label r.outcome) ])
    "hypertp_migrations_total";
  if r.retries > 0 then
    Otrace.count metrics ~by:(float_of_int r.retries) ~labels
      "hypertp_migration_retries_total";
  if r.state_retransmits > 0 then
    Otrace.count metrics
      ~by:(float_of_int r.state_retransmits)
      ~labels "hypertp_state_retransmits_total";
  Otrace.count metrics
    ~by:(float_of_int r.wire_bytes)
    ~labels "hypertp_wire_bytes_total";
  Otrace.observe metrics ~labels ~buckets:Otrace.seconds_buckets
    "hypertp_downtime_seconds"
    (Sim.Time.to_sec_f r.downtime)

let dirty_rate (cfg : Vmstate.Vm.config) =
  Workload.Profile.dirty_pages_per_sec cfg.workload ~ram:cfg.ram
    ~page_kind:cfg.page_kind

(* One VM's landing, shared by [run] and [run_shadow]: pre-copy its
   memory live into fresh memory on [dst], pause it, capture and encode
   its state, and let [admit] vet the blob.  A refusal discards the copy
   and resumes the VM on [src].  Otherwise the state is restored on
   [dst], the VM resumes there, and [checks] loses every field the
   landing fails: memory, connections, and what the guest sees
   ({!Uisr.Guest_view}) against the capture. *)
let land_vm ~precopy ~rng ~src ~dst ~admit ~checks (vm : Vmstate.Vm.t) =
  let n = vm.config.name and cfg = vm.config in
  let dst_mem =
    Vmstate.Guest_mem.create ~pmem:dst.Hv.Host.pmem ~rng:dst.Hv.Host.rng
      ~bytes:cfg.ram ~page_kind:cfg.page_kind ()
  in
  let live =
    Migration.Precopy.run_live precopy ~src:vm.mem ~dst:dst_mem
      ~dirty_pages_per_sec:(dirty_rate cfg) ~rng
  in
  assert live.Migration.Precopy.memory_equal;
  Hv.Host.pause_vm src n;
  let src_checksum = Vmstate.Guest_mem.checksum vm.mem in
  let src_conns = Vmstate.Vm.total_tcp_connections vm in
  let uisr = Hv.Host.to_uisr src n in
  match admit (Uisr.Codec.encode uisr) with
  | Error _ as refused ->
    Vmstate.Guest_mem.free dst_mem;
    Hv.Host.resume_vm src n;
    refused
  | Ok admitted ->
    let fixups = Hv.Host.restore_from_uisr dst ~mem:dst_mem uisr in
    Hv.Host.resume_vm dst n;
    let dst_vm = Option.get (Hv.Host.find_vm dst n) in
    let diffs =
      Uisr.Guest_view.diff ~fixups (Uisr.Guest_view.of_state uisr)
        (Uisr.Guest_view.of_vm dst_vm)
    in
    let c = !checks in
    checks :=
      { c with
        memory_equal =
          c.memory_equal
          && Int64.equal (Vmstate.Guest_mem.checksum dst_vm.mem) src_checksum;
        connections_preserved =
          c.connections_preserved
          && Vmstate.Vm.total_tcp_connections dst_vm = src_conns;
        platform_preserved =
          c.platform_preserved && Uisr.Guest_view.platform_preserved diffs;
        devices_preserved =
          c.devices_preserved && Uisr.Guest_view.devices_preserved diffs };
    Ok (admitted, uisr, fixups)

(* The VMs to move: the named ones (all by default), each on [src]. *)
let vms_to_move ~fn src vm_names =
  let vm_names = Option.value vm_names ~default:(Hv.Host.vm_names src) in
  if vm_names = [] then invalid_arg (fn ^ ": no VMs");
  List.iter
    (fun n ->
      if Hv.Host.find_vm src n = None then invalid_arg (fn ^ ": unknown VM " ^ n))
    vm_names;
  vm_names

let run ?rng ?fault ?(retry = default_retry) ?obs ?metrics ?audit
    ~(src : Hv.Host.t) ~(dst : Hv.Host.t) ?vm_names () =
  let rng = match rng with Some r -> r | None -> Sim.Rng.create 0x3C4DL in
  let obs = Option.map Otrace.attach obs in
  if retry.max_attempts < 1 then invalid_arg "Migrate.run: max_attempts < 1";
  let (Hv.Host.Packed ((module S), _, _)) = Hv.Host.running_exn src in
  let (Hv.Host.Packed ((module D), _, _)) = Hv.Host.running_exn dst in
  let kind =
    if Hv.Kind.equal S.kind D.kind then `Homogeneous else `Migration_tp
  in
  let vm_names = vms_to_move ~fn:"Migrate.run" src vm_names in
  Log.info (fun m ->
      m "%s %s -> %s: %d VMs"
        (match kind with
        | `Migration_tp -> "MigrationTP"
        | `Homogeneous -> "homogeneous migration")
        S.name D.name (List.length vm_names));
  let streams = List.length vm_names in
  let nic = src.Hv.Host.machine.Hw.Machine.nic in
  let params = Migration.Precopy.default_params ~nic ~streams () in
  let page_wire_bytes =
    Hw.Units.page_size_4k + params.Migration.Precopy.page_overhead_bytes
  in
  let fire ?vm site = Otrace.fire fault metrics ~engine:"migrate" ?vm site in

  (* Pre-copy plans (VMs still running, degraded). *)
  let plans =
    List.map
      (fun n ->
        let vm = Option.get (Hv.Host.find_vm src n) in
        let cfg = vm.Vmstate.Vm.config in
        (* The wire moves 4 KiB dirty-log granules regardless of the
           guest's backing page size. *)
        let page_bytes = Hw.Units.page_size_4k in
        let total_pages = Hw.Units.frames_of_bytes cfg.ram in
        (n, vm, Migration.Precopy.plan params ~page_bytes ~total_pages
                  ~dirty_pages_per_sec:(dirty_rate cfg)))
      vm_names
  in

  (* Stop-and-copy: pause, capture state, copy memory, restore on the
     destination.  The receive queue serialises on Xen (Fig. 8). *)
  let receiver_busy = ref Sim.Time.zero in
  let checks = ref all_true in
  (* Landed VMs with the exact state blob that crossed the wire — the
     baseline for the optional post-migration residual audit. *)
  let migrated_uisrs = ref [] in
  let per_vm =
    List.map
      (fun (n, (vm : Vmstate.Vm.t), (plan : Migration.Precopy.plan)) ->
        (* Link-fault retry loop: a dropped attempt is non-destructive
           (the source VM never paused; nothing landed on the
           destination), so retry after an exponential backoff until
           the attempt budget runs out. *)
        let dropped = ref [] in
        let rec go attempt ~retry_wait ~wasted_time ~wasted_bytes =
          match attempt_precopy ~fire ~vm:n ~page_wire_bytes plan with
          | Link_dropped (round, w_time, w_bytes) ->
            let wasted_time = Sim.Time.add wasted_time w_time in
            let wasted_bytes = wasted_bytes + w_bytes in
            if attempt >= retry.max_attempts then begin
              dropped := (round, w_time, None) :: !dropped;
              Log.warn (fun m ->
                  m "%s: link dropped in round %d; attempt budget exhausted"
                    n round);
              {
                vm_name = n;
                rounds = round + 1;
                precopy_time = wasted_time;
                downtime = Sim.Time.zero;
                queue_wait = Sim.Time.zero;
                retries = attempt - 1;
                retry_wait;
                wasted_time;
                state_retransmits = 0;
                total_time = Sim.Time.sum [ setup_time; retry_wait; wasted_time ];
                wire_bytes = wasted_bytes;
                state_bytes = 0;
                fixups = [];
                outcome = Aborted_link_failure round;
              }
            end
            else begin
              let backoff =
                Sim.Time.scale
                  (retry.backoff_factor ** float_of_int (attempt - 1))
                  retry.backoff_base
              in
              dropped := (round, w_time, Some backoff) :: !dropped;
              Log.warn (fun m ->
                  m "%s: link dropped in round %d; retrying in %a (attempt %d/%d)"
                    n round Sim.Time.pp backoff (attempt + 1) retry.max_attempts);
              go (attempt + 1)
                ~retry_wait:(Sim.Time.add retry_wait backoff)
                ~wasted_time ~wasted_bytes
            end
          | Link_ok degrade_extra -> (
            (* The live data path: multi-round pre-copy over the VM's
               actual dirty bits while it still runs (timings are
               reported from the calibrated analytic plan; the live
               rounds carry the data and verify convergence on real
               state).  Receiver-side verification: the destination
               proxy checks the blob's envelope and per-section CRCs
               before acking.  A corrupt chunk is retransmitted from the
               source's still-intact copy — the pre-copied memory is not
               resent — bounded by the same attempt budget as the link
               loop. *)
            let admit state_blob =
              let state_bytes = Bytes.length state_blob in
              let state_transfer =
                Hw.Nic.transfer_time nic ~streams state_bytes
              in
              let rec transmit k =
                let wire_blob =
                  if fire ~vm:n Fault.Uisr_corrupt then begin
                    Log.warn (fun m ->
                        m "%s: state chunk corrupted in flight" n);
                    Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_vcpu
                      state_blob
                  end
                  else state_blob
                in
                match
                  (Uisr.Codec.decode_verified wire_blob).Uisr.Integrity.verdict
                with
                | Uisr.Integrity.Intact ->
                  (* Proxy translation cost: a fraction of a full local
                     save, paid inside the stop phase. *)
                  let proxy_cost =
                    let (Hv.Host.Packed ((module S'), shv, table)) =
                      Hv.Host.running_exn src
                    in
                    match Hashtbl.find_opt table n with
                    | None -> assert false
                    | Some dom -> Sim.Time.scale 0.05 (S'.save_cost shv dom)
                  in
                  Ok (k - 1 (* retransmits *), state_bytes, state_transfer,
                      proxy_cost)
                | Uisr.Integrity.Salvaged _ | Uisr.Integrity.Rejected _ ->
                  if k >= retry.max_attempts then
                    Error (k, state_bytes, state_transfer)
                  else begin
                    Log.warn (fun m ->
                        m
                          "%s: receiver rejected state chunk; retransmitting \
                           (attempt %d/%d)"
                          n (k + 1) retry.max_attempts);
                    transmit (k + 1)
                  end
              in
              transmit 1
            in
            match land_vm ~precopy:params ~rng ~src ~dst ~admit ~checks vm with
            | Error (attempts, state_bytes, state_transfer) ->
              (* Every transmission arrived corrupt: abort without
                 touching the source.  The VM resumes where it paused;
                 the destination discards its half-built copy. *)
              Log.warn (fun m ->
                  m "%s: state verification failed after %d transmissions; \
                     aborting"
                    n attempts);
              let retransmit_waste =
                Sim.Time.scale (float_of_int attempts) state_transfer
              in
              let precopy_time =
                Sim.Time.add
                  (Sim.Time.scale (Sim.Rng.jitter rng 0.02)
                     plan.Migration.Precopy.precopy_time)
                  degrade_extra
              in
              {
                vm_name = n;
                rounds = List.length plan.Migration.Precopy.rounds;
                precopy_time;
                downtime = Sim.Time.zero;
                queue_wait = Sim.Time.zero;
                retries = attempt - 1;
                retry_wait;
                wasted_time = Sim.Time.add wasted_time retransmit_waste;
                state_retransmits = attempts - 1;
                total_time =
                  Sim.Time.sum
                    [ setup_time; retry_wait; wasted_time; precopy_time;
                      retransmit_waste ];
                wire_bytes =
                  plan.Migration.Precopy.total_bytes
                  + (attempts * state_bytes) + wasted_bytes;
                state_bytes;
                fixups = [];
                outcome = Aborted_state_corruption attempts;
              }
            | Ok
                ( (state_retransmits, state_bytes, state_transfer, proxy_cost),
                  uisr, fixups ) ->
            Hv.Host.destroy_vm src n;
            migrated_uisrs := (n, uisr) :: !migrated_uisrs;
            (* Timing: retransmitted state chunks stretch the downtime —
               the VM is paused while they cross the wire again. *)
            let retransmit_extra =
              Sim.Time.scale (float_of_int state_retransmits) state_transfer
            in
            let resume_cost =
              D.migration_resume_cost ~machine:dst.Hv.Host.machine
                ~vcpus:vm.Vmstate.Vm.config.vcpus
            in
            let service_time =
              Sim.Time.sum
                [ plan.Migration.Precopy.stop_copy_time; state_transfer;
                  retransmit_extra; proxy_cost; resume_cost ]
            in
            let queue_wait =
              if D.sequential_migration_receive then !receiver_busy
              else Sim.Time.zero
            in
            if D.sequential_migration_receive then
              receiver_busy := Sim.Time.add !receiver_busy service_time;
            let jitter = Sim.Rng.jitter rng 0.03 in
            let downtime =
              Sim.Time.scale jitter (Sim.Time.add queue_wait service_time)
            in
            let precopy_time =
              Sim.Time.add
                (Sim.Time.scale (Sim.Rng.jitter rng 0.02)
                   plan.Migration.Precopy.precopy_time)
                degrade_extra
            in
            let retries = attempt - 1 in
            {
              vm_name = n;
              rounds = List.length plan.Migration.Precopy.rounds;
              precopy_time;
              downtime;
              queue_wait;
              retries;
              retry_wait;
              wasted_time;
              state_retransmits;
              total_time =
                Sim.Time.sum
                  [ setup_time; retry_wait; wasted_time; precopy_time;
                    downtime ];
              wire_bytes =
                plan.Migration.Precopy.total_bytes
                + ((state_retransmits + 1) * state_bytes)
                + wasted_bytes;
              state_bytes;
              fixups;
              outcome =
                (if retries = 0 then Completed
                 else Completed_after_retries retries);
            })
        in
        let r =
          go 1 ~retry_wait:Sim.Time.zero ~wasted_time:Sim.Time.zero
            ~wasted_bytes:0
        in
        emit_vm_obs obs metrics ~plan ~dropped:(List.rev !dropped) r;
        r)
      plans
  in
  let total_time =
    List.fold_left
      (fun acc (r : vm_report) -> Sim.Time.max acc r.total_time)
      Sim.Time.zero per_vm
  in
  (* Optional post-migration residual audit of the destination world:
     same contract as the InPlaceTP rung — findings trigger a
     scrub-and-recheck, anything left standing fails the
     [residual_clean] check.  Audit/scrub time extends the reported
     total and is laid as spans after the last VM lands, so the trace
     reconciles with [audit_time] exactly. *)
  let audit_time = ref Sim.Time.zero in
  let audit_result =
    Option.map
      (fun mode ->
        let charge name attrs secs =
          let d = Sim.Time.of_sec_f secs in
          ignore
            (Otrace.span obs
               ~at:(Sim.Time.add total_time !audit_time)
               ~until:(Sim.Time.add total_time (Sim.Time.add !audit_time d))
               ~track:("host:" ^ dst.Hv.Host.host_name)
               ~attrs:(("engine", "migrate") :: attrs)
               name);
          audit_time := Sim.Time.add !audit_time d
        in
        let max_downtime =
          List.fold_left
            (fun acc (r : vm_report) -> Sim.Time.max acc r.downtime)
            Sim.Time.zero per_vm
        in
        Inplace.audit_rung ~mode ~what:"post-migration" ~fire ~charge
          ~source:(module S : Hv.Intf.S) ~target:(module D : Hv.Intf.S)
          ?victim:(Option.map fst (List.nth_opt !migrated_uisrs 0))
          (Audit.world ~baseline:(List.rev !migrated_uisrs)
             ~downtime:max_downtime dst))
      audit
  in
  let residual_clean =
    match audit_result with
    | None -> true
    | Some a -> (
      match a.Inplace.audit_outcome with
      | Inplace.Audit_clean | Inplace.Audit_scrubbed 0 -> true
      | Inplace.Audit_scrub_failed ->
        Log.warn (fun m -> m "scrub failed: destination retains residue");
        false
      | Inplace.Audit_reported | Inplace.Audit_scrubbed _ -> false)
  in
  {
    kind;
    src_hv = S.name;
    dst_hv = D.name;
    per_vm;
    total_time = Sim.Time.add total_time !audit_time;
    checks =
      { !checks with
        management_consistent = Hv.Host.management_consistent dst;
        residual_clean };
    audit = Option.map (fun a -> a.Inplace.audit_report) audit_result;
    audit_time = !audit_time;
  }

(* ------------------------------------------------------------------ *)
(* Shadow-host MigrationTP: abort-safe pre-staged cutover.

   The five-phase transaction (stage -> stream -> converge -> swap ->
   reclaim) keeps every phase before the identity swap purely analytic
   on the source side: the checkpoint stream and the replay rounds are
   walked over the calibrated plan ([Migration.Shadow.attempt_stream])
   without touching guest memory, so an abort at any pre-swap fault
   site provably leaves the source byte-identical and running — the
   handler just re-verifies the entry fingerprint.  Real data moves
   only at commit, mirroring [run]'s stop-and-copy tail but with the
   downtime shrunk to the final dirty set plus the swap handshake. *)

type shadow_strategy =
  | Shadow_cutover
  | Classic_fallback of Fault.site
  | Shadow_deferred of Fault.site

let strategy_label = function
  | Shadow_cutover -> "shadow_cutover"
  | Classic_fallback _ -> "classic_fallback"
  | Shadow_deferred _ -> "deferred"

let pp_shadow_strategy fmt = function
  | Shadow_cutover -> Format.pp_print_string fmt "shadow cutover"
  | Classic_fallback s ->
    Format.fprintf fmt "classic fallback (%a)" Fault.pp_site s
  | Shadow_deferred s -> Format.fprintf fmt "deferred (%a)" Fault.pp_site s

type shadow_vm = {
  sv_name : string;
  sv_plan : Migration.Shadow.plan option;
  sv_downtime : Sim.Time.t;
  sv_wire_bytes : Hw.Units.bytes_;
  sv_state_bytes : int;
  sv_fixups : Uisr.Fixup.t list;
}

type shadow_report = {
  sh_src_hv : string;
  sh_target_hv : string;
  sh_spare : string;
  sh_strategy : shadow_strategy;
  sh_phases : (Migration.Shadow.phase * Sim.Time.t) list;
  sh_per_vm : shadow_vm list;
  sh_downtime : Sim.Time.t;
  sh_wire_bytes : Hw.Units.bytes_;
  sh_shadow_time : Sim.Time.t;
  sh_total_time : Sim.Time.t;
  sh_source_intact : bool;
  sh_watchdog_trips : int;
  sh_watchdog_cancels : int;
  sh_checks : checks option;
  sh_classic : report option;
}

exception Shadow_abort of Fault.site

let run_shadow ?rng ?fault ?(retry = default_retry) ?obs:obs_arg ?metrics
    ?params ?(ladder = true) ~(src : Hv.Host.t) ~(spare : Hv.Host.t) ~target
    ?vm_names () =
  let module T = (val target : Hv.Intf.S) in
  let rng = match rng with Some r -> r | None -> Sim.Rng.create 0x5AD0L in
  let obs = Option.map Otrace.attach obs_arg in
  let (Hv.Host.Packed ((module S), _, _)) = Hv.Host.running_exn src in
  let vm_names = vms_to_move ~fn:"Migrate.run_shadow" src vm_names in
  (match Hv.Host.hypervisor_kind spare with
  | Some k when not (Hv.Kind.equal k T.kind) ->
    invalid_arg "Migrate.run_shadow: spare runs a different hypervisor"
  | Some _ | None -> ());
  if Hv.Host.vm_names spare <> [] then
    invalid_arg "Migrate.run_shadow: spare is not empty";
  Log.info (fun m ->
      m "shadow MigrationTP %s -> %s (spare %s): %d VMs" S.name T.name
        spare.Hv.Host.host_name (List.length vm_names));
  let streams = List.length vm_names in
  let nic = src.Hv.Host.machine.Hw.Machine.nic in
  let sparams =
    match params with
    | Some p -> p
    | None -> Migration.Shadow.default_params ~nic ~streams ()
  in
  let page_bytes = Hw.Units.page_size_4k in
  let per_page =
    Migration.Precopy.page_time sparams.Migration.Shadow.precopy ~page_bytes
  in
  let note_fault ?vm site = Otrace.fault_noted metrics ~engine:"shadow" ?vm site in
  let fire ?vm site = Otrace.fire fault metrics ~engine:"shadow" ?vm site in
  (* The watchdog ledger the report exposes, read from each plan: one
     trip per violator, one met (cancelled) deadline per replay
     round. *)
  let trips = ref 0 and cancels = ref 0 in
  (* Source fingerprint at entry: the abort contract is re-verified
     against this, never assumed. *)
  let entry =
    List.map
      (fun n ->
        let vm = Option.get (Hv.Host.find_vm src n) in
        (n, Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem))
      vm_names
  in
  let source_intact () =
    Hv.Host.management_consistent src
    && List.for_all
         (fun (n, sum) ->
           match Hv.Host.find_vm src n with
           | None -> false
           | Some vm ->
             Vmstate.Vm.is_running vm
             && Int64.equal (Vmstate.Guest_mem.checksum vm.Vmstate.Vm.mem) sum)
         entry
  in
  let stage_t = ref Sim.Time.zero in
  let stream_t = ref Sim.Time.zero in
  let converge_t = ref Sim.Time.zero in
  let swap_t = ref Sim.Time.zero in
  let reclaim_t = ref Sim.Time.zero in
  let per_vm = ref [] in
  let wire = ref 0 in
  let downtime = ref Sim.Time.zero in
  let cutover_checks = ref None in
  let classic = ref None in
  let finish strategy ~intact =
    let phases =
      [ (Migration.Shadow.Stage, !stage_t); (Migration.Shadow.Stream, !stream_t);
        (Migration.Shadow.Converge, !converge_t);
        (Migration.Shadow.Swap, !swap_t);
        (Migration.Shadow.Reclaim, !reclaim_t) ]
    in
    let shadow_time =
      List.fold_left (fun acc (_, d) -> Sim.Time.add acc d) Sim.Time.zero
        phases
    in
    let classic_r = !classic in
    let classic_wire =
      match classic_r with
      | None -> 0
      | Some r ->
        List.fold_left (fun acc (v : vm_report) -> acc + v.wire_bytes) 0
          r.per_vm
    in
    let downtime =
      match classic_r with
      | None -> !downtime
      | Some r ->
        List.fold_left
          (fun acc (v : vm_report) -> Sim.Time.max acc v.downtime)
          Sim.Time.zero r.per_vm
    in
    let total_time =
      match classic_r with
      | None -> shadow_time
      | Some r -> Sim.Time.add shadow_time r.total_time
    in
    (* Phase spans laid back-to-back from t=0 on the shadow track: the
       root's extent equals the sum of the five phases exactly, so the
       trace reconciles with [sh_shadow_time] to the nanosecond. *)
    let track = "shadow:" ^ src.Hv.Host.host_name in
    let root =
      Otrace.start obs ~at:Sim.Time.zero ~track
        ~attrs:
          [ ("engine", "shadow"); ("src", src.Hv.Host.host_name);
            ("spare", spare.Hv.Host.host_name);
            ("strategy", strategy_label strategy);
            ("source_intact", string_of_bool intact) ]
        ("shadow:" ^ src.Hv.Host.host_name)
    in
    let cursor = ref Sim.Time.zero in
    List.iter
      (fun (p, d) ->
        let until = Sim.Time.add !cursor d in
        ignore
          (Otrace.span obs ~at:!cursor ~until ?parent:root ~track
             (Migration.Shadow.phase_to_string p));
        (match p with
        | Migration.Shadow.Swap when strategy = Shadow_cutover ->
          Otrace.event root ~at:!cursor "identity_swap"
        | _ -> ());
        cursor := until)
      phases;
    (match strategy with
    | Shadow_cutover -> ()
    | Classic_fallback site | Shadow_deferred site ->
      Otrace.event root ~at:shadow_time ("abort:" ^ Fault.site_to_string site));
    Otrace.finish obs root ~at:shadow_time;
    let labels = [ ("engine", "shadow") ] in
    Otrace.count metrics
      ~labels:(labels @ [ ("strategy", strategy_label strategy) ])
      "hypertp_shadow_total";
    Otrace.count metrics
      ~by:(float_of_int (!wire + classic_wire))
      ~labels "hypertp_wire_bytes_total";
    if !trips > 0 then
      Otrace.count metrics ~by:(float_of_int !trips) ~labels
        "hypertp_watchdog_trips_total";
    if !cancels > 0 then
      Otrace.count metrics ~by:(float_of_int !cancels) ~labels
        "hypertp_watchdog_cancels_total";
    (match strategy with
    | Shadow_cutover ->
      Otrace.observe metrics ~labels ~buckets:Otrace.seconds_buckets
        "hypertp_downtime_seconds"
        (Sim.Time.to_sec_f downtime)
    | Classic_fallback _ | Shadow_deferred _ -> ());
    Log.info (fun m ->
        m "shadow %s: %a (total %a, downtime %a)" src.Hv.Host.host_name
          pp_shadow_strategy strategy Sim.Time.pp total_time Sim.Time.pp
          downtime);
    {
      sh_src_hv = S.name;
      sh_target_hv = T.name;
      sh_spare = spare.Hv.Host.host_name;
      sh_strategy = strategy;
      sh_phases = phases;
      sh_per_vm = !per_vm;
      sh_downtime = downtime;
      sh_wire_bytes = !wire + classic_wire;
      sh_shadow_time = shadow_time;
      sh_total_time = total_time;
      sh_source_intact = intact;
      sh_watchdog_trips = !trips;
      sh_watchdog_cancels = !cancels;
      sh_checks = !cutover_checks;
      sh_classic = classic_r;
    }
  in
  try
    (* --- stage: admission + booting the target on the spare.  The
       spare-pool check comes first — without a spare there is nothing
       to stage (and nothing for classic MigrationTP to land on
       either, so this site always defers). *)
    if fire Fault.Spare_exhausted then
      raise (Shadow_abort Fault.Spare_exhausted);
    let booted =
      match Hv.Host.hypervisor_kind spare with
      | Some _ -> false (* pre-staged pool: already running the target *)
      | None ->
        Hv.Host.boot_hypervisor spare (module T : Hv.Intf.S);
        true
    in
    stage_t :=
      Sim.Time.scale (Sim.Rng.jitter rng 0.02)
        (Sim.Time.of_sec_f
           (Costs.shadow_stage_seconds
              ~boot_seconds:
                (if booted then
                   Sim.Time.to_sec_f sparams.Migration.Shadow.stage_boot
                 else 0.0)
              ~vms:streams));
    (* The boot itself succeeded; what can still fail is pre-staging
       the VM skeletons on the freshly booted target. *)
    if fire Fault.Shadow_stage_fail then
      raise (Shadow_abort Fault.Shadow_stage_fail);
    (* --- stream + converge: every VM walks the analytic checkpoint
       stream concurrently (the link model already divides the
       bandwidth across [streams]); the converge phase lasts until
       the slowest VM's watchdog verdict. *)
    let outcomes =
      List.map
        (fun n ->
          let vm = Option.get (Hv.Host.find_vm src n) in
          let cfg = vm.Vmstate.Vm.config in
          let total_pages = Hw.Units.frames_of_bytes cfg.Vmstate.Vm.ram in
          let dirty = dirty_rate cfg in
          let outcome =
            Migration.Shadow.attempt_stream sparams ?fault ~vm:n ~page_bytes
              ~total_pages ~dirty_pages_per_sec:dirty ()
          in
          (n, vm, total_pages, dirty, outcome))
        vm_names
    in
    let dropped = ref None in
    let diverged = ref None in
    List.iter
      (fun (n, _vm, total_pages, dirty, outcome) ->
        match outcome with
        | Migration.Shadow.Stream_dropped { drop_round; spent; wasted_bytes }
          ->
          (* Only the stream-drop fault site produces this outcome. *)
          note_fault ~vm:n Fault.Shadow_stream_drop;
          Log.warn (fun m ->
              m "%s: checkpoint stream died in round %d" n drop_round);
          if drop_round = 0 then stream_t := Sim.Time.max !stream_t spent
          else begin
            let stream_dur =
              Sim.Time.of_sec_f (float_of_int total_pages *. per_page)
            in
            stream_t := Sim.Time.max !stream_t stream_dur;
            converge_t :=
              Sim.Time.max !converge_t (Sim.Time.sub spent stream_dur)
          end;
          wire := !wire + wasted_bytes;
          per_vm :=
            !per_vm
            @ [ { sv_name = n; sv_plan = None; sv_downtime = Sim.Time.zero;
                  sv_wire_bytes = wasted_bytes; sv_state_bytes = 0;
                  sv_fixups = [] } ];
          if !dropped = None then dropped := Some n
        | Migration.Shadow.Stream_ok p | Migration.Shadow.Stream_diverged p ->
          cancels := !cancels + List.length p.Migration.Shadow.replay_rounds;
          if p.Migration.Shadow.violator <> None then incr trips;
          stream_t := Sim.Time.max !stream_t p.Migration.Shadow.stream_time;
          converge_t :=
            Sim.Time.max !converge_t (Migration.Shadow.verdict_time sparams p);
          wire := !wire + p.Migration.Shadow.wire_bytes;
          per_vm :=
            !per_vm
            @ [ { sv_name = n; sv_plan = Some p; sv_downtime = Sim.Time.zero;
                  sv_wire_bytes = p.Migration.Shadow.wire_bytes;
                  sv_state_bytes = 0; sv_fixups = [] } ];
          (match outcome with
          | Migration.Shadow.Stream_diverged _ ->
            (* A naturally convergent workload only diverges when the
               shadow_diverge site inflated its dirty rate. *)
            if
              Migration.Precopy.converges sparams.Migration.Shadow.precopy
                ~page_bytes ~dirty_pages_per_sec:dirty
            then note_fault ~vm:n Fault.Shadow_diverge;
            Log.warn (fun m ->
                m "%s: convergence watchdog tripped (%a)" n
                  Migration.Shadow.pp_verdict p.Migration.Shadow.verdict);
            if !diverged = None then diverged := Some n
          | _ -> ()))
      outcomes;
    if !dropped <> None then raise (Shadow_abort Fault.Shadow_stream_drop);
    if !diverged <> None then raise (Shadow_abort Fault.Shadow_diverge);
    (* --- swap: the partition check strictly precedes the flip — a
       partition detected during the handshake aborts with the source
       still authoritative. *)
    if fire Fault.Swap_partition then raise (Shadow_abort Fault.Swap_partition);
    let checks = ref all_true in
    per_vm :=
      List.map
        (fun sv ->
          let n = sv.sv_name in
          let vm = Option.get (Hv.Host.find_vm src n) in
          let plan = Option.get sv.sv_plan in
          (* The data path: replay over the VM's actual dirty bits
             lands the shadow copy, then the flip moves only the final
             dirty set and the platform state. *)
          let state_bytes, fixups =
            match
              land_vm ~precopy:sparams.Migration.Shadow.precopy ~rng ~src
                ~dst:spare ~checks vm
                ~admit:(fun blob -> Ok (Bytes.length blob))
            with
            | Ok (state_bytes, _, fixups) -> (state_bytes, fixups)
            | Error () -> assert false (* the admission above never refuses *)
          in
          let vm_downtime =
            Sim.Time.scale (Sim.Rng.jitter rng 0.03)
              (Sim.Time.add plan.Migration.Shadow.cutover_downtime
                 (Sim.Time.of_sec_f Costs.shadow_flip_seconds))
          in
          swap_t := Sim.Time.max !swap_t vm_downtime;
          downtime := Sim.Time.max !downtime vm_downtime;
          wire := !wire + state_bytes;
          { sv with sv_downtime = vm_downtime;
            sv_wire_bytes = sv.sv_wire_bytes + state_bytes; sv_state_bytes =
            state_bytes; sv_fixups = fixups })
        !per_vm;
    (* --- reclaim: the spare is authoritative; tear the source copies
       down and verify both management planes. *)
    List.iter (fun n -> Hv.Host.destroy_vm src n) vm_names;
    reclaim_t :=
      Sim.Time.scale (Sim.Rng.jitter rng 0.02)
        (Sim.Time.of_sec_f (Costs.shadow_reclaim_seconds ~vms:streams));
    cutover_checks :=
      Some
        { !checks with
          management_consistent =
            Hv.Host.management_consistent src
            && Hv.Host.management_consistent spare };
    finish Shadow_cutover ~intact:true
  with Shadow_abort site ->
    (* Every abort fires strictly before the identity swap: nothing
       paused, nothing landed — verify rather than assume. *)
    let intact = source_intact () in
    if not intact then
      Log.err (fun m ->
          m "shadow abort at %a left the source damaged" Fault.pp_site site)
    else
      Log.warn (fun m ->
          m "shadow aborted at %a: source intact, %s" Fault.pp_site site
            (if site = Fault.Spare_exhausted || not ladder then
               "deferring (exposure accounted)"
             else "degrading to classic MigrationTP"));
    if site = Fault.Spare_exhausted || not ladder then
      finish (Shadow_deferred site) ~intact
    else begin
      classic :=
        Some
          (run ~rng ?fault ~retry ?obs:obs_arg ?metrics ~src ~dst:spare
             ~vm_names ());
      finish (Classic_fallback site) ~intact
    end

(* The checks line; [residual=] only when an audit ran. *)
let pp_checks ~residual fmt c =
  Format.fprintf fmt "checks: memory=%b conns=%b mgmt=%b platform=%b devices=%b"
    c.memory_equal c.connections_preserved c.management_consistent
    c.platform_preserved c.devices_preserved;
  if residual then Format.fprintf fmt " residual=%b" c.residual_clean

let pp_shadow_report fmt r =
  Format.fprintf fmt "@[<v>shadow MigrationTP %s -> %s (spare %s): %a@,"
    r.sh_src_hv r.sh_target_hv r.sh_spare pp_shadow_strategy r.sh_strategy;
  Format.fprintf fmt "  phases:";
  List.iter
    (fun (p, d) ->
      Format.fprintf fmt " %a=%a" Migration.Shadow.pp_phase p Sim.Time.pp d)
    r.sh_phases;
  Format.fprintf fmt "@,";
  List.iter
    (fun sv ->
      match sv.sv_plan with
      | Some p ->
        Format.fprintf fmt
          "  %s: %d replay rounds, %a; downtime %a, %a on wire@," sv.sv_name
          (List.length p.Migration.Shadow.replay_rounds)
          Migration.Shadow.pp_verdict p.Migration.Shadow.verdict Sim.Time.pp
          sv.sv_downtime Hw.Units.pp_bytes sv.sv_wire_bytes
      | None ->
        Format.fprintf fmt "  %s: stream dropped, %a wasted@," sv.sv_name
          Hw.Units.pp_bytes sv.sv_wire_bytes)
    r.sh_per_vm;
  (match r.sh_classic with
  | Some c ->
    Format.fprintf fmt "  classic fallback: total %a@," Sim.Time.pp
      c.total_time
  | None -> ());
  Format.fprintf fmt
    "  downtime %a, %a on wire, total %a; source_intact=%b watchdog \
     trips=%d cancels=%d"
    Sim.Time.pp r.sh_downtime Hw.Units.pp_bytes r.sh_wire_bytes Sim.Time.pp
    r.sh_total_time r.sh_source_intact r.sh_watchdog_trips
    r.sh_watchdog_cancels;
  Option.iter (Format.fprintf fmt "@,  %a" (pp_checks ~residual:false)) r.sh_checks;
  Format.fprintf fmt "@]"

let pp_report fmt r =
  let kind =
    match r.kind with
    | `Migration_tp -> "MigrationTP"
    | `Homogeneous -> "homogeneous migration"
  in
  Format.fprintf fmt "@[<v>%s %s -> %s: total %a@," kind r.src_hv r.dst_hv
    Sim.Time.pp r.total_time;
  List.iter
    (fun v ->
      Format.fprintf fmt
        "  %s: %d rounds, precopy %a, downtime %a (wait %a), %a on wire, %a@,"
        v.vm_name v.rounds Sim.Time.pp v.precopy_time Sim.Time.pp v.downtime
        Sim.Time.pp v.queue_wait Hw.Units.pp_bytes v.wire_bytes pp_outcome
        v.outcome;
      if v.retries > 0 || v.wasted_time <> Sim.Time.zero then
        Format.fprintf fmt "    %d retries, backoff %a, wasted %a@," v.retries
          Sim.Time.pp v.retry_wait Sim.Time.pp v.wasted_time;
      if v.state_retransmits > 0 then
        Format.fprintf fmt "    %d state retransmits@," v.state_retransmits)
    r.per_vm;
  (match r.audit with
  | None -> ()
  | Some a ->
    Format.fprintf fmt "  audit: %d finding(s) in %a%s@,"
      (List.length a.Audit.r_findings)
      Sim.Time.pp r.audit_time
      (if r.checks.residual_clean then "" else " (RESIDUE LEFT)"));
  Format.fprintf fmt "  %a@]" (pp_checks ~residual:(r.audit <> None)) r.checks
