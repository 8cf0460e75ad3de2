(* The five workloads.  Each is a closed loop: one caller issues the
   next operation only after the previous one returned.  Every input —
   fleet, fault plan, stream and host seeds — is derived from the
   benchmark seed, so a seed names one exact set of inputs.

   A workload builds an [instance]: a set-up step (what one operation
   needs before it can start), an untimed verification pass, the timed
   operation with its correctness check, and the probes a traced run
   adds to split the operation into layers. *)

module C = Cluster.Campaign
module CP = Cluster.Controlplane
module T = Cluster.Topology
module S = Stream.Service

type op = {
  wall : float;  (* seconds of the timed section *)
  hosts : int;
      (* hosts the operation served: the fleet, or for the CVE stream
         the population of every episode, whose count the seed decides *)
  check : unit -> bool;  (* run by the harness after the clock stops *)
}

type instance = {
  setup : unit -> unit;
      (* build one operation's inputs and drop them; timed for setup_s *)
  verify : unit -> bool;  (* untimed checks, run once before the loop *)
  op : int -> op;  (* run operation [i] *)
  layers : op_median:(string -> float) -> (string * float) list * bool;
      (* traced runs only: per-layer values and whether the probes'
         own checks held; [op_median name] is the median over traced
         operations of the time spent in spans [name] *)
}

type t = {
  name : string;
  why : string;
  make : seed:int -> smoke:bool -> instance;
}

(* Per-layer metrics and their units.  Every traced run reports all of
   them; a layer a workload never calls reads 0 there (fleet-calm is the
   bypass workload for the fault, breaker, resume and journal paths,
   transplant for the whole cluster stack).  Values in
   [sim_s] and [hh] are simulated quantities, not host time: a change
   that only speeds the simulator up must leave them bit-identical. *)
let per_layer =
  [
    ("shard.speedup", "x");
    ("shard.region_s_max_over_mean", "ratio");
    ("model.make_s", "s");
    ("btrplace.plan_s", "s");
    ("upgrade.execute_s", "s");
    ("campaign.region_s", "s");
    ("campaign.settle_s", "s");
    ("campaign.events_per_host", "count");
    ("campaign.attempts_per_host", "count");
    ("campaign.useful_ratio", "ratio");
    ("campaign.breaker_trips", "count");
    ("campaign.resumes", "count");
    ("campaign.minor_words_per_host", "words");
    ("journal.encode_s", "s");
    ("journal.decode_s", "s");
    ("journal.bytes_per_host", "B");
    ("fleet.digest_s", "s");
    ("controlplane.run_s", "s");
    ("controlplane.entries_per_host", "count");
    ("controlplane.restarts", "count");
    ("controlplane.bundle_encode_s", "s");
    ("controlplane.bundle_decode_s", "s");
    ("controlplane.scaling_exponent", "ratio");
    ("stream.gen_s", "s");
    ("stream.episodes", "count");
    ("stream.campaigns", "count");
    ("stream.preemptions", "count");
    ("stream.campaign_share", "frac");
    ("api.provision_s", "s");
    ("inplace.run_s", "s");
    ("uisr.translate_s", "s");
    ("uisr.decode_s", "s");
    ("uisr.bytes_per_vm", "B");
    ("pram.build_s", "s");
    ("pram.parse_s", "s");
    ("pram.pages", "count");
    ("pmem.wipe_s", "s");
    ("inplace.self_s", "s");
    ("phase.pram_s", "sim_s");
    ("phase.translation_s", "sim_s");
    ("phase.reboot_s", "sim_s");
    ("phase.restoration_s", "sim_s");
    ("sim.exposed_host_hours", "hh");
    ("sim.campaign_s", "sim_s");
    ("sim.downtime_s", "sim_s");
    ("trace_overhead_frac", "frac");
  ]

let derive seed tag = Int64.of_int (Hashtbl.hash (seed, tag))
let vms_per_host = 8

(* Cluster workloads take their fleet as a topology spec, the form an
   operator hands the CLI; parsing and validating it is their set-up. *)
let topology spec =
  match T.of_spec spec with Ok t -> t | Error e -> invalid_arg ("topology " ^ spec ^ ": " ^ e)

let two_domains regions = Sim.Shard.Parallel { shards = regions; domains = 2 }
let secs = Sim.Time.to_sec_f
let per n x = x /. float_of_int (Stdlib.max 1 n)

(* The first result an operation produces is the reference every later
   operation of the run must reproduce exactly. *)
let same_as_first () =
  let first = ref None in
  fun v ->
    match !first with
    | None -> first := Some v; true
    | Some r -> r = v

let host_faults =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.05 };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability 0.01 };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability 0.01 };
  ]

(* {1 Campaign set-up probe}

   [Campaign] plans every region before settling it: the model, the
   BtrPlace plan with its drain bound, and the unsupervised timing.
   The probe times the same calls on a fresh model of one region's
   shape.  VM workloads are drawn from the paper's mix, as Campaign's
   own set-up draws them. *)

let paper_mix =
  [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
    (Vmstate.Vm.Wl_idle, 0.4) ]

let setup_probe (cfg : C.config) ~nodes ~vms_per_node =
  let once () =
    let model, make_s =
      Measure.timed "model.make" (fun () ->
          Cluster.Model.make ~nodes ~vms_per_node ~vm_ram:cfg.C.vm_ram
            ~node_ram:cfg.C.node_ram ~inplace_fraction:cfg.C.inplace_fraction
            ~workload_mix:paper_mix ())
    in
    let plan, plan_s =
      Measure.timed "btrplace.plan" (fun () ->
          ignore (Cluster.Btrplace.max_concurrent_drains model);
          Cluster.Btrplace.plan_upgrade model)
    in
    let _, execute_s =
      Measure.timed "upgrade.execute" (fun () ->
          Cluster.Upgrade.execute ~nic:(Hw.Nic.create ~bandwidth_gbps:10.0 ()) plan)
    in
    (make_s, plan_s, execute_s)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  ( Measure.median (List.map (fun (m, _, _) -> m) runs),
    Measure.median (List.map (fun (_, p, _) -> p) runs),
    Measure.median (List.map (fun (_, _, e) -> e) runs) )

(* {1 Fleets: Campaign.run_fleet over a region topology} *)

let accounted (fr : C.fleet_report) =
  Array.for_all
    (fun (s : C.summary) ->
      s.s_inplace + s.s_shadow + s.s_drained + s.s_retried + s.s_exposed = s.s_hosts)
    fr.f_summaries
  && Array.fold_left (fun acc (s : C.summary) -> acc + s.s_hosts) 0 fr.f_summaries
     = T.hosts fr.f_topology

let fleet ~chaos ~regions ~hosts ~seed ~smoke =
  let regions, hosts, verify_hosts, crash_nth =
    if smoke then (4, 1_000, 1_000, 100) else (regions, hosts, 16_000, 500)
  in
  let config = { C.default_config with C.seed = derive seed "fleet" } in
  let fault_seed = derive seed "fleet-fault" in
  let inputs hosts =
    let topology = topology (Printf.sprintf "%dx%dx%d" regions (hosts / regions) vms_per_host) in
    let fault =
      if chaos then
        Some
          (Fault.make ~seed:fault_seed
             (host_faults
             @ [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit crash_nth } ]))
      else None
    in
    (topology, fault)
  in
  let run sharding (topology, fault) = C.run_fleet ?fault ~sharding ~topology config in
  (* Persisting a failing campaign: the fleet journal text, then every
     region journal through its own codec and back. *)
  let persist fr =
    let text = Measure.span "journal.encode" (fun () -> C.fleet_journals_to_string fr) in
    let decoded =
      Measure.span "journal.roundtrip" (fun () ->
          Array.map (fun j -> C.journal_of_string (C.journal_to_string j)) fr.C.f_journals)
    in
    (text, decoded)
  in
  let round_trips fr (text, decoded) =
    Array.for_all Result.is_ok decoded
    && String.equal text
         (C.fleet_journals_to_string
            { fr with C.f_journals = Array.map Result.get_ok decoded })
  in
  let same_digest = same_as_first () in
  let op _ =
    let ins = inputs hosts in
    let (fr, persisted), wall =
      Measure.timed "op" (fun () ->
          let fr = Measure.span "campaign.run_fleet" (fun () -> run (two_domains regions) ins) in
          (fr, if chaos then Some (persist fr) else None))
    in
    {
      wall;
      hosts;
      check =
        (fun () ->
          same_digest (C.fleet_digest fr)
          && accounted fr
          && Option.fold ~none:true ~some:(round_trips fr) persisted);
    }
  in
  (* A smaller fleet under the sequential and the two-domain schedule
     must print the same report and journals byte for byte. *)
  let verify () =
    let snap sharding =
      let fr = run sharding (inputs verify_hosts) in
      (Format.asprintf "%a" C.pp_fleet fr, C.fleet_journals_to_string fr, accounted fr)
    in
    let p1, j1, a1 = snap Sim.Shard.Sequential in
    let p2, j2, a2 = snap (two_domains regions) in
    a1 && a2 && String.equal p1 p2 && String.equal j1 j2
  in
  let layers ~op_median =
    let ((topology, fault) as ins) = inputs hosts in
    let seq, seq_s = Measure.timed "shard.sequential" (fun () -> run Sim.Shard.Sequential ins) in
    (* Each region again on its own: a one-region topology with the
       region's name derives the same seed, so it replays the same
       campaign and must give the same summary. *)
    let replay_ok = ref true in
    let region_s =
      Array.mapi
        (fun i (r : T.region) ->
          let one =
            T.make [ T.region ~name:r.rg_name ~hosts:r.rg_hosts ~vms_per_host:r.rg_vms_per_host () ]
          in
          let fr, s = Measure.timed "campaign.region" (fun () -> run Sim.Shard.Sequential (one, fault)) in
          if fr.C.f_summaries.(0) <> seq.C.f_summaries.(i) then replay_ok := false;
          s)
        (T.regions topology)
    in
    let region_total = Array.fold_left ( +. ) 0.0 region_s in
    let make_s, plan_s, execute_s =
      (* uniform topologies: the first region's shape stands for all *)
      let r = (T.regions topology).(0) in
      let m, p, e = setup_probe config ~nodes:r.rg_hosts ~vms_per_node:r.rg_vms_per_host in
      let n = float_of_int regions in
      (n *. m, n *. p, n *. e)
    in
    let text, encode_s = Measure.timed "journal.encode" (fun () -> C.fleet_journals_to_string seq) in
    let texts = Array.map C.journal_to_string seq.C.f_journals in
    let _, decode_s = Measure.timed "journal.decode" (fun () -> Array.map C.journal_of_string texts) in
    let _, digest_s = Measure.timed "fleet.digest" (fun () -> C.fleet_digest seq) in
    let total f = Array.fold_left (fun acc s -> acc + f s) 0 seq.C.f_summaries in
    let events = total (fun s -> s.C.s_events) and attempts = total (fun s -> s.C.s_attempts) in
    let mean_region = region_total /. float_of_int regions in
    ( [
        ("shard.speedup", seq_s /. op_median "campaign.run_fleet");
        ("shard.region_s_max_over_mean", Array.fold_left Float.max 0.0 region_s /. mean_region);
        ("model.make_s", make_s);
        ("btrplace.plan_s", plan_s);
        ("upgrade.execute_s", execute_s);
        ("campaign.region_s", region_total);
        ("campaign.settle_s", region_total -. make_s -. plan_s -. execute_s);
        ("campaign.events_per_host", per hosts (float_of_int events));
        ("campaign.attempts_per_host", per hosts (float_of_int attempts));
        ("campaign.useful_ratio", per attempts (float_of_int hosts));
        ("campaign.breaker_trips", float_of_int seq.C.f_breaker_trips);
        ("campaign.resumes", float_of_int seq.C.f_resumes);
        ("campaign.minor_words_per_host", per hosts seq.C.f_minor_words);
        ("journal.encode_s", encode_s);
        ("journal.decode_s", decode_s);
        ("journal.bytes_per_host", per hosts (float_of_int (String.length text)));
        ("fleet.digest_s", digest_s);
        ("sim.exposed_host_hours", seq.C.f_exposed_host_hours);
        ("sim.campaign_s", secs seq.C.f_wall_clock);
      ],
      !replay_ok && same_digest (C.fleet_digest seq) )
  in
  {
    setup = (fun () -> ignore (inputs hosts));
    verify;
    op;
    layers;
  }

(* {1 Control plane: Controlplane.run with sub-controller crashes} *)

let restarts metrics =
  List.fold_left
    (fun acc i ->
      if String.equal (Obs.Metrics.name i) "hypertp_ctl_restarts_total" then
        acc +. Obs.Metrics.value i
      else acc)
    0.0
    (Obs.Metrics.instruments metrics)

let controlplane ~regions ~hosts_per_region ~seed ~smoke =
  let regions, hosts_per_region, concurrency =
    if smoke then (4, 100, 16) else (regions, hosts_per_region, 128)
  in
  let hosts = regions * hosts_per_region in
  let config hosts_per_region =
    CP.config_of_topology
      (topology (Printf.sprintf "%dx%dx%d" regions hosts_per_region vms_per_host))
      { CP.default_config with CP.global_concurrency = concurrency; seed = derive seed "controlplane" }
  in
  let fault_seed = derive seed "controlplane-fault" in
  let calm_run hosts_per_region =
    Measure.timed "controlplane.calm" (fun () ->
        CP.run ~fault:(Fault.make ~seed:fault_seed host_faults) (config hosts_per_region))
  in
  (* The same fleet and host faults without control-plane chaos: the
     reference every crashed run must equal, and the journal length the
     crash points are placed by. *)
  let calm =
    lazy
      (match calm_run hosts_per_region with
      | CP.Finished (r, b), s -> Some (CP.summary r, CP.merged_to_string b, CP.bundle_length b, s)
      | CP.Crashed _, _ -> None)
  in
  let inputs () =
    let entries = match Lazy.force calm with Some (_, _, e, _) -> e | None -> 2 * hosts in
    let crash nth = { Fault.site = Fault.Subctl_crash; trigger = Fault.Nth_hit nth } in
    (config hosts_per_region,
     Fault.make ~seed:fault_seed (host_faults @ [ crash (entries / 2); crash (3 * entries / 4) ]))
  in
  let last = ref None in
  let op _ =
    let cfg, fault = inputs () in
    let metrics = Obs.Metrics.create () in
    let (result, persisted), wall =
      Measure.timed "op" (fun () ->
          match Measure.span "controlplane.run" (fun () -> CP.run ~fault ~metrics cfg) with
          | CP.Crashed _ as c -> (c, None)
          | CP.Finished (_, b) as f ->
            let text = Measure.span "controlplane.bundle_encode" (fun () -> CP.bundle_to_string b) in
            let back = Measure.span "controlplane.bundle_decode" (fun () -> CP.bundle_of_string text) in
            (f, Some (text, back)))
    in
    let check () =
      match (result, persisted, Lazy.force calm) with
      | CP.Finished (r, b), Some (text, Ok back), Some (summary, merged, _, _) ->
        last := Some (r, restarts metrics);
        String.equal (CP.summary r) summary
        && String.equal (CP.merged_to_string b) merged
        && String.equal (CP.bundle_to_string back) text
        && restarts metrics >= 2.0
        && r.CP.cp_hosts_inplace + r.cp_hosts_drained + r.cp_hosts_exposed = hosts
      | _ -> false
    in
    { wall; hosts; check }
  in
  let layers ~op_median =
    match (Lazy.force calm, !last) with
    | Some (_, _, entries, full_s), Some (r, restarts) ->
      let _, half_s = calm_run (hosts_per_region / 2) in
      ( [
          ("controlplane.run_s", op_median "controlplane.run");
          ("controlplane.entries_per_host", per hosts (float_of_int entries));
          ("controlplane.restarts", restarts);
          ("controlplane.bundle_encode_s", op_median "controlplane.bundle_encode");
          ("controlplane.bundle_decode_s", op_median "controlplane.bundle_decode");
          ("controlplane.scaling_exponent", Float.log2 (full_s /. half_s));
          ("sim.exposed_host_hours", r.CP.cp_exposed_host_hours);
          ("sim.campaign_s", secs r.CP.cp_wall_clock);
        ],
        true )
    | _ -> ([], false)
  in
  {
    setup = (fun () -> ignore (inputs ()));
    verify = (fun () -> Option.is_some (Lazy.force calm));
    op;
    layers;
  }

(* {1 CVE stream: Stream.Service.run_to_completion} *)

let cvestream ~hosts ~years ~seed ~smoke =
  let hosts, years = if smoke then (200, 1.0) else (hosts, years) in
  (* Two equal populations, so every episode (a critical CVE times a
     population it affects) serves [population] hosts. *)
  let population = hosts / 2 in
  let spec = Printf.sprintf "xen:%d:%d;kvm:%d:%d" population vms_per_host population vms_per_host in
  let config policy =
    {
      S.default_config with
      S.mix = S.mix_of_topology (topology spec);
      vms_per_host;
      years;
      rate_per_year = 30.0;
      tempo = 2000.0;
      concurrency = 64;
      policy;
      seed = derive seed "cvestream";
    }
  in
  (* The cost-aware policy never exposes more host-hours than either
     baseline on the same stream; the baselines run once, untimed. *)
  let baselines = ref None in
  let verify () =
    let exposure policy = (fst (S.run_to_completion (config policy))).S.exposed_host_hours in
    baselines :=
      Some (exposure Stream.Policy.Transplant_all, exposure Stream.Policy.Defer_all);
    true
  in
  let same_report = same_as_first () in
  let last = ref None in
  let op _ =
    let cfg = config Stream.Policy.Cost_aware in
    let r, wall =
      Measure.timed "op" (fun () ->
          Measure.span "stream.run" (fun () -> fst (S.run_to_completion cfg)))
    in
    last := Some r;
    let check () =
      let dominates =
        match !baselines with
        | Some (all, none) -> r.S.exposed_host_hours <= all && r.S.exposed_host_hours <= none
        | None -> false
      in
      dominates && r.S.uncovered_critical = 0 && same_report (S.report_to_string r)
    in
    { wall; hosts = r.S.episodes * population; check }
  in
  let layers ~op_median =
    match !last with
    | None -> ([], false)
    | Some r ->
      let cfg = config Stream.Policy.Cost_aware in
      let _, gen_s =
        Measure.timed "stream.gen" (fun () ->
            Stream.Gen.generate
              {
                Stream.Gen.default with
                Stream.Gen.years;
                rate_per_year = cfg.S.rate_per_year;
                critical_fraction = cfg.S.critical_fraction;
                coordinated_fraction = cfg.S.coordinated_fraction;
                seed = cfg.S.seed;
              })
      in
      (* One population's campaign, configured as the service prices it. *)
      let camp =
        {
          C.default_config with
          C.nodes = population;
          vms_per_node = vms_per_host;
          vm_ram = Hw.Units.gib 1;
          node_ram = Hw.Units.gib (Stdlib.max 8 (4 * vms_per_host));
          inplace_fraction = cfg.S.inplace_fraction;
          concurrency = cfg.S.concurrency;
          jitter_pct = 0.02;
          seed = cfg.S.seed;
        }
      in
      let campaign_s =
        Measure.median
          (List.init 3 (fun _ ->
               snd (Measure.timed "campaign.run_to_completion" (fun () -> C.run_to_completion camp))))
      in
      let m, p, e = setup_probe camp ~nodes:camp.C.nodes ~vms_per_node:vms_per_host in
      let episodes = float_of_int r.S.episodes in
      ( [
          ("stream.gen_s", gen_s);
          ("stream.episodes", episodes);
          ("stream.campaigns", float_of_int r.S.campaigns);
          ("stream.preemptions", float_of_int r.S.preemptions);
          ("stream.campaign_share", episodes *. campaign_s /. op_median "stream.run");
          ("model.make_s", episodes *. m);
          ("btrplace.plan_s", episodes *. p);
          ("upgrade.execute_s", episodes *. e);
          ("sim.exposed_host_hours", r.S.exposed_host_hours);
        ],
        true )
  in
  {
    setup = (fun () -> ignore (config Stream.Policy.Cost_aware));
    verify;
    op;
    layers;
  }

(* {1 Transplant: one InPlaceTP, Xen to KVM} *)

let transplant ~vms ~seed ~smoke:_ =
  let vm_configs =
    List.init vms (fun i ->
        Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus:2 ~ram:(Hw.Units.gib 1) ())
  in
  let provision i =
    Measure.span "api.provision" (fun () ->
        Hypertp.Api.provision ~seed:(derive seed ("transplant", i)) ~name:"bench-src"
          ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Xen vm_configs)
  in
  let target = Hypertp.Api.hypervisor_of Hv.Kind.Kvm in
  let transplant host = Hypertp.Inplace.run ~host ~target () in
  let committed (r : Hypertp.Inplace.report) =
    Hypertp.Inplace.all_ok r.checks
    && match r.outcome with Hypertp.Inplace.Committed -> true | _ -> false
  in
  let last = ref None in
  let op i =
    let host = provision i in
    let r, wall =
      Measure.timed "op" (fun () -> Measure.span "inplace.run" (fun () -> transplant host))
    in
    last := Some r;
    { wall; hosts = 1; check = (fun () -> committed r) }
  in
  (* Two hosts provisioned from one seed transplant identically. *)
  let verify () =
    let render () = Format.asprintf "%a" Hypertp.Inplace.pp_report (transplant (provision 0)) in
    String.equal (render ()) (render ())
  in
  (* The engine's stages, called one by one on a twin of operation 0's
     host: translation to UISR, decoding it back, PRAM build and parse,
     and the reboot's scrub of every frame PRAM does not preserve. *)
  let engine_probe () =
    let host = provision 0 in
    let pmem = host.Hv.Host.pmem in
    Hv.Host.pause_all host;
    let blobs, translate_s =
      Measure.timed "uisr.translate" (fun () ->
          List.map (fun (_, u) -> Uisr.Codec.encode u) (Hv.Host.to_uisr_all host))
    in
    let decoded, decode_s =
      Measure.timed "uisr.decode" (fun () -> List.map Uisr.Codec.decode blobs)
    in
    let files =
      List.map
        (fun (vm : Vmstate.Vm.t) ->
          (vm.config.name, vm.config.ram, Uisr.Vm_state.memmap_of_guest_mem vm.mem))
        (Hv.Host.vms host)
    in
    let image, build_s =
      Measure.timed "pram.build" (fun () ->
          Pram.Build.build ~pmem ~granularity:Hw.Units.Page_2m files)
    in
    let parsed, parse_s =
      Measure.timed "pram.parse" (fun () ->
          Pram.Parse.parse ~pmem ~image (Pram.Build.pointer_mfn image))
    in
    let _, wipe_s =
      Measure.timed "pmem.wipe" (fun () ->
          Hw.Pmem.wipe_unpreserved pmem ~preserve:(Pram.Build.preserve_predicate image))
    in
    let bytes = List.fold_left (fun acc b -> acc + Bytes.length b) 0 blobs in
    ( [| translate_s; decode_s; build_s; parse_s; wipe_s |],
      per (List.length blobs) (float_of_int bytes),
      (Pram.Build.accounting image).Pram.Layout.total_pages,
      List.for_all Result.is_ok decoded && Result.is_ok parsed )
  in
  let layers ~op_median =
    match !last with
    | None -> ([], false)
    | Some r ->
      let probes = List.init 5 (fun _ -> engine_probe ()) in
      let stage k = Measure.median (List.map (fun (t, _, _, _) -> t.(k)) probes) in
      let _, bytes_per_vm, pages, _ = List.hd probes in
      let run_s = op_median "inplace.run" in
      let stages = List.init 5 stage in
      let p = r.Hypertp.Inplace.phases in
      ( [
          ("api.provision_s", op_median "api.provision");
          ("inplace.run_s", run_s);
          ("uisr.translate_s", List.nth stages 0);
          ("uisr.decode_s", List.nth stages 1);
          ("uisr.bytes_per_vm", bytes_per_vm);
          ("pram.build_s", List.nth stages 2);
          ("pram.parse_s", List.nth stages 3);
          ("pram.pages", float_of_int pages);
          ("pmem.wipe_s", List.nth stages 4);
          ("inplace.self_s", run_s -. List.fold_left ( +. ) 0.0 stages);
          ("phase.pram_s", secs p.Hypertp.Phases.pram);
          ("phase.translation_s", secs p.translation);
          ("phase.reboot_s", secs p.reboot);
          ("phase.restoration_s", secs p.restoration);
          ("sim.downtime_s", secs (Hypertp.Phases.downtime p));
        ],
        List.for_all (fun (_, _, _, ok) -> ok) probes )
  in
  {
    setup = (fun () -> ignore (provision 0));
    verify;
    op;
    layers;
  }

let all =
  [
    {
      name = "fleet-calm";
      why =
        "1M hosts, no faults: per-region set-up plus settle admission at two \
         journal events a host; bypasses faults, breaker, resume and the journal codec";
      make = fleet ~chaos:false ~regions:64 ~hosts:1_000_000;
    };
    {
      name = "fleet-chaos";
      why =
        "128k hosts with host faults and a controller crash per region: breaker, \
         retry, resume replay and the journal codec do real work";
      make = fleet ~chaos:true ~regions:64 ~hosts:128_000;
    };
    {
      name = "controlplane-chaos";
      why =
        "the second campaign state machine, quadratic in region size, under host \
         faults and two sub-controller crashes that must not change its output";
      make = controlplane ~regions:16 ~hosts_per_region:500;
    };
    {
      name = "cvestream";
      why =
        "10k hosts under five years of CVE arrivals: many mid-size priced campaigns, \
         heavy on campaign set-up where the fleets are heavy on settle";
      make = cvestream ~hosts:10_000 ~years:5.0;
    };
    {
      name = "transplant";
      why =
        "one InPlaceTP of a 4-VM Xen host to KVM: UISR, PRAM, kexec scrub and \
         restore with no cluster layer above";
      make = transplant ~vms:4;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
