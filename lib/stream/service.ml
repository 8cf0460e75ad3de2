(* The CVE-stream campaign service: a fleet living under years of
   vulnerability traffic.

   The fleet is three static populations (hosts whose *home*
   hypervisor is Xen, KVM or bhyve).  A daemon loop on {!Sim.Engine}
   ticks every [batch_days], drains the arrivals the generator put
   before now, and opens one *episode* per (critical CVE x affected
   population).  The policy prices two mitigations in exposed
   host-hours — wait out the patch delay, or run a supervised
   {!Cluster.Campaign} moving the whole population to the advised safe
   hypervisor — and commits the cheaper one.  The campaign simulation
   priced at decision time *is* the execution when chosen: the same
   report's per-host completion times, stretched by [tempo] into
   calendar days, become the hosts' coverage times.

   Contention: campaigns on one population serialise through
   [p_free_at] (a queued campaign starts when the population frees),
   so no host is ever double-booked; campaigns on different
   populations overlap freely.  A critical arrival that finds its
   population busy may *preempt* (config flag or the
   {!Fault.Campaign_preempt} site): every in-flight campaign on the
   population is truncated at now, its not-yet-covered hosts released
   back to exposure, and the new campaign books from now.

   Everything is journaled (with the fault-plan cursor, like
   {!Cluster.Campaign}): a {!Fault.Controller_crash} kills the service
   mid-stream and {!resume} replays the journal against a restarted
   plan, re-validating every entry, then continues to a report
   byte-identical to the uninterrupted run's. *)

type mix = { xen_hosts : int; kvm_hosts : int; bhyve_hosts : int }

type config = {
  years : float;
  mix : mix;
  vms_per_host : int;
  rate_per_year : float;
  critical_fraction : float;
  coordinated_fraction : float;
  policy : Policy.kind;
  tempo : float;
  concurrency : int;
  inplace_fraction : float;
  batch_days : float;
  preempt : bool;
  seed : int64;
  track_bookings : bool;
}

let default_config =
  {
    years = 5.0;
    mix = { xen_hosts = 20; kvm_hosts = 16; bhyve_hosts = 0 };
    vms_per_host = 4;
    rate_per_year = 14.0;
    critical_fraction = 0.45;
    coordinated_fraction = 0.3;
    policy = Policy.Cost_aware;
    tempo = 40.0;
    concurrency = 4;
    inplace_fraction = 1.0;
    batch_days = 0.25;
    preempt = false;
    seed = 0xCAFEL;
    track_bookings = false;
  }

type booking = { b_episode : int; mutable b_start : float; mutable b_end : float }

type report = {
  r_config : config;
  cves_total : int;
  criticals : int;
  mediums : int;
  episodes : int;  (** critical (CVE x affected population) pairs *)
  campaigns : int;
  preemptions : int;
  released_hosts : int;
  exposed_host_hours : float;
  medium_exposed_host_hours : float;
  uncovered_critical : int;
  virtual_days : float;
  journal_entries : int;
  bookings : (string * (int * float * float) list) list;
      (** per population, chronological; empty unless [track_bookings] *)
}

type journal = { j_config : config; j_entries : string list }

let journal_config j = j.j_config
let journal_length j = List.length j.j_entries

type run_result = Finished of report * journal | Crashed of journal

let site = "Stream.Service"

let max_ticks = 10_000_000

let validate cfg =
  (* Written so that NaN fails every float check. *)
  let bad fmt = Hypertp_error.raise_errorf ~site fmt in
  let within lo hi x = lo <= x && x <= hi in
  if not (0.0 < cfg.years) then bad "years must be positive";
  if cfg.vms_per_host < 1 then bad "vms_per_host must be at least 1";
  if not (0.0 < cfg.rate_per_year) then bad "rate_per_year must be positive";
  Gen.check_volume ~site ~years:cfg.years ~rate_per_year:cfg.rate_per_year;
  if not (0.0 < cfg.tempo) then bad "tempo must be positive";
  if cfg.concurrency < 1 then bad "concurrency must be at least 1";
  (* The admission tick is a Sim.Time period: it must convert, not round
     down to 0 ns, and not tick more than [max_ticks] times. *)
  let tick = cfg.batch_days *. 86400.0 in
  if not (Sim.Time.fits_sec_f tick && Sim.Time.(compare (of_sec_f tick) zero) > 0)
  then bad "batch_days must convert to a positive virtual-time period";
  if not (cfg.years *. 365.0 /. cfg.batch_days <= float_of_int max_ticks) then
    bad "batch_days: %g admission ticks over the horizon, more than %d"
      (cfg.years *. 365.0 /. cfg.batch_days) max_ticks;
  if not (within 0.0 1.0 cfg.inplace_fraction) then
    bad "inplace_fraction outside [0, 1]";
  if not (within 0.0 1.0 cfg.critical_fraction) then
    bad "critical_fraction outside [0, 1]";
  if not (within 0.0 1.0 cfg.coordinated_fraction) then
    bad "coordinated_fraction outside [0, 1]";
  List.iter
    (fun n ->
      if n < 0 then bad "population sizes must be non-negative";
      if n > Cluster.Topology.max_hosts then
        bad "population sizes must be at most %d (the fleet bound)"
          Cluster.Topology.max_hosts;
      if n = 1 then
        bad "a population needs at least 2 hosts (campaigns roll host-by-host)")
    [ cfg.mix.xen_hosts; cfg.mix.kvm_hosts; cfg.mix.bhyve_hosts ]

(* The campaign service models one population per hypervisor, so a
   topology maps onto a mix by region {e name}: regions must be named
   after the repertoire ("xen" / "kvm" / "bhyve"), absent populations
   default to 0.  VM density rides in separately ([vms_per_host] is
   fleet-global here), so only the host counts transfer. *)
let mix_of_topology topology =
  let topology = Cluster.Topology.validate_exn topology in
  Array.fold_left
    (fun mix (r : Cluster.Topology.region) ->
      match r.Cluster.Topology.rg_name with
      | "xen" -> { mix with xen_hosts = r.Cluster.Topology.rg_hosts }
      | "kvm" -> { mix with kvm_hosts = r.Cluster.Topology.rg_hosts }
      | "bhyve" -> { mix with bhyve_hosts = r.Cluster.Topology.rg_hosts }
      | name ->
        Hypertp_error.raise_errorf ~site
          ~hint:"name the topology's regions after the repertoire, e.g. \
                 --topology xen:60:8;kvm:40:8"
          "unknown population %S (the service models xen/kvm/bhyve)" name)
    { xen_hosts = 0; kvm_hosts = 0; bhyve_hosts = 0 }
    (Cluster.Topology.regions topology)

(* {2 Config / journal text round-trip} *)

module J = Sim.Journal

let config_line { J.field; _ } c =
  let years = field "years" J.float c.years in
  let xen_hosts = field "xen" J.int c.mix.xen_hosts in
  let kvm_hosts = field "kvm" J.int c.mix.kvm_hosts in
  let bhyve_hosts = field "bhyve" J.int c.mix.bhyve_hosts in
  let vms_per_host = field "vph" J.int c.vms_per_host in
  let rate_per_year = field "rate" J.float c.rate_per_year in
  let critical_fraction = field "crit" J.float c.critical_fraction in
  let coordinated_fraction = field "coord" J.float c.coordinated_fraction in
  let policies = J.conv Policy.kind_to_string Policy.kind_of_string in
  let policy = field "policy" policies c.policy in
  let tempo = field "tempo" J.float c.tempo in
  let concurrency = field "conc" J.int c.concurrency in
  let inplace_fraction = field "inplace" J.float c.inplace_fraction in
  let batch_days = field "batch" J.float c.batch_days in
  let preempt = field "preempt" J.bool c.preempt in
  let seed = field "seed" J.int64 c.seed in
  let track_bookings = field "track" J.bool c.track_bookings in
  { years; mix = { xen_hosts; kvm_hosts; bhyve_hosts }; vms_per_host; rate_per_year;
    critical_fraction; coordinated_fraction; policy; tempo; concurrency;
    inplace_fraction; batch_days; preempt; seed; track_bookings }

let config_to_line c = J.to_line "config" config_line c
let config_of_line line = J.of_line "config" config_line default_config line

let magic = "cvestream-journal v1"

let journal_to_string j =
  let b = Buffer.create 4096 in
  J.line b magic;
  J.put_line b "config" config_line j.j_config;
  List.iter (J.line b) j.j_entries;
  Buffer.contents b

let journal_of_string s =
  J.parse s (fun r ->
      J.magic r magic;
      let j_config = J.get_line r "config" config_line default_config in
      let rec entries acc =
        if J.at_eof r then List.rev acc else entries (J.raw_line r :: acc)
      in
      { j_config; j_entries = entries [] })

(* {2 The run} *)

(* Internal per-population state. *)
type pop = {
  p_name : string;
  p_hosts : int;
  mutable p_free_at : float;  (** day the last booked campaign ends *)
  mutable p_inflight : episode list;
      (** campaigns still rolling hosts, newest first — including ones
          whose episode closed when the patch landed mid-campaign *)
  mutable p_bookings : booking list;  (** newest first *)
}

and episode = {
  e_id : int;
  e_pop : pop;
  e_arrival : float;
  e_patch_cap : float;  (** min(arrival + patch delay, horizon) *)
  mutable e_cover : float option array;
      (** per host: day it left the vulnerable hypervisor; [None] =
          exposed until the patch *)
  mutable e_camp_end : float;
  e_booking : booking option;
}

exception Crash

let derive_seed seed ep_id =
  Int64.logxor seed (Int64.mul (Int64.of_int (ep_id + 1)) 0x9E3779B97F4A7C15L)

let fleet_names = [ "xen"; "kvm"; "bhyve" ]

let run_internal ?fault ?obs ?metrics ~replay cfg =
  validate cfg;
  let horizon = cfg.years *. 365.0 in
  let engine = Sim.Engine.create () in
  let day_to_time d = Sim.Time.of_sec_f (d *. 86400.0) in
  let now_day () = Sim.Time.to_sec_f (Sim.Engine.now engine) /. 86400.0 in
  let now () = Sim.Engine.now engine in
  (* Metrics: the live dashboard. *)
  let m_cves sev =
    Option.map
      (fun m -> Obs.Metrics.counter m ~labels:[ ("severity", sev) ]
           ~help:"CVEs admitted from the stream" "stream_cves_total")
      metrics
  in
  let m_crit = m_cves "critical" and m_med = m_cves "medium" in
  let m_counter name help =
    Option.map (fun m -> Obs.Metrics.counter m ~help name) metrics
  in
  let m_gauge name help =
    Option.map (fun m -> Obs.Metrics.gauge m ~help name) metrics
  in
  let m_campaigns =
    m_counter "stream_campaigns_total" "campaigns committed by the policy"
  in
  let m_preempt =
    m_counter "stream_preemptions_total" "campaigns preempted by later criticals"
  in
  let m_exposed =
    m_gauge "stream_exposed_host_hours" "cumulative critical exposure"
  in
  let m_day = m_gauge "stream_virtual_day" "service clock, virtual days" in
  let inc c = Option.iter (fun c -> Obs.Metrics.inc c) c in
  let gset g v = Option.iter (fun g -> Obs.Metrics.set g v) g in
  (* Journal plumbing: every entry is validated against the replay
     prefix, then the crash site is consulted — but a crash can only
     fire on entries *beyond* the prefix, so a resume replays past the
     original crash point instead of dying there again. *)
  let entries = ref [] in
  let emitted = ref 0 in
  let replay_len = Array.length replay in
  let cursor () =
    match fault with Some p -> Fault.trace_length p | None -> 0
  in
  let emit line =
    if !emitted < replay_len && not (String.equal replay.(!emitted) line) then
      Hypertp_error.raise_errorf ~site:"Stream.Service.resume"
        ~hint:"the journal was recorded under a different config, seed or \
               fault plan"
        "journal mismatch at entry %d: recorded %S, replayed %S" !emitted
        replay.(!emitted) line;
    entries := line :: !entries;
    incr emitted;
    let crashed =
      match fault with
      | Some p -> Fault.fire p Fault.Controller_crash
      | None -> false
    in
    if crashed && !emitted > replay_len then raise Crash
  in
  (* The arrival stream: generated up front (consulting the burst
     site), drained by the batch tick. *)
  let gen_cfg =
    {
      Gen.years = cfg.years;
      rate_per_year = cfg.rate_per_year;
      class_mix = Gen.default.Gen.class_mix;
      critical_fraction = cfg.critical_fraction;
      coordinated_fraction = cfg.coordinated_fraction;
      base_year = Gen.default.Gen.base_year;
      seed = cfg.seed;
    }
  in
  let arrivals = Array.of_list (Gen.generate ?fault gen_cfg) in
  let pops =
    List.filter_map
      (fun (name, hosts) ->
        if hosts = 0 then None
        else
          Some
            { p_name = name; p_hosts = hosts; p_free_at = 0.0; p_inflight = [];
              p_bookings = [] })
      [ ("xen", cfg.mix.xen_hosts); ("kvm", cfg.mix.kvm_hosts);
        ("bhyve", cfg.mix.bhyve_hosts) ]
  in
  (* Totals. *)
  let cves_total = ref 0 in
  let criticals = ref 0 in
  let mediums = ref 0 in
  let n_episodes = ref 0 in
  let campaigns = ref 0 in
  let preemptions = ref 0 in
  let released_hosts = ref 0 in
  let exposed_hh = ref 0.0 in
  let medium_hh = ref 0.0 in
  let uncovered = ref 0 in
  let next_ep = ref 0 in
  (* The campaign backend: the whole population rolls to the advised
     hypervisor under supervision.  Fault-free — stream-level faults
     live at the service layer; the campaign's own jitter comes from
     the derived seed, so the report is a pure function of (config
     seed, episode id) and both the pricing pass and the committed
     execution see the same wall clock.  Only the seed differs between
     one population's campaigns, so each population size is planned
     once per run, when first priced. *)
  let plans = Hashtbl.create 3 in
  let simulate_campaign pop ep_id =
    let camp =
      {
        Cluster.Campaign.default_config with
        Cluster.Campaign.nodes = pop.p_hosts;
        vms_per_node = cfg.vms_per_host;
        vm_ram = Hw.Units.gib 1;
        node_ram = Hw.Units.gib (Stdlib.max 8 (4 * cfg.vms_per_host));
        inplace_fraction = cfg.inplace_fraction;
        concurrency = cfg.concurrency;
        jitter_pct = 0.02;
        seed = derive_seed cfg.seed ep_id;
      }
    in
    let plan =
      match Hashtbl.find_opt plans pop.p_hosts with
      | Some plan -> plan
      | None ->
        let plan = Cluster.Campaign.plan camp in
        Hashtbl.add plans pop.p_hosts plan;
        plan
    in
    Cluster.Campaign.run_to_completion ~plan camp
  in
  let covers_of start (rep : Cluster.Campaign.report) =
    Array.of_list
      (List.map
         (fun hr ->
           match hr.Cluster.Campaign.hr_status with
           | Cluster.Campaign.Deferred_exposed -> None
           | _ ->
             Some
               (start
               +. cfg.tempo
                  *. Sim.Time.to_sec_f hr.Cluster.Campaign.hr_done_at
                  /. 86400.0))
         rep.Cluster.Campaign.hosts)
  in
  let exposure_from t0 covers patch_cap =
    Array.fold_left
      (fun acc c ->
        let stop =
          match c with Some c -> Float.min c patch_cap | None -> patch_cap
        in
        acc +. (Float.max 0.0 (stop -. t0) *. 24.0))
      0.0 covers
  in
  let wall_days (rep : Cluster.Campaign.report) =
    cfg.tempo *. Sim.Time.to_sec_f rep.Cluster.Campaign.wall_clock /. 86400.0
  in
  (* Episodes waiting for their close, by id.  A close drops its entry,
     so a closed episode's covers are not held for the rest of the run. *)
  let closing = Hashtbl.create 16 in
  let close_ev =
    Sim.Engine.handler engine (fun id ->
        let ep = Hashtbl.find closing id in
        Hashtbl.remove closing id;
        let hh = exposure_from ep.e_arrival ep.e_cover ep.e_patch_cap in
        exposed_hh := !exposed_hh +. hh;
        gset m_exposed !exposed_hh;
        emit
          (Printf.sprintf "C %d %s %.6f %d" ep.e_id ep.e_pop.p_name hh
             (cursor ())))
  in
  let schedule_close ep =
    let target = Sim.Time.max (now ()) (day_to_time ep.e_patch_cap) in
    Hashtbl.add closing ep.e_id ep;
    Sim.Engine.schedule_event engine target close_ev ep.e_id
  in
  let preempt_pop pop t new_ep_id =
    let released = ref 0 in
    (* Truncate every campaign still rolling hosts — including ones
       whose episode already closed (patch landed mid-campaign): their
       hosts are still mid-roll and must not be double-booked. *)
    List.iter
      (fun ep ->
        if ep.e_camp_end > t then begin
          Array.iteri
            (fun i c ->
              match c with
              | Some c when c > t ->
                ep.e_cover.(i) <- None;
                incr released
              | _ -> ())
            ep.e_cover;
          ep.e_camp_end <- t;
          Option.iter
            (fun b ->
              b.b_end <- Float.max b.b_start (Float.min b.b_end t))
            ep.e_booking
        end)
      pop.p_inflight;
    pop.p_inflight <- [];
    pop.p_free_at <- t;
    incr preemptions;
    released_hosts := !released_hosts + !released;
    inc m_preempt;
    Option.iter
      (fun tr ->
        Obs.Tracer.instant tr ~at:(now ()) ~track:("pop:" ^ pop.p_name)
          ~attrs:[ ("released", string_of_int !released) ]
          "preempt")
      obs;
    emit
      (Printf.sprintf "P %d %s %d %d" new_ep_id pop.p_name !released
         (cursor ()))
  in
  let process_episode (ev : Gen.event) pop =
    let t = now_day () in
    let body = ev.Gen.cve.Cve.Nvd.body in
    let patch_cap =
      Float.min (ev.Gen.day +. ev.Gen.cve.Cve.Nvd.patch_delay_days) horizon
    in
    let ep_id = !next_ep in
    incr next_ep;
    incr n_episodes;
    let advice = Cve.Window.advise ~fleet:fleet_names ~current:pop.p_name body in
    let wait_hh =
      float_of_int pop.p_hosts *. Float.max 0.0 (patch_cap -. t) *. 24.0
    in
    (* Price the campaign exactly when a policy might buy it: the
       simulated report is reused as the execution if committed. *)
    let sim =
      match (advice, cfg.policy) with
      | Cve.Window.Transplant_to _, (Policy.Cost_aware | Policy.Transplant_all)
        ->
        Some (simulate_campaign pop ep_id)
      | _ -> None
    in
    let start0 = Float.max t pop.p_free_at in
    let transplant_hh =
      Option.map
        (fun rep -> exposure_from t (covers_of start0 rep) patch_cap)
        sim
    in
    let action = Policy.decide cfg.policy ~advice ~transplant_hh ~wait_hh in
    (match (action, advice) with
    | Policy.Defer, Cve.Window.Transplant_to _ ->
      if
        Policy.scalar_transplant_hh ~hosts:pop.p_hosts
          ~vms_per_host:cfg.vms_per_host ~concurrency:cfg.concurrency
          ~tempo:cfg.tempo
        < wait_hh
      then incr uncovered
    | _ -> ());
    let d_start, d_wall, ep =
      match action with
      | Policy.Transplant _ ->
        let rep = Option.get sim in
        let busy = pop.p_free_at > t in
        let do_preempt =
          busy
          && (cfg.preempt
             ||
             match fault with
             | Some p -> Fault.fire p Fault.Campaign_preempt
             | None -> false)
        in
        if do_preempt then preempt_pop pop t ep_id;
        let start = Float.max t pop.p_free_at in
        let wall = wall_days rep in
        let booking =
          if cfg.track_bookings then
            Some { b_episode = ep_id; b_start = start; b_end = start +. wall }
          else None
        in
        let ep =
          {
            e_id = ep_id;
            e_pop = pop;
            e_arrival = ev.Gen.day;
            e_patch_cap = patch_cap;
            e_cover = covers_of start rep;
            e_camp_end = start +. wall;
            e_booking = booking;
          }
        in
        pop.p_free_at <- start +. wall;
        (* Prune against *now*, not [start]: a queued campaign's start
           is the predecessor's end, and the predecessor is still
           rolling today — dropping it here would hide it from a later
           preemption. *)
        pop.p_inflight <-
          ep :: List.filter (fun e -> e.e_camp_end > t) pop.p_inflight;
        Option.iter (fun b -> pop.p_bookings <- b :: pop.p_bookings) booking;
        incr campaigns;
        inc m_campaigns;
        Option.iter
          (fun tr ->
            ignore
              (Obs.Tracer.span tr ~at:(day_to_time start)
                 ~until:(day_to_time (start +. wall))
                 ~track:("pop:" ^ pop.p_name)
                 ~attrs:[ ("cve", body.Cve.Nvd.id) ]
                 ("campaign:" ^ string_of_int ep_id)))
          obs;
        (start, wall, ep)
      | Policy.Wait | Policy.Defer ->
        ( t,
          0.0,
          {
            e_id = ep_id;
            e_pop = pop;
            e_arrival = ev.Gen.day;
            e_patch_cap = patch_cap;
            e_cover = Array.make pop.p_hosts None;
            e_camp_end = t;
            e_booking = None;
          } )
    in
    let thh =
      match transplant_hh with
      | Some v -> Printf.sprintf "%.6f" v
      | None -> "-"
    in
    emit
      (Printf.sprintf "D %d %s %s %.6f %.6f %s %.6f %d" ep_id pop.p_name
         (Policy.action_to_string action)
         d_start d_wall thh wait_hh (cursor ()));
    schedule_close ep
  in
  let process_arrival (ev : Gen.event) =
    let body = ev.Gen.cve.Cve.Nvd.body in
    incr cves_total;
    (match body.Cve.Nvd.severity with
    | Cve.Cvss.Critical ->
      incr criticals;
      inc m_crit
    | Cve.Cvss.Medium | Cve.Cvss.Low ->
      incr mediums;
      inc m_med);
    emit (Printf.sprintf "A %s %d" (Gen.event_to_string ev) (cursor ()));
    List.iter
      (fun pop ->
        if Cve.Window.affected body pop.p_name then begin
          match body.Cve.Nvd.severity with
          | Cve.Cvss.Critical -> process_episode ev pop
          | Cve.Cvss.Medium | Cve.Cvss.Low ->
            (* Mediums never trigger campaigns (the advise threshold);
               their exposure is accounted on the side. *)
            let patch_cap =
              Float.min
                (ev.Gen.day +. ev.Gen.cve.Cve.Nvd.patch_delay_days)
                horizon
            in
            medium_hh :=
              !medium_hh
              +. float_of_int pop.p_hosts
                 *. Float.max 0.0 (patch_cap -. ev.Gen.day)
                 *. 24.0
        end)
      pops
  in
  (* The batch tick drains the arrivals due by now, then arms its
     successor one period later while any remain: a crash inside the
     tick ends the series. *)
  let idx = ref 0 in
  let period = day_to_time cfg.batch_days in
  let rec tick_ev = lazy (Sim.Engine.handler engine (fun _ -> tick ()))
  and arm () =
    Sim.Engine.schedule_event engine (Sim.Time.add (now ()) period)
      (Lazy.force tick_ev) 0
  and tick () =
    let t = now_day () in
    gset m_day t;
    while
      !idx < Array.length arrivals && arrivals.(!idx).Gen.day <= t +. 1e-9
    do
      process_arrival arrivals.(!idx);
      incr idx
    done;
    if !idx < Array.length arrivals then arm ()
  in
  arm ();
  let finish () =
    Sim.Engine.run engine;
    gset m_day horizon;
    gset m_exposed !exposed_hh;
    let bookings =
      List.filter_map
        (fun pop ->
          if not cfg.track_bookings then None
          else
            Some
              ( pop.p_name,
                (* A fully-preempted queued campaign truncates to a
                   zero-length interval: it never ran, so it does not
                   book the population. *)
                List.filter_map
                  (fun b ->
                    if b.b_end > b.b_start then
                      Some (b.b_episode, b.b_start, b.b_end)
                    else None)
                  (List.rev pop.p_bookings) ))
        pops
    in
    let journal = { j_config = cfg; j_entries = List.rev !entries } in
    let report =
      {
        r_config = cfg;
        cves_total = !cves_total;
        criticals = !criticals;
        mediums = !mediums;
        episodes = !n_episodes;
        campaigns = !campaigns;
        preemptions = !preemptions;
        released_hosts = !released_hosts;
        exposed_host_hours = !exposed_hh;
        medium_exposed_host_hours = !medium_hh;
        uncovered_critical = !uncovered;
        virtual_days = horizon;
        journal_entries = List.length journal.j_entries;
        bookings;
      }
    in
    Finished (report, journal)
  in
  try finish ()
  with Crash -> Crashed { j_config = cfg; j_entries = List.rev !entries }

let run ?fault ?obs ?metrics cfg =
  run_internal ?fault ?obs ?metrics ~replay:[||] cfg

let resume ?fault ?obs ?metrics journal =
  let fault = Option.map Fault.restart fault in
  run_internal ?fault ?obs ?metrics
    ~replay:(Array.of_list journal.j_entries)
    journal.j_config

let run_to_completion ?fault ?obs ?metrics cfg =
  let rec go = function
    | Finished (report, journal) -> (report, journal)
    | Crashed journal -> go (resume ?fault ?obs ?metrics journal)
  in
  go (run ?fault ?obs ?metrics cfg)

let report_to_string r =
  String.concat "\n"
    [
      Printf.sprintf "policy=%s hosts=%d/%d/%d vms_per_host=%d years=%.2f"
        (Policy.kind_to_string r.r_config.policy)
        r.r_config.mix.xen_hosts r.r_config.mix.kvm_hosts
        r.r_config.mix.bhyve_hosts r.r_config.vms_per_host r.r_config.years;
      Printf.sprintf
        "cves=%d criticals=%d mediums=%d episodes=%d campaigns=%d \
         preemptions=%d released=%d"
        r.cves_total r.criticals r.mediums r.episodes r.campaigns r.preemptions
        r.released_hosts;
      Printf.sprintf
        "exposed_hh=%.6f medium_exposed_hh=%.6f uncovered_critical=%d \
         journal_entries=%d"
        r.exposed_host_hours r.medium_exposed_host_hours r.uncovered_critical
        r.journal_entries;
    ]

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%s policy over %.1f virtual years: %d CVEs (%d critical), %d \
     campaigns, %d preemptions;@ exposure %.1f critical host-hours (%.1f \
     medium), %d uncovered@]"
    (Policy.kind_to_string r.r_config.policy)
    r.r_config.years r.cves_total r.criticals r.campaigns r.preemptions
    r.exposed_host_hours r.medium_exposed_host_hours r.uncovered_critical
