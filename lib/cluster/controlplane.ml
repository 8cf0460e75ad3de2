module C = Campaign

type config = {
  regions : int;
  hosts_per_region : int;
  vms_per_host : int;
  global_concurrency : int;
  straggler_factor : float;
  breaker_window : int;
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;
  drain_flakiness : float;
  heartbeat_every : Sim.Time.t;
  heartbeat_timeout : Sim.Time.t;
  realloc_lag : Sim.Time.t;
  seed : int64;
}

let default_config =
  {
    regions = 4;
    hosts_per_region = 25;
    vms_per_host = 8;
    global_concurrency = 8;
    straggler_factor = 2.0;
    breaker_window = 5;
    breaker_threshold = 0.4;
    breaker_cooldown = Sim.Time.sec 120;
    jitter_pct = 0.05;
    drain_flakiness = 0.25;
    heartbeat_every = Sim.Time.sec 5;
    heartbeat_timeout = Sim.Time.sec 12;
    realloc_lag = Sim.Time.sec 22;
    seed = 0x5EEDL;
  }

(* The control plane's region grid is uniform by construction (its
   admission-budget split assumes equal regions), so only a uniform
   topology maps onto it; anything ragged is a structured error rather
   than a silent reshape. *)
let config_of_topology topology base =
  let topology = Topology.validate_exn topology in
  let rs = Topology.regions topology in
  let r0 = rs.(0) in
  Array.iter
    (fun (r : Topology.region) ->
      if
        r.Topology.rg_hosts <> r0.Topology.rg_hosts
        || r.Topology.rg_vms_per_host <> r0.Topology.rg_vms_per_host
      then
        Hypertp_error.raise_errorf ~site:"Controlplane"
          ~hint:
            "the control plane splits its admission budget over equal \
             regions; use Campaign.run_fleet for ragged topologies"
          "non-uniform topology: region %s is %dx%d but %s is %dx%d"
          r.Topology.rg_name r.Topology.rg_hosts r.Topology.rg_vms_per_host
          r0.Topology.rg_name r0.Topology.rg_hosts r0.Topology.rg_vms_per_host)
    rs;
  {
    base with
    regions = Array.length rs;
    hosts_per_region = r0.Topology.rg_hosts;
    vms_per_host = r0.Topology.rg_vms_per_host;
  }

type host_status = C.host_status =
  | Upgraded_inplace
  | Shadow_cutover
  | Drained
  | Deferred_resolved
  | Deferred_exposed

type host_record = {
  h_name : string;
  h_status : host_status;
  h_attempts : int;
  h_manifestations : C.manifestation list;
  h_done_at : Sim.Time.t;
  h_exposure_hours : float;
}

type region_report = {
  rr_region : int;
  rr_hosts : host_record list;
  rr_finished_at : Sim.Time.t;
  rr_breaker_trips : int;
}

type report = {
  cp_cfg : config;
  cp_regions : region_report list;
  cp_wall_clock : Sim.Time.t;
  cp_exposed_host_hours : float;
  cp_baseline_exposed_host_hours : float;
  cp_hosts_inplace : int;
  cp_hosts_drained : int;
  cp_hosts_exposed : int;
}

(* --- region derivation: the same one [Campaign.run_fleet] uses --- *)

let base_limit_of (cfg : config) r =
  (cfg.global_concurrency / cfg.regions)
  + (if r < cfg.global_concurrency mod cfg.regions then 1 else 0)

let topology_of (cfg : config) =
  Topology.uniform ~regions:cfg.regions
    ~hosts:(cfg.regions * cfg.hosts_per_region)
    ~vms_per_host:cfg.vms_per_host ()

let region_configs (cfg : config) =
  let fleet =
    {
      C.default_config with
      C.nodes = cfg.hosts_per_region;
      vms_per_node = cfg.vms_per_host;
      concurrency = cfg.global_concurrency;
      straggler_factor = cfg.straggler_factor;
      breaker_window = cfg.breaker_window;
      breaker_threshold = cfg.breaker_threshold;
      breaker_cooldown = cfg.breaker_cooldown;
      jitter_pct = cfg.jitter_pct;
      drain_flakiness = cfg.drain_flakiness;
      seed = cfg.seed;
    }
  in
  Array.mapi
    (fun r rg ->
      { (C.region_config fleet rg) with C.concurrency = base_limit_of cfg r })
    (Topology.regions (topology_of cfg))

let validate_config (cfg : config) =
  let bad msg = Hypertp_error.raise_error ~site:"Controlplane" msg in
  if cfg.regions < 1 then bad "need at least 1 region";
  if cfg.hosts_per_region < 2 then
    bad "hosts_per_region must be at least 2 (campaigns drain into peers)";
  if cfg.global_concurrency < cfg.regions then
    bad "global_concurrency below the region count (each region needs a slot)";
  if Sim.Time.(cfg.heartbeat_every <= zero) then
    bad "heartbeat_every must be positive";
  if Sim.Time.(cfg.heartbeat_timeout <= cfg.heartbeat_every) then
    bad "heartbeat_timeout must exceed heartbeat_every";
  let every, timeout = (cfg.heartbeat_every, cfg.heartbeat_timeout) in
  if Sim.Time.(cfg.realloc_lag < add timeout (add every every)) then
    bad
      "realloc_lag below heartbeat_timeout + 2 x heartbeat_every (a \
       reallocation could land inside the grantor's detection window)";
  (* Every per-region setting is a campaign setting: let the campaign
     judge it, under this entry point's name. *)
  try C.validate_config (region_configs cfg).(0)
  with Hypertp_error.Error e -> bad e.Hypertp_error.reason

(* --- root state --- *)

type bundle = { b_config : config; b_journals : C.journal array }

let bundle_config b = b.b_config
let bundle_journals b = Array.copy b.b_journals
let bundle_length b =
  Array.fold_left (fun acc j -> acc + C.journal_length j) 0 b.b_journals

type region = {
  r_index : int;
  r_topo : Topology.region;
  mutable ctl : C.controller;  (* the current incarnation *)
  mutable last_seen : Sim.Time.t;
  mutable partitioned_until : Sim.Time.t;
}

type st = {
  cfg : config;
  eng : Sim.Engine.t;
  plan : C.plan;  (* every region's: regions are uniform *)
  mutable regions : region array;
  hplan : Fault.t option;  (* host sites of the caller plan *)
  chaos : Fault.t option;  (* the caller plan, for control-plane sites *)
  partition_rng : Sim.Rng.t array;  (* per-region heal-delay stream *)
  (* The reallocation ledger, kept from the journals' [Limit_raised]
     entries as they are appended or replayed. *)
  granted : int array;  (* slots received, per region *)
  realloc_done : bool array;  (* per grantor *)
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  mutable root_span : Obs.Span.t option;
  realloc_ev : Sim.Engine.handler;  (* payload: the grantor region *)
  beat_ev : Sim.Engine.handler;  (* the heartbeat tick *)
}

exception Root_died
exception Subctl_died of int

let region_name r = Printf.sprintf "r%d" r
let labels r = [ ("engine", "controlplane"); ("region", region_name r) ]

let root_instant st ?attrs name =
  Hypertp.Otrace.instant st.obs ~at:(Sim.Engine.now st.eng) ?parent:st.root_span
    ~track:"root" ?attrs name

(* Consult a control-plane site on the caller's plan; a hit is a root
   instant and a [hypertp_ctl_<counter>_total] count. *)
let chaos st site ~vm ~labels counter =
  let hit = match st.chaos with None -> false | Some f -> Fault.fire f ~vm site in
  if hit then begin
    root_instant st (Fault.site_to_string site) ~attrs:[ ("region", vm) ];
    Hypertp.Otrace.count st.metrics ~labels ("hypertp_ctl_" ^ counter ^ "_total")
  end;
  hit

let finished r = C.controller_finished_at r.ctl <> None

(* A finished region's slots go [realloc_lag] after its finish to the
   lowest-index region still running, as a durable [Limit_raised] entry
   in the recipient's journal.  [realloc st j] is grantor [j]'s lease
   running out. *)
let realloc st j =
  st.realloc_done.(j) <- true;
  match Array.find_opt (fun r -> not (finished r)) st.regions with
  | None -> ()
  | Some k ->
    let slots = base_limit_of st.cfg j + st.granted.(j) in
    root_instant st "realloc"
      ~attrs:
        [ ("to", region_name k.r_index); ("from", region_name j);
          ("slots", string_of_int slots) ];
    Hypertp.Otrace.count st.metrics ~labels:(labels k.r_index)
      "hypertp_ctl_reallocs_total";
    C.grant k.ctl ~from_region:j ~slots

let schedule_realloc st j ~finished_at =
  Sim.Engine.schedule_event st.eng
    (Sim.Time.add finished_at st.cfg.realloc_lag)
    st.realloc_ev j

(* At the campaign's journal-then-crash point: [Subctl_crash] after each
   live append, [Crash_during_resume] before each replayed entry.  Grants
   feed the ledger either way; a live finish starts the region's lease. *)
let probe st r ~replaying at ev =
  let chaos site counter =
    chaos st site ~vm:(region_name r) ~labels:(labels r) counter
  in
  if replaying && chaos Fault.Crash_during_resume "resume_crashes" then
    raise Root_died;
  (match ev with
  | C.Limit_raised { from_region; slots } ->
    st.granted.(r) <- st.granted.(r) + slots;
    st.realloc_done.(from_region) <- true
  | C.Campaign_finished when not replaying ->
    schedule_realloc st r ~finished_at:at
  | _ -> ());
  if (not replaying) && chaos Fault.Subctl_crash "subctl_crashes" then
    raise (Subctl_died r)

let resume_region st r rg journal =
  try
    C.resume_controller ~eng:st.eng ~plan:st.plan
      ?fault:(C.region_fault st.hplan rg) ~probe:(probe st r) ?obs:st.obs
      ?metrics:st.metrics journal
  with Hypertp_error.Error e ->
    Hypertp_error.raise_errorf ~site:"Controlplane.resume" ?hint:e.hint
      "region %s: %s" (region_name r) e.reason

(* Rebuild a region from its journal at once.  The dead incarnation's
   events are stopped first, so the timeline cannot tell. *)
let restart st r ~kind =
  C.stop_controller r.ctl;
  root_instant st "subctl:restart"
    ~attrs:[ ("region", region_name r.r_index); ("kind", kind) ];
  Hypertp.Otrace.count st.metrics
    ~labels:(("kind", kind) :: labels r.r_index)
    "hypertp_ctl_restarts_total";
  st.granted.(r.r_index) <- 0;
  r.ctl <- resume_region st r.r_index r.r_topo (C.controller_journal r.ctl);
  r.last_seen <- Sim.Engine.now st.eng

let arm_heartbeat st =
  Sim.Engine.schedule_event st.eng
    (Sim.Time.add (Sim.Engine.now st.eng) st.cfg.heartbeat_every)
    st.beat_ev 0

(* One root heartbeat tick: consult [Root_crash], collect heartbeats
   (dropping them through active partitions, arming new partitions via
   [Ctl_partition]), then fence and rebuild any sub-controller silent
   past the timeout.  Only a partition silences a live region, so every
   such restart is spurious: supervision accounting, never progress.
   The tick arms its successor last, so a root death inside it, or a
   fleet already finished, ends the series. *)
let tick st =
  if not (Array.for_all finished st.regions) then begin
    let now = Sim.Engine.now st.eng in
    if chaos st Fault.Root_crash ~vm:"root" ~labels:[ ("engine", "controlplane") ]
         "root_crashes"
    then raise Root_died;
    Array.iter
      (fun r ->
        if not (finished r) then begin
          if
            chaos st Fault.Ctl_partition ~vm:(region_name r.r_index)
              ~labels:(labels r.r_index) "partitions"
          then begin
            let u = Sim.Rng.float st.partition_rng.(r.r_index) 1.0 in
            r.partitioned_until <-
              Sim.Time.add now
                (Sim.Time.scale (1.0 +. (2.0 *. u)) st.cfg.heartbeat_timeout)
          end;
          if Sim.Time.(r.partitioned_until <= now) then r.last_seen <- now
        end)
      st.regions;
    Array.iter
      (fun r ->
        if
          (not (finished r))
          && Sim.Time.(st.cfg.heartbeat_timeout < diff now r.last_seen)
        then restart st r ~kind:"spurious")
      st.regions;
    arm_heartbeat st
  end

let make_st ?fault ?obs ?metrics (cfg : config) =
  validate_config cfg;
  let obs = Option.map Hypertp.Otrace.attach obs in
  let chaos_seed = match fault with Some f -> Fault.seed f | None -> 0xC7A05L in
  let eng = Sim.Engine.create () in
  (* The handlers reach the state through the lazy knot; it is forced
     before any event can fire. *)
  let rec st =
    lazy
      {
        cfg;
        eng;
        plan = C.plan (region_configs cfg).(0);
        regions = [||];
        (* Region plans carry the host sites only, so adding control-plane
           sites to a plan never changes a region journal. *)
        hplan =
          Option.map
            (fun f ->
              Fault.make ~seed:(Fault.seed f)
                (List.filter
                   (fun i ->
                     List.mem i.Fault.site
                       [ Fault.Host_flap; Fault.Host_crash;
                         Fault.Host_timeout ])
                   (Fault.injections f)))
            fault;
        chaos = fault;
        partition_rng =
          Array.init cfg.regions (fun r ->
              Sim.Rng.create
                (Int64.logxor chaos_seed
                   (Int64.of_int (Hashtbl.hash ("partition", region_name r)))));
        granted = Array.make cfg.regions 0;
        realloc_done = Array.make cfg.regions false;
        obs;
        metrics;
        root_span =
          Hypertp.Otrace.start obs ~at:Sim.Time.zero ~track:"root"
            ~attrs:
              [ ("engine", "controlplane");
                ("regions", string_of_int cfg.regions);
                ("hosts", string_of_int (cfg.regions * cfg.hosts_per_region));
                ("concurrency", string_of_int cfg.global_concurrency) ]
            "controlplane";
        realloc_ev =
          Sim.Engine.handler eng (fun j -> realloc (Lazy.force st) j);
        beat_ev = Sim.Engine.handler eng (fun _ -> tick (Lazy.force st));
      }
  in
  Lazy.force st

(* --- results --- *)

let make_bundle st =
  { b_config = st.cfg;
    b_journals = Array.map (fun r -> C.controller_journal r.ctl) st.regions }

let hours t = Sim.Time.to_sec_f t /. 3600.0

(* (in place, drained, exposed).  A retry is an in-place attempt; shadow
   is off, so every other upgraded host left by a drain. *)
let tally hosts =
  List.fold_left
    (fun (i, d, e) h ->
      match h.h_status with
      | Upgraded_inplace | Deferred_resolved -> (i + 1, d, e)
      | Drained | Shadow_cutover -> (i, d + 1, e)
      | Deferred_exposed -> (i, d, e + 1))
    (0, 0, 0) hosts

let make_report st =
  let reports = Array.map (fun r -> C.controller_report r.ctl) st.regions in
  let wall =
    Array.fold_left
      (fun acc (cr : C.report) -> Sim.Time.max acc cr.C.wall_clock)
      Sim.Time.zero reports
  in
  (* A deferred-exposed host stays exposed until the whole fleet is done. *)
  let host (h : C.host_record) =
    let done_at =
      if h.C.hr_status = Deferred_exposed then wall else h.C.hr_done_at
    in
    { h_name = h.C.hr_node; h_status = h.C.hr_status;
      h_attempts = h.C.hr_attempts; h_manifestations = h.C.hr_manifestations;
      h_done_at = done_at; h_exposure_hours = hours done_at }
  in
  let region_reports =
    Array.to_list
      (Array.mapi
         (fun i (cr : C.report) ->
           { rr_region = i; rr_hosts = List.map host cr.C.hosts;
             rr_finished_at = cr.C.wall_clock;
             rr_breaker_trips = cr.C.breaker_trips })
         reports)
  in
  let all_hosts = List.concat_map (fun rr -> rr.rr_hosts) region_reports in
  let inplace, drained, exposed = tally all_hosts in
  let r =
    {
      cp_cfg = st.cfg;
      cp_regions = region_reports;
      cp_wall_clock = wall;
      cp_exposed_host_hours =
        List.fold_left (fun a h -> a +. h.h_exposure_hours) 0.0 all_hosts;
      cp_baseline_exposed_host_hours =
        float_of_int (List.length all_hosts) *. hours wall;
      cp_hosts_inplace = inplace;
      cp_hosts_drained = drained;
      cp_hosts_exposed = exposed;
    }
  in
  let labels = [ ("engine", "controlplane") ] in
  Hypertp.Otrace.gauge_set st.metrics ~labels "hypertp_ctl_exposed_host_hours"
    r.cp_exposed_host_hours;
  Hypertp.Otrace.gauge_set st.metrics ~labels "hypertp_ctl_wall_clock_seconds"
    (Sim.Time.to_sec_f r.cp_wall_clock);
  Hypertp.Otrace.finish st.obs st.root_span ~at:wall;
  st.root_span <- None;
  r

type run_result = Finished of report * bundle | Crashed of bundle

(* Drive the shared engine.  A sub-controller death escapes the engine
   mid-event with its entry already journaled; rebuild it and carry on.
   A root death ends the incarnation with the bundle. *)
let rec drive st =
  match Sim.Engine.run st.eng with
  | () -> Finished (make_report st, make_bundle st)
  | exception Subctl_died r -> (
    match restart st st.regions.(r) ~kind:"crash" with
    | () -> drive st
    | exception Root_died -> Crashed (make_bundle st))
  | exception Root_died -> Crashed (make_bundle st)

(* Build every region's controller with [make], give a finished region
   whose grant is not journaled yet its lease back (after a handoff), and
   drive. *)
let launch st make =
  st.regions <-
    Array.mapi
      (fun r rg ->
        { r_index = r; r_topo = rg; ctl = make r rg; last_seen = Sim.Time.zero;
          partitioned_until = Sim.Time.zero })
      (Topology.regions (topology_of st.cfg));
  Array.iter
    (fun r ->
      match C.controller_finished_at r.ctl with
      | Some finished_at when not st.realloc_done.(r.r_index) ->
        schedule_realloc st r.r_index ~finished_at
      | _ -> ())
    st.regions;
  arm_heartbeat st;
  drive st

let run ?fault ?obs ?metrics cfg =
  let st = make_st ?fault ?obs ?metrics cfg in
  let cfgs = region_configs cfg in
  launch st (fun r rg ->
      C.start_controller ~eng:st.eng ~plan:st.plan
        ?fault:(C.region_fault st.hplan rg) ~probe:(probe st r) ?obs:st.obs
        ?metrics:st.metrics cfgs.(r))

(* Leader handoff: every region is rebuilt from its journal; the replays
   re-emit the timeline and re-derive the reallocation ledger. *)
let resume ?fault ?obs ?metrics bundle =
  let st = make_st ?fault ?obs ?metrics bundle.b_config in
  root_instant st "leader:handoff";
  Hypertp.Otrace.count st.metrics
    ~labels:[ ("engine", "controlplane") ]
    "hypertp_ctl_handoffs_total";
  let journal r = bundle.b_journals.(r) in
  try launch st (fun r rg -> resume_region st r rg (journal r))
  with Root_died -> Crashed bundle

(* The chaos plan is passed through as-is (not restarted), so an Nth_hit
   on a control-plane site fires once across the whole run/resume chain. *)
let run_to_completion ?fault ?obs ?metrics cfg =
  let rec go = function
    | Finished (report, _) -> report
    | Crashed b -> go (resume ?fault ?obs ?metrics b)
  in
  go (run ?fault ?obs ?metrics cfg)

(* --- rendering + serialisation --- *)

let summary r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "controlplane: %d regions x %d hosts, global concurrency %d, wall %s\n"
       r.cp_cfg.regions r.cp_cfg.hosts_per_region r.cp_cfg.global_concurrency
       (Sim.Time.to_string r.cp_wall_clock));
  List.iter
    (fun rr ->
      let inplace, drained, exposed = tally rr.rr_hosts in
      Buffer.add_string buf
        (Printf.sprintf
           "region %d: finished %s | inplace %d drained %d exposed %d | \
            breaker trips %d\n"
           rr.rr_region
           (Sim.Time.to_string rr.rr_finished_at)
           inplace drained exposed rr.rr_breaker_trips))
    r.cp_regions;
  Buffer.add_string buf
    (Printf.sprintf
       "fleet: inplace %d drained %d exposed %d | exposed-host-hours %.6f \
        (baseline %.6f)\n"
       r.cp_hosts_inplace r.cp_hosts_drained r.cp_hosts_exposed
       r.cp_exposed_host_hours r.cp_baseline_exposed_host_hours);
  Buffer.contents buf

let merged_to_string b =
  let items = Array.make (bundle_length b) (Sim.Time.zero, 0, None, C.Deferred) in
  let k = ref 0 in
  Array.iteri
    (fun r j ->
      C.journal_events
        (fun at host ev ->
          items.(!k) <- (at, r, host, ev);
          incr k)
        j)
    b.b_journals;
  (* Stable by time over region-major, in-region order. *)
  Array.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Sim.Time.compare a b) items;
  let buf = Buffer.create (64 * Array.length items) in
  let fmt = Format.formatter_of_buffer buf in
  Array.iter
    (fun (t, r, host, ev) ->
      Format.fprintf fmt "t=%d r%d %s %a\n" (Sim.Time.to_ns t) r
        (Option.value host ~default:"-")
        (fun fmt -> function
          | C.Campaign_finished -> Format.pp_print_string fmt "region-finished"
          | ev -> C.pp_event fmt ev)
        ev)
    items;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let bundle_magic = "hypertp-controlplane-bundle v2"

module J = Sim.Journal

let config_line { J.field; _ } (c : config) : config =
  let regions = field "regions" J.int c.regions in
  let hosts_per_region = field "hosts" J.int c.hosts_per_region in
  let vms_per_host = field "vms" J.int c.vms_per_host in
  let global_concurrency = field "conc" J.int c.global_concurrency in
  let straggler_factor = field "straggler" J.float c.straggler_factor in
  let breaker_window = field "window" J.int c.breaker_window in
  let breaker_threshold = field "threshold" J.float c.breaker_threshold in
  let breaker_cooldown = field "cooldown_ns" J.time c.breaker_cooldown in
  let jitter_pct = field "jitter" J.float c.jitter_pct in
  let drain_flakiness = field "drain" J.float c.drain_flakiness in
  let heartbeat_every = field "hb_every_ns" J.time c.heartbeat_every in
  let heartbeat_timeout = field "hb_timeout_ns" J.time c.heartbeat_timeout in
  let realloc_lag = field "lag_ns" J.time c.realloc_lag in
  let seed = field "seed" J.int64 c.seed in
  { regions; hosts_per_region; vms_per_host; global_concurrency; straggler_factor;
    breaker_window; breaker_threshold; breaker_cooldown; jitter_pct; drain_flakiness;
    heartbeat_every; heartbeat_timeout; realloc_lag; seed }

let region_line { J.field; _ } (idx, entries) =
  let idx = field "idx" J.int idx in
  (idx, field "entries" J.int entries)

(* The control-plane config, then each region's campaign journal in a
   section whose header counts its entries. *)
let bundle_to_string b =
  let buf = Buffer.create (64 * (bundle_length b + (4 * Array.length b.b_journals))) in
  J.line buf bundle_magic;
  J.put_line buf "config" config_line b.b_config;
  Array.iteri
    (fun i j ->
      J.put_line buf "region" region_line (i, C.journal_length j);
      C.write_journal buf j)
    b.b_journals;
  Buffer.contents buf

let bundle_of_string s =
  J.parse s (fun r ->
      J.magic r bundle_magic;
      let at = J.mark r in
      let config = J.get_line r "config" config_line default_config in
      (try validate_config config
       with Hypertp_error.Error e -> J.fail ~at r "%s" (Hypertp_error.to_string e));
      let sections = J.sections r "region" region_line (0, 0) ~body:C.read_journal in
      let n = List.length sections and cfgs = region_configs config in
      if n <> config.regions then
        J.fail r "%d region journals, config says %d" n config.regions;
      List.iteri
        (fun i (at, (idx, entries), j) ->
          let bad fmt = J.fail ~at r fmt in
          if idx <> i then bad "region %d where region %d belongs" idx i;
          if C.journal_length j <> entries then
            bad "region %d: %d entries, header says %d" i (C.journal_length j) entries;
          if C.journal_config j <> cfgs.(i) then bad "region %d: a different config" i;
          let last = ref Sim.Time.zero in
          C.journal_events
            (fun stamp _ ev ->
              if Sim.Time.(stamp < !last) then bad "region %d: stamps out of order" i;
              last := stamp;
              match ev with
              | C.Limit_raised { from_region; _ } when from_region >= n ->
                bad "region %d: grant from unknown region %d" i from_region
              | _ -> ())
            j)
        sections;
      let b_journals = Array.of_list (List.map (fun (_, _, j) -> j) sections) in
      { b_config = config; b_journals })
