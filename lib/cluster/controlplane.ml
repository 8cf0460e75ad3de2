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
}

exception Root_died
exception Subctl_died of int

let region_name r = Printf.sprintf "r%d" r
let labels r = [ ("engine", "controlplane"); ("region", region_name r) ]

let make_st ?ctx ?fault ?obs ?metrics (cfg : config) =
  let c = Hypertp.Ctx.resolve ?ctx ?fault ?obs ?metrics () in
  validate_config cfg;
  let fault = c.Hypertp.Ctx.fault and metrics = c.Hypertp.Ctx.metrics in
  let obs = Option.map Hypertp.Otrace.attach c.Hypertp.Ctx.obs in
  let chaos_seed = match fault with Some f -> Fault.seed f | None -> 0xC7A05L in
  {
    cfg;
    eng = Sim.Engine.create ();
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
                   [ Fault.Host_flap; Fault.Host_crash; Fault.Host_timeout ])
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
  }

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
   in the recipient's journal. *)
let rec schedule_realloc st j ~finished_at =
  Sim.Engine.schedule_at st.eng (Sim.Time.add finished_at st.cfg.realloc_lag)
    (fun () ->
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
        C.grant k.ctl ~from_region:j ~slots)

(* At the campaign's journal-then-crash point: [Subctl_crash] after each
   live append, [Crash_during_resume] before each replayed entry.  Grants
   feed the ledger either way; a live finish starts the region's lease. *)
and probe st r ~replaying at ev =
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

let resume_region st ?like r rg journal =
  try
    C.resume_controller ~eng:st.eng ?like ?fault:(C.region_fault st.hplan rg)
      ~probe:(probe st r) ?obs:st.obs ?metrics:st.metrics journal
  with Hypertp_error.Error e ->
    Hypertp_error.raise_errorf ~site:"Controlplane.resume" ?hint:e.hint
      "region %s: %s" (region_name r) e.reason

(* Rebuild a region from its journal at once.  The dead incarnation's
   timers are cancelled first, so the timeline cannot tell. *)
let restart st r ~kind =
  C.stop_controller r.ctl;
  root_instant st "subctl:restart"
    ~attrs:[ ("region", region_name r.r_index); ("kind", kind) ];
  Hypertp.Otrace.count st.metrics
    ~labels:(("kind", kind) :: labels r.r_index)
    "hypertp_ctl_restarts_total";
  st.granted.(r.r_index) <- 0;
  r.ctl <-
    resume_region st ~like:r.ctl r.r_index r.r_topo (C.controller_journal r.ctl);
  r.last_seen <- Sim.Engine.now st.eng

(* One root heartbeat tick: consult [Root_crash], collect heartbeats
   (dropping them through active partitions, arming new partitions via
   [Ctl_partition]), then fence and rebuild any sub-controller silent
   past the timeout.  Only a partition silences a live region, so every
   such restart is spurious: supervision accounting, never progress. *)
let tick st () =
  if Array.for_all finished st.regions then `Stop
  else begin
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
    `Continue
  end

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

(* Build every region's controller with [make] (planned like the
   previous one: regions are uniform), give a finished region whose grant
   is not journaled yet its lease back (after a handoff), and drive. *)
let launch st make =
  let like = ref None in
  st.regions <-
    Array.mapi
      (fun r rg ->
        let ctl = make ?like:!like r rg in
        like := Some ctl;
        { r_index = r; r_topo = rg; ctl; last_seen = Sim.Time.zero;
          partitioned_until = Sim.Time.zero })
      (Topology.regions (topology_of st.cfg));
  Array.iter
    (fun r ->
      match C.controller_finished_at r.ctl with
      | Some finished_at when not st.realloc_done.(r.r_index) ->
        schedule_realloc st r.r_index ~finished_at
      | _ -> ())
    st.regions;
  Sim.Engine.schedule_every st.eng st.cfg.heartbeat_every (tick st);
  drive st

let run ?ctx ?fault ?obs ?metrics cfg =
  let st = make_st ?ctx ?fault ?obs ?metrics cfg in
  let cfgs = region_configs cfg in
  launch st (fun ?like r rg ->
      C.start_controller ~eng:st.eng ?like ?fault:(C.region_fault st.hplan rg)
        ~probe:(probe st r) ?obs:st.obs ?metrics:st.metrics cfgs.(r))

(* Leader handoff: every region is rebuilt from its journal; the replays
   re-emit the timeline and re-derive the reallocation ledger. *)
let resume ?ctx ?fault ?obs ?metrics bundle =
  let st = make_st ?ctx ?fault ?obs ?metrics bundle.b_config in
  root_instant st "leader:handoff";
  Hypertp.Otrace.count st.metrics
    ~labels:[ ("engine", "controlplane") ]
    "hypertp_ctl_handoffs_total";
  let journal r = bundle.b_journals.(r) in
  try launch st (fun ?like r rg -> resume_region st ?like r rg (journal r))
  with Root_died -> Crashed bundle

(* The chaos plan is passed through as-is (not restarted), so an Nth_hit
   on a control-plane site fires once across the whole run/resume chain. *)
let run_to_completion ?ctx ?fault ?obs ?metrics cfg =
  let rec go = function
    | Finished (report, _) -> report
    | Crashed b -> go (resume ?ctx ?fault ?obs ?metrics b)
  in
  go (run ?ctx ?fault ?obs ?metrics cfg)

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

(* The control-plane config, then each region's campaign journal text
   under a header that counts its entries. *)
let bundle_to_string b =
  let c = b.b_config and ns = Sim.Time.to_ns in
  String.concat ""
    (Printf.sprintf
       "%s\nconfig regions=%d hosts=%d vms=%d conc=%d straggler=%.17g \
        window=%d threshold=%.17g cooldown_ns=%d jitter=%.17g drain=%.17g \
        hb_every_ns=%d hb_timeout_ns=%d lag_ns=%d seed=%Ld\n"
       bundle_magic c.regions c.hosts_per_region c.vms_per_host
       c.global_concurrency c.straggler_factor c.breaker_window
       c.breaker_threshold (ns c.breaker_cooldown) c.jitter_pct
       c.drain_flakiness (ns c.heartbeat_every) (ns c.heartbeat_timeout)
       (ns c.realloc_lag) c.seed
    :: List.concat
         (List.mapi
            (fun i j ->
              [ Printf.sprintf "region idx=%d entries=%d\n" i
                  (C.journal_length j); C.journal_to_string j ])
            (Array.to_list b.b_journals)))

exception Parse of string

let bundle_of_string s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
  let len = String.length s in
  let eol pos = Option.value (String.index_from_opt s pos '\n') ~default:len in
  let line pos = String.sub s pos (eol pos - pos) in
  let next pos = Stdlib.min len (eol pos + 1) in
  (* A region's journal runs from the line after its header to the next
     header: no journal line starts with "region ". *)
  let rec section_end pos =
    if pos >= len || (pos + 7 <= len && String.sub s pos 7 = "region ") then pos
    else section_end (next pos)
  in
  let config_of_line line =
    Scanf.sscanf line
      "config regions=%d hosts=%d vms=%d conc=%d straggler=%g window=%d \
       threshold=%g cooldown_ns=%d jitter=%g drain=%g hb_every_ns=%d \
       hb_timeout_ns=%d lag_ns=%d seed=%Ld%!"
      (fun regions hosts_per_region vms_per_host global_concurrency
           straggler_factor breaker_window breaker_threshold cooldown
           jitter_pct drain_flakiness every timeout lag seed ->
        { regions; hosts_per_region; vms_per_host; global_concurrency;
          straggler_factor; breaker_window; breaker_threshold;
          breaker_cooldown = Sim.Time.ns cooldown; jitter_pct;
          drain_flakiness; heartbeat_every = Sim.Time.ns every;
          heartbeat_timeout = Sim.Time.ns timeout;
          realloc_lag = Sim.Time.ns lag; seed })
  in
  let rec regions (config : config) cfgs i acc pos =
    if pos >= len then
      if i = config.regions then Array.of_list (List.rev acc)
      else fail "%d region journals, config says %d" i config.regions
    else if i = config.regions then
      fail "more regions than the config's %d" config.regions
    else
      let header = line pos in
      let n =
        try Scanf.sscanf header "region idx=%d entries=%d%!" (fun idx n ->
            if idx <> i || n < 0 then raise Exit;
            n)
        with _ -> fail "want the header of region %d, got %S" i header
      in
      let body = next pos in
      let stop = section_end body in
      let j =
        match C.journal_of_string (String.sub s body (stop - body)) with
        | Ok j -> j
        | Error e -> fail "region %d journal: %s" i e
      in
      if C.journal_length j <> n then
        fail "region %d: %d entries, header says %d" i (C.journal_length j) n;
      if C.journal_config j <> cfgs.(i) then
        fail "region %d journal carries a different config" i;
      let last = ref Sim.Time.zero in
      C.journal_events
        (fun at _ ev ->
          if Sim.Time.(at < !last) then
            fail "region %d: entry stamps negative or out of order" i;
          last := at;
          match ev with
          | C.Limit_raised { from_region; _ }
            when from_region < 0 || from_region >= config.regions ->
            fail "region %d: grant from unknown region %d" i from_region
          | _ -> ())
        j;
      regions config cfgs (i + 1) (j :: acc) stop
  in
  try
    if line 0 <> bundle_magic then
      fail "bad magic %S (want %S)" (line 0) bundle_magic;
    let config =
      try config_of_line (line (next 0))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail "bad config line %S" (line (next 0))
    in
    (try validate_config config
     with Hypertp_error.Error e -> fail "%s" (Hypertp_error.to_string e));
    let b_journals = regions config (region_configs config) 0 [] (next (next 0)) in
    Ok { b_config = config; b_journals }
  with Parse msg -> Error msg
