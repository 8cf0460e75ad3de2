type config = {
  nodes : int;
  vms_per_node : int;
  vm_ram : Hw.Units.bytes_;
  node_ram : Hw.Units.bytes_;
  inplace_fraction : float;
  concurrency : int;
  straggler_factor : float;
  breaker_window : int;
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;
  drain_flakiness : float;
  retry_flakiness : float;
  seed : int64;
  shadow_spares : int;
}

let default_config =
  {
    nodes = 10;
    vms_per_node = 10;
    vm_ram = Hw.Units.gib 4;
    node_ram = Hw.Units.gib 96;
    inplace_fraction = 1.0;
    concurrency = 4;
    straggler_factor = 2.0;
    breaker_window = 5;
    breaker_threshold = 0.4;
    breaker_cooldown = Sim.Time.sec 120;
    jitter_pct = 0.05;
    drain_flakiness = 0.25;
    retry_flakiness = 0.25;
    seed = 0x5EEDL;
    shadow_spares = 0;
  }

type ladder_step = Inplace | Shadow | Drain | Retry

type manifestation = Crash | Timeout | Flap

type event =
  | Admitted of ladder_step
  | Flap_failure
  | Straggler_cancelled
  | Attempt_failed of { step : ladder_step; manifestation : manifestation }
  | Attempt_completed of ladder_step
  | Deferred
  | Breaker_opened
  | Breaker_half_opened
  | Breaker_closed
  | Limit_raised of { from_region : int; slots : int }
  | Campaign_finished

type host_status =
  | Upgraded_inplace
  | Shadow_cutover
  | Drained
  | Deferred_resolved
  | Deferred_exposed

type audit_verdict = A_clean | A_scrubbed | A_failed

type host_record = {
  hr_node : string;
  hr_vms_in_place : int;
  hr_drain_migrations : int;
  hr_status : host_status;
  hr_attempts : int;
  hr_manifestations : manifestation list;
  hr_timeline : (Sim.Time.t * event) list;
  hr_expected : Sim.Time.t;
  hr_done_at : Sim.Time.t;
  hr_exposure_hours : float;
  hr_audit : audit_verdict option;
}

type report = {
  cfg : config;
  base : Upgrade.timing;
  effective_concurrency : int;
  hosts : host_record list;
  wall_clock : Sim.Time.t;
  rebalance_time : Sim.Time.t;
  exposed_host_hours : float;
  baseline_exposed_host_hours : float;
  deferred : string list;
  deferred_exposure_hours : float;
  breaker_trips : int;
  vms_total : int;
  vms_inplace_ok : int;
  vms_shadow : int;
  vms_drained : int;
  vms_on_deferred : int;
  vms_migrated_planned : int;
  audit_verdicts : (string * audit_verdict) list;
}

let vms_accounted r =
  r.vms_inplace_ok + r.vms_shadow + r.vms_drained + r.vms_on_deferred
  + r.vms_migrated_planned

(* Manifestation timing, as fractions of the attempt's expected duration.
   The cost order timeout > flap > crash is what makes the governing
   manifestation the costliest one: the straggler deadline is at least
   [1.2 x expected] (validated), the second flap leg fails at 1.1x, a
   plain crash at 0.5x, and a jittered success lands within 1.1x. *)
let crash_frac = 0.5
let flap_leg1_frac = 0.55
let flap_final_frac = 1.10
let drain_fail_frac = 0.6
let retry_fail_frac = 0.5
let shadow_fail_frac = 0.6

let min_straggler_factor = 1.2
let max_straggler_factor = 100.0
let max_jitter_pct = 0.1

(* Every range check is written [not (lo <= x && x <= hi)] so a NaN
   fails it, and every count is bounded by the topology limits, so a
   resumed journal or a control-plane region cannot size an allocation
   by a wrapped or absurd count. *)
let validate_config cfg =
  let bad fmt = Hypertp_error.raise_errorf ~site:"Campaign" fmt in
  let within lo hi x = lo <= x && x <= hi in
  if not (within 2 Topology.max_hosts cfg.nodes) then
    bad "nodes outside [2, %d]" Topology.max_hosts;
  if not (within 1 Topology.max_vms_per_host cfg.vms_per_node) then
    bad "vms_per_node outside [1, %d]" Topology.max_vms_per_host;
  if cfg.nodes * cfg.vms_per_node > Topology.max_vms then
    bad "nodes x vms_per_node above %d" Topology.max_vms;
  if not (within 0.0 1.0 cfg.inplace_fraction) then
    bad "inplace_fraction outside [0, 1]";
  if cfg.concurrency < 1 then bad "concurrency must be at least 1";
  if not (within min_straggler_factor max_straggler_factor cfg.straggler_factor)
  then bad "straggler_factor outside [1.2, 100] (deadline must dominate a flap)";
  if cfg.breaker_window < 1 then bad "breaker_window must be at least 1";
  if cfg.breaker_window > 62 then
    bad "breaker_window above 62 (outcomes are tracked in one word)";
  if not (within 0.0 1.0 cfg.breaker_threshold) then
    bad "breaker_threshold outside [0, 1]";
  if not (within 0.0 max_jitter_pct cfg.jitter_pct) then
    bad "jitter_pct outside [0, 0.1] (success must beat the deadline)";
  if not (within 0.0 1.0 cfg.drain_flakiness) then
    bad "drain_flakiness outside [0, 1]";
  if not (within 0.0 1.0 cfg.retry_flakiness) then
    bad "retry_flakiness outside [0, 1]";
  if cfg.shadow_spares < 0 then bad "shadow_spares must be non-negative"

(* --- derived per-host randomness, independent of the fault plan --- *)

let derived cfg salt node =
  Sim.Rng.create
    (Int64.logxor cfg.seed (Int64.of_int (Hashtbl.hash (salt, node))))

let coin cfg salt node p = Sim.Rng.float (derived cfg salt node) 1.0 < p
let host_jitter cfg node = Sim.Rng.jitter (derived cfg "jitter" node) cfg.jitter_pct

(* --- host tasks, derived once from the BtrPlace plan --- *)

type task = {
  t_index : int;
  t_node : string;
  t_vms_in_place : int;
  t_drain_migs : int;
  t_up : Sim.Time.t;       (* the InPlaceTP upgrade part alone *)
  t_expected : Sim.Time.t; (* pre-migrations + upgrade *)
  t_deadline : Sim.Time.t; (* straggler_factor x expected *)
  t_drain : Sim.Time.t;    (* fallback: drain whole placement + reboot *)
  t_shadow : Sim.Time.t;   (* fallback: pre-stage a spare + stream the
                              whole placement (no source reboot) *)
}

type setup = {
  su_tasks : task array; (* in plan (= admission) order *)
  su_index : (string, int) Hashtbl.t;
  su_names : string array; (* task index -> node name (journal intern table) *)
  su_base : Upgrade.timing;
  su_rebalance : Sim.Time.t;
  su_effective : int;
  su_max_drains : int; (* the capacity clamp on concurrency *)
}

let paper_mix =
  [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
    (Vmstate.Vm.Wl_idle, 0.4) ]

let effective cfg max_drains = Stdlib.max 1 (Stdlib.min cfg.concurrency max_drains)

let build_setup cfg =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  let model =
    Model.make ~nodes:cfg.nodes ~vms_per_node:cfg.vms_per_node
      ~vm_ram:cfg.vm_ram ~node_ram:cfg.node_ram
      ~inplace_fraction:cfg.inplace_fraction ~workload_mix:paper_mix ()
  in
  (* Snapshot what rides through on each host before the planner mutates
     the model, and size the admission bound on the initial placement.
     Hashtbl-indexed: the per-action lookups below used to walk an
     assoc list, O(hosts) per host. *)
  let keepers = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  List.iter
    (fun n ->
      Hashtbl.replace keepers n.Model.node_name
        (List.filter (fun v -> v.Model.inplace_compatible) n.Model.placed))
    model.Model.nodes;
  let max_drains = Btrplace.max_concurrent_drains model in
  let plan = Btrplace.plan_upgrade model in
  let base = Upgrade.execute ~nic plan in
  let mig vm = Upgrade.migration_op_time ~nic ~vm in
  let upgraded = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  let drains = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  let rebalance = ref Sim.Time.zero in
  let tasks = ref [] in
  let ntasks = ref 0 in
  Array.iter
    (fun action ->
      match action with
      | Btrplace.Migrate { vm; src; _ } ->
        if Hashtbl.mem upgraded src then
          rebalance := Sim.Time.add !rebalance (mig vm)
        else
          Hashtbl.replace drains src
            (vm :: Option.value ~default:[] (Hashtbl.find_opt drains src))
      | Btrplace.Upgrade_inplace { node; vms_in_place } ->
        Hashtbl.replace upgraded node ();
        let riding =
          Option.value ~default:[] (Hashtbl.find_opt keepers node)
        in
        let evacuated =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt drains node))
        in
        let premig = Sim.Time.sum (List.map mig evacuated) in
        let up =
          if vms_in_place > 0 then Upgrade.inplace_host_time ~vms:vms_in_place
          else Upgrade.reboot_host_time
        in
        let expected = Sim.Time.add premig up in
        let deadline =
          Sim.Time.of_sec_f
            (Hypertp.Costs.straggler_deadline_seconds
               ~factor:cfg.straggler_factor
               ~expected:(Sim.Time.to_sec_f expected))
        in
        (* The fallback drain must clear whatever is still on the host
           when the attempt died: evacuees plus the riding VMs. *)
        let stream = Sim.Time.sum (List.map mig (evacuated @ riding)) in
        let drain = Sim.Time.add stream Upgrade.reboot_host_time in
        (* Shadow fallback: stage the target on a spare (boot plus the
           per-VM skeleton pre-restore) while the source serves, then
           stream the whole placement.  No source reboot — the host is
           retired by the identity swap. *)
        let shadow =
          Sim.Time.add stream
            (Sim.Time.of_sec_f
               (Hypertp.Costs.shadow_stage_seconds ~boot_seconds:20.0
                  ~vms:(List.length evacuated + List.length riding)))
        in
        tasks :=
          {
            t_index = !ntasks;
            t_node = node;
            t_vms_in_place = vms_in_place;
            t_drain_migs = List.length evacuated;
            t_up = up;
            t_expected = expected;
            t_deadline = deadline;
            t_drain = drain;
            t_shadow = shadow;
          }
          :: !tasks;
        incr ntasks
      | Btrplace.Take_offline _ | Btrplace.Bring_online _ -> ())
    plan.Btrplace.actions;
  let su_tasks = Array.of_list (List.rev !tasks) in
  let su_index = Hashtbl.create (Array.length su_tasks) in
  Array.iter (fun t -> Hashtbl.replace su_index t.t_node t.t_index) su_tasks;
  {
    su_tasks;
    su_index;
    su_names = Array.map (fun t -> t.t_node) su_tasks;
    su_base = base;
    su_rebalance = !rebalance;
    su_effective = effective cfg max_drains;
    su_max_drains = max_drains;
  }

(* A config's shape: the config with the two fields its set-up does not
   depend on, seed and concurrency, masked.  Configs of one shape share
   a plan. *)
let shape cfg = { cfg with seed = 0L; concurrency = 1 }

type plan = { p_cfg : config; p_setup : setup }

let plan cfg =
  validate_config cfg;
  { p_cfg = cfg; p_setup = build_setup cfg }

(* The set-up is immutable and depends on neither seed nor concurrency,
   so a config shaped like [plan]'s reuses its BtrPlace plan; any other
   config plans afresh. *)
let setup_of ?plan cfg =
  match plan with
  | Some p when shape cfg = shape p.p_cfg ->
    { p.p_setup with su_effective = effective cfg p.p_setup.su_max_drains }
  | _ -> build_setup cfg

(* --- journal --- *)

type decision = { d_flap : bool; d_crash : bool; d_timeout : bool }

(* Fault-plan decisions for a shadow admission, one per shadow site, in
   the fixed consultation order (spare, stage, drop, diverge,
   partition).  Journaled like the in-place [decision] so resume can
   re-fire and validate them. *)
type shadow_decision = {
  s_spare : bool;
  s_stage : bool;
  s_drop : bool;
  s_diverge : bool;
  s_partition : bool;
}

let shadow_failed s =
  s.s_spare || s.s_stage || s.s_drop || s.s_diverge || s.s_partition

let verdict_to_string = function
  | A_clean -> "clean"
  | A_scrubbed -> "scrubbed"
  | A_failed -> "failed"

let verdict_of_string = function
  | "clean" -> Some A_clean
  | "scrubbed" -> Some A_scrubbed
  | "failed" -> Some A_failed
  | _ -> None

type entry = {
  je_at : Sim.Time.t;
  je_host : string option;
  je_event : event;
  je_decision : decision option; (* Some iff Admitted Inplace *)
  je_audit : audit_verdict option;
      (* Some iff Attempt_completed Inplace/Retry with audit sites armed *)
  je_shadow : shadow_decision option;
      (* Some iff Admitted Shadow with shadow sites armed *)
  je_cursor : int; (* fault-plan trace length after this entry *)
}

(* Journal entries are stored packed, three unboxed ints per entry, in
   one [int Sim.Vec]; hosts are interned in a side table.  The [entry]
   record above survives only as the transient decoded form handed to
   [apply]/serialisation.  At a million hosts the journal dominates the
   controller's allocation, and the packed form costs 3 minor words per
   entry against the ~18 the boxed record chain used to (record + four
   option/variant boxes + host string pointer), with no change to the
   serialised format.

   Word 0 — the event time in ns.
   Word 1 — a bitfield:
     bits  0-3   event kind (0 adm, 1 flapleg, 2 strag, 3 fail, 4 done,
                 5 defer, 6 bopen, 7 bhalf, 8 bclosed, 9 fin, 10 raise)
     bits  4-5   ladder step (inplace 0, shadow 1, drain 2, retry 3)
     bits  6-7   manifestation (crash 0, timeout 1, flap 2)
     bit   8     decision present
     bits  9-11  d_flap / d_crash / d_timeout
     bits 12-13  audit (0 none, 1 clean, 2 scrubbed, 3 failed)
     bit  14     shadow decision present
     bits 15-19  s_spare / s_stage / s_drop / s_diverge / s_partition
     bits 20-..  host index + 1 (0 = no host)
   A [Limit_raised] entry has no host; its bits 20-40 hold [from_region]
   and bits 41-61 [slots] instead.
   Word 2 — the fault-plan cursor after the entry. *)
type journal = {
  j_config : config;
  j_words : int Sim.Vec.t; (* 3 words per entry, chronological *)
  j_names : string array;  (* host index -> name *)
}

let journal_config j = j.j_config
let journal_length j = Sim.Vec.length j.j_words / 3

(* Names for the text form, indexed by the packed codes. *)
let kind_names =
  [| "adm"; "flapleg"; "strag"; "fail"; "done"; "defer"; "bopen"; "bhalf";
     "bclosed"; "fin"; "raise" |]

let step_names = [| "inplace"; "shadow"; "drain"; "retry" |]
let man_names = [| "crash"; "timeout"; "flap" |]
let step_to_int = function Inplace -> 0 | Shadow -> 1 | Drain -> 2 | Retry -> 3
let step_of_int = function 0 -> Inplace | 1 -> Shadow | 2 -> Drain | _ -> Retry
let man_to_int = function Crash -> 0 | Timeout -> 1 | Flap -> 2
let man_of_int = function 0 -> Crash | 1 -> Timeout | _ -> Flap
let step_to_string s = step_names.(step_to_int s)
let man_to_string m = man_names.(man_to_int m)

let kind_raise = 10
let raise_field_max = (1 lsl 21) - 1

let host_field w1 = if w1 land 0xf = kind_raise then 0 else w1 lsr 20

(* Bits 0-7 of word 1: kind, step and manifestation codes (an int, not
   a tuple: this runs on every journal append). *)
let event_bits = function
  | Admitted s -> 0 lor (step_to_int s lsl 4)
  | Flap_failure -> 1
  | Straggler_cancelled -> 2
  | Attempt_failed { step; manifestation } ->
    3 lor (step_to_int step lsl 4) lor (man_to_int manifestation lsl 6)
  | Attempt_completed s -> 4 lor (step_to_int s lsl 4)
  | Deferred -> 5
  | Breaker_opened -> 6
  | Breaker_half_opened -> 7
  | Breaker_closed -> 8
  | Campaign_finished -> 9
  | Limit_raised _ -> kind_raise

(* The event of a packed word 1 (its host field is ignored). *)
let event_of_word w1 =
  let step = step_of_int ((w1 lsr 4) land 3) in
  match w1 land 0xf with
  | 0 -> Admitted step
  | 1 -> Flap_failure
  | 2 -> Straggler_cancelled
  | 3 -> Attempt_failed { step; manifestation = man_of_int ((w1 lsr 6) land 3) }
  | 4 -> Attempt_completed step
  | 5 -> Deferred
  | 6 -> Breaker_opened
  | 7 -> Breaker_half_opened
  | 8 -> Breaker_closed
  | 9 -> Campaign_finished
  | _ ->
    Limit_raised
      { from_region = (w1 lsr 20) land raise_field_max;
        slots = (w1 lsr 41) land raise_field_max }

let pack_entry ~host_idx e =
  let bit b v w = if v then w lor (1 lsl b) else w in
  let w = event_bits e.je_event in
  let w =
    match e.je_decision with
    | None -> w
    | Some d ->
      bit 9 d.d_flap (bit 10 d.d_crash (bit 11 d.d_timeout (w lor (1 lsl 8))))
  in
  let w =
    match e.je_audit with
    | None -> w
    | Some v ->
      w
      lor ((match v with A_clean -> 1 | A_scrubbed -> 2 | A_failed -> 3)
          lsl 12)
  in
  let w =
    match e.je_shadow with
    | None -> w
    | Some s ->
      bit 15 s.s_spare
        (bit 16 s.s_stage
           (bit 17 s.s_drop
              (bit 18 s.s_diverge
                 (bit 19 s.s_partition (w lor (1 lsl 14))))))
  in
  let w =
    match e.je_event with
    | Limit_raised { from_region; slots } ->
      (* both in [0, raise_field_max] iff their union is *)
      let u = from_region lor slots in
      if u < 0 || u > raise_field_max then
        Hypertp_error.raise_errorf ~site:"Campaign"
          "limit grant out of range (from region %d, %d slots)" from_region slots;
      w lor (from_region lsl 20) lor (slots lsl 41)
    | _ -> w lor ((host_idx + 1) lsl 20)
  in
  (Sim.Time.to_ns e.je_at, w, e.je_cursor)

let unpack_entry names w0 w1 w2 =
  let bit b = w1 land (1 lsl b) <> 0 in
  {
    je_at = Sim.Time.ns w0;
    je_host =
      (match host_field w1 with 0 -> None | i -> Some names.(i - 1));
    je_event = event_of_word w1;
    je_decision =
      (if bit 8 then
         Some { d_flap = bit 9; d_crash = bit 10; d_timeout = bit 11 }
       else None);
    je_audit =
      (match (w1 lsr 12) land 3 with
      | 0 -> None
      | 1 -> Some A_clean
      | 2 -> Some A_scrubbed
      | _ -> Some A_failed);
    je_shadow =
      (if bit 14 then
         Some
           { s_spare = bit 15; s_stage = bit 16; s_drop = bit 17;
             s_diverge = bit 18; s_partition = bit 19 }
       else None);
    je_cursor = w2;
  }

let journal_iter f j =
  let words = j.j_words in
  let n = Sim.Vec.length words / 3 in
  for k = 0 to n - 1 do
    f
      (unpack_entry j.j_names
         (Sim.Vec.get words (3 * k))
         (Sim.Vec.get words ((3 * k) + 1))
         (Sim.Vec.get words ((3 * k) + 2)))
  done

(* --- journal text form --- *)

module J = Sim.Journal

let journal_magic = "hypertp-campaign-journal v1"

(* One description for both directions ({!Sim.Journal.fields}). *)
let config_line { J.field; optional; _ } c =
  let nodes = field "nodes" J.int c.nodes in
  let vms_per_node = field "vms_per_node" J.int c.vms_per_node in
  let vm_ram = field "vm_ram" J.int c.vm_ram in
  let node_ram = field "node_ram" J.int c.node_ram in
  let inplace_fraction = field "fraction" J.float c.inplace_fraction in
  let concurrency = field "concurrency" J.int c.concurrency in
  let straggler_factor = field "straggler" J.float c.straggler_factor in
  let breaker_window = field "window" J.int c.breaker_window in
  let breaker_threshold = field "threshold" J.float c.breaker_threshold in
  let breaker_cooldown = field "cooldown_ns" J.time c.breaker_cooldown in
  let jitter_pct = field "jitter" J.float c.jitter_pct in
  let drain_flakiness = field "drain" J.float c.drain_flakiness in
  let retry_flakiness = field "retry" J.float c.retry_flakiness in
  let seed = field "seed" J.int64 c.seed in
  (* Absent for shadow-free campaigns, so journals recorded before the
     shadow rung existed serialise byte-identically. *)
  let spares = if c.shadow_spares > 0 then Some c.shadow_spares else None in
  let spares = optional "shadow_spares" J.int spares in
  { nodes; vms_per_node; vm_ram; node_ram; inplace_fraction; concurrency;
    straggler_factor; breaker_window; breaker_threshold; breaker_cooldown;
    jitter_pct; drain_flakiness; retry_flakiness; seed;
    shadow_spares = Option.value spares ~default:0 }

let config_to_line c = J.to_line "config" config_line c

(* An entry line over (host, stamp, packed word 1, cursor); word 1's
   host bits are neither written nor read.  Optional tokens (decision,
   audit, shadow) are absent when unused, so journals written before a
   feature existed serialise byte-identically. *)
let kinds, steps, mans = (J.enum kind_names, J.enum step_names, J.enum man_names)
let verdicts = J.enum (Array.map verdict_to_string [| A_clean; A_scrubbed; A_failed |])
let raise_part =
  let ok v = if v >= 0 && v <= raise_field_max then Some v else None in
  J.conv string_of_int (fun s -> Option.bind (int_of_string_opt s) ok)

let entry_line { J.field; optional; word } (host, at, w1, cursor) =
  let bit i = (w1 lsr i) land 1 in
  (* A flag group: present iff bit [p], flag [i] in bit [p + 1 + i]. *)
  let flags p keys =
    let set i v = if v <> 0 then 1 lsl (p + 1 + i) else 0 in
    match optional keys.(0) J.int (if bit p = 1 then Some (bit (p + 1)) else None) with
    | None -> 0
    | Some v ->
      let w = ref ((1 lsl p) lor set 0 v) in
      for i = 1 to Array.length keys - 1 do
        w := !w lor set i (field keys.(i) J.int (bit (p + 1 + i)))
      done;
      !w
  in
  let at = field "at" J.time at in
  let host = field "host" J.str host in
  let kind = word kinds (w1 land 0xf) in
  (* The bit field of word 1 at [shift], a token only where [used]. *)
  let part used k v shift mask =
    if used then field k v ((w1 lsr shift) land mask) lsl shift else 0
  in
  (* adm, fail and done name a ladder step; fail also a manifestation *)
  let step = part (kind = 0 || kind = 3 || kind = 4) "step" steps 4 3 in
  let man = part (kind = 3) "man" mans 6 3 in
  let from = part (kind = kind_raise) "from" raise_part 20 raise_field_max in
  let slots = part (kind = kind_raise) "slots" raise_part 41 raise_field_max in
  let decision = flags 8 [| "flap"; "crash"; "timeout" |] in
  let verdict = match (w1 lsr 12) land 3 with 0 -> None | a -> Some (a - 1) in
  let audit =
    match optional "audit" verdicts verdict with Some a -> (a + 1) lsl 12 | None -> 0
  in
  let shadow = flags 14 [| "sspare"; "sstage"; "sdrop"; "sdiverge"; "spart" |] in
  let cursor = field "cursor" J.int cursor in
  let w = kind lor step lor man lor from lor slots in
  (host, at, w lor decision lor audit lor shadow, cursor)

let write_journal b j =
  J.line b journal_magic;
  J.put_line b "config" config_line j.j_config;
  let words = j.j_words and names = j.j_names in
  for k = 0 to journal_length j - 1 do
    let w1 = Sim.Vec.get words ((3 * k) + 1) in
    let host = match host_field w1 with 0 -> "-" | i -> names.(i - 1) in
    let at = Sim.Time.ns (Sim.Vec.get words (3 * k)) in
    J.put_line b "e" entry_line (host, at, w1, Sim.Vec.get words ((3 * k) + 2))
  done

(* Entry lines run 40-80 bytes: size the buffer once. *)
let journal_bytes j = 64 * (journal_length j + 4)

let journal_to_string j =
  let b = Buffer.create (journal_bytes j) in
  write_journal b j;
  Buffer.contents b

(* Reads entries up to the first line that is not one, so a journal can
   be embedded in a larger text.  Hosts get side-table indices in
   first-appearance order. *)
let read_journal r =
  J.magic r journal_magic;
  let j_config = J.get_line r "config" config_line default_config in
  let words = Sim.Vec.create ~capacity:1024 0 in
  let names = Sim.Vec.create "" and name_idx = Hashtbl.create 64 in
  let intern h =
    match Hashtbl.find_opt name_idx h with
    | Some i -> i
    | None ->
      Sim.Vec.push names h;
      Hashtbl.replace name_idx h (Sim.Vec.length names - 1);
      Sim.Vec.length names - 1
  in
  while J.at_tag r "e" do
    let host, at, w1, cursor = J.get_line r "e" entry_line ("-", Sim.Time.zero, 0, 0) in
    let hosted = w1 land 0xf <> kind_raise && host <> "-" in
    Sim.Vec.push words (Sim.Time.to_ns at);
    Sim.Vec.push words (if hosted then w1 lor ((intern host + 1) lsl 20) else w1);
    Sim.Vec.push words cursor
  done;
  { j_config; j_words = words; j_names = Sim.Vec.to_array names }

let journal_of_string s = J.parse s read_journal

(* --- controller state (shared between live execution and replay) --- *)

type running = {
  r_step : ladder_step;
  r_started : Sim.Time.t;
  r_decision : decision option;
  r_shadow : shadow_decision option;
  mutable r_flapped : bool;
}

type hstate =
  | H_pending
  | H_running of running
  | H_failed_needs_drain
  | H_failed_needs_defer
  | H_awaiting_retry
  | H_done of host_status * Sim.Time.t

type breaker = B_closed | B_open_until of Sim.Time.t | B_half_open

type probe = replaying:bool -> Sim.Time.t -> event -> unit

type st = {
  cfg : config;
  setup : setup;
  hstates : hstate array;
  manifests : manifestation list array; (* newest first *)
  attempts : int array;
  mutable breaker : breaker;
  (* Breaker outcome window, newest outcome in bit 0, [window_len]
     (<= breaker_window <= 62, validated) live bits.  Replaces the
     [bool list] + [take] pair, which allocated a fresh list on every
     attempt outcome. *)
  mutable window_bits : int;
  mutable window_len : int;
  mutable half_successes : int;
  mutable half_failed : bool;
  mutable trips : int;
  mutable limit : int;
  mutable granted : int; (* admission slots received via [Limit_raised] *)
  mutable running : int;
  mutable finished_at : Sim.Time.t option;
  entries : int Sim.Vec.t; (* packed, 3 words per entry, chronological *)
  (* Incremental bookkeeping so [settle] never rescans the host array:
     [next_pending] is a monotone admission cursor (admission is
     lowest-index-first and a host never returns to [H_pending], so
     every pending host sits at an index >= the cursor);
     [needs_drain] / [needs_defer] are work-lists pushed by
     [resolve_failure]; [retry_cursor] only advances during the retry
     phase, when no new [H_awaiting_retry] host can appear behind it;
     [n_done] counts terminal hosts; [exposure_acc] accumulates
     exposure hours as hosts finish (Deferred_exposed hosts are counted
     separately — they stay exposed until the campaign's wall clock). *)
  mutable next_pending : int;
  mutable needs_drain : int list;
  mutable needs_defer : int list;
  mutable retry_cursor : int;
  mutable n_done : int;
  mutable exposure_acc : float;
  mutable n_deferred_exposed : int;
  audits : audit_verdict option array;
      (* post-commit audit verdict of the host's successful attempt *)
  (* Shadow lane accounting: [spares_free] counts idle staged spares
     (a completed cutover frees its source as the next spare, so the
     lane returns on resolution either way); [shadow_tried] pins the
     degradation ladder — a host whose shadow attempt failed must fall
     through to drain, never shadow again. *)
  mutable spares_free : int;
  shadow_tried : bool array;
  fault : Fault.t option;
  probe : probe option;
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  o_log : bool;
      (* info logging enabled when the state was built; cached so the
         hot path skips the per-event closure when nobody listens *)
  ospans : Obs.Span.t option array; (* open attempt span per host *)
  mutable root_span : Obs.Span.t option;
}

let make_st ?fault ?probe ?obs ?metrics cfg setup =
  let n = Array.length setup.su_tasks in
  let obs = Option.map Hypertp.Otrace.attach obs in
  {
    cfg;
    setup;
    hstates = Array.make n H_pending;
    manifests = Array.make n [];
    attempts = Array.make n 0;
    breaker = B_closed;
    window_bits = 0;
    window_len = 0;
    half_successes = 0;
    half_failed = false;
    trips = 0;
    limit = setup.su_effective;
    granted = 0;
    running = 0;
    finished_at = None;
    entries = Sim.Vec.create ~capacity:(Stdlib.max 16 (12 * n)) 0;
    next_pending = 0;
    needs_drain = [];
    needs_defer = [];
    retry_cursor = 0;
    n_done = 0;
    exposure_acc = 0.0;
    n_deferred_exposed = 0;
    audits = Array.make n None;
    spares_free = cfg.shadow_spares;
    shadow_tried = Array.make n false;
    fault;
    probe;
    obs;
    metrics;
    o_log =
      (match Logs.Src.level Hypertp.Log.src with
      | Some (Logs.Info | Logs.Debug) -> true
      | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false);
    ospans = Array.make n None;
    root_span =
      Hypertp.Otrace.start obs ~at:Sim.Time.zero ~track:"controller"
        ~attrs:
          [ ("engine", "campaign");
            ("hosts", string_of_int n);
            ("concurrency", string_of_int setup.su_effective) ]
        "campaign";
  }

let idx st host =
  match Hashtbl.find_opt st.setup.su_index host with
  | Some i -> i
  | None ->
    Hypertp_error.raise_errorf ~site:"Campaign"
      ~hint:"the journal must come from a campaign with the same config"
      "unknown host in journal: %s" host

let hours t = Sim.Time.to_sec_f t /. 3600.0

let push_window st ok =
  (match st.breaker with
  | B_half_open ->
    if ok then st.half_successes <- st.half_successes + 1
    else begin
      st.half_successes <- 0;
      st.half_failed <- true
    end
  | B_closed | B_open_until _ -> ());
  st.window_bits <-
    ((st.window_bits lsl 1) lor Bool.to_int ok)
    land ((1 lsl st.cfg.breaker_window) - 1);
  st.window_len <- Stdlib.min (st.window_len + 1) st.cfg.breaker_window

(* Failures in the window = live bits that are 0. *)
let window_fails st =
  let rec pop acc bits =
    if bits = 0 then acc else pop (acc + (bits land 1)) (bits lsr 1)
  in
  st.window_len - pop 0 st.window_bits

(* Half-open admits half the full limit: the planned concurrency plus
   any slots granted by the control plane. *)
let recompute_limit st =
  let full = st.setup.su_effective + st.granted in
  st.limit <- (if st.breaker = B_half_open then Stdlib.max 1 (full / 2) else full)

let resolve_failure st i manifestation at =
  st.running <- st.running - 1;
  st.manifests.(i) <- manifestation :: st.manifests.(i);
  match st.hstates.(i) with
  | H_running r -> (
    match r.r_step with
    | Inplace ->
      st.hstates.(i) <- H_failed_needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      push_window st false
    | Shadow ->
      (* Degradation ladder: the staged spare is torn down (the lane
         returns) and the host falls through to the classic drain. *)
      st.spares_free <- st.spares_free + 1;
      st.hstates.(i) <- H_failed_needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      push_window st false
    | Drain ->
      st.hstates.(i) <- H_failed_needs_defer;
      st.needs_defer <- i :: st.needs_defer;
      push_window st false
    | Retry ->
      st.hstates.(i) <- H_done (Deferred_exposed, at);
      st.n_done <- st.n_done + 1;
      st.n_deferred_exposed <- st.n_deferred_exposed + 1)
  | _ ->
    Hypertp_error.raise_error ~site:"Campaign"
      "failure recorded for a host not running"

let pp_event fmt = function
  | Admitted step -> Format.fprintf fmt "admitted(%s)" (step_to_string step)
  | Flap_failure -> Format.pp_print_string fmt "flap-leg (failed, recovered)"
  | Straggler_cancelled -> Format.pp_print_string fmt "straggler-cancelled"
  | Attempt_failed { step; manifestation } ->
    Format.fprintf fmt "failed(%s, %s)" (step_to_string step)
      (man_to_string manifestation)
  | Attempt_completed step ->
    Format.fprintf fmt "completed(%s)" (step_to_string step)
  | Deferred -> Format.pp_print_string fmt "deferred"
  | Breaker_opened -> Format.pp_print_string fmt "breaker-opened"
  | Breaker_half_opened -> Format.pp_print_string fmt "breaker-half-open"
  | Breaker_closed -> Format.pp_print_string fmt "breaker-closed"
  | Limit_raised { from_region; slots } ->
    Format.fprintf fmt "limit-raised(+%d from r%d)" slots from_region
  | Campaign_finished -> Format.pp_print_string fmt "campaign-finished"

(* Narration + span/metric bookkeeping for one applied event.  Runs at
   the end of [apply], so a live run and [resume]'s replay emit the
   same log lines, the same span tree and the same counters. *)
let observe st e =
  let at = e.je_at in
  let obs = st.obs and metrics = st.metrics in
  if st.o_log then
    Hypertp.Log.info (fun m ->
        m "campaign%s: %a at %a"
          (match e.je_host with Some h -> " " ^ h | None -> "")
          pp_event e.je_event Sim.Time.pp at);
  let close i attrs =
    (match st.ospans.(i) with
    | Some s -> List.iter (fun (k, v) -> Obs.Span.set_attr s k v) attrs
    | None -> ());
    Hypertp.Otrace.finish obs st.ospans.(i) ~at;
    st.ospans.(i) <- None
  in
  (* The span/metric bookkeeping below allocates its label lists before
     the (no-op) Otrace calls see the [None]s, so skip the whole block
     when nothing is attached — the common case for large fleets. *)
  if obs = None && metrics = None then ()
  else begin
  let count name labels =
    Hypertp.Otrace.count metrics ~labels:(("engine", "campaign") :: labels) name
  in
  let breaker name =
    Hypertp.Otrace.instant obs ~at ?parent:st.root_span ~track:"controller" name
  in
  (match (e.je_event, e.je_host) with
  | Admitted step, Some h ->
    let i = idx st h in
    st.ospans.(i) <-
      Hypertp.Otrace.start obs ~at ?parent:st.root_span
        ~track:("host:" ^ h)
        ~attrs:
          [ ("host", h); ("step", step_to_string step);
            ("attempt", string_of_int st.attempts.(i)) ]
        ("attempt:" ^ step_to_string step);
    count "hypertp_campaign_attempts_total" [ ("step", step_to_string step) ]
  | Flap_failure, Some h ->
    Hypertp.Otrace.event st.ospans.(idx st h) ~at "flap_leg"
  | Straggler_cancelled, Some h ->
    close (idx st h) [ ("result", "straggler_cancelled") ];
    count "hypertp_campaign_failures_total" [ ("manifestation", "timeout") ]
  | Attempt_failed { step; manifestation }, Some h ->
    let m = man_to_string manifestation in
    close (idx st h)
      [ ("result", "failed"); ("step", step_to_string step); ("manifestation", m) ];
    count "hypertp_campaign_failures_total" [ ("manifestation", m) ]
  | Attempt_completed step, Some h ->
    let audit =
      match e.je_audit with Some v -> [ ("audit", verdict_to_string v) ] | None -> []
    in
    close (idx st h) (("result", "completed") :: audit);
    count "hypertp_campaign_completions_total" [ ("step", step_to_string step) ];
    List.iter
      (fun (_, v) -> count "hypertp_campaign_audits_total" [ ("verdict", v) ])
      audit
  | Deferred, Some h ->
    Hypertp.Otrace.instant obs ~at ~track:("host:" ^ h)
      ~attrs:[ ("host", h) ] "deferred"
  | Breaker_opened, None ->
    breaker "breaker:opened";
    count "hypertp_breaker_trips_total" []
  | Breaker_half_opened, None -> breaker "breaker:half_open"
  | Breaker_closed, None -> breaker "breaker:closed"
  | Campaign_finished, None ->
    Hypertp.Otrace.finish obs st.root_span ~at;
    st.root_span <- None
  | _ -> ());
  Hypertp.Otrace.gauge_set metrics
    ~labels:[ ("engine", "campaign") ]
    "hypertp_campaign_running"
    (float_of_int st.running)
  end

(* Apply one journal entry to the state.  Both the live controller and
   [resume]'s replay funnel every mutation through here, which is what
   makes a resumed campaign land in exactly the state the crashed one
   had.  Host timelines are not tracked live — [make_report] rebuilds
   them from the packed journal. *)
let apply_state st e =
  match (e.je_event, e.je_host) with
  | Admitted step, Some h ->
    let i = idx st h in
    (match (step, st.hstates.(i)) with
    | Inplace, H_pending
    | (Shadow | Drain), H_failed_needs_drain
    | Retry, H_awaiting_retry ->
      ()
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign"
        "admission out of ladder order");
    if step = Inplace && e.je_decision = None then
      Hypertp_error.raise_error ~site:"Campaign"
        "in-place admission without a fault decision";
    if step = Shadow then begin
      if st.shadow_tried.(i) then
        Hypertp_error.raise_error ~site:"Campaign"
          "second shadow admission for the same host";
      if st.spares_free <= 0 then
        Hypertp_error.raise_error ~site:"Campaign"
          "shadow admission without a free spare lane";
      st.shadow_tried.(i) <- true;
      st.spares_free <- st.spares_free - 1
    end;
    st.hstates.(i) <-
      H_running
        {
          r_step = step;
          r_started = e.je_at;
          r_decision = e.je_decision;
          r_shadow = e.je_shadow;
          r_flapped = false;
        };
    st.running <- st.running + 1;
    st.attempts.(i) <- st.attempts.(i) + 1
  | Flap_failure, Some h -> (
    match st.hstates.(idx st h) with
    | H_running r -> r.r_flapped <- true
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign"
        "flap leg for a host not running")
  | Straggler_cancelled, Some h -> resolve_failure st (idx st h) Timeout e.je_at
  | Attempt_failed { manifestation; _ }, Some h ->
    resolve_failure st (idx st h) manifestation e.je_at
  | Attempt_completed step, Some h ->
    let i = idx st h in
    st.running <- st.running - 1;
    (match e.je_audit with
    | Some v -> st.audits.(i) <- Some v
    | None -> ());
    (match step with
    | Inplace -> st.hstates.(i) <- H_done (Upgraded_inplace, e.je_at)
    | Shadow ->
      (* The freed source becomes the next staged spare (pipeline
         lane), so the lane returns on success too. *)
      st.spares_free <- st.spares_free + 1;
      st.hstates.(i) <- H_done (Shadow_cutover, e.je_at)
    | Drain -> st.hstates.(i) <- H_done (Drained, e.je_at)
    | Retry -> st.hstates.(i) <- H_done (Deferred_resolved, e.je_at));
    st.n_done <- st.n_done + 1;
    st.exposure_acc <- st.exposure_acc +. hours e.je_at;
    if step <> Retry then push_window st true
  | Deferred, Some h ->
    let i = idx st h in
    (match st.hstates.(i) with
    | H_failed_needs_defer -> st.hstates.(i) <- H_awaiting_retry
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign" "defer out of ladder order")
  | Breaker_opened, None ->
    st.trips <- st.trips + 1;
    st.breaker <- B_open_until (Sim.Time.add e.je_at st.cfg.breaker_cooldown);
    st.window_bits <- 0;
    st.window_len <- 0;
    st.half_failed <- false
  | Breaker_half_opened, None ->
    st.breaker <- B_half_open;
    st.half_successes <- 0;
    st.half_failed <- false;
    recompute_limit st
  | Breaker_closed, None ->
    st.breaker <- B_closed;
    recompute_limit st
  | Limit_raised { slots; _ }, None ->
    st.granted <- st.granted + slots;
    recompute_limit st
  | Campaign_finished, None -> st.finished_at <- Some e.je_at
  | _ -> Hypertp_error.raise_error ~site:"Campaign" "malformed journal entry"

let apply st e =
  apply_state st e;
  observe st e

(* --- live execution --- *)

exception Controller_died

type ctx = {
  st : st;
  eng : Sim.Engine.t;
  timers : Sim.Engine.timer list ref array;
  mutable stopped : bool; (* set by [stop]: pending settles become no-ops *)
}

let cursor st =
  match st.fault with None -> 0 | Some f -> Fault.trace_length f

let fire_opt st ?vm site =
  match st.fault with None -> false | Some f -> Fault.fire f ?vm site

(* The audit sites are only consulted when the plan arms them: firing
   them unconditionally would shift the fault cursor of every journal
   recorded before the audit existed. *)
let audit_armed st =
  match st.fault with
  | None -> false
  | Some f ->
    List.exists
      (fun (inj : Fault.injection) ->
        match inj.Fault.site with
        | Fault.Residual_leak | Fault.Scrub_fail -> true
        | _ -> false)
      (Fault.injections f)

(* Same armed-only discipline for the shadow sites: journals recorded
   before the shadow ladder existed (or under shadow-free plans) keep
   their fault cursors bit-for-bit. *)
let shadow_armed st =
  match st.fault with
  | None -> false
  | Some f ->
    List.exists
      (fun (inj : Fault.injection) ->
        List.mem inj.Fault.site Fault.shadow_sites)
      (Fault.injections f)

(* The fault-plan consults behind each journaled decision, in their
   fixed order: live execution journals the outcome, replay re-fires
   and compares.  Always all sites of a group, so probability streams
   stay aligned across plans (the {!sweep} nesting property). *)
let inplace_decision st node =
  let d_flap = fire_opt st ~vm:node Fault.Host_flap in
  let d_crash = fire_opt st ~vm:node Fault.Host_crash in
  let d_timeout = fire_opt st ~vm:node Fault.Host_timeout in
  { d_flap; d_crash; d_timeout }

let shadow_decision st node =
  let s_spare = fire_opt st ~vm:node Fault.Spare_exhausted in
  let s_stage = fire_opt st ~vm:node Fault.Shadow_stage_fail in
  let s_drop = fire_opt st ~vm:node Fault.Shadow_stream_drop in
  let s_diverge = fire_opt st ~vm:node Fault.Shadow_diverge in
  let s_partition = fire_opt st ~vm:node Fault.Swap_partition in
  { s_spare; s_stage; s_drop; s_diverge; s_partition }

let audit_verdict st node =
  let leak = fire_opt st ~vm:node Fault.Residual_leak in
  let scrub_failed = fire_opt st ~vm:node Fault.Scrub_fail in
  if not leak then A_clean else if scrub_failed then A_failed else A_scrubbed

(* Journal-then-crash: the entry is applied and persisted first, and
   only then may the controller die — by its own [Controller_crash] or
   by whatever the caller's probe raises — so a resumed run never loses
   the event that was being recorded. *)
(* Re-encode and push an already-validated entry (live append and
   resume's replay both end here). *)
let push_entry st e ~cursor =
  let host_idx = match e.je_host with None -> -1 | Some h -> idx st h in
  let w0, w1, _ = pack_entry ~host_idx { e with je_cursor = cursor } in
  Sim.Vec.push st.entries w0;
  Sim.Vec.push st.entries w1;
  Sim.Vec.push st.entries cursor

let append st ?host ?decision ?audit ?shadow ~at event =
  let e =
    { je_at = at; je_host = host; je_event = event; je_decision = decision;
      je_audit = audit; je_shadow = shadow; je_cursor = 0 }
  in
  apply st e;
  let crashed = fire_opt st Fault.Controller_crash in
  push_entry st e ~cursor:(cursor st);
  if st.obs <> None then
    Hypertp.Otrace.instant st.obs ~at ~track:"journal"
      ~attrs:[ ("cursor", string_of_int (cursor st)) ]
      "journal:checkpoint";
  if crashed then raise Controller_died;
  match st.probe with Some p -> p ~replaying:false at event | None -> ()

let clear_timers ctx i =
  List.iter Sim.Engine.cancel !(ctx.timers.(i));
  ctx.timers.(i) := []

(* Arm a guarded timer: it is a no-op unless host [i] is still on the
   same attempt it was armed for. *)
let arm ctx i at f =
  let epoch = ctx.st.attempts.(i) in
  let tm =
    Sim.Engine.schedule_timer_at ctx.eng at (fun () ->
        match ctx.st.hstates.(i) with
        | H_running _ when ctx.st.attempts.(i) = epoch -> f ()
        | _ -> ())
  in
  ctx.timers.(i) := tm :: !(ctx.timers.(i))

let rec settle ctx =
  let st = ctx.st in
  let at = Sim.Engine.now ctx.eng in
  (* 1. Ladder escalations: a failed in-place attempt drains next.
     Escalation keeps the host's admission slot and ignores the breaker
     — remediation of an in-flight host must not be paused.  The
     work-list is drained sorted so the event order matches the array
     scan this replaces; the state guard skips entries already handled
     (e.g. re-pushed by a replay). *)
  let drainable = List.sort compare st.needs_drain in
  st.needs_drain <- [];
  List.iter
    (fun i ->
      if st.hstates.(i) = H_failed_needs_drain then
        (* Shadow rung of the ladder: with a staged spare lane free and
           no earlier shadow failure on this host, evacuate by cutover
           before falling back to the disruptive drain. *)
        if
          st.cfg.shadow_spares > 0 && st.spares_free > 0
          && not st.shadow_tried.(i)
        then admit ctx i Shadow
        else admit ctx i Drain)
    drainable;
  (* 2. Ladder exhausted: park the host, retried at campaign end. *)
  let deferrable = List.sort compare st.needs_defer in
  st.needs_defer <- [];
  List.iter
    (fun i ->
      if st.hstates.(i) = H_failed_needs_defer then
        append st ~host:st.setup.su_tasks.(i).t_node ~at Deferred)
    deferrable;
  (* 3. Breaker transitions. *)
  (match st.breaker with
  | B_closed | B_half_open ->
    let fails = window_fails st in
    let rate = float_of_int fails /. float_of_int st.cfg.breaker_window in
    if
      (st.breaker = B_half_open && st.half_failed)
      || (fails > 0 && rate >= st.cfg.breaker_threshold)
    then begin
      append st ~at Breaker_opened;
      match st.breaker with
      | B_open_until u -> schedule_reopen ctx u
      | B_closed | B_half_open -> ()
    end
    else if st.breaker = B_half_open
            && st.half_successes >= st.cfg.breaker_window
    then append st ~at Breaker_closed
  | B_open_until _ -> ());
  (* 4. Admission: fill free slots with pending hosts, lowest index
     first, unless the breaker is open.  [next_pending] lazily skips
     past hosts that left [H_pending]; it never needs to back up, so
     admission over the whole campaign costs O(hosts). *)
  let n = Array.length st.hstates in
  let skip_admitted () =
    while
      st.next_pending < n && st.hstates.(st.next_pending) <> H_pending
    do
      st.next_pending <- st.next_pending + 1
    done
  in
  (match st.breaker with
  | B_open_until _ -> ()
  | B_closed | B_half_open ->
    skip_admitted ();
    while st.next_pending < n && st.running < st.limit do
      admit ctx st.next_pending Inplace;
      skip_admitted ()
    done);
  (* 5. End of the main phase: retry deferred hosts one at a time, then
     declare the campaign finished.  [retry_cursor] is monotone: it
     only moves while the retry phase is active, when every host behind
     it is terminal. *)
  skip_admitted ();
  if st.running = 0 && st.next_pending >= n then begin
    (* Phases 1-2 emptied the failed states, so every host here is
       either H_awaiting_retry or terminal — the cursor never skips a
       host that could become awaiting later. *)
    while
      st.retry_cursor < n && st.hstates.(st.retry_cursor) <> H_awaiting_retry
    do
      st.retry_cursor <- st.retry_cursor + 1
    done;
    if st.retry_cursor < n then admit ctx st.retry_cursor Retry
    else if st.finished_at = None && st.n_done = n then
      append st ~at Campaign_finished
  end

and schedule_reopen ctx u =
  Sim.Engine.schedule_at ctx.eng u (fun () -> if not ctx.stopped then reopen ctx)

and reopen ctx =
  let st = ctx.st in
  (match st.breaker with
  | B_open_until _ ->
    append st ~at:(Sim.Engine.now ctx.eng) Breaker_half_opened
  | B_closed | B_half_open -> ());
  settle ctx

and admit ctx i step =
  let st = ctx.st in
  let at = Sim.Engine.now ctx.eng in
  let t = st.setup.su_tasks.(i) in
  let decision =
    match step with
    | Inplace -> Some (inplace_decision st t.t_node)
    | Shadow | Drain | Retry -> None
  in
  let shadow =
    match step with
    | Shadow when shadow_armed st -> Some (shadow_decision st t.t_node)
    | _ -> None
  in
  append st ~host:t.t_node ?decision ?shadow ~at (Admitted step);
  schedule_attempt ctx i

(* Schedule the engine events for a host currently in [H_running].  All
   times are absolute (relative to the attempt's recorded start), so the
   same function reconstructs in-flight attempts on resume. *)
and schedule_attempt ctx i =
  let st = ctx.st in
  let t = st.setup.su_tasks.(i) in
  match st.hstates.(i) with
  | H_running r -> (
    let from_start span = Sim.Time.add r.r_started span in
    match r.r_step with
    | Inplace ->
      let d =
        match r.r_decision with
        | Some d -> d
        | None ->
          Hypertp_error.raise_error ~site:"Campaign"
            "in-place attempt without decision"
      in
      (* The supervisor's deadline races the attempt; whichever loses is
         cancelled. *)
      arm ctx i (from_start t.t_deadline) (fun () -> on_deadline ctx i);
      if d.d_timeout then
        (* Hung host: nothing else ever fires; the deadline wins. *)
        ()
      else if d.d_flap then begin
        if not r.r_flapped then
          arm ctx i
            (from_start (Sim.Time.scale flap_leg1_frac t.t_expected))
            (fun () -> on_flap_leg ctx i)
        else
          arm ctx i
            (from_start (Sim.Time.scale flap_final_frac t.t_expected))
            (fun () -> on_fail ctx i Flap)
      end
      else if d.d_crash then
        arm ctx i
          (from_start (Sim.Time.scale crash_frac t.t_expected))
          (fun () -> on_fail ctx i Crash)
      else
        arm ctx i
          (from_start
             (Sim.Time.scale (host_jitter st.cfg t.t_node) t.t_expected))
          (fun () -> on_complete ctx i Inplace)
    | Shadow ->
      (* The pre-swap abort points are all analytic: a fired shadow
         site surfaces as one failed attempt (the engine's abort +
         source-intact verification), costed like a drain that died
         mid-stream.  Which site fired was journaled at admission. *)
      if (match r.r_shadow with Some s -> shadow_failed s | None -> false)
      then
        arm ctx i
          (from_start (Sim.Time.scale shadow_fail_frac t.t_shadow))
          (fun () -> on_fail ctx i Crash)
      else
        arm ctx i
          (from_start
             (Sim.Time.scale (host_jitter st.cfg t.t_node) t.t_shadow))
          (fun () -> on_complete ctx i Shadow)
    | Drain ->
      if coin st.cfg "drain" t.t_node st.cfg.drain_flakiness then
        arm ctx i
          (from_start (Sim.Time.scale drain_fail_frac t.t_drain))
          (fun () -> on_fail ctx i Crash)
      else arm ctx i (from_start t.t_drain) (fun () -> on_complete ctx i Drain)
    | Retry ->
      if coin st.cfg "retry" t.t_node st.cfg.retry_flakiness then
        arm ctx i
          (from_start (Sim.Time.scale retry_fail_frac t.t_up))
          (fun () -> on_fail ctx i Crash)
      else
        arm ctx i
          (from_start (Sim.Time.scale (host_jitter st.cfg t.t_node) t.t_up))
          (fun () -> on_complete ctx i Retry))
  | _ ->
    Hypertp_error.raise_error ~site:"Campaign"
      "scheduling for a host not running"

and on_deadline ctx i =
  clear_timers ctx i;
  append ctx.st
    ~host:ctx.st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng) Straggler_cancelled;
  settle ctx

and on_fail ctx i manifestation =
  let st = ctx.st in
  let step =
    match st.hstates.(i) with H_running r -> r.r_step | _ -> assert false
  in
  clear_timers ctx i;
  append st
    ~host:st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng)
    (Attempt_failed { step; manifestation });
  settle ctx

and on_complete ctx i step =
  let st = ctx.st in
  clear_timers ctx i;
  let node = st.setup.su_tasks.(i).t_node in
  (* Post-commit audit verdict for steps that end on the new hypervisor
     via InPlaceTP.  Only consulted when the plan arms the audit sites,
     so journals recorded under audit-free plans keep their fault
     cursors bit-for-bit. *)
  let audit =
    match step with
    | (Inplace | Retry) when audit_armed st -> Some (audit_verdict st node)
    | _ -> None
  in
  append st ~host:node ?audit ~at:(Sim.Engine.now ctx.eng)
    (Attempt_completed step);
  settle ctx

and on_flap_leg ctx i =
  (* First leg: the host fails, then recovers.  Not an attempt outcome —
     it must not count toward the breaker — so only the leg itself is
     journaled and the final failure is re-armed. *)
  append ctx.st
    ~host:ctx.st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng) Flap_failure;
  schedule_attempt ctx i

(* --- results --- *)

let make_journal st =
  { j_config = st.cfg; j_words = st.entries; j_names = st.setup.su_names }

(* Wall clock (finish plus the rebalance tail) and exposure, accumulated
   incrementally as hosts finished: deferred-exposed hosts stay exposed
   until the wall clock.  The test suite pins this equal to the per-host
   fold over a report's [hosts]. *)
let wall_and_exposure st =
  match st.finished_at with
  | Some t ->
    let wall = Sim.Time.add t st.setup.su_rebalance in
    (wall, st.exposure_acc +. (float_of_int st.n_deferred_exposed *. hours wall))
  | None ->
    Hypertp_error.raise_error ~site:"Campaign"
      "report requested before the finish event"

let make_report st =
  let wall, exposed = wall_and_exposure st in
  (* Rebuild per-host timelines from the packed journal (newest first,
     reversed below) — the controller stopped tracking them live. *)
  let n = Array.length st.setup.su_tasks in
  let timelines = Array.make n [] in
  let words = st.entries in
  for k = 0 to (Sim.Vec.length words / 3) - 1 do
    let w1 = Sim.Vec.get words ((3 * k) + 1) in
    match host_field w1 with
    | 0 -> ()
    | i ->
      timelines.(i - 1) <-
        (Sim.Time.ns (Sim.Vec.get words (3 * k)), event_of_word w1)
        :: timelines.(i - 1)
  done;
  let hosts =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let status, done_at =
             match st.hstates.(i) with
             | H_done (Deferred_exposed, _) -> (Deferred_exposed, wall)
             | H_done (s, at) -> (s, at)
             | _ ->
               Hypertp_error.raise_error ~site:"Campaign"
                 "unfinished host in report"
           in
           {
             hr_node = t.t_node;
             hr_vms_in_place = t.t_vms_in_place;
             hr_drain_migrations = t.t_drain_migs;
             hr_status = status;
             hr_attempts = st.attempts.(i);
             hr_manifestations = List.rev st.manifests.(i);
             hr_timeline = List.rev timelines.(i);
             hr_expected = t.t_expected;
             hr_done_at = done_at;
             hr_exposure_hours = hours done_at;
             hr_audit = st.audits.(i);
           })
         st.setup.su_tasks)
  in
  let deferred_hosts =
    List.filter
      (fun h ->
        match h.hr_status with
        | Deferred_resolved | Deferred_exposed -> true
        | Upgraded_inplace | Shadow_cutover | Drained -> false)
      hosts
  in
  let sum_vms pred =
    List.fold_left
      (fun acc h -> if pred h.hr_status then acc + h.hr_vms_in_place else acc)
      0 hosts
  in
  let vms_total = st.cfg.nodes * st.cfg.vms_per_node in
  let vms_in_place_total =
    List.fold_left (fun acc h -> acc + h.hr_vms_in_place) 0 hosts
  in
  let r =
    {
    cfg = st.cfg;
    base = st.setup.su_base;
    effective_concurrency = st.setup.su_effective;
    hosts;
    wall_clock = wall;
    rebalance_time = st.setup.su_rebalance;
    exposed_host_hours = exposed;
    baseline_exposed_host_hours = float_of_int st.cfg.nodes *. hours wall;
    deferred = List.map (fun h -> h.hr_node) deferred_hosts;
    deferred_exposure_hours =
      List.fold_left (fun acc h -> acc +. h.hr_exposure_hours) 0.0
        deferred_hosts;
    breaker_trips = st.trips;
    vms_total;
    vms_inplace_ok =
      sum_vms (function
        | Upgraded_inplace | Deferred_resolved -> true
        | Shadow_cutover | Drained | Deferred_exposed -> false);
    vms_shadow = sum_vms (function Shadow_cutover -> true | _ -> false);
    vms_drained = sum_vms (function Drained -> true | _ -> false);
    vms_on_deferred =
      sum_vms (function Deferred_exposed -> true | _ -> false);
    vms_migrated_planned = vms_total - vms_in_place_total;
    audit_verdicts =
      List.filter_map
        (fun h ->
          match h.hr_audit with Some v -> Some (h.hr_node, v) | None -> None)
        hosts;
    }
  in
  let labels = [ ("engine", "campaign") ] in
  Hypertp.Otrace.gauge_set st.metrics ~labels
    "hypertp_campaign_exposed_host_hours" r.exposed_host_hours;
  Hypertp.Otrace.gauge_set st.metrics ~labels
    "hypertp_campaign_wall_clock_seconds"
    (Sim.Time.to_sec_f r.wall_clock);
  r

type run_result = Finished of report * journal | Crashed of journal

(* A caller's engine ([?eng]) is shared with other controllers; its
   timer hook is the caller's business. *)
let make_ctx ?eng st =
  let eng =
    match eng with
    | Some eng -> eng
    | None ->
      let eng = Sim.Engine.create () in
      (* Timer lifecycle on its own track: every straggler deadline and
         attempt completion timer shows up as fired or cancelled. *)
      Option.iter
        (fun tr ->
          Sim.Engine.set_timer_hook eng (fun at notice ->
              Obs.Tracer.instant tr ~at ~track:"engine"
                (match notice with
                | `Fired -> "timer:fired"
                | `Cancelled -> "timer:cancelled")))
        st.obs;
      eng
  in
  {
    st;
    eng;
    timers = Array.init (Array.length st.setup.su_tasks) (fun _ -> ref []);
    stopped = false;
  }

let settle_at ctx at =
  Sim.Engine.schedule_at ctx.eng at (fun () -> if not ctx.stopped then settle ctx)

let drive ctx =
  try
    Sim.Engine.run ctx.eng;
    Finished (make_report ctx.st, make_journal ctx.st)
  with Controller_died -> Crashed (make_journal ctx.st)

(* Fresh controller, first settle scheduled, nothing driven yet. *)
let start_st ?eng ?plan ?fault ?probe ?obs ?metrics cfg =
  validate_config cfg;
  let setup = setup_of ?plan cfg in
  let ctx = make_ctx ?eng (make_st ?fault ?probe ?obs ?metrics cfg setup) in
  settle_at ctx (Sim.Engine.now ctx.eng);
  ctx

let run ?fault ?obs ?metrics cfg = drive (start_st ?fault ?obs ?metrics cfg)

(* Replayed controller: journal re-applied and validated, in-flight
   attempts re-armed, nothing driven yet.  [fault] is the crashed run's
   plan, restarted here. *)
let resume_st ?eng ?plan ?fault ?probe ?obs ?metrics journal =
  let cfg = journal.j_config in
  validate_config cfg;
  let fault = Option.map Fault.restart fault in
  let setup = setup_of ?plan cfg in
  let st = make_st ?fault ?probe ?obs ?metrics cfg setup in
  (* Replay: every entry is re-applied and re-validated against the
     restarted fault plan — the same sites fire in the same order, so
     the plan's counters, probability stream and trace end up exactly
     where the crashed run left them.  Validation failures name the
     exact entry and which recorded cursor diverged, so a journal file
     resumed under the wrong --fault specs (or seed) is diagnosable. *)
  let hint =
    Printf.sprintf
      "the journal was recorded under a different fault plan: pass the \
       exact --fault specs (and seed) of the crashed run; the restarted \
       plan (seed %Ld) decides differently here"
      (match st.fault with Some f -> Fault.seed f | None -> 0L)
  in
  let entry_no = ref 0 in
  journal_iter
    (fun e ->
      incr entry_no;
      (match probe with
      | Some p -> p ~replaying:true e.je_at e.je_event
      | None -> ());
      (* Re-fire every decision the entry journals and compare. *)
      let replayed =
        match (e.je_event, e.je_host) with
        | Admitted Inplace, Some h ->
          { e with je_decision = Some (inplace_decision st h) }
        | Admitted Shadow, Some h when e.je_shadow <> None ->
          { e with je_shadow = Some (shadow_decision st h) }
        | Attempt_completed (Inplace | Retry), Some h when e.je_audit <> None ->
          { e with je_audit = Some (audit_verdict st h) }
        | _ -> e
      in
      if st.fault <> None && replayed <> e then begin
        let b = Buffer.create 192 in
        List.iter
          (fun e ->
            let _, w1, cursor = pack_entry ~host_idx:0 e in
            let host = Option.value e.je_host ~default:"-" in
            J.put_line b "e" entry_line (host, e.je_at, w1, cursor))
          [ e; replayed ];
        Hypertp_error.raise_errorf ~site:"Campaign.resume" ~hint
          "journal entry %d disagrees with the fault plan (journal, then \
           plan):\n%s" !entry_no (Buffer.contents b)
      end;
      apply st e;
      ignore (fire_opt st Fault.Controller_crash);
      if st.fault <> None && cursor st <> e.je_cursor then
        Hypertp_error.raise_errorf ~site:"Campaign.resume" ~hint
          "journal entry %d (%s at %s): fault-plan cursor diverged — the \
           journal records %d fire decisions taken by this point, the \
           replayed plan took %d (every earlier decision matched, so the \
           injection list differs)"
          !entry_no
          (match e.je_host with Some h -> "host " ^ h | None -> "campaign")
          (Sim.Time.to_string e.je_at) e.je_cursor (cursor st);
      push_entry st e ~cursor:e.je_cursor)
    journal;
  let ctx = make_ctx ?eng st in
  let n = Sim.Vec.length st.entries in
  let t_last =
    if n = 0 then Sim.Time.zero else Sim.Time.ns (Sim.Vec.get st.entries (n - 3))
  in
  (* The crashed run died mid-settle at [t_last]; continue it first,
     then let the in-flight attempts race again from their recorded
     start times.  On a shared engine whose clock has moved past
     [t_last], the controller was idle since then and the settle is a
     no-op whenever it runs. *)
  settle_at ctx (Sim.Time.max t_last (Sim.Engine.now ctx.eng));
  Array.iteri
    (fun i h ->
      match h with H_running _ -> schedule_attempt ctx i | _ -> ())
    st.hstates;
  (match st.breaker with
  | B_open_until u -> schedule_reopen ctx u
  | B_closed | B_half_open -> ());
  ctx

let resume ?fault ?obs ?metrics journal =
  drive (resume_st ?fault ?obs ?metrics journal)

(* Run to the end, resuming across controller crashes; returns the
   finished controller and the number of resumes.  Every incarnation
   runs on the first one's plan. *)
let complete_st ?plan ?fault ?obs ?metrics cfg =
  let rec go resumes ctx =
    match Sim.Engine.run ctx.eng with
    | () -> (ctx.st, resumes)
    | exception Controller_died ->
      let plan = { p_cfg = ctx.st.cfg; p_setup = ctx.st.setup } in
      go (resumes + 1)
        (resume_st ~plan ?fault ?obs ?metrics (make_journal ctx.st))
  in
  go 0 (start_st ?plan ?fault ?obs ?metrics cfg)

let run_to_completion ?plan ?fault ?obs ?metrics cfg =
  make_report (fst (complete_st ?plan ?fault ?obs ?metrics cfg))

(* --- region controllers on a caller's engine --- *)

type controller = ctx

let start_controller ~eng = start_st ~eng
let resume_controller ~eng = resume_st ~eng

let stop_controller ctx =
  ctx.stopped <- true;
  Array.iteri (fun i _ -> clear_timers ctx i) ctx.timers

let grant ctx ~from_region ~slots =
  append ctx.st ~at:(Sim.Engine.now ctx.eng) (Limit_raised { from_region; slots });
  settle ctx

let controller_journal ctx = make_journal ctx.st
let controller_finished_at ctx = ctx.st.finished_at
let controller_report ctx = make_report ctx.st

let journal_events f j = journal_iter (fun e -> f e.je_at e.je_host e.je_event) j

let sweep ?(config = default_config) ?(seed = 0xC1A5L) ~probabilities () =
  List.map
    (fun p ->
      let fault =
        Fault.make ~seed
          [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability p } ]
      in
      (p, run_to_completion ~fault config))
    probabilities

(* --- journal serialisation --- *)

(* --- pretty printing --- *)

let status_to_string = function
  | Upgraded_inplace -> "inplace"
  | Shadow_cutover -> "shadow-cutover"
  | Drained -> "drained"
  | Deferred_resolved -> "deferred+retried"
  | Deferred_exposed -> "deferred+EXPOSED"

let pp_host_record fmt h =
  Format.fprintf fmt "%s: %s after %d attempt%s at %a (%.3f h exposed)%s"
    h.hr_node (status_to_string h.hr_status) h.hr_attempts
    (if h.hr_attempts = 1 then "" else "s")
    Sim.Time.pp h.hr_done_at h.hr_exposure_hours
    (match h.hr_audit with
    | None -> ""
    | Some v -> ", audit " ^ verdict_to_string v)

let pp_report fmt r =
  let count s =
    List.length (List.filter (fun h -> h.hr_status = s) r.hosts)
  in
  Format.fprintf fmt
    "@[<v>campaign: %d hosts, concurrency %d (requested %d), wall-clock %a \
     (unsupervised %a, rebalance %a)@,\
     statuses: %d inplace / %d shadow / %d drained / %d retried / %d \
     exposed; breaker trips %d@,\
     exposure %.3f host-hours (baseline %.3f, deferred share %.3f)@,\
     VMs: %d total = %d inplace-ok + %d shadow + %d drained + %d on \
     deferred + %d migrated by plan%s@]"
    (List.length r.hosts) r.effective_concurrency r.cfg.concurrency
    Sim.Time.pp r.wall_clock Sim.Time.pp r.base.Upgrade.total Sim.Time.pp
    r.rebalance_time (count Upgraded_inplace) (count Shadow_cutover)
    (count Drained) (count Deferred_resolved) (count Deferred_exposed)
    r.breaker_trips r.exposed_host_hours r.baseline_exposed_host_hours
    r.deferred_exposure_hours r.vms_total r.vms_inplace_ok r.vms_shadow
    r.vms_drained r.vms_on_deferred r.vms_migrated_planned
    (match r.audit_verdicts with
    | [] -> ""
    | vs ->
      let n v = List.length (List.filter (fun (_, x) -> x = v) vs) in
      Format.asprintf "@,audits: %d clean / %d scrubbed / %d failed"
        (n A_clean) (n A_scrubbed) (n A_failed))

(* --- region-sharded fleets --- *)

type summary = {
  s_region : string;
  s_hosts : int;
  s_vms : int;
  s_wall_clock : Sim.Time.t;
  s_exposed_host_hours : float;
  s_baseline_exposed_host_hours : float;
  s_breaker_trips : int;
  s_inplace : int;
  s_shadow : int;
  s_drained : int;
  s_retried : int;
  s_exposed : int;
  s_attempts : int;
  s_events : int;
  s_resumes : int;
}

type fleet_report = {
  f_topology : Topology.t;
  f_mode : Sim.Shard.mode;
  f_shards : int;
  f_domains : int;
  f_summaries : summary array; (* region order *)
  f_journals : journal array;  (* region order *)
  f_wall_clock : Sim.Time.t;
  f_exposed_host_hours : float;
  f_baseline_exposed_host_hours : float;
  f_breaker_trips : int;
  f_resumes : int;
  f_minor_words : float;
}

(* Scalar-only digest of a finished controller: what [run_fleet] keeps
   per region instead of a [report], whose per-host records would put a
   million boxed timelines back on the heap. *)
let make_summary ~region ~resumes st =
  let wall, exposure = wall_and_exposure st in
  let inplace = ref 0 and shadow = ref 0 and drained = ref 0 in
  let retried = ref 0 and exposed = ref 0 in
  Array.iter
    (function
      | H_done (Upgraded_inplace, _) -> incr inplace
      | H_done (Shadow_cutover, _) -> incr shadow
      | H_done (Drained, _) -> incr drained
      | H_done (Deferred_resolved, _) -> incr retried
      | H_done (Deferred_exposed, _) -> incr exposed
      | _ ->
        Hypertp_error.raise_error ~site:"Campaign" "unfinished host in summary")
    st.hstates;
  {
    s_region = region;
    s_hosts = Array.length st.setup.su_tasks;
    s_vms = st.cfg.nodes * st.cfg.vms_per_node;
    s_wall_clock = wall;
    s_exposed_host_hours = exposure;
    s_baseline_exposed_host_hours = float_of_int st.cfg.nodes *. hours wall;
    s_breaker_trips = st.trips;
    s_inplace = !inplace;
    s_shadow = !shadow;
    s_drained = !drained;
    s_retried = !retried;
    s_exposed = !exposed;
    s_attempts = Array.fold_left ( + ) 0 st.attempts;
    s_events = Sim.Vec.length st.entries / 3;
    s_resumes = resumes;
  }

(* Each region is a full campaign whose seed is derived from the fleet
   seed and the region name — the same pure-function-of-(config, key)
   scheme the admission decisions use — so a region's entire journal is
   independent of when, where, or on which domain it ran.  That is the
   whole byte-identity argument: Sequential, Rotated and Parallel only
   reorder calls to pure functions. *)
let region_config cfg (r : Topology.region) =
  {
    cfg with
    nodes = r.Topology.rg_hosts;
    vms_per_node = r.Topology.rg_vms_per_host;
    shadow_spares =
      (if r.Topology.rg_spares > 0 then r.Topology.rg_spares
       else cfg.shadow_spares);
    seed =
      Int64.logxor cfg.seed
        (Int64.of_int (Hashtbl.hash ("fleet-region", r.Topology.rg_name)));
  }

let region_fault fault (r : Topology.region) =
  Option.map
    (fun f ->
      Fault.make
        ~seed:
          (Int64.logxor (Fault.seed f)
             (Int64.of_int (Hashtbl.hash ("fleet-region", r.Topology.rg_name))))
        (Fault.injections f))
    fault

let run_fleet ?fault ?sharding:(mode = Sim.Shard.Sequential) ~topology cfg =
  let topology = Topology.validate_exn topology in
  (match Sim.Shard.validate mode with
  | Ok () -> ()
  | Error msg -> Hypertp_error.raise_error ~site:"Campaign.run_fleet" msg);
  let regions = Topology.regions topology in
  let n = Array.length regions in
  let cfgs = Array.map (region_config cfg) regions in
  (* A shape that several regions share is planned once, here on the
     calling domain and before any worker starts, so workers only ever
     read a plan.  A shape no other region shares is planned inside
     its own task: building it here would only serialise the work and
     hold it for the whole run. *)
  let w0 = Gc.minor_words () in
  let seen = Hashtbl.create 16 and shared = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let k = shape c in
      if not (Hashtbl.mem seen k) then Hashtbl.add seen k ()
      else if not (Hashtbl.mem shared k) then Hashtbl.add shared k (plan c))
    cfgs;
  let plans = Array.map (fun c -> Hashtbl.find_opt shared (shape c)) cfgs in
  let plan_words = Gc.minor_words () -. w0 in
  (* obs/metrics are deliberately not threaded into the shards: a
     shared tracer is not domain-safe, and attaching one would make the
     emitted trace depend on the schedule.  The fleet-level knobs that
     matter (fault plan, config) are re-derived per region. *)
  let outcomes =
    Sim.Shard.map mode n (fun i ->
        let r = regions.(i) in
        let rfault = region_fault fault r in
        (* OCaml 5 GC counters are per-domain and a task runs on one
           domain start to finish, so the delta is this region's own
           allocation even under [Parallel]. *)
        let w0 = Gc.minor_words () in
        let st, resumes = complete_st ?plan:plans.(i) ?fault:rfault cfgs.(i) in
        let words = Gc.minor_words () -. w0 in
        (make_summary ~region:r.Topology.rg_name ~resumes st,
         make_journal st, words))
  in
  let summaries = Array.map (fun (s, _, _) -> s) outcomes in
  let journals = Array.map (fun (_, j, _) -> j) outcomes in
  {
    f_topology = topology;
    f_mode = mode;
    f_shards = Sim.Shard.shards_used mode n;
    f_domains = Sim.Shard.domains_used mode n;
    f_summaries = summaries;
    f_journals = journals;
    f_wall_clock =
      Array.fold_left (fun acc s -> Sim.Time.max acc s.s_wall_clock) Sim.Time.zero
        summaries;
    f_exposed_host_hours =
      Array.fold_left (fun acc s -> acc +. s.s_exposed_host_hours) 0.0
        summaries;
    f_baseline_exposed_host_hours =
      Array.fold_left
        (fun acc s -> acc +. s.s_baseline_exposed_host_hours)
        0.0 summaries;
    f_breaker_trips =
      Array.fold_left (fun acc s -> acc + s.s_breaker_trips) 0 summaries;
    f_resumes = Array.fold_left (fun acc s -> acc + s.s_resumes) 0 summaries;
    f_minor_words =
      Array.fold_left (fun acc (_, _, w) -> acc +. w) plan_words outcomes;
  }

(* Order-insensitive inputs only: the digest covers topology, config,
   every region's summary scalars and packed journal words — and
   nothing schedule-dependent (mode, domains, timings, allocation), so
   Sequential, Rotated and Parallel runs of the same fleet must agree
   on it.  The bench self-check and CI pin exactly that. *)
let fleet_digest fr =
  let h = ref 0x1505 in
  let mix v = h := (((!h lsl 5) + !h) lxor v) land max_int in
  mix (Hashtbl.hash (Topology.spec fr.f_topology));
  Array.iter2
    (fun s j ->
      mix (Hashtbl.hash s.s_region);
      mix (Sim.Time.to_ns s.s_wall_clock);
      mix (Hashtbl.hash (Int64.bits_of_float s.s_exposed_host_hours));
      mix s.s_breaker_trips;
      mix s.s_inplace;
      mix s.s_shadow;
      mix s.s_drained;
      mix s.s_retried;
      mix s.s_exposed;
      mix s.s_attempts;
      mix s.s_events;
      mix s.s_resumes;
      (* The canonical journal line, not the record: [Hashtbl.hash]
         stops after ten meaningful values and the config has more
         fields, while a string is hashed in full. *)
      mix (Hashtbl.hash (config_to_line j.j_config));
      Array.iter (fun nm -> mix (Hashtbl.hash nm)) j.j_names;
      Sim.Vec.iter mix j.j_words)
    fr.f_summaries fr.f_journals;
  !h

let fleet_magic = "hypertp-fleet-journal v1"

(* [topology SPEC] and [region NAME]: a tag and the rest of the line. *)
let named { J.word; _ } s = word J.rest s

let fleet_journals_to_string fr =
  let bytes = Array.fold_left (fun n j -> n + journal_bytes j) 256 fr.f_journals in
  let b = Buffer.create bytes in
  J.line b fleet_magic;
  J.put_line b "topology" named (Topology.spec fr.f_topology);
  Array.iter2
    (fun (rg : Topology.region) j ->
      J.put_line b "region" named rg.rg_name;
      write_journal b j)
    (Topology.regions fr.f_topology) fr.f_journals;
  Buffer.contents b

let fleet_journals_of_string s =
  J.parse s (fun r ->
      J.magic r fleet_magic;
      let at = J.mark r in
      let spec = Topology.of_spec (J.get_line r "topology" named "") in
      let topology = Result.fold ~ok:Fun.id ~error:(J.fail ~at r "%s") spec in
      let regions = Topology.regions topology in
      let sections = J.sections r "region" named "" ~body:read_journal in
      List.iteri
        (fun i (at, name, _) ->
          if i >= Array.length regions || name <> regions.(i).Topology.rg_name then
            J.fail ~at r "region %S is not region %d of the topology" name i)
        sections;
      let n = List.length sections in
      if n < Array.length regions then
        J.fail r "%d region journals, topology has %d" n (Array.length regions);
      (topology, Array.of_list (List.map (fun (_, _, j) -> j) sections)))

let pp_summary fmt s =
  Format.fprintf fmt
    "%s: %d hosts / %d VMs, wall-clock %a, exposure %.3f host-hours \
     (baseline %.3f); %d inplace / %d shadow / %d drained / %d retried / \
     %d exposed; %d attempts, %d events, %d trips, %d resumes"
    s.s_region s.s_hosts s.s_vms Sim.Time.pp s.s_wall_clock
    s.s_exposed_host_hours s.s_baseline_exposed_host_hours s.s_inplace
    s.s_shadow s.s_drained s.s_retried s.s_exposed s.s_attempts s.s_events
    s.s_breaker_trips s.s_resumes

(* Deliberately schedule-free (no mode, no domain count, no timings):
   CI diffs this output byte-for-byte between sequential and sharded
   runs of the same fleet. *)
let pp_fleet fmt fr =
  Format.fprintf fmt
    "@[<v>fleet: %d regions, %d hosts, %d VMs (topology %s)@,\
     wall-clock %a, exposure %.3f host-hours (baseline %.3f), breaker \
     trips %d, resumes %d@,digest %x@,%a@]"
    (Topology.n_regions fr.f_topology)
    (Topology.hosts fr.f_topology)
    (Topology.vms fr.f_topology)
    (Topology.spec fr.f_topology)
    Sim.Time.pp fr.f_wall_clock fr.f_exposed_host_hours
    fr.f_baseline_exposed_host_hours fr.f_breaker_trips fr.f_resumes
    (fleet_digest fr)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_summary)
    (Array.to_list fr.f_summaries)
