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

(* The first draw of the stream seeded by the config seed and a per-host
   [key], [Hashtbl.hash (salt, node)]: no generator is built.  This and
   [host_jitter] are inlined because a float returned from a call is
   boxed. *)
let[@inline] draw cfg key bound =
  Sim.Rng.first_float (Int64.logxor cfg.seed (Int64.of_int key)) bound

let coin cfg salt node p = draw cfg (Hashtbl.hash (salt, node)) 1.0 < p

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
  t_jitter_key : int;      (* Hashtbl.hash ("jitter", node), see [draw] *)
}

(* [Sim.Rng.jitter] of the host's jitter stream. *)
let[@inline] host_jitter cfg t =
  1.0 -. cfg.jitter_pct +. draw cfg t.t_jitter_key (2.0 *. cfg.jitter_pct)

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
            t_jitter_key = Hashtbl.hash ("jitter", node);
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

let verdict_to_string = function
  | A_clean -> "clean"
  | A_scrubbed -> "scrubbed"
  | A_failed -> "failed"

let verdict_of_string = function
  | "clean" -> Some A_clean
  | "scrubbed" -> Some A_scrubbed
  | "failed" -> Some A_failed
  | _ -> None

(* Journal entries are stored packed, three unboxed ints per entry, in
   one [int Sim.Vec]; hosts are interned in a side table.  The live
   controller and resume's replay apply entries in this packed form, so
   an append allocates nothing; an entry's event and host name are
   decoded only at the text, trace and report boundaries.

   Word 0 — the event time in ns.
   Word 1 — a bitfield:
     bits  0-3   event kind (0 adm, 1 flapleg, 2 strag, 3 fail, 4 done,
                 5 defer, 6 bopen, 7 bhalf, 8 bclosed, 9 fin, 10 raise)
     bits  4-5   ladder step (inplace 0, shadow 1, drain 2, retry 3)
     bits  6-7   manifestation (crash 0, timeout 1, flap 2)
     bit   8     in-place fault decision present (every in-place
                 admission has one)
     bits  9-11  flap / crash / timeout decided
     bits 12-13  audit (0 none, 1 clean, 2 scrubbed, 3 failed)
     bit  14     shadow decision present
     bits 15-19  spare / stage / drop / diverge / partition decided
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

(* Kind codes (bits 0-3), step codes (bits 4-5) and manifestation codes
   (bits 6-7) of word 1. *)
let k_adm = 0
let k_flapleg = 1
let k_strag = 2
let k_fail = 3
let k_done = 4
let k_defer = 5
let k_bopen = 6
let k_bhalf = 7
let k_bclosed = 8
let k_fin = 9
let kind_raise = 10
let s_inplace = 0
let s_shadow = 1
let s_drain = 2
let s_retry = 3
let m_crash = 0
let m_timeout = 1
let m_flap = 2

(* The flag groups of word 1: a present bit, then one bit per flag. *)
let decision_bit = 8
let audit_shift = 12
let shadow_bit = 14
let host_shift = 20
let decision_mask = 0xf lsl decision_bit
let audit_mask = 3 lsl audit_shift
let shadow_mask = 0x3f lsl shadow_bit
let raise_field_max = (1 lsl 21) - 1

let host_field w1 = if w1 land 0xf = kind_raise then 0 else w1 lsr host_shift
let step_field w1 = (w1 lsr 4) land 3

(* Word 1 of an event of host [i] (a task index). *)
let host_word kind i bits = kind lor bits lor ((i + 1) lsl host_shift)

let raise_word ~from_region ~slots =
  (* both in [0, raise_field_max] iff their union is *)
  let u = from_region lor slots in
  if u < 0 || u > raise_field_max then
    Hypertp_error.raise_errorf ~site:"Campaign"
      "limit grant out of range (from region %d, %d slots)" from_region slots;
  kind_raise lor (from_region lsl host_shift) lor (slots lsl 41)

(* The event of a packed word 1 (its host field is ignored). *)
let event_of_word w1 =
  let step = step_of_int (step_field w1) in
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
      { from_region = (w1 lsr host_shift) land raise_field_max;
        slots = (w1 lsr 41) land raise_field_max }

let audit_of_word w1 =
  match (w1 lsr audit_shift) land 3 with
  | 0 -> None
  | 1 -> Some A_clean
  | 2 -> Some A_scrubbed
  | _ -> Some A_failed

let audit_bits v =
  (match v with A_clean -> 1 | A_scrubbed -> 2 | A_failed -> 3) lsl audit_shift

let journal_host j w1 =
  match host_field w1 with 0 -> None | i -> Some j.j_names.(i - 1)

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
  let step = part (kind = k_adm || kind = k_fail || kind = k_done) "step" steps 4 3 in
  let man = part (kind = k_fail) "man" mans 6 3 in
  let from = part (kind = kind_raise) "from" raise_part host_shift raise_field_max in
  let slots = part (kind = kind_raise) "slots" raise_part 41 raise_field_max in
  let decision = flags decision_bit [| "flap"; "crash"; "timeout" |] in
  let verdict =
    match (w1 lsr audit_shift) land 3 with 0 -> None | a -> Some (a - 1)
  in
  let audit =
    match optional "audit" verdicts verdict with
    | Some a -> (a + 1) lsl audit_shift
    | None -> 0
  in
  let shadow =
    flags shadow_bit [| "sspare"; "sstage"; "sdrop"; "sdiverge"; "spart" |]
  in
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
    Sim.Vec.push words (if hosted then w1 lor ((intern host + 1) lsl host_shift) else w1);
    Sim.Vec.push words cursor
  done;
  { j_config; j_words = words; j_names = Sim.Vec.to_array names }

let journal_of_string s = J.parse s read_journal

(* --- controller state (shared between live execution and replay) --- *)

(* Where a host stands on the ladder.  Constant constructors only, so a
   transition stores an immediate and allocates nothing; what a running
   attempt or a finished host carries lives in [st]'s other per-host
   arrays. *)
type phase =
  | Pending
  | Running (* [adm], [stamp] (the start) and [flapped] hold the attempt *)
  | Needs_drain
  | Needs_defer
  | Awaiting_retry
  | Done (* [status] and [stamp] (the finish) hold the outcome *)

type breaker = B_closed | B_open_until of Sim.Time.t | B_half_open

type probe = replaying:bool -> Sim.Time.t -> event -> unit

(* A float field of a record that also has other fields is boxed, so
   each update would allocate; an all-float record stores it flat. *)
type exposure = { mutable acc_hours : float }

type st = {
  cfg : config;
  setup : setup;
  phase : phase array;
  adm : int array; (* word 1 of the running attempt's admission entry *)
  stamp : Sim.Time.t array; (* attempt start while running, then finish *)
  flapped : bool array; (* the running attempt's first flap leg is past *)
  status : host_status array; (* meaningful once [Done] *)
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
     lowest-index-first and a host never returns to [Pending], so every
     pending host sits at an index >= the cursor); [needs_drain] /
     [needs_defer] are work-lists pushed by [resolve_failure];
     [retry_cursor] only advances during the retry phase, when no new
     [Awaiting_retry] host can appear behind it; [n_done] counts
     terminal hosts; [exposure] accumulates exposure hours as hosts
     finish (Deferred_exposed hosts are counted separately — they stay
     exposed until the campaign's wall clock). *)
  mutable next_pending : int;
  mutable needs_drain : int list;
  mutable needs_defer : int list;
  mutable retry_cursor : int;
  mutable n_done : int;
  exposure : exposure;
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
  (* The audit and shadow sites are only consulted when the plan arms
     them: consulting them unconditionally would shift the fault cursor
     of every journal recorded before they existed (or under plans
     without them). *)
  audit_on : bool;
  shadow_on : bool;
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
  let armed sites =
    match fault with
    | None -> false
    | Some f ->
      List.exists
        (fun (inj : Fault.injection) -> List.mem inj.Fault.site sites)
        (Fault.injections f)
  in
  {
    cfg;
    setup;
    phase = Array.make n Pending;
    adm = Array.make n 0;
    stamp = Array.make n Sim.Time.zero;
    flapped = Array.make n false;
    status = Array.make n Upgraded_inplace;
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
    (* Every host journals an admission and an outcome, six words, and
       the campaign one finish entry; failing campaigns grow the vector. *)
    entries = Sim.Vec.create ~capacity:((6 * n) + 3) 0;
    next_pending = 0;
    needs_drain = [];
    needs_defer = [];
    retry_cursor = 0;
    n_done = 0;
    exposure = { acc_hours = 0.0 };
    n_deferred_exposed = 0;
    audits = Array.make n None;
    spares_free = cfg.shadow_spares;
    shadow_tried = Array.make n false;
    fault;
    audit_on = armed [ Fault.Residual_leak; Fault.Scrub_fail ];
    shadow_on = armed Fault.shadow_sites;
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

let finish st i status at =
  st.phase.(i) <- Done;
  st.status.(i) <- status;
  st.stamp.(i) <- at;
  st.n_done <- st.n_done + 1

let resolve_failure st i man at =
  st.running <- st.running - 1;
  st.manifests.(i) <- man_of_int man :: st.manifests.(i);
  match st.phase.(i) with
  | Running -> (
    match step_of_int (step_field st.adm.(i)) with
    | Inplace ->
      st.phase.(i) <- Needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      push_window st false
    | Shadow ->
      (* Degradation ladder: the staged spare is torn down (the lane
         returns) and the host falls through to the classic drain. *)
      st.spares_free <- st.spares_free + 1;
      st.phase.(i) <- Needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      push_window st false
    | Drain ->
      st.phase.(i) <- Needs_defer;
      st.needs_defer <- i :: st.needs_defer;
      push_window st false
    | Retry ->
      finish st i Deferred_exposed at;
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

(* Span and metric bookkeeping for one applied entry; [apply_state] has
   already checked that the entry names a host iff its event needs one. *)
let observe_spans st ~at w1 =
  let obs = st.obs and metrics = st.metrics in
  let i = host_field w1 - 1 in
  let close attrs =
    (match st.ospans.(i) with
    | Some s -> List.iter (fun (k, v) -> Obs.Span.set_attr s k v) attrs
    | None -> ());
    Hypertp.Otrace.finish obs st.ospans.(i) ~at;
    st.ospans.(i) <- None
  in
  let count name labels =
    Hypertp.Otrace.count metrics ~labels:(("engine", "campaign") :: labels) name
  in
  let breaker name =
    Hypertp.Otrace.instant obs ~at ?parent:st.root_span ~track:"controller" name
  in
  (match event_of_word w1 with
  | Admitted step ->
    let h = st.setup.su_names.(i) in
    st.ospans.(i) <-
      Hypertp.Otrace.start obs ~at ?parent:st.root_span
        ~track:("host:" ^ h)
        ~attrs:
          [ ("host", h); ("step", step_to_string step);
            ("attempt", string_of_int st.attempts.(i)) ]
        ("attempt:" ^ step_to_string step);
    count "hypertp_campaign_attempts_total" [ ("step", step_to_string step) ]
  | Flap_failure -> Hypertp.Otrace.event st.ospans.(i) ~at "flap_leg"
  | Straggler_cancelled ->
    close [ ("result", "straggler_cancelled") ];
    count "hypertp_campaign_failures_total" [ ("manifestation", "timeout") ]
  | Attempt_failed { step; manifestation } ->
    let m = man_to_string manifestation in
    close
      [ ("result", "failed"); ("step", step_to_string step); ("manifestation", m) ];
    count "hypertp_campaign_failures_total" [ ("manifestation", m) ]
  | Attempt_completed step ->
    let audit =
      match audit_of_word w1 with
      | Some v -> [ ("audit", verdict_to_string v) ]
      | None -> []
    in
    close (("result", "completed") :: audit);
    count "hypertp_campaign_completions_total" [ ("step", step_to_string step) ];
    List.iter
      (fun (_, v) -> count "hypertp_campaign_audits_total" [ ("verdict", v) ])
      audit
  | Deferred ->
    let h = st.setup.su_names.(i) in
    Hypertp.Otrace.instant obs ~at ~track:("host:" ^ h)
      ~attrs:[ ("host", h) ] "deferred"
  | Breaker_opened ->
    breaker "breaker:opened";
    count "hypertp_breaker_trips_total" []
  | Breaker_half_opened -> breaker "breaker:half_open"
  | Breaker_closed -> breaker "breaker:closed"
  | Campaign_finished ->
    Hypertp.Otrace.finish obs st.root_span ~at;
    st.root_span <- None
  | Limit_raised _ -> ());
  Hypertp.Otrace.gauge_set metrics
    ~labels:[ ("engine", "campaign") ]
    "hypertp_campaign_running"
    (float_of_int st.running)

(* Narration + span/metric bookkeeping for one applied entry.  Runs at
   the end of [apply], so a live run and [resume]'s replay emit the
   same log lines, the same span tree and the same counters. *)
let observe st ~at w1 =
  if st.o_log then
    Hypertp.Log.info (fun m ->
        m "campaign%s: %a at %a"
          (match host_field w1 with
          | 0 -> ""
          | i -> " " ^ st.setup.su_names.(i - 1))
          pp_event (event_of_word w1) Sim.Time.pp at);
  (* The span/metric bookkeeping allocates its label lists before the
     (no-op) Otrace calls see the [None]s, so skip it when nothing is
     attached — the common case for large fleets. *)
  match (st.obs, st.metrics) with
  | None, None -> ()
  | _ -> observe_spans st ~at w1

(* Apply one packed journal entry (word 1, at [at]) to the state.  Both
   the live controller and [resume]'s replay funnel every mutation
   through here, which is what makes a resumed campaign land in exactly
   the state the crashed one had.  Host timelines are not tracked live
   — [make_report] rebuilds them from the packed journal. *)
let apply_state st ~at w1 =
  let bad msg = Hypertp_error.raise_error ~site:"Campaign" msg in
  let kind = w1 land 0xf in
  let i = host_field w1 - 1 in
  (* adm .. defer name a host, the campaign-wide events must not *)
  if (kind <= k_defer && i < 0) || (kind > k_defer && i >= 0) then
    bad "malformed journal entry";
  match kind with
  | 0 (* adm *) ->
    let step = step_field w1 in
    (match (step_of_int step, st.phase.(i)) with
    | Inplace, Pending | (Shadow | Drain), Needs_drain | Retry, Awaiting_retry -> ()
    | _ -> bad "admission out of ladder order");
    if step = s_inplace && w1 land (1 lsl decision_bit) = 0 then
      bad "in-place admission without a fault decision";
    if step = s_shadow then begin
      if st.shadow_tried.(i) then bad "second shadow admission for the same host";
      if st.spares_free <= 0 then bad "shadow admission without a free spare lane";
      st.shadow_tried.(i) <- true;
      st.spares_free <- st.spares_free - 1
    end;
    st.phase.(i) <- Running;
    st.adm.(i) <- w1;
    st.stamp.(i) <- at;
    st.flapped.(i) <- false;
    st.running <- st.running + 1;
    st.attempts.(i) <- st.attempts.(i) + 1
  | 1 (* flapleg *) -> (
    match st.phase.(i) with
    | Running -> st.flapped.(i) <- true
    | _ -> bad "flap leg for a host not running")
  | 2 (* strag *) -> resolve_failure st i m_timeout at
  | 3 (* fail *) -> resolve_failure st i ((w1 lsr 6) land 3) at
  | 4 (* done *) ->
    let step = step_field w1 in
    st.running <- st.running - 1;
    (match audit_of_word w1 with Some _ as v -> st.audits.(i) <- v | None -> ());
    finish st i
      (match step_of_int step with
      | Inplace -> Upgraded_inplace
      | Shadow ->
        (* The freed source becomes the next staged spare (pipeline
           lane), so the lane returns on success too. *)
        st.spares_free <- st.spares_free + 1;
        Shadow_cutover
      | Drain -> Drained
      | Retry -> Deferred_resolved)
      at;
    st.exposure.acc_hours <- st.exposure.acc_hours +. hours at;
    if step <> s_retry then push_window st true
  | 5 (* defer *) -> (
    match st.phase.(i) with
    | Needs_defer -> st.phase.(i) <- Awaiting_retry
    | _ -> bad "defer out of ladder order")
  | 6 (* bopen *) ->
    st.trips <- st.trips + 1;
    st.breaker <- B_open_until (Sim.Time.add at st.cfg.breaker_cooldown);
    st.window_bits <- 0;
    st.window_len <- 0;
    st.half_failed <- false
  | 7 (* bhalf *) ->
    st.breaker <- B_half_open;
    st.half_successes <- 0;
    st.half_failed <- false;
    recompute_limit st
  | 8 (* bclosed *) ->
    st.breaker <- B_closed;
    recompute_limit st
  | 9 (* fin *) -> st.finished_at <- Some at
  | _ (* raise *) ->
    st.granted <- st.granted + ((w1 lsr 41) land raise_field_max);
    recompute_limit st

let apply st ~at w1 =
  apply_state st ~at w1;
  observe st ~at w1

(* --- live execution --- *)

exception Controller_died

let cursor st =
  match st.fault with None -> 0 | Some f -> Fault.trace_length f

let controller_crash st =
  match st.fault with None -> false | Some f -> Fault.fire f Fault.Controller_crash

let flag b bit = Bool.to_int b lsl bit

(* The fault-plan consults behind each journaled decision, in their
   fixed order, as word-1 bits: live execution journals the outcome,
   replay re-fires and compares.  Always all sites of a group, so
   probability streams stay aligned across plans (the {!sweep} nesting
   property).  Without a plan nothing is consulted and nothing fires. *)
let inplace_bits st node =
  let present = 1 lsl decision_bit in
  match st.fault with
  | None -> present
  | Some f ->
    let flap = Fault.fire f ~vm:node Fault.Host_flap in
    let crash = Fault.fire f ~vm:node Fault.Host_crash in
    let timeout = Fault.fire f ~vm:node Fault.Host_timeout in
    present lor flag flap 9 lor flag crash 10 lor flag timeout 11

let shadow_bits st node =
  let present = 1 lsl shadow_bit in
  match st.fault with
  | None -> present
  | Some f ->
    let spare = Fault.fire f ~vm:node Fault.Spare_exhausted in
    let stage = Fault.fire f ~vm:node Fault.Shadow_stage_fail in
    let drop = Fault.fire f ~vm:node Fault.Shadow_stream_drop in
    let diverge = Fault.fire f ~vm:node Fault.Shadow_diverge in
    let partition = Fault.fire f ~vm:node Fault.Swap_partition in
    present lor flag spare 15 lor flag stage 16 lor flag drop 17
    lor flag diverge 18 lor flag partition 19

let audit_word st node =
  match st.fault with
  | None -> audit_bits A_clean
  | Some f ->
    let leak = Fault.fire f ~vm:node Fault.Residual_leak in
    let scrub_failed = Fault.fire f ~vm:node Fault.Scrub_fail in
    audit_bits
      (if not leak then A_clean else if scrub_failed then A_failed else A_scrubbed)

(* Journal-then-crash: the entry is applied and persisted first, and
   only then may the controller die — by its own [Controller_crash] or
   by whatever the caller's probe raises — so a resumed run never loses
   the event that was being recorded. *)
let append st ~at w1 =
  apply st ~at w1;
  let crashed = controller_crash st in
  let cursor = cursor st in
  Sim.Vec.push st.entries (Sim.Time.to_ns at);
  Sim.Vec.push st.entries w1;
  Sim.Vec.push st.entries cursor;
  (match st.obs with
  | None -> ()
  | Some _ ->
    Hypertp.Otrace.instant st.obs ~at ~track:"journal"
      ~attrs:[ ("cursor", string_of_int cursor) ]
      "journal:checkpoint");
  if crashed then raise Controller_died;
  match st.probe with
  | Some p -> p ~replaying:false at (event_of_word w1)
  | None -> ()

(* The controller's engine events are typed: one handler per controller,
   one int payload per event, nothing allocated.  A payload packs
     bits 0-2   the kind ([ev_settle] .. [ev_complete])
     bits 3-5   for a host event, the host's attempt count when armed
                (its epoch; a host makes at most four attempts)
     bits 6-..  for a host event, the host's task index.
   A host event is live only while its host is still on the attempt it
   was armed for, and every event of a stopped controller is a no-op,
   so an event is never cancelled: it goes stale. *)
let ev_settle = 0
let ev_reopen = 1
let ev_deadline = 2
let ev_flap_leg = 3
let ev_crash = 4
let ev_flap = 5
let ev_complete = 6
let epoch_mask = 7

type ctx = {
  st : st;
  eng : Sim.Engine.t;
  ev : Sim.Engine.handler;
  dispatch : (int -> unit) ref;
      (* where [ev] delivers: [on_event] of this context until [stop]
         points it at [ignore], which makes every pending event a no-op
         and lets a dead incarnation be collected *)
}

let now ctx = Sim.Engine.now ctx.eng

let arm ctx i at kind =
  let epoch = ctx.st.attempts.(i) land epoch_mask in
  Sim.Engine.schedule_event ctx.eng at ctx.ev (kind lor (epoch lsl 3) lor (i lsl 6))

let decided w bit = w land (1 lsl bit) <> 0
let is_pending st i = match st.phase.(i) with Pending -> true | _ -> false

(* Move the admission cursor past hosts that left [Pending]. *)
let skip_admitted st =
  let n = Array.length st.phase in
  while st.next_pending < n && not (is_pending st st.next_pending) do
    st.next_pending <- st.next_pending + 1
  done

let rec settle ctx =
  let st = ctx.st in
  let at = now ctx in
  (* 1. Ladder escalations: a failed in-place attempt drains next.
     Escalation keeps the host's admission slot and ignores the breaker
     — remediation of an in-flight host must not be paused.  The
     work-list is drained sorted so the event order matches the array
     scan this replaces; the state guard skips entries already handled
     (e.g. re-pushed by a replay). *)
  (match st.needs_drain with
  | [] -> ()
  | needs ->
    st.needs_drain <- [];
    List.iter
      (fun i ->
        match st.phase.(i) with
        | Needs_drain ->
          (* Shadow rung of the ladder: with a staged spare lane free
             and no earlier shadow failure on this host, evacuate by
             cutover before falling back to the disruptive drain. *)
          if
            st.cfg.shadow_spares > 0 && st.spares_free > 0
            && not st.shadow_tried.(i)
          then admit ctx i s_shadow
          else admit ctx i s_drain
        | _ -> ())
      (List.sort compare needs));
  (* 2. Ladder exhausted: park the host, retried at campaign end. *)
  (match st.needs_defer with
  | [] -> ()
  | needs ->
    st.needs_defer <- [];
    List.iter
      (fun i ->
        match st.phase.(i) with
        | Needs_defer -> append st ~at (host_word k_defer i 0)
        | _ -> ())
      (List.sort compare needs));
  (* 3. Breaker transitions. *)
  (match st.breaker with
  | B_closed | B_half_open ->
    let fails = window_fails st in
    let rate = float_of_int fails /. float_of_int st.cfg.breaker_window in
    if
      (st.breaker = B_half_open && st.half_failed)
      || (fails > 0 && rate >= st.cfg.breaker_threshold)
    then begin
      append st ~at k_bopen;
      match st.breaker with
      | B_open_until u -> Sim.Engine.schedule_event ctx.eng u ctx.ev ev_reopen
      | B_closed | B_half_open -> ()
    end
    else if st.breaker = B_half_open
            && st.half_successes >= st.cfg.breaker_window
    then append st ~at k_bclosed
  | B_open_until _ -> ());
  (* 4. Admission: fill free slots with pending hosts, lowest index
     first, unless the breaker is open.  [next_pending] lazily skips
     past hosts that left [Pending]; it never needs to back up, so
     admission over the whole campaign costs O(hosts). *)
  let n = Array.length st.phase in
  (match st.breaker with
  | B_open_until _ -> ()
  | B_closed | B_half_open ->
    skip_admitted st;
    while st.next_pending < n && st.running < st.limit do
      admit ctx st.next_pending s_inplace;
      skip_admitted st
    done);
  (* 5. End of the main phase: retry deferred hosts one at a time, then
     declare the campaign finished.  [retry_cursor] is monotone: it
     only moves while the retry phase is active, when every host behind
     it is terminal. *)
  skip_admitted st;
  if st.running = 0 && st.next_pending >= n then begin
    (* Phases 1-2 emptied the failed states, so every host here is
       either Awaiting_retry or terminal — the cursor never skips a
       host that could become awaiting later. *)
    while
      st.retry_cursor < n
      && match st.phase.(st.retry_cursor) with Awaiting_retry -> false | _ -> true
    do
      st.retry_cursor <- st.retry_cursor + 1
    done;
    if st.retry_cursor < n then admit ctx st.retry_cursor s_retry
    else if st.finished_at = None && st.n_done = n then
      append st ~at k_fin
  end

and reopen ctx =
  let st = ctx.st in
  (match st.breaker with
  | B_open_until _ -> append st ~at:(now ctx) k_bhalf
  | B_closed | B_half_open -> ());
  settle ctx

and admit ctx i step =
  let st = ctx.st in
  let node = st.setup.su_names.(i) in
  let bits =
    if step = s_inplace then inplace_bits st node
    else if step = s_shadow && st.shadow_on then shadow_bits st node
    else 0
  in
  append st ~at:(now ctx) (host_word k_adm i ((step lsl 4) lor bits));
  schedule_attempt ctx i

(* Arm the engine events for a host currently [Running].  All times are
   absolute (relative to the attempt's recorded start), so the same
   function reconstructs in-flight attempts on resume. *)
and schedule_attempt ctx i =
  let st = ctx.st in
  let t = st.setup.su_tasks.(i) in
  (match st.phase.(i) with
  | Running -> ()
  | _ ->
    Hypertp_error.raise_error ~site:"Campaign"
      "scheduling for a host not running");
  let w = st.adm.(i) and start = st.stamp.(i) in
  match step_of_int (step_field w) with
  | Inplace ->
    (* The supervisor's deadline races the attempt; whichever loses
       goes stale. *)
    arm ctx i (Sim.Time.add start t.t_deadline) ev_deadline;
    if decided w 11 (* timeout *) then
      (* Hung host: nothing else ever fires; the deadline wins. *)
      ()
    else if decided w 9 (* flap *) then begin
      if not st.flapped.(i) then
        arm ctx i
          (Sim.Time.add start (Sim.Time.scale flap_leg1_frac t.t_expected))
          ev_flap_leg
      else
        arm ctx i
          (Sim.Time.add start (Sim.Time.scale flap_final_frac t.t_expected))
          ev_flap
    end
    else if decided w 10 (* crash *) then
      arm ctx i (Sim.Time.add start (Sim.Time.scale crash_frac t.t_expected)) ev_crash
    else
      arm ctx i
        (Sim.Time.add start
           (Sim.Time.scale (host_jitter st.cfg t) t.t_expected))
        ev_complete
  | Shadow ->
    (* The pre-swap abort points are all analytic: a fired shadow site
       surfaces as one failed attempt (the engine's abort +
       source-intact verification), costed like a drain that died
       mid-stream.  Which site fired was journaled at admission. *)
    if w land (0x1f lsl (shadow_bit + 1)) <> 0 then
      arm ctx i (Sim.Time.add start (Sim.Time.scale shadow_fail_frac t.t_shadow)) ev_crash
    else
      arm ctx i
        (Sim.Time.add start (Sim.Time.scale (host_jitter st.cfg t) t.t_shadow))
        ev_complete
  | Drain ->
    if coin st.cfg "drain" t.t_node st.cfg.drain_flakiness then
      arm ctx i (Sim.Time.add start (Sim.Time.scale drain_fail_frac t.t_drain)) ev_crash
    else arm ctx i (Sim.Time.add start t.t_drain) ev_complete
  | Retry ->
    if coin st.cfg "retry" t.t_node st.cfg.retry_flakiness then
      arm ctx i (Sim.Time.add start (Sim.Time.scale retry_fail_frac t.t_up)) ev_crash
    else
      arm ctx i
        (Sim.Time.add start (Sim.Time.scale (host_jitter st.cfg t) t.t_up))
        ev_complete

(* The controller's engine handler. *)
and on_event ctx p =
  let kind = p land 7 in
  if kind = ev_settle then settle ctx
  else if kind = ev_reopen then reopen ctx
  else begin
    let st = ctx.st and i = p lsr 6 in
    match st.phase.(i) with
    | Running when st.attempts.(i) land epoch_mask = (p lsr 3) land epoch_mask ->
      if kind = ev_deadline then on_deadline ctx i
      else if kind = ev_flap_leg then on_flap_leg ctx i
      else if kind = ev_complete then on_complete ctx i
      else on_fail ctx i (if kind = ev_crash then m_crash else m_flap)
    | _ -> ()
  end

and on_deadline ctx i =
  append ctx.st ~at:(now ctx) (host_word k_strag i 0);
  settle ctx

and on_fail ctx i man =
  let st = ctx.st in
  let step = step_field st.adm.(i) in
  append st ~at:(now ctx) (host_word k_fail i ((step lsl 4) lor (man lsl 6)));
  settle ctx

and on_complete ctx i =
  let st = ctx.st in
  let step = step_field st.adm.(i) in
  (* Post-commit audit verdict for steps that end on the new hypervisor
     via InPlaceTP, consulted only when the plan arms the audit sites. *)
  let audit =
    if (step = s_inplace || step = s_retry) && st.audit_on then
      audit_word st st.setup.su_names.(i)
    else 0
  in
  append st ~at:(now ctx) (host_word k_done i ((step lsl 4) lor audit));
  settle ctx

and on_flap_leg ctx i =
  (* First leg: the host fails, then recovers.  Not an attempt outcome —
     it must not count toward the breaker — so only the leg itself is
     journaled and the final failure is re-armed. *)
  append ctx.st ~at:(now ctx) (host_word k_flapleg i 0);
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
    ( wall,
      st.exposure.acc_hours
      +. (float_of_int st.n_deferred_exposed *. hours wall) )
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
             match (st.phase.(i), st.status.(i)) with
             | Done, Deferred_exposed -> (Deferred_exposed, wall)
             | Done, s -> (s, st.stamp.(i))
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

(* [?eng] is a caller's engine, shared with other controllers. *)
let make_ctx ?eng st =
  let eng = match eng with Some eng -> eng | None -> Sim.Engine.create () in
  (* The handler is registered before the context it runs on exists,
     so it reaches the context through [dispatch]. *)
  let dispatch = ref ignore in
  let ev = Sim.Engine.handler eng (fun p -> !dispatch p) in
  let ctx = { st; eng; ev; dispatch } in
  dispatch := on_event ctx;
  ctx

let settle_at ctx at = Sim.Engine.schedule_event ctx.eng at ctx.ev ev_settle

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
  settle_at ctx (now ctx);
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
  (* The journal numbers its hosts in first-appearance order; re-key
     each to its task index, one name lookup per host. *)
  let task = Array.make (Array.length journal.j_names) (-1) in
  let task_of j =
    if task.(j) < 0 then
      task.(j) <-
        (match Hashtbl.find_opt setup.su_index journal.j_names.(j) with
        | Some i -> i
        | None ->
          Hypertp_error.raise_errorf ~site:"Campaign"
            ~hint:"the journal must come from a campaign with the same config"
            "unknown host in journal: %s" journal.j_names.(j));
    task.(j)
  in
  let words = journal.j_words in
  for k = 0 to journal_length journal - 1 do
    let entry_no = k + 1 in
    let at = Sim.Time.ns (Sim.Vec.get words (3 * k)) in
    let w1 = Sim.Vec.get words ((3 * k) + 1) in
    let recorded = Sim.Vec.get words ((3 * k) + 2) in
    (match probe with
    | Some p -> p ~replaying:true at (event_of_word w1)
    | None -> ());
    let w1 =
      match host_field w1 with
      | 0 -> w1
      | j ->
        (* kind and flags kept, host field replaced *)
        host_word 0 (task_of (j - 1)) (w1 land ((1 lsl host_shift) - 1))
    in
    let i = host_field w1 - 1 in
    let host = if i < 0 then "-" else setup.su_names.(i) in
    (* Re-fire every decision the entry journals and compare. *)
    let step = step_field w1 in
    let replayed =
      match w1 land 0xf with
      | 0 when i >= 0 && step = s_inplace ->
        (w1 land lnot decision_mask) lor inplace_bits st host
      | 0 when i >= 0 && step = s_shadow && w1 land (1 lsl shadow_bit) <> 0 ->
        (w1 land lnot shadow_mask) lor shadow_bits st host
      | 4
        when i >= 0 && (step = s_inplace || step = s_retry)
             && w1 land audit_mask <> 0 ->
        (w1 land lnot audit_mask) lor audit_word st host
      | _ -> w1
    in
    if st.fault <> None && replayed <> w1 then begin
      let b = Buffer.create 192 in
      List.iter
        (fun w -> J.put_line b "e" entry_line (host, at, w, recorded))
        [ w1; replayed ];
      Hypertp_error.raise_errorf ~site:"Campaign.resume" ~hint
        "journal entry %d disagrees with the fault plan (journal, then \
         plan):\n%s" entry_no (Buffer.contents b)
    end;
    apply st ~at w1;
    ignore (controller_crash st);
    if st.fault <> None && cursor st <> recorded then
      Hypertp_error.raise_errorf ~site:"Campaign.resume" ~hint
        "journal entry %d (%s at %s): fault-plan cursor diverged — the \
         journal records %d fire decisions taken by this point, the \
         replayed plan took %d (every earlier decision matched, so the \
         injection list differs)"
        entry_no
        (if i < 0 then "campaign" else "host " ^ host)
        (Sim.Time.to_string at) recorded (cursor st);
    Sim.Vec.push st.entries (Sim.Time.to_ns at);
    Sim.Vec.push st.entries w1;
    Sim.Vec.push st.entries recorded
  done;
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
  settle_at ctx (Sim.Time.max t_last (now ctx));
  Array.iteri
    (fun i p -> match p with Running -> schedule_attempt ctx i | _ -> ())
    st.phase;
  (match st.breaker with
  | B_open_until u -> Sim.Engine.schedule_event ctx.eng u ctx.ev ev_reopen
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
let stop_controller ctx = ctx.dispatch := ignore

let grant ctx ~from_region ~slots =
  append ctx.st ~at:(now ctx) (raise_word ~from_region ~slots);
  settle ctx

let controller_journal ctx = make_journal ctx.st
let controller_finished_at ctx = ctx.st.finished_at
let controller_report ctx = make_report ctx.st

let journal_events f j =
  let words = j.j_words in
  for k = 0 to journal_length j - 1 do
    let w1 = Sim.Vec.get words ((3 * k) + 1) in
    f (Sim.Time.ns (Sim.Vec.get words (3 * k))) (journal_host j w1) (event_of_word w1)
  done

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
  Array.iteri
    (fun i p ->
      match (p, st.status.(i)) with
      | Done, Upgraded_inplace -> incr inplace
      | Done, Shadow_cutover -> incr shadow
      | Done, Drained -> incr drained
      | Done, Deferred_resolved -> incr retried
      | Done, Deferred_exposed -> incr exposed
      | _ ->
        Hypertp_error.raise_error ~site:"Campaign" "unfinished host in summary")
    st.phase;
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
