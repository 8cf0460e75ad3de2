type phase = Stage | Stream | Converge | Swap | Reclaim

let all_phases = [ Stage; Stream; Converge; Swap; Reclaim ]

let phase_to_string = function
  | Stage -> "stage"
  | Stream -> "stream"
  | Converge -> "converge"
  | Swap -> "swap"
  | Reclaim -> "reclaim"

let pp_phase fmt p = Format.pp_print_string fmt (phase_to_string p)

type params = {
  precopy : Precopy.params;
  stage_boot : Sim.Time.t;
  swap_rtts : int;
  replay_budget : int;
  cutover_threshold_pages : int;
  watchdog_shrink : float;
}

let default_params ~nic ?(streams = 1) () =
  {
    precopy = Precopy.default_params ~nic ~streams ();
    stage_boot = Sim.Time.sec 20;
    swap_rtts = 3;
    replay_budget = 32;
    cutover_threshold_pages = 8;
    watchdog_shrink = 0.9;
  }

type verdict = Converging | Diverging of int

let pp_verdict fmt = function
  | Converging -> Format.pp_print_string fmt "converging"
  | Diverging i -> Format.fprintf fmt "diverging (watchdog tripped at round %d)" i

type plan = {
  stream_round : Precopy.round;
  replay_rounds : Precopy.round list;
  verdict : verdict;
  violator : Precopy.round option;
  final_pages : int;
  stream_time : Sim.Time.t;
  converge_time : Sim.Time.t;
  cutover_downtime : Sim.Time.t;
  wire_bytes : Hw.Units.bytes_;
}

let validate params ~page_bytes ~total_pages ~dirty_pages_per_sec =
  if total_pages <= 0 then invalid_arg "Shadow.plan: non-positive pages";
  if page_bytes <= 0 then invalid_arg "Shadow.plan: non-positive page size";
  if not (Float.is_finite dirty_pages_per_sec) || dirty_pages_per_sec < 0.0
  then invalid_arg "Shadow.plan: dirty rate must be finite and >= 0";
  if params.swap_rtts < 1 then invalid_arg "Shadow.plan: swap_rtts < 1";
  if params.replay_budget < 1 then invalid_arg "Shadow.plan: replay budget < 1";
  if not (params.watchdog_shrink > 0.0 && params.watchdog_shrink < 1.0) then
    invalid_arg "Shadow.plan: watchdog shrink outside (0, 1)"

(* The watchdog rule, shared verbatim between the analytic plan and the
   pure verdict function: replay round [i] (1-based over the replay
   list) is non-shrinking iff its page count fails to drop below
   [watchdog_shrink] x its predecessor's.  The stream round is the
   first predecessor. *)
let shrinks params ~prev ~cur =
  float_of_int cur < params.watchdog_shrink *. float_of_int prev

(* A violator trips the watchdog at its deadline, [watchdog_shrink] x
   the last shrinking round's duration into the round. *)
let verdict_time params p =
  match p.violator with
  | None -> p.converge_time
  | Some _ ->
    let last = List.fold_left (fun _ r -> r) p.stream_round p.replay_rounds in
    Sim.Time.add p.converge_time
      (Sim.Time.scale params.watchdog_shrink last.Precopy.duration)

let watchdog_verdict params = function
  | [] | [ _ ] -> Converging
  | (first : Precopy.round) :: rest ->
    let rec walk i prev = function
      | [] -> Converging
      | (r : Precopy.round) :: rest ->
        if shrinks params ~prev ~cur:r.pages_sent then
          walk (i + 1) r.pages_sent rest
        else Diverging i
    in
    walk 1 first.Precopy.pages_sent rest

let plan params ~page_bytes ~total_pages ~dirty_pages_per_sec =
  validate params ~page_bytes ~total_pages ~dirty_pages_per_sec;
  let per_page = Precopy.page_time params.precopy ~page_bytes in
  let wire_per_page = page_bytes + params.precopy.Precopy.page_overhead_bytes in
  let round index pages =
    {
      Precopy.index;
      pages_sent = pages;
      duration = Sim.Time.of_sec_f (float_of_int pages *. per_page);
    }
  in
  let dirtied pages =
    Stdlib.min total_pages
      (int_of_float
         (Float.round (dirty_pages_per_sec *. (float_of_int pages *. per_page))))
  in
  let stream_round = round 0 total_pages in
  (* Replay until the dirty set is swappable, the budget runs out, or a
     round stops shrinking (the analytic image of the watchdog). *)
  let rec replay index prev_pages next_pages acc =
    if next_pages <= params.cutover_threshold_pages then
      (List.rev acc, Converging, None, next_pages)
    else if index > params.replay_budget then
      (List.rev acc, Diverging params.replay_budget, None, 0)
    else if not (shrinks params ~prev:prev_pages ~cur:next_pages) then
      (List.rev acc, Diverging index, Some (round index next_pages), 0)
    else
      let r = round index next_pages in
      replay (index + 1) next_pages (dirtied next_pages) (r :: acc)
  in
  let replay_rounds, verdict, violator, final_pages =
    replay 1 total_pages (dirtied total_pages) []
  in
  let sum_time rounds =
    List.fold_left
      (fun acc (r : Precopy.round) -> Sim.Time.add acc r.duration)
      Sim.Time.zero rounds
  in
  let pages_on_wire =
    List.fold_left
      (fun acc (r : Precopy.round) -> acc + r.pages_sent)
      stream_round.Precopy.pages_sent replay_rounds
    + final_pages
  in
  let latency = Hw.Nic.latency params.precopy.Precopy.nic in
  let cutover_downtime =
    match verdict with
    | Diverging _ -> Sim.Time.zero
    | Converging ->
      Sim.Time.add
        (Sim.Time.of_sec_f (float_of_int final_pages *. per_page))
        (Sim.Time.scale (float_of_int (1 + params.swap_rtts)) latency)
  in
  {
    stream_round;
    replay_rounds;
    verdict;
    violator;
    final_pages;
    stream_time = stream_round.Precopy.duration;
    converge_time = sum_time replay_rounds;
    cutover_downtime;
    wire_bytes = pages_on_wire * wire_per_page;
  }

type stream_outcome =
  | Stream_ok of plan
  | Stream_dropped of {
      drop_round : int;
      spent : Sim.Time.t;
      wasted_bytes : Hw.Units.bytes_;
    }
  | Stream_diverged of plan

let attempt_stream params ?fault ?vm ~page_bytes ~total_pages
    ~dirty_pages_per_sec () =
  let fire site =
    match fault with Some f -> Fault.fire f ?vm site | None -> false
  in
  let per_page = Precopy.page_time params.precopy ~page_bytes in
  (* An injected divergence pushes the effective dirty rate past the
     link rate; the watchdog then finds it the honest way. *)
  let dirty_pages_per_sec =
    if fire Fault.Shadow_diverge then
      Float.max dirty_pages_per_sec (1.05 /. per_page)
    else dirty_pages_per_sec
  in
  let p = plan params ~page_bytes ~total_pages ~dirty_pages_per_sec in
  let wire_per_page = page_bytes + params.precopy.Precopy.page_overhead_bytes in
  let rec walk spent bytes = function
    | [] -> None
    | (r : Precopy.round) :: rest ->
      let spent = Sim.Time.add spent r.Precopy.duration in
      let bytes = bytes + (r.Precopy.pages_sent * wire_per_page) in
      if fire Fault.Shadow_stream_drop then
        Some (r.Precopy.index, spent, bytes)
      else walk spent bytes rest
  in
  match walk Sim.Time.zero 0 (p.stream_round :: p.replay_rounds) with
  | Some (drop_round, spent, wasted_bytes) ->
    Stream_dropped { drop_round; spent; wasted_bytes }
  | None -> (
    match p.verdict with
    | Converging -> Stream_ok p
    | Diverging _ -> Stream_diverged p)

let pp_plan fmt p =
  Format.fprintf fmt
    "shadow: stream %a + %d replay rounds (%a), %a; cutover %a (%d pages), %a \
     on wire"
    Sim.Time.pp p.stream_time
    (List.length p.replay_rounds)
    Sim.Time.pp p.converge_time pp_verdict p.verdict Sim.Time.pp
    p.cutover_downtime p.final_pages Hw.Units.pp_bytes p.wire_bytes
