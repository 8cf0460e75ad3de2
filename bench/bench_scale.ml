(* Fleet-scale campaign benchmark: how the sharded campaign engine
   behaves as the fleet grows from the paper's 10-node cluster to a
   million hosts / 8M VMs.  Each size runs through
   [Cluster.Campaign.run_fleet] over a uniform region topology; points
   report real wall-clock, minor-heap allocation (sampled inside the
   shard tasks and around the shared plans, so the per-point numbers
   survive any schedule),
   journaled events and exposure.

   Determinism is pinned the strong way: the self-check size is run
   under Sequential, Rotated and Parallel schedules and the concatenated
   region journals plus fleet digests must agree byte-for-byte — the
   sharding mode may only trade wall-clock, never results.

   The full sweep rewrites BENCH_scale.json; a single-size run (the
   scale-smoke CI job's) writes only to the path it is given. *)

open Bench_util

let vms_per_host = 8
let default_sizes = [ 100; 1_000; 10_000; 50_000; 1_000_000 ]

(* Region rule: ~250 hosts per region at small sizes, capped at 64
   regions so the million-host fleet is 64 x 15625. *)
let regions_for hosts = Stdlib.max 1 (Stdlib.min 64 (hosts / 250))

let topology hosts =
  Cluster.Topology.uniform ~regions:(regions_for hosts) ~hosts
    ~vms_per_host ()

let config = Cluster.Campaign.default_config

let default_mode hosts =
  let shards = regions_for hosts in
  if shards = 1 then Sim.Shard.Sequential
  else
    Sim.Shard.Parallel
      { shards;
        domains = Stdlib.min 8 (Stdlib.max 1 (Domain.recommended_domain_count ())) }

type point = {
  p_hosts : int;
  p_regions : int;
  p_mode : Sim.Shard.mode;
  p_shards : int;
  p_domains : int;
  p_wall_s : float;  (* real time for one fleet run *)
  p_minor_words : float;  (* minor words of the shard tasks and shared plans *)
  p_events : int;  (* journal entries, summed over regions *)
  p_exposed_hh : float;
  p_sim_wall_s : float;  (* simulated fleet wall clock (slowest region) *)
}

let run_once ?mode hosts =
  let tp = topology hosts in
  let mode = match mode with Some m -> m | None -> default_mode hosts in
  let t0 = Unix.gettimeofday () in
  let fr = Cluster.Campaign.run_fleet ~sharding:mode ~topology:tp config in
  let wall = Unix.gettimeofday () -. t0 in
  {
    p_hosts = hosts;
    p_regions = Cluster.Topology.n_regions tp;
    p_mode = mode;
    p_shards = fr.Cluster.Campaign.f_shards;
    p_domains = fr.Cluster.Campaign.f_domains;
    p_wall_s = wall;
    p_minor_words = fr.Cluster.Campaign.f_minor_words;
    p_events =
      Array.fold_left
        (fun acc s -> acc + s.Cluster.Campaign.s_events)
        0 fr.Cluster.Campaign.f_summaries;
    p_exposed_hh = fr.Cluster.Campaign.f_exposed_host_hours;
    p_sim_wall_s = Sim.Time.to_sec_f fr.Cluster.Campaign.f_wall_clock;
  }

(* Same fleet under three schedules => byte-identical journals and
   digests.  This is the tentpole contract; fail loudly if it breaks. *)
let deterministic hosts =
  let tp = topology hosts in
  let regions = Cluster.Topology.n_regions tp in
  let snap mode =
    let fr = Cluster.Campaign.run_fleet ~sharding:mode ~topology:tp config in
    ( Cluster.Campaign.fleet_journals_to_string fr,
      Cluster.Campaign.fleet_digest fr,
      Format.asprintf "%a" Cluster.Campaign.pp_fleet fr )
  in
  let seq = snap Sim.Shard.Sequential in
  let rot = snap (Sim.Shard.Rotated (Stdlib.min 4 regions)) in
  let par =
    snap (Sim.Shard.Parallel { shards = regions; domains = Stdlib.min 4 regions })
  in
  seq = rot && rot = par

let emit ~out points deterministic_checked =
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"scale\",\n  \"vms_per_host\": %d,\n  \
     \"deterministic\": %b,\n  \"points\": [\n"
    vms_per_host deterministic_checked;
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    {\"hosts\": %d, \"regions\": %d, \"mode\": \"%s\", \
         \"shards\": %d, \"domains\": %d, \"wall_clock_s\": %.3f, \
         \"minor_words\": %.0f, \"events\": %d, \
         \"exposed_host_hours\": %.4f, \"sim_wall_clock_s\": %.3f}%s\n"
        p.p_hosts p.p_regions
        (Sim.Shard.to_string p.p_mode)
        p.p_shards p.p_domains p.p_wall_s p.p_minor_words p.p_events
        p.p_exposed_hh p.p_sim_wall_s
        (if i = List.length points - 1 then "" else ","))
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  note "wrote %s@." out

let run ?(sizes = default_sizes) ?mode ?(out = "BENCH_scale.json") () =
  header "Fleet-scale campaign engine (hosts -> wall-clock / allocation)";
  Format.printf "%-9s %-8s %-14s %-10s %-14s %-9s %-12s %s@." "hosts"
    "regions" "mode" "wall(s)" "minor-words" "events" "exposed-hh" "sim-wall";
  let points =
    List.map
      (fun hosts ->
        let p = run_once ?mode hosts in
        Format.printf "%-9d %-8d %-14s %-10.3f %-14.0f %-9d %-12.3f %.1fs@."
          p.p_hosts p.p_regions
          (Sim.Shard.to_string p.p_mode)
          p.p_wall_s p.p_minor_words p.p_events p.p_exposed_hh p.p_sim_wall_s;
        p)
      sizes
  in
  (* Pin schedule-independence at the largest size that is still cheap
     to run three times. *)
  let check_at =
    List.fold_left
      (fun acc h -> if h <= 10_000 then Stdlib.max acc h else acc)
      0 sizes
  in
  let check_determinism = check_at > 0 in
  if check_determinism then begin
    note
      "re-running the %d-host fleet under seq / rotated / parallel \
       schedules...@."
      check_at;
    if not (deterministic check_at) then begin
      Format.eprintf
        "FATAL: %d-host fleet journals differ across sharding modes@."
        check_at;
      exit 1
    end;
    note "byte-identical journals and digests across all three modes@."
  end;
  emit ~out points check_determinism
