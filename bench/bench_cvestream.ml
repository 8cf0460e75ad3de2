(* CVE-stream policy benchmark: five virtual years of vulnerability
   traffic against a 10k-host / 80k-VM fleet, one run per mitigation
   policy.  The fleet is under contention (tempo stretches campaigns to
   weeks, arrivals land monthly), so the cost-aware policy's refusal to
   run campaigns the patch beats frees the population for the criticals
   that need it — the benchmark asserts it lands strictly below both
   baselines on exposed host-hours, and pins determinism by running the
   cost-aware point twice.

   The default run rewrites BENCH_cvestream.json.  The small CI mode
   (--hosts/--tempo/--conc/--rate/--years) writes only to its --out
   path. *)

open Bench_util

type knobs = {
  k_hosts : int;
  k_vms_per_host : int;
  k_tempo : float;
  k_conc : int;
  k_rate : float;
  k_years : float;
}

let default_knobs =
  {
    k_hosts = 10_000;
    k_vms_per_host = 8;
    k_tempo = 2_000.0;
    k_conc = 64;
    k_rate = 30.0;
    k_years = 5.0;
  }

let seed = 0x5EEDL

let config k policy =
  {
    Stream.Service.default_config with
    Stream.Service.mix =
      {
        Stream.Service.xen_hosts = (k.k_hosts + 1) / 2;
        kvm_hosts = k.k_hosts / 2;
        bhyve_hosts = 0;
      };
    vms_per_host = k.k_vms_per_host;
    years = k.k_years;
    rate_per_year = k.k_rate;
    tempo = k.k_tempo;
    concurrency = k.k_conc;
    policy;
    seed;
  }

type point = {
  p_policy : Stream.Policy.kind;
  p_exposed_hh : float;
  p_cves : int;
  p_campaigns : int;
  p_uncovered : int;
  p_wall_s : float;  (* real time for the run *)
}

let run_once k policy =
  let t0 = Unix.gettimeofday () in
  let r, _ = Stream.Service.run_to_completion (config k policy) in
  {
    p_policy = policy;
    p_exposed_hh = r.Stream.Service.exposed_host_hours;
    p_cves = r.Stream.Service.cves_total;
    p_campaigns = r.Stream.Service.campaigns;
    p_uncovered = r.Stream.Service.uncovered_critical;
    p_wall_s = Unix.gettimeofday () -. t0;
  }

(* Same seed => byte-identical journal and identical report numbers. *)
let deterministic k =
  let snap () =
    let r, j =
      Stream.Service.run_to_completion (config k Stream.Policy.Cost_aware)
    in
    ( Stream.Service.journal_to_string j,
      Stream.Service.report_to_string r )
  in
  snap () = snap ()

let emit ~out k points deterministic_checked =
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"cvestream\",\n  \"hosts\": %d,\n  \
     \"vms_per_host\": %d,\n  \"years\": %.1f,\n  \"rate_per_year\": %.1f,\n  \
     \"tempo\": %.1f,\n  \"concurrency\": %d,\n  \"seed\": %Ld,\n  \
     \"deterministic\": %b,\n  \"policies\": [\n"
    k.k_hosts k.k_vms_per_host k.k_years k.k_rate k.k_tempo k.k_conc seed
    deterministic_checked;
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    {\"policy\": \"%s\", \"exposed_host_hours\": %.4f, \"cves\": \
         %d, \"campaigns\": %d, \"uncovered_critical\": %d, \
         \"wall_clock_s\": %.3f}%s\n"
        (Stream.Policy.kind_to_string p.p_policy)
        p.p_exposed_hh p.p_cves p.p_campaigns p.p_uncovered p.p_wall_s
        (if i = List.length points - 1 then "" else ","))
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  note "wrote %s@." out

let run ?(knobs = default_knobs) ?(out = "BENCH_cvestream.json") () =
  header
    (Printf.sprintf
       "CVE-stream campaign service: %d hosts x %d VMs, %.1f years at \
        %.0f CVEs/year"
       knobs.k_hosts knobs.k_vms_per_host knobs.k_years knobs.k_rate);
  Format.printf "%-16s %-16s %-7s %-10s %-10s %s@." "policy" "exposed-hh"
    "cves" "campaigns" "uncovered" "wall(s)";
  let points =
    List.map
      (fun policy ->
        let p = run_once knobs policy in
        Format.printf "%-16s %-16.1f %-7d %-10d %-10d %.3f@."
          (Stream.Policy.kind_to_string p.p_policy)
          p.p_exposed_hh p.p_cves p.p_campaigns p.p_uncovered p.p_wall_s;
        p)
      Stream.Policy.all_kinds
  in
  let exposed policy =
    (List.find (fun p -> p.p_policy = policy) points).p_exposed_hh
  in
  let cost = exposed Stream.Policy.Cost_aware in
  let ta = exposed Stream.Policy.Transplant_all in
  let da = exposed Stream.Policy.Defer_all in
  if not (cost < ta && cost < da) then begin
    Format.eprintf
      "FATAL: cost-aware (%.1f hh) is not strictly below transplant-all \
       (%.1f hh) and defer-all (%.1f hh)@."
      cost ta da;
    exit 1
  end;
  note "cost-aware strictly dominates: %.1f < min(%.1f, %.1f) hh@." cost ta da;
  note "re-running the cost-aware point to pin determinism...@.";
  if not (deterministic knobs) then begin
    Format.eprintf "FATAL: the stream service is not deterministic@.";
    exit 1
  end;
  note "identical journal and report across runs@.";
  emit ~out knobs points true
