(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (section 5) from the simulated system, plus the
   section 4.2.5 ablations and Bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe            # everything, paper order
     dune exec bench/main.exe -- table4 fig6 fig13
     dune exec bench/main.exe -- --list *)

let targets : (string * string * (unit -> unit)) list =
  [
    ("table1", "vulnerability study (Table 1 + section 2.2)", Bench_tables.table1);
    ("table2", "state mapping + environment (Tables 2-3)", Bench_tables.table2_3);
    ("table4", "migration downtime/time (Table 4)", Bench_tables.table4);
    ("fig6", "InPlaceTP time breakdown (Fig 6)", Bench_figures.fig6);
    ("fig7", "InPlaceTP scalability Xen->KVM (Fig 7)", Bench_figures.fig7);
    ("fig8", "MigrationTP downtime sweeps (Fig 8, with Fig 9)", Bench_figures.fig8_9);
    ("fig9", "total migration time sweeps (Fig 9, with Fig 8)", Bench_figures.fig8_9);
    ("fig10", "InPlaceTP scalability KVM->Xen (Fig 10)", Bench_figures.fig10);
    ("fig11", "Redis timelines (Fig 11)", Bench_figures.fig11);
    ("fig12", "MySQL timelines (Fig 12)", Bench_figures.fig12);
    ("table5", "SPECrate 2017 impact (Table 5)", Bench_tables.table5);
    ("table6", "Darknet iterations (Table 6)", Bench_tables.table6);
    ("fig13", "cluster upgrade (Fig 13)", Bench_figures.fig13);
    ("fig14", "memory overhead (Fig 14)", Bench_figures.fig14);
    ("tcb", "TCB accounting (section 4.4)", Bench_tables.tcb);
    ("memsep", "memory separation (Fig 2)", Bench_figures.memsep);
    ("ablation", "optimisation ablations (section 4.2.5)", Bench_figures.ablation);
    ("repertoire", "all six transplant directions (incl. bhyve)", Bench_figures.repertoire);
    ("fleet", "Fig 1 fleet exposure scenario", Bench_figures.fleet);
    ("campaign", "supervised campaign controller (emits BENCH_campaign.json)",
     Bench_figures.campaign);
    ("scale", "fleet-scale campaign sweep (emits BENCH_scale.json); accepts \
               --hosts N --mode seq|rotated:K|parallel:SxD with --out PATH",
     fun () -> Bench_scale.run ());
    ("shadow", "shadow-host cutover frontier: downtime vs spares vs wire \
                (emits BENCH_shadow.json); accepts --hosts N with --out PATH",
     fun () -> Bench_shadow.run ());
    ("cvestream",
     "CVE-stream policy benchmark: cost-aware vs transplant-all vs defer-all \
      (emits BENCH_cvestream.json); accepts --hosts/--tempo/--conc/--rate/--years \
      with --out PATH",
     fun () -> Bench_cvestream.run ());
    ("controlplane",
     "hierarchical control plane, calm vs crashed (emits \
      BENCH_controlplane.json)", Bench_controlplane.run);
    ("micro", "Bechamel micro-benchmarks", Bench_micro.run);
  ]

(* fig8/fig9 share one generator; the full run invokes it once. *)
let default_order =
  [ "table1"; "table2"; "table4"; "fig6"; "fig7"; "fig8"; "fig10"; "fig11"; "fig12";
    "table5"; "table6"; "fig13"; "fig14"; "tcb"; "memsep"; "ablation";
    "repertoire"; "fleet"; "campaign"; "shadow"; "cvestream"; "controlplane";
    "micro" ]

let run_target name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) targets with
  | Some (_, _, f) -> f ()
  | None ->
    Format.eprintf "unknown target %s; try --list@." name;
    exit 1

(* A run with flags is a single-size (CI or probe) run: it writes only
   to an explicit --out, never over the committed trajectory, which the
   flag-free full run alone regenerates. *)
let require_out target = function
  | Some path -> path
  | None ->
    Format.eprintf
      "%s: a run with flags needs --out PATH (only the flag-free run \
       rewrites BENCH_%s.json)@."
      target target;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] ->
    List.iter (fun (n, d, _) -> Format.printf "%-8s %s@." n d) targets
  | "scale" :: (_ :: _ as rest) ->
    (* Single-size mode for CI:
       bench scale --hosts 1000 --mode parallel:4x4 --out PATH *)
    let sizes, mode, out =
      let rec parse sizes mode out = function
        | [] -> (sizes, mode, out)
        | "--hosts" :: v :: tl -> (
          match int_of_string_opt v with
          | Some h when h >= 2 -> parse (Some [ h ]) mode out tl
          | _ ->
            Format.eprintf "scale: --hosts expects an integer >= 2@.";
            exit 1)
        | "--mode" :: v :: tl -> (
          match Sim.Shard.of_string v with
          | Ok m -> parse sizes (Some m) out tl
          | Error e ->
            Format.eprintf "scale: --mode: %s@." e;
            exit 1)
        | "--out" :: v :: tl -> parse sizes mode (Some v) tl
        | arg :: _ ->
          Format.eprintf
            "usage: scale [--hosts N] [--mode seq|rotated:K|parallel:SxD] \
             --out PATH (got %s)@."
            arg;
          exit 1
      in
      parse None None None rest
    in
    Bench_scale.run ?sizes ?mode ~out:(require_out "scale" out) ()
  | "cvestream" :: (_ :: _ as rest) ->
    (* Small mode for CI:
       bench cvestream --hosts 36 --conc 2 --tempo 16000 --out PATH *)
    let knobs, out =
      let rec parse (k, out) = function
        | [] -> (k, out)
        | "--out" :: v :: tl -> parse (k, Some v) tl
        | "--hosts" :: v :: tl -> (
          match int_of_string_opt v with
          | Some h when h >= 2 ->
            parse ({ k with Bench_cvestream.k_hosts = h }, out) tl
          | _ ->
            Format.eprintf "cvestream: --hosts expects an integer >= 2@.";
            exit 1)
        | "--conc" :: v :: tl -> (
          match int_of_string_opt v with
          | Some c when c >= 1 -> parse ({ k with Bench_cvestream.k_conc = c }, out) tl
          | _ ->
            Format.eprintf "cvestream: --conc expects a positive integer@.";
            exit 1)
        | "--tempo" :: v :: tl -> (
          match float_of_string_opt v with
          | Some t when t > 0.0 ->
            parse ({ k with Bench_cvestream.k_tempo = t }, out) tl
          | _ ->
            Format.eprintf "cvestream: --tempo expects a positive float@.";
            exit 1)
        | "--rate" :: v :: tl -> (
          match float_of_string_opt v with
          | Some r when r > 0.0 ->
            parse ({ k with Bench_cvestream.k_rate = r }, out) tl
          | _ ->
            Format.eprintf "cvestream: --rate expects a positive float@.";
            exit 1)
        | "--years" :: v :: tl -> (
          match float_of_string_opt v with
          | Some y when y > 0.0 ->
            parse ({ k with Bench_cvestream.k_years = y }, out) tl
          | _ ->
            Format.eprintf "cvestream: --years expects a positive float@.";
            exit 1)
        | arg :: _ ->
          Format.eprintf
            "usage: cvestream [--hosts N] [--conc N] [--tempo F] [--rate F] \
             [--years F] --out PATH (got %s)@."
            arg;
          exit 1
      in
      parse (Bench_cvestream.default_knobs, None) rest
    in
    Bench_cvestream.run ~knobs ~out:(require_out "cvestream" out) ()
  | "shadow" :: (_ :: _ as rest) ->
    (* Single-size mode for CI: bench shadow --hosts 200 --out PATH *)
    let rec parse hosts out = function
      | [] -> (hosts, out)
      | "--hosts" :: n :: tl -> (
        match int_of_string_opt n with
        | Some h when h >= 2 -> parse (Some h) out tl
        | _ ->
          Format.eprintf "shadow: --hosts expects an integer >= 2@.";
          exit 1)
      | "--out" :: v :: tl -> parse hosts (Some v) tl
      | _ ->
        Format.eprintf "usage: shadow [--hosts N] --out PATH@.";
        exit 1
    in
    let hosts, out = parse None None rest in
    Bench_shadow.run ?hosts ~out:(require_out "shadow" out) ()
  | [] ->
    Format.printf
      "HyperTP evaluation harness: regenerating every table and figure@.";
    List.iter run_target default_order
  | names -> List.iter run_target names
