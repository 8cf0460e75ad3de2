(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (section 5) from the simulated system, plus the
   section 4.2.5 ablations and Bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe            # everything, paper order
     dune exec bench/main.exe -- table4 fig6 fig13
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --help  # the single-size run flags *)

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
  | None -> assert false (* the TARGET converter admits listed names only *)

open Cmdliner

(* A run with flags is a single-size (CI or probe) run of one target:
     bench scale --hosts 1000 --mode parallel:4x4 --out PATH
     bench cvestream --hosts 36 --conc 2 --tempo 16000 --out PATH
     bench shadow --hosts 200 --out PATH
   It writes only to its explicit --out, never over the committed
   trajectory, which the flag-free run alone regenerates. *)
let flags_of =
  [ ("scale", [ "hosts"; "mode" ]); ("shadow", [ "hosts" ]);
    ("cvestream", [ "hosts"; "conc"; "tempo"; "rate"; "years" ]) ]

let run list names hosts mode conc tempo rate years out =
  let given =
    List.filter_map
      (fun (flag, set) -> if set then Some flag else None)
      [ ("hosts", hosts <> None); ("mode", mode <> None); ("conc", conc <> None);
        ("tempo", tempo <> None); ("rate", rate <> None); ("years", years <> None) ]
  in
  let flagged = given <> [] || out <> None in
  match names with
  | _ when list ->
    List.iter (fun (n, d, _) -> Format.printf "%-8s %s@." n d) targets;
    `Ok ()
  | [] when not flagged ->
    Format.printf
      "HyperTP evaluation harness: regenerating every table and figure@.";
    List.iter run_target default_order;
    `Ok ()
  | _ when not flagged ->
    List.iter run_target names;
    `Ok ()
  | [ target ] when List.mem_assoc target flags_of -> (
    let takes f = List.mem f (List.assoc target flags_of) in
    match (List.find_opt (fun f -> not (takes f)) given, out) with
    | Some f, _ -> `Error (true, Printf.sprintf "%s does not take --%s" target f)
    | None, None ->
      `Error
        ( false,
          Printf.sprintf
            "%s: a run with flags needs --out PATH (only the flag-free run \
             rewrites BENCH_%s.json)"
            target target )
    | None, Some out ->
      (match target with
      | "scale" ->
        Bench_scale.run ?sizes:(Option.map (fun h -> [ h ]) hosts) ?mode ~out ()
      | "shadow" -> Bench_shadow.run ?hosts ~out ()
      | _ ->
        let d = Bench_cvestream.default_knobs in
        let ( |? ) v default = Option.value v ~default in
        Bench_cvestream.run ~out
          ~knobs:
            { d with
              Bench_cvestream.k_hosts = hosts |? d.k_hosts;
              k_conc = conc |? d.k_conc;
              k_tempo = tempo |? d.k_tempo;
              k_rate = rate |? d.k_rate;
              k_years = years |? d.k_years }
          ());
      `Ok ())
  | _ -> `Error (true, "flags take exactly one target: scale, shadow or cvestream")

let () =
  let names =
    Arg.(value & pos_all (enum (List.map (fun (n, _, _) -> (n, n)) targets)) []
         & info [] ~docv:"TARGET"
             ~doc:"Targets to run, in order (default: all, in paper order).")
  in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List the targets.") in
  let hosts =
    Flags.int_opt ~flag:"hosts" 2 Cluster.Topology.max_hosts
      ~doc:"Fleet size of a single-size scale, shadow or cvestream run."
  in
  let mode =
    Arg.(value & opt (some Flags.shard_mode) None
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Shard schedule of a single-size scale run: $(b,seq), \
                   $(b,rotated:K) or $(b,parallel:SxD).")
  in
  let conc =
    Flags.int_opt ~flag:"conc" 1 Cluster.Topology.max_hosts
      ~doc:"Campaign concurrency (cvestream)."
  in
  let positive flag doc = Flags.positive_opt ~flag ~docv:"X" ~doc in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"Where a run with flags writes its JSON (required with \
                   flags).")
  in
  Flags.eval
    (Cmd.v
       (Cmd.info "bench"
          ~doc:"Regenerate every table and figure of the paper's evaluation")
       Term.(ret
               (const run $ list $ names $ hosts $ mode $ conc
               $ positive "tempo" "Operational stretch (cvestream)."
               $ positive "rate" "Mean CVE arrivals per year (cvestream)."
               $ positive "years" "Virtual years of traffic (cvestream)."
               $ out)))
