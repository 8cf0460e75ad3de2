(* Tests for the region-aware fleet shape (Cluster.Topology) and for
   the sharded fleet campaign built on it (Cluster.Campaign.run_fleet).

   The contract under test is the tentpole invariant of the sharded
   engine: for one topology and config, the Sequential, Rotated and
   Parallel schedules produce byte-identical fleet journals, reports
   and digests — sharding may only trade wall-clock, never results. *)

module T = Cluster.Topology
module C = Cluster.Campaign

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

(* --- constructors and validation --- *)

let test_uniform () =
  let t = T.uniform ~regions:3 ~hosts:10 ~vms_per_host:4 () in
  checki "three regions" 3 (T.n_regions t);
  checki "total hosts" 10 (T.hosts t);
  checki "total vms" 40 (T.vms t);
  let rs = T.regions t in
  checki "remainder to lowest index" 4 rs.(0).T.rg_hosts;
  checki "even tail" 3 rs.(1).T.rg_hosts;
  checks "default names" "r2" rs.(2).T.rg_name;
  checkb "uniform validates" true (Result.is_ok (T.validate t))

(* One region holding the whole fleet: the shape [Fleet.simulate]
   defaults to. *)
let test_flat () =
  let t = T.uniform ~regions:1 ~hosts:6 ~vms_per_host:2 () in
  checki "one region" 1 (T.n_regions t);
  checki "hosts" 6 (T.hosts t);
  checks "name" "r0" (T.regions t).(0).T.rg_name

let test_validate_errors () =
  let bad t = Result.is_error (T.validate t) in
  checkb "no regions" true (bad (T.make []));
  checkb "tiny region" true
    (bad (T.make [ T.region ~name:"a" ~hosts:1 ~vms_per_host:2 () ]));
  checkb "no vms" true
    (bad (T.make [ T.region ~name:"a" ~hosts:4 ~vms_per_host:0 () ]));
  checkb "duplicate names" true
    (bad
       (T.make
          [ T.region ~name:"a" ~hosts:4 ~vms_per_host:2 ();
            T.region ~name:"a" ~hosts:4 ~vms_per_host:2 () ]));
  checkb "reserved characters" true
    (bad (T.make [ T.region ~name:"a b" ~hosts:4 ~vms_per_host:2 () ]));
  checkb "negative spares" true
    (bad (T.make [ T.region ~spares:(-1) ~name:"a" ~hosts:4 ~vms_per_host:2 () ]));
  match T.validate (T.make []) with
  | Error e ->
    let s = Hypertp_error.to_string e in
    checkb "structured site" true
      (String.length s >= 8 && String.sub s 0 8 = "Topology")
  | Ok _ -> Alcotest.fail "empty topology validated"

(* --- spec rendering and parsing --- *)

let test_spec_shorthand () =
  (* Shorthand RxHxV: H is hosts PER REGION. *)
  match T.of_spec "4x50x8" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    checki "regions" 4 (T.n_regions t);
    checki "hosts" 200 (T.hosts t);
    checki "vms" 1600 (T.vms t);
    checks "renders back as shorthand" "4x50x8" (T.spec t)

let test_spec_list () =
  match T.of_spec "edge:4:2;core:8:8:1:3" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    checki "regions" 2 (T.n_regions t);
    let rs = T.regions t in
    checks "first name" "edge" rs.(0).T.rg_name;
    checki "spares parsed" 1 rs.(1).T.rg_spares;
    checkb "wire parsed" true (rs.(1).T.rg_wire_budget = Some 3);
    checks "renders back as list" "edge:4:2;core:8:8:1:3" (T.spec t)

let test_spec_errors () =
  let fails s = Result.is_error (T.of_spec s) in
  checkb "garbage" true (fails "garbage");
  checkb "zero regions" true (fails "0x5x2");
  checkb "tiny region" true (fails "a:1:1");
  checkb "empty" true (fails "");
  checkb "trailing field" true (fails "a:4:2:0:1:9");
  (* Counts whose totals overflow [int] are rejected, not wrapped. *)
  checkb "huge region count" true (fails "4611686018427387903x2x2");
  checkb "overflowing host total" true (fails "3x4611686018427387903x8");
  checkb "overflowing region list" true
    (fails "a:2:4611686018427387903;b:4611686018427387903:2")

let test_spec_roundtrip_qcheck () =
  let region_gen =
    QCheck.Gen.(
      map3
        (fun hosts vms extra -> (hosts, vms, extra))
        (int_range 2 20) (int_range 1 8)
        (opt (pair (int_range 0 3) (opt (int_range 0 5)))))
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        map
          (fun specs ->
            T.make
              (List.mapi
                 (fun i (hosts, vms, extra) ->
                   let spares, wire_budget =
                     match extra with
                     | None -> (0, None)
                     | Some (s, w) -> (s, w)
                   in
                   T.region ~spares ?wire_budget
                     ~name:(Printf.sprintf "q%d" i)
                     ~hosts ~vms_per_host:vms ())
                 specs))
          (list_size (int_range 1 6) region_gen))
  in
  let prop t =
    match T.of_spec (T.spec t) with
    | Ok t' when t' = t -> true
    | Ok _ -> QCheck.Test.fail_reportf "round-trip changed %s" (T.spec t)
    | Error e -> QCheck.Test.fail_reportf "round-trip failed: %s" e
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"spec round-trip" gen prop)

let test_shard_mode_strings () =
  List.iter
    (fun m ->
      match Sim.Shard.of_string (Sim.Shard.to_string m) with
      | Ok m' -> checkb (Sim.Shard.to_string m) true (m = m')
      | Error e -> Alcotest.fail e)
    [ Sim.Shard.Sequential; Sim.Shard.Rotated 4;
      Sim.Shard.Parallel { shards = 8; domains = 2 } ];
  let fails s = Result.is_error (Sim.Shard.of_string s) in
  checkb "bogus mode" true (fails "bogus");
  checkb "zero rotation" true (fails "rotated:0");
  checkb "zero shards" true (fails "parallel:0x2");
  checkb "bad mode validates" true
    (Result.is_error (Sim.Shard.validate (Sim.Shard.Rotated 0)))

(* Parser results only: nothing here spawns a domain. *)
let test_shard_domain_bound () =
  checkb "parallel:64x100000 rejected" true
    (Result.is_error (Sim.Shard.of_string "parallel:64x100000"));
  checkb "parallel:200 rejected (domains = shards)" true
    (Result.is_error (Sim.Shard.of_string "parallel:200"));
  checkb "max_int domains rejected" true
    (Result.is_error
       (Sim.Shard.validate (Sim.Shard.Parallel { shards = 1; domains = max_int })));
  checkb "the limit itself is accepted" true
    (Sim.Shard.of_string (Printf.sprintf "parallel:64x%d" Sim.Shard.max_domains)
    = Ok (Sim.Shard.Parallel { shards = 64; domains = Sim.Shard.max_domains }));
  checkb "parallel:64x2 accepted on any core count" true
    (Result.is_ok (Sim.Shard.of_string "parallel:64x2"))

(* --- schedule-independence of the sharded fleet --- *)

let fleet_snap ?fault ~sharding tp cfg =
  let fr = C.run_fleet ?fault ~sharding ~topology:tp cfg in
  ( C.fleet_journals_to_string fr,
    C.fleet_digest fr,
    Format.asprintf "%a" C.pp_fleet fr )

let chaos_plan seed =
  Fault.make ~seed:(Int64.of_int seed)
    [
      { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.25 };
      { Fault.site = Fault.Host_timeout; trigger = Fault.Probability 0.1 };
      { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 40 };
    ]

let check_modes ~msg ?chaos_seed tp cfg modes =
  let snap mode =
    let fault = Option.map chaos_plan chaos_seed in
    fleet_snap ?fault ~sharding:mode tp cfg
  in
  match List.map snap modes with
  | [] -> ()
  | (j0, d0, p0) :: rest ->
    List.iteri
      (fun i (j, d, p) ->
        checks
          (Printf.sprintf "%s: journals (mode %d)" msg (i + 1))
          j0 j;
        checkb (Printf.sprintf "%s: digest (mode %d)" msg (i + 1)) true
          (d0 = d);
        checks (Printf.sprintf "%s: report (mode %d)" msg (i + 1)) p0 p)
      rest

let test_mode_identity_1k () =
  let tp = T.uniform ~regions:4 ~hosts:1_000 ~vms_per_host:8 () in
  check_modes ~msg:"calm 1k" tp C.default_config
    [ Sim.Shard.Sequential; Sim.Shard.Rotated 3;
      Sim.Shard.Parallel { shards = 4; domains = 2 } ];
  (* And under chaos, including controller crashes absorbed by the
     per-region resume loop. *)
  check_modes ~msg:"chaotic 1k" ~chaos_seed:11 tp C.default_config
    [ Sim.Shard.Sequential; Sim.Shard.Parallel { shards = 4; domains = 2 } ]

let test_mode_identity_10k () =
  let tp = T.uniform ~regions:8 ~hosts:10_000 ~vms_per_host:8 () in
  check_modes ~msg:"10k" tp C.default_config
    [ Sim.Shard.Sequential; Sim.Shard.Rotated 5;
      Sim.Shard.Parallel { shards = 8; domains = 4 } ]

let test_mode_identity_qcheck () =
  let gen =
    QCheck.(
      quad (int_range 0 1000) (int_range 1 6) (int_range 1 3)
        (oneofl [ None; Some 7; Some 23 ]))
  in
  let prop (seed, shards, domains, chaos_seed) =
    let tp = T.uniform ~regions:3 ~hosts:60 ~vms_per_host:4 () in
    let cfg = { C.default_config with C.seed = Int64.of_int seed } in
    check_modes ~msg:"qcheck" ?chaos_seed tp cfg
      [ Sim.Shard.Sequential; Sim.Shard.Rotated shards;
        Sim.Shard.Parallel { shards; domains } ];
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:20 ~name:"mode identity" gen prop)

(* --- the fleet digest sees every config field --- *)

(* Rewrite every region journal's config line, keeping its entries. *)
let with_config fr cfg =
  let swap j =
    match String.split_on_char '\n' (C.journal_to_string j) with
    | magic :: _ :: entries -> (
      match
        C.journal_of_string
          (String.concat "\n" (magic :: C.config_to_line cfg :: entries))
      with
      | Ok j -> j
      | Error e -> Alcotest.failf "re-parse: %s" e)
    | _ -> Alcotest.fail "journal without a config line"
  in
  { fr with C.f_journals = Array.map swap fr.C.f_journals }

(* One single-field change per config field, in declaration order. *)
let config_mutations : (C.config -> C.config) list =
  [
    (fun c -> { c with C.nodes = c.C.nodes + 1 });
    (fun c -> { c with C.vms_per_node = c.C.vms_per_node + 1 });
    (fun c -> { c with C.vm_ram = c.C.vm_ram + 4096 });
    (fun c -> { c with C.node_ram = c.C.node_ram + 4096 });
    (fun c -> { c with C.inplace_fraction = c.C.inplace_fraction +. 0.001 });
    (fun c -> { c with C.concurrency = c.C.concurrency + 1 });
    (fun c -> { c with C.straggler_factor = c.C.straggler_factor +. 0.01 });
    (fun c -> { c with C.breaker_window = c.C.breaker_window + 1 });
    (fun c -> { c with C.breaker_threshold = c.C.breaker_threshold +. 0.001 });
    (fun c ->
      { c with
        C.breaker_cooldown = Sim.Time.add c.C.breaker_cooldown (Sim.Time.ns 1) });
    (fun c -> { c with C.jitter_pct = c.C.jitter_pct +. 0.0001 });
    (fun c -> { c with C.drain_flakiness = c.C.drain_flakiness +. 0.001 });
    (fun c -> { c with C.retry_flakiness = c.C.retry_flakiness +. 0.001 });
    (fun c -> { c with C.seed = Int64.succ c.C.seed });
    (fun c -> { c with C.shadow_spares = c.C.shadow_spares + 1 });
  ]

let config_of_draws a =
  {
    C.nodes = 1 + a.(0);
    vms_per_node = 1 + a.(1);
    vm_ram = Hw.Units.gib 1 + (4096 * a.(2));
    node_ram = Hw.Units.gib 64 + (4096 * a.(3));
    inplace_fraction = float_of_int a.(4) /. 1000.0;
    concurrency = 1 + a.(5);
    straggler_factor = 1.2 +. (float_of_int a.(6) /. 100.0);
    breaker_window = 1 + (a.(7) mod 61);
    breaker_threshold = float_of_int a.(8) /. 1000.0;
    breaker_cooldown = Sim.Time.ns (1000 * a.(9));
    jitter_pct = float_of_int a.(10) /. 10000.0;
    drain_flakiness = float_of_int a.(11) /. 1000.0;
    retry_flakiness = float_of_int a.(12) /. 1000.0;
    seed = Int64.of_int a.(13);
    shadow_spares = a.(14) mod 8;
  }

let prop_digest_sees_every_config_field =
  let base =
    lazy
      (C.run_fleet
         ~topology:(T.uniform ~regions:2 ~hosts:8 ~vms_per_host:2 ())
         C.default_config)
  in
  QCheck.Test.make ~count:200 ~name:"changing any one config field changes the digest"
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) int)
       QCheck.Gen.(
         pair
           (array_size (return 15) (int_range 0 999))
           (int_range 0 (List.length config_mutations - 1))))
    (fun (draws, field) ->
      let fr = Lazy.force base in
      let cfg = config_of_draws draws in
      let cfg' = (List.nth config_mutations field) cfg in
      C.fleet_digest (with_config fr cfg) <> C.fleet_digest (with_config fr cfg'))

let test_fleet_report_consistency () =
  let tp = T.make
      [ T.region ~name:"edge" ~hosts:30 ~vms_per_host:2 ();
        T.region ~name:"core" ~hosts:20 ~vms_per_host:8 () ]
  in
  let fr = C.run_fleet ~topology:tp C.default_config in
  checki "one summary per region" 2 (Array.length fr.C.f_summaries);
  checki "one journal per region" 2 (Array.length fr.C.f_journals);
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 fr.C.f_summaries in
  checkb "exposure adds up" true
    (abs_float (fr.C.f_exposed_host_hours -. sum (fun s -> s.C.s_exposed_host_hours))
     < 1e-9);
  checkb "wall clock is the slowest region" true
    (Array.for_all
       (fun s -> Sim.Time.compare s.C.s_wall_clock fr.C.f_wall_clock <= 0)
       fr.C.f_summaries);
  checkb "all hosts accounted" true
    (Array.for_all
       (fun s ->
         s.C.s_inplace + s.C.s_shadow + s.C.s_drained + s.C.s_retried
         + s.C.s_exposed
         = s.C.s_hosts)
       fr.C.f_summaries);
  (* Ragged topologies are exactly what the control plane rejects. *)
  checkb "controlplane rejects ragged" true
    (match
       Cluster.Controlplane.config_of_topology tp
         Cluster.Controlplane.default_config
     with
    | exception Hypertp_error.Error _ -> true
    | _ -> false)

let suites =
  [
    ( "topology.shape",
      [
        Alcotest.test_case "uniform split" `Quick test_uniform;
        Alcotest.test_case "flat" `Quick test_flat;
        Alcotest.test_case "validate errors" `Quick test_validate_errors;
        Alcotest.test_case "spec shorthand" `Quick test_spec_shorthand;
        Alcotest.test_case "spec list form" `Quick test_spec_list;
        Alcotest.test_case "spec errors" `Quick test_spec_errors;
        Alcotest.test_case "spec round-trip (qcheck)" `Quick
          test_spec_roundtrip_qcheck;
      ] );
    ( "topology.sharding",
      [
        Alcotest.test_case "mode strings" `Quick test_shard_mode_strings;
        Alcotest.test_case "domain bound" `Quick test_shard_domain_bound;
        QCheck_alcotest.to_alcotest prop_digest_sees_every_config_field;
        Alcotest.test_case "fleet report consistency" `Quick
          test_fleet_report_consistency;
        Alcotest.test_case "mode identity (qcheck)" `Slow
          test_mode_identity_qcheck;
        Alcotest.test_case "mode identity at 1k hosts" `Slow
          test_mode_identity_1k;
        Alcotest.test_case "mode identity at 10k hosts" `Slow
          test_mode_identity_10k;
      ] );
  ]
