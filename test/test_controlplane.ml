(* Tests for the replicated hierarchical control plane: regional
   sub-controllers with their own journals under a root supervisor, and
   the headline invariant — for any seeded schedule of controller
   crashes, supervision partitions and leader handoffs (including a
   crash in the middle of a resume replay), the final report and the
   merged journal are byte-identical to the uninterrupted run. *)

module CP = Cluster.Controlplane

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let small_cfg =
  { CP.default_config with CP.regions = 3; hosts_per_region = 6;
    global_concurrency = 6 }

let host_injections p =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability p };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability (p /. 2.0) };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability (p /. 3.0) };
  ]

let finished = function
  | CP.Finished (r, b) -> (r, b)
  | CP.Crashed _ -> Alcotest.fail "control plane crashed unexpectedly"

(* Drive a run/resume chain to completion, threading one chaos plan,
   and return both the report and the final bundle. *)
let rec complete ~fault = function
  | CP.Finished (r, b) -> (r, b)
  | CP.Crashed bundle -> complete ~fault (CP.resume ~fault bundle)

(* The reference a chaotic run must reproduce byte-for-byte: same seed,
   same host-site injections, no control-plane faults.  The host plan
   must be present (not [None]) so the per-region derived cursors
   advance identically. *)
let reference ~seed ~p cfg =
  let fault = Fault.make ~seed (host_injections p) in
  let r, b = finished (CP.run ~fault cfg) in
  (CP.summary r, CP.merged_to_string b)

(* --- clean-run behaviour --- *)

let test_clean_run_pinned () =
  let r, b = finished (CP.run small_cfg) in
  checki "every host upgraded in place" (3 * 6) r.CP.cp_hosts_inplace;
  checki "nothing drained" 0 r.CP.cp_hosts_drained;
  checki "nothing exposed" 0 r.CP.cp_hosts_exposed;
  checkb "positive wall clock" true
    Sim.Time.(Sim.Time.zero < r.CP.cp_wall_clock);
  checkb "exposure strictly inside (0, baseline)" true
    (r.CP.cp_exposed_host_hours > 0.0
    && r.CP.cp_exposed_host_hours < r.CP.cp_baseline_exposed_host_hours);
  (* admit + complete per host plus a finish per region — and no
     reallocation grants: the symmetric regions finish within jitter of
     each other, well inside the realloc lag, so every grant fires after
     the whole fleet is done and finds no recipient *)
  checki "journal entries" ((2 * 18) + 3) (CP.bundle_length b);
  (* byte-determinism of the whole pipeline *)
  let r', b' = finished (CP.run small_cfg) in
  checks "summary deterministic" (CP.summary r) (CP.summary r');
  checks "merged journal deterministic" (CP.merged_to_string b)
    (CP.merged_to_string b');
  checks "bundle deterministic" (CP.bundle_to_string b)
    (CP.bundle_to_string b')

let test_config_validation () =
  let bad msg cfg =
    checkb msg true
      (try
         ignore (CP.run cfg);
         false
       with Hypertp.Error.Error e -> e.Hypertp.Error.site = "Controlplane")
  in
  bad "zero regions" { small_cfg with CP.regions = 0 };
  bad "budget below region count" { small_cfg with CP.global_concurrency = 2 };
  bad "timeout below heartbeat"
    { small_cfg with CP.heartbeat_timeout = Sim.Time.sec 2 };
  bad "realloc lag inside detection window"
    { small_cfg with CP.realloc_lag = Sim.Time.sec 15 };
  bad "straggler factor below flap ceiling"
    { small_cfg with CP.straggler_factor = 1.1 }

let count_sub needle s =
  let n = String.length needle and total = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = needle then incr total
  done;
  !total

let test_reallocation_observable () =
  (* Regions are uniform, so asymmetry has to come from host faults:
     with per-region derived plans, some regions take slow fallback
     drains and finish well past the others' finish + realloc lag — the
     early finishers' slots are granted to the stragglers, durably, as
     [Limit_raised] entries in the recipients' journals. *)
  let fault = Fault.make ~seed:3L (host_injections 0.6) in
  let _, b = finished (CP.run ~fault small_cfg) in
  let merged = CP.merged_to_string b in
  checkb "at least one grant journaled" true
    (count_sub "limit-raised" merged >= 1);
  checki "every region finishes" 3 (count_sub "region-finished" merged)

let test_host_faults_manifest () =
  let fault = Fault.make ~seed:3L (host_injections 0.6) in
  let r, _ = finished (CP.run ~fault small_cfg) in
  checkb "ladder engaged somewhere" true
    (r.CP.cp_hosts_drained + r.CP.cp_hosts_exposed > 0);
  checki "accounting closes" (3 * 6)
    (r.CP.cp_hosts_inplace + r.CP.cp_hosts_drained + r.CP.cp_hosts_exposed);
  let hosts = List.concat_map (fun rr -> rr.CP.rr_hosts) r.CP.cp_regions in
  checkb "deferred hosts billed to campaign end" true
    (List.for_all
       (fun h ->
         h.CP.h_status <> CP.Deferred_exposed
         || Sim.Time.equal h.CP.h_done_at r.CP.cp_wall_clock)
       hosts)

(* --- crash-survival invariants --- *)

let test_subctl_crash_byte_identity () =
  let seed = 41L and p = 0.35 in
  let ref_summary, ref_merged = reference ~seed ~p small_cfg in
  List.iter
    (fun nth ->
      let fault =
        Fault.make ~seed
          (host_injections p
          @ [ { Fault.site = Fault.Subctl_crash; trigger = Fault.Nth_hit nth } ])
      in
      let r, b = finished (CP.run ~fault small_cfg) in
      checks
        (Printf.sprintf "summary identical (crash at append %d)" nth)
        ref_summary (CP.summary r);
      checks
        (Printf.sprintf "merged journal identical (crash at append %d)" nth)
        ref_merged (CP.merged_to_string b))
    [ 1; 7; 23; 40 ]

let test_partition_spurious_restart () =
  let seed = 41L and p = 0.35 in
  let ref_summary, ref_merged = reference ~seed ~p small_cfg in
  let metrics = Obs.Metrics.create () in
  let fault =
    Fault.make ~seed
      (host_injections p
      @ [ { Fault.site = Fault.Ctl_partition; trigger = Fault.Nth_hit 3 } ])
  in
  let r, b = finished (CP.run ~fault ~metrics small_cfg) in
  checks "summary identical across a partition" ref_summary (CP.summary r);
  checks "merged journal identical across a partition" ref_merged
    (CP.merged_to_string b);
  (* The victim was healthy: the restart is spurious, and it is counted
     in the metrics registry (never in the report). *)
  let spurious =
    Array.exists
      (fun region ->
        Obs.Metrics.value
          (Obs.Metrics.counter metrics
             ~labels:
               [ ("engine", "controlplane"); ("kind", "spurious");
                 ("region", Printf.sprintf "r%d" region) ]
             "hypertp_ctl_restarts_total")
        > 0.0)
      [| 0; 1; 2 |]
  in
  checkb "spurious restart counted in metrics" true spurious

let test_root_crash_then_handoff () =
  let seed = 41L and p = 0.35 in
  let ref_summary, ref_merged = reference ~seed ~p small_cfg in
  let fault =
    Fault.make ~seed
      (host_injections p
      @ [ { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit 4 } ])
  in
  match CP.run ~fault small_cfg with
  | CP.Finished _ -> Alcotest.fail "root crash never fired"
  | CP.Crashed bundle ->
    (* The bundle survives serialisation; the new leader rebuilds the
       global view purely from the parsed sub-journals. *)
    let bundle' =
      match CP.bundle_of_string (CP.bundle_to_string bundle) with
      | Ok b -> b
      | Error e -> Alcotest.failf "bundle round-trip: %s" e
    in
    checki "round-trip preserves entries" (CP.bundle_length bundle)
      (CP.bundle_length bundle');
    let r, b = complete ~fault (CP.resume ~fault bundle') in
    checks "summary identical after leader handoff" ref_summary
      (CP.summary r);
    checks "merged journal identical after leader handoff" ref_merged
      (CP.merged_to_string b)

let test_resume_rejects_mismatched_fault () =
  let fault =
    Fault.make ~seed:5L
      (host_injections 0.6
      @ [ { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit 2 } ])
  in
  match CP.run ~fault small_cfg with
  | CP.Finished _ -> Alcotest.fail "root crash never fired"
  | CP.Crashed bundle ->
    checkb "mismatched fault plan rejected with a precise site" true
      (try
         ignore (CP.resume ~fault:(Fault.make ~seed:6L (host_injections 0.6)) bundle);
         false
       with Hypertp.Error.Error e ->
         e.Hypertp.Error.site = "Controlplane.resume")

(* The headline qcheck: a random schedule of control-plane faults —
   which sites, which hits, against which chaos stream — must leave the
   completed campaign byte-identical to the uninterrupted run. *)
let test_crash_schedule_byte_identity_qcheck () =
  let site_gen =
    QCheck.oneofl
      [ Fault.Subctl_crash; Fault.Root_crash; Fault.Ctl_partition;
        Fault.Crash_during_resume ]
  in
  let schedule_gen =
    QCheck.(
      pair (int_range 0 500)
        (list_of_size Gen.(1 -- 4) (pair site_gen (int_range 1 60))))
  in
  let prop (seed, schedule) =
    let seed64 = Int64.of_int ((seed * 6151) + 17) in
    let p = 0.35 in
    let ref_summary, ref_merged = reference ~seed:seed64 ~p small_cfg in
    let chaos =
      Fault.make ~seed:seed64
        (host_injections p
        @ List.map
            (fun (site, nth) -> { Fault.site; trigger = Fault.Nth_hit nth })
            schedule)
    in
    let r, b = complete ~fault:chaos (CP.run ~fault:chaos small_cfg) in
    if CP.summary r <> ref_summary then
      QCheck.Test.fail_reportf "summary diverged under schedule seed=%d" seed;
    if CP.merged_to_string b <> ref_merged then
      QCheck.Test.fail_reportf
        "merged journal diverged under schedule seed=%d" seed;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"crash-schedule byte identity"
       schedule_gen prop)

(* The double-fault golden: the root dies, and the next two leaders die
   again in the middle of their resume replays.  The merged timeline of
   the finished chain is pinned byte-for-byte. *)
let double_fault_chain () =
  let fault =
    Fault.make ~seed:11L
      (host_injections 0.4
      @ [ { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit 3 };
          { Fault.site = Fault.Crash_during_resume; trigger = Fault.Nth_hit 4 };
          { Fault.site = Fault.Crash_during_resume; trigger = Fault.Nth_hit 9 } ])
  in
  let crashes = ref 0 in
  let rec go = function
    | CP.Finished (r, b) -> (r, b)
    | CP.Crashed bundle ->
      incr crashes;
      go (CP.resume ~fault bundle)
  in
  let r, b = go (CP.run ~fault small_cfg) in
  (!crashes, r, b)

let test_double_crash_during_resume_golden () =
  let crashes, r, b = double_fault_chain () in
  checkb "at least three leader deaths (root + two during replays)" true
    (crashes >= 3);
  let ref_summary, ref_merged = reference ~seed:11L ~p:0.4 small_cfg in
  checks "summary identical after the double fault" ref_summary
    (CP.summary r);
  checks "merged journal identical after the double fault" ref_merged
    (CP.merged_to_string b);
  let golden =
    let path =
      List.find Sys.file_exists
        [ "golden/controlplane_double_resume.txt";
          "test/golden/controlplane_double_resume.txt" ]
    in
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  checks "merged timeline matches the golden pin" golden
    (CP.merged_to_string b)

(* --- serialisation --- *)

let test_bundle_parse_errors () =
  let reject s =
    match CP.bundle_of_string s with
    | Ok _ -> Alcotest.failf "accepted garbage: %S" s
    | Error e -> checkb "error is descriptive" true (String.length e > 0)
  in
  reject "";
  reject "not a bundle";
  reject "hypertp-controlplane-bundle v99\nconfig regions=1";
  (* valid magic, broken config *)
  reject "hypertp-controlplane-bundle v2\nconfig regions=banana";
  (* entry outside any region *)
  let _, b = finished (CP.run small_cfg) in
  let text = CP.bundle_to_string b in
  let lines = String.split_on_char '\n' text in
  let no_headers =
    String.concat "\n"
      (List.filter
         (fun l ->
           String.length l < 7 || String.sub l 0 7 <> "region ")
         lines)
  in
  reject no_headers;
  let lines = List.filter (( <> ) "") lines in
  let unlines ls = String.concat "\n" ls ^ "\n" in
  let replace_first ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then Alcotest.failf "no %S in bundle" sub
      else if String.sub s i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  (* region count disagrees with the config: a region missing, or one
     region too many for the config *)
  let rec before_region k = function
    | l :: _ when String.starts_with ~prefix:(Printf.sprintf "region idx=%d " k) l
      -> []
    | l :: tl -> l :: before_region k tl
    | [] -> []
  in
  let rec from_region k = function
    | l :: _ as ls
      when String.starts_with ~prefix:(Printf.sprintf "region idx=%d " k) l ->
      ls
    | _ :: tl -> from_region k tl
    | [] -> []
  in
  reject (unlines (before_region 2 lines));
  reject
    (text
    ^ replace_first ~sub:"region idx=2 " ~by:"region idx=3 "
        (unlines (from_region 2 lines)));
  (* an embedded region journal carrying a different config *)
  reject (replace_first ~sub:" concurrency=2 " ~by:" concurrency=3 " text);
  (* cut after a complete line of the last region: only its header's
     entry count can tell *)
  reject (unlines (List.rev (List.tl (List.rev lines))));
  (* a grant from a region that does not exist *)
  let fault = Fault.make ~seed:3L (host_injections 0.6) in
  let _, granted = finished (CP.run ~fault small_cfg) in
  let gtext = CP.bundle_to_string granted in
  reject (replace_first ~sub:"raise from=" ~by:"raise from=9" gtext);
  (* a bundle that parses but was tampered with inside an entry: resume
     rejects it with a structured error *)
  match
    CP.bundle_of_string
      (replace_first ~sub:" host=node01 " ~by:" host=node99 " text)
  with
  | Error e -> Alcotest.failf "tampered host should still parse: %s" e
  | Ok b -> (
    match CP.resume b with
    | _ -> Alcotest.fail "resumed a bundle naming an unknown host"
    | exception Hypertp.Error.Error e ->
      checks "structured resume error" "Controlplane.resume" e.Hypertp.Error.site)

(* --- the sub-controller is the campaign engine --- *)

(* A one-region control plane runs exactly [Campaign.run_fleet]'s
   region campaign: same derived config, seed and fault plan, so the
   same journal, byte for byte. *)
let test_region_is_campaign () =
  let cfg =
    { CP.default_config with CP.regions = 1; hosts_per_region = 12;
      global_concurrency = 3 }
  in
  let topology =
    Cluster.Topology.uniform ~regions:1 ~hosts:12
      ~vms_per_host:cfg.CP.vms_per_host ()
  in
  List.iter
    (fun plan ->
      let _, b = finished (CP.run ?fault:(plan ()) cfg) in
      let fr =
        Cluster.Campaign.run_fleet ?fault:(plan ()) ~topology
          { Cluster.Campaign.default_config with
            Cluster.Campaign.concurrency = cfg.CP.global_concurrency }
      in
      checks "region journal is the run_fleet journal"
        (Cluster.Campaign.journal_to_string fr.Cluster.Campaign.f_journals.(0))
        (Cluster.Campaign.journal_to_string (CP.bundle_journals b).(0)))
    [ (fun () -> None);
      (fun () -> Some (Fault.make ~seed:41L (host_injections 0.35))) ]

let suites =
  [
    ( "controlplane.run",
      [
        Alcotest.test_case "clean run (pinned + deterministic)" `Quick
          test_clean_run_pinned;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "reallocation grants journaled" `Quick
          test_reallocation_observable;
        Alcotest.test_case "host faults manifest" `Quick
          test_host_faults_manifest;
        Alcotest.test_case "one region = run_fleet journal" `Quick
          test_region_is_campaign;
      ] );
    ( "controlplane.crash",
      [
        Alcotest.test_case "subctl crash byte identity" `Quick
          test_subctl_crash_byte_identity;
        Alcotest.test_case "partition -> spurious restart" `Quick
          test_partition_spurious_restart;
        Alcotest.test_case "root crash -> leader handoff" `Quick
          test_root_crash_then_handoff;
        Alcotest.test_case "mismatched fault rejected" `Quick
          test_resume_rejects_mismatched_fault;
        Alcotest.test_case "crash-schedule byte identity (qcheck)" `Slow
          test_crash_schedule_byte_identity_qcheck;
        Alcotest.test_case "double crash during resume (golden)" `Quick
          test_double_crash_during_resume_golden;
      ] );
    ( "controlplane.bundle",
      [ Alcotest.test_case "parse errors" `Quick test_bundle_parse_errors ] );
  ]
