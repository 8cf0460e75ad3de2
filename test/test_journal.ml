(* Tests for the one line codec (Sim.Journal) and the five formats built
   on it: campaign, fleet and stream journals, control-plane bundles and
   audit reports.

   Two properties pin the codec: re-encoding a decoded text reproduces
   it byte for byte, and a corrupted text (flipped byte, truncation,
   dropped or duplicated line) either decodes or is rejected with an
   error naming its line — no reader ever raises. *)

module J = Sim.Journal
module C = Cluster.Campaign
module CP = Cluster.Controlplane
module S = Stream.Service
module A = Audit

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

(* --- the codec itself --- *)

type point = { name : string; x : int; tag : int64 option; note : string }

let point_line { J.field; optional; word } p =
  let name = word J.str p.name in
  let x = field "x" J.int p.x in
  let tag = optional "tag" J.int64 p.tag in
  let note = field "note" J.rest p.note in
  { name; x; tag; note }

let p0 = { name = "-"; x = 0; tag = None; note = "" }

let test_line_roundtrip () =
  let p = { name = "a"; x = -42; tag = Some 7L; note = "free text, with = and spaces" } in
  let line = J.to_line "pt" point_line p in
  checks "line form" "pt a x=-42 tag=7 note=free text, with = and spaces" line;
  checkb "reads back" true (J.of_line "pt" point_line p0 line = Ok p);
  let q = { p with tag = None; note = "" } in
  checks "optional absent, empty rest" "pt a x=-42 note=" (J.to_line "pt" point_line q);
  let line = J.to_line "pt" point_line q in
  checkb "reads back" true (J.of_line "pt" point_line p0 line = Ok q)

let test_errors_name_line_and_column () =
  let expect text want =
    match J.parse text (fun r -> J.magic r "m v1"; J.get_line r "pt" point_line p0) with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e -> checks text want e
  in
  expect "" "line 1, column 1: bad magic \"\" (want \"m v1\")";
  expect "m v1\npt a x=1x note=" "line 2, column 8: bad field x \"1x\"";
  expect "m v1\n\npt a y=1 note=" "line 3, column 6: want a field x";
  expect "m v1\npt a x=1" "line 2, column 9: want a field note";
  expect "m v1\nzz a x=1 note=" "line 2, column 1: want a \"pt\" line";
  expect "m v1\npt a x=1 note=\nmore" "line 3, column 1: unexpected line"

let test_sections () =
  let named { J.word; _ } s = word J.rest s in
  let b = Buffer.create 64 in
  List.iter
    (fun (h, body) ->
      J.put_line b "sec" named h;
      List.iter (J.line b) body)
    [ ("one", [ "e 1"; "e 2" ]); ("two words", []); ("three", [ "e 3" ]) ];
  let body r =
    let rec go acc = if J.at_tag r "e" then go (J.raw_line r :: acc) else List.rev acc in
    go []
  in
  match J.parse (Buffer.contents b) (fun r -> J.sections r "sec" named "" ~body) with
  | Error e -> Alcotest.fail e
  | Ok secs ->
    checkb "headers and bodies" true
      (List.map (fun (_, h, b) -> (h, b)) secs
      = [ ("one", [ "e 1"; "e 2" ]); ("two words", []); ("three", [ "e 3" ]) ])

(* --- the five formats --- *)

let chaos p =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability p };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability (p /. 2.0) };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability (p /. 3.0) };
  ]

(* Shadow lanes, audit verdicts and a controller crash, so every
   optional token of an entry line shows up. *)
let campaign seed =
  let cfg =
    { C.default_config with C.nodes = 8; shadow_spares = 2; seed = Int64.of_int seed }
  in
  let fault =
    Fault.make ~seed:(Int64.of_int seed)
      (chaos 0.4
      @ [ { Fault.site = Fault.Residual_leak; trigger = Fault.Probability 0.5 };
          { Fault.site = Fault.Shadow_diverge; trigger = Fault.Probability 0.2 };
          { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 30 } ])
  in
  match C.run ~fault cfg with C.Finished (_, j) | C.Crashed j -> j

let fleet seed =
  let topology = Cluster.Topology.uniform ~regions:3 ~hosts:60 ~vms_per_host:2 () in
  let fault =
    Fault.make ~seed:(Int64.of_int seed)
      (chaos 0.3
      @ [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 25 } ])
  in
  C.run_fleet ~fault ~topology { C.default_config with C.seed = Int64.of_int seed }

let bundle seed =
  let cfg =
    { CP.default_config with CP.regions = 3; hosts_per_region = 6; global_concurrency = 6;
      seed = Int64.of_int seed }
  in
  let fault =
    Fault.make ~seed:(Int64.of_int seed)
      (chaos 0.5 @ [ { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit 20 } ])
  in
  match CP.run ~fault cfg with CP.Finished (_, b) | CP.Crashed b -> b

let stream seed =
  let cfg =
    { S.default_config with
      S.mix = { S.xen_hosts = 4; kvm_hosts = 4; bhyve_hosts = 0 };
      vms_per_host = 2; years = 1.0; rate_per_year = 24.0; concurrency = 2;
      tempo = 16000.0; seed = Int64.of_int seed }
  in
  snd (S.run_to_completion cfg)

let audit seed =
  let finding i =
    { A.f_kind = List.nth A.all_kinds (i mod List.length A.all_kinds);
      f_severity = (if i mod 2 = 0 then A.Exploitable else A.Benign);
      f_subject = Printf.sprintf "mfn:%d" (seed + i);
      f_frame = (if i mod 3 = 0 then None else Some (seed + i));
      f_tag = (if i mod 2 = 0 then Some (Int64.of_int (-i)) else None);
      f_reason = Printf.sprintf "reason %d with spaces = and more" i }
  in
  { A.r_source = "xen-4.12.1"; r_target = "kvm-5.3.1"; r_frames_swept = 1000 + seed;
    r_guest_frames = seed; r_findings = List.init (seed mod 5) finding }

let base_fleet = lazy (fleet 0)

(* Each format as (name, text of a seed, reader that re-encodes). *)
let formats =
  let reencode to_s = Result.map to_s in
  [
    ("campaign", (fun s -> C.journal_to_string (campaign s)),
     fun t -> reencode C.journal_to_string (C.journal_of_string t));
    ("fleet", (fun s -> C.fleet_journals_to_string (fleet s)),
     fun t ->
       let fr = Lazy.force base_fleet in
       reencode
         (fun (f_topology, f_journals) ->
           C.fleet_journals_to_string { fr with C.f_topology; f_journals })
         (C.fleet_journals_of_string t));
    ("bundle", (fun s -> CP.bundle_to_string (bundle s)),
     fun t -> reencode CP.bundle_to_string (CP.bundle_of_string t));
    ("stream", (fun s -> S.journal_to_string (stream s)),
     fun t -> reencode S.journal_to_string (S.journal_of_string t));
    ("audit", (fun s -> A.to_string (audit s)),
     fun t -> reencode A.to_string (A.of_string t));
  ]

let prop_roundtrip =
  QCheck.Test.make ~count:40 ~name:"every format re-encodes its decoding byte for byte"
    QCheck.(pair (int_range 0 (List.length formats - 1)) (int_range 0 1000))
    (fun (k, seed) ->
      let name, text_of, reread = List.nth formats k in
      let text = text_of seed in
      match reread text with
      | Ok text' ->
        String.equal text text' || QCheck.Test.fail_reportf "%s seed %d differs" name seed
      | Error e -> QCheck.Test.fail_reportf "%s seed %d: %s" name seed e)

let test_fleet_roundtrip () =
  let fr = fleet 17 in
  let text = C.fleet_journals_to_string fr in
  match C.fleet_journals_of_string text with
  | Error e -> Alcotest.fail e
  | Ok (f_topology, f_journals) ->
    let spec = Cluster.Topology.spec in
    checks "topology" (spec fr.C.f_topology) (spec f_topology);
    checks "fleet journals re-encode byte for byte" text
      (C.fleet_journals_to_string { fr with C.f_topology; f_journals });
    let reject what t =
      match C.fleet_journals_of_string t with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error e ->
        checkb (what ^ " names a line") true (String.starts_with ~prefix:"line " e)
    in
    let swap a b s =
      String.split_on_char '\n' s
      |> List.map (fun l -> if l = a then b else l)
      |> String.concat "\n"
    in
    reject "a renamed region" (swap "region r1" "region r9" text);
    reject "a topology with more regions" (swap "topology 3x20x2" "topology 4x20x2" text);
    reject "a topology with fewer regions" (swap "topology 3x20x2" "topology 2x20x2" text)

(* --- corruption --- *)

let samples =
  lazy (List.map (fun (name, text_of, reread) -> (name, text_of 3, reread)) formats)

let mutate text kind at byte =
  let n = String.length text in
  match kind with
  | 0 when n > 0 ->
    let b = Bytes.of_string text and i = at mod n in
    Bytes.set b i (Char.chr (Char.code text.[i] lxor (1 + (byte mod 255))));
    Bytes.to_string b
  | 1 -> String.sub text 0 (if n = 0 then 0 else at mod n)
  | _ ->
    let ls = String.split_on_char '\n' text in
    let i = at mod List.length ls in
    let edit j l = if j <> i then [ l ] else if kind = 2 then [] else [ l; l ] in
    String.concat "\n" (List.concat (List.mapi edit ls))

let prop_corruption =
  QCheck.Test.make ~count:3000 ~name:"corrupted texts decode or name a line, never raise"
    QCheck.(
      quad
        (int_range 0 (List.length formats - 1))
        (int_range 0 3) (int_range 0 1_000_000) (int_range 0 255))
    (fun (k, kind, at, byte) ->
      let name, text, reread = List.nth (Lazy.force samples) k in
      match reread (mutate text kind at byte) with
      | Ok _ -> true
      | Error e ->
        String.starts_with ~prefix:"line " e
        || QCheck.Test.fail_reportf "%s: error without a line: %s" name e
      | exception ex ->
        QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string ex))

let suites =
  [
    ( "sim.journal",
      [
        Alcotest.test_case "line round-trip" `Quick test_line_roundtrip;
        Alcotest.test_case "errors name line and column" `Quick
          test_errors_name_line_and_column;
        Alcotest.test_case "sections" `Quick test_sections;
        Alcotest.test_case "fleet journal round-trip" `Quick test_fleet_roundtrip;
        qtest prop_roundtrip;
        qtest prop_corruption;
      ] );
  ]
