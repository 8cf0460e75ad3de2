(* The shared flag terms: every numeric flag, fed extreme and random
   values through cmdliner, comes back in bounds and equal to what was
   typed, or is rejected by cmdliner or a Hypertp.Error.  Parsing and
   validation only: nothing here provisions a host or runs a campaign. *)

open Cmdliner

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let null = Format.make_formatter (fun _ _ _ -> ()) ignore

(* [Some v] when [--flag=value] parses and validates to [v], [None] when
   cmdliner or a [Hypertp.Error] rejects it.  Any other exception
   escapes and fails the caller. *)
let probe term ~flag value =
  let argv = [| "probe"; Printf.sprintf "--%s=%s" flag value |] in
  match
    Cmd.eval_value ~catch:false ~help:null ~err:null ~argv
      (Cmd.v (Cmd.info "probe") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Help | `Version) -> Alcotest.fail "unexpected --help/--version"
  | Error _ -> None
  | exception Hypertp.Error.Error _ -> None

(* A case judges one flag: true when the value was rejected, or came
   back in bounds and unwrapped. *)
let int_case term ~flag get ok =
  ( flag,
    fun value ->
      match probe term ~flag value with
      | None -> true
      | Some x -> ok x && int_of_string_opt value = Some (get x) )

let float_case term ~flag get ok =
  ( flag,
    fun value ->
      match probe term ~flag value with
      | None -> true
      | Some x ->
        ok x && Option.equal Float.equal (float_of_string_opt value) (Some (get x))
  )

(* A duration may round to the nanosecond, never further. *)
let seconds_case term ~flag get =
  ( flag,
    fun value ->
      match probe term ~flag value with
      | None -> true
      | Some x -> (
        let t = Sim.Time.to_sec_f (get x) in
        match float_of_string_opt value with
        | Some s -> 0.0 <= t && Float.abs (t -. s) <= 1e-9 *. Float.max 1.0 s
        | None -> false) )

let within lo hi x = lo <= x && x <= hi
let some_or_none f = function None -> true | Some x -> f x
let ram_gib = (Hw.Machine.m1 ()).Hw.Machine.ram / Hw.Units.gib 1

let cases =
  let h = Flags.host and k = Flags.campaign_knobs in
  let module C = Cluster.Campaign in
  let bench_hosts = Flags.int_opt ~flag:"hosts" ~doc:"" 2 Cluster.Topology.max_hosts in
  let rate = Flags.positive_opt ~flag:"rate" ~docv:"X" ~doc:"" in
  [
    int_case h ~flag:"vms" (fun h -> h.Flags.vms) (fun h ->
        within 1 ram_gib (h.Flags.vms * h.Flags.gib));
    int_case h ~flag:"vcpus" (fun h -> h.Flags.vcpus) (fun h ->
        within 1 Flags.max_vcpus h.Flags.vcpus);
    int_case h ~flag:"gib" (fun h -> h.Flags.gib) (fun h -> within 1 ram_gib h.Flags.gib);
    ( "seed",
      fun value ->
        match probe h ~flag:"seed" value with
        | None -> true
        | Some x -> Int64.of_string_opt value = Some x.Flags.seed );
    int_case Flags.vcpus ~flag:"vcpus" Fun.id (within 1 Flags.max_vcpus);
    float_case k ~flag:"straggler-factor" (fun c -> c.C.straggler_factor) (fun c ->
        within 1.2 100.0 c.C.straggler_factor);
    int_case k ~flag:"breaker-window" (fun c -> c.C.breaker_window) (fun c ->
        within 1 62 c.C.breaker_window);
    float_case k ~flag:"breaker-threshold" (fun c -> c.C.breaker_threshold) (fun c ->
        within 0.0 1.0 c.C.breaker_threshold);
    seconds_case k ~flag:"breaker-cooldown" (fun c -> c.C.breaker_cooldown);
    seconds_case
      (Flags.seconds ~flag:"hb-every" ~default:(Sim.Time.sec 5) ~doc:"")
      ~flag:"hb-every" Fun.id;
    int_case bench_hosts ~flag:"hosts" (Option.value ~default:0)
      (some_or_none (within 2 Cluster.Topology.max_hosts));
    float_case rate ~flag:"rate" (Option.value ~default:Float.nan)
      (some_or_none (fun x -> 0.0 < x && x < Float.infinity));
  ]

let extremes =
  [ string_of_int max_int; string_of_int min_int; "-1"; "0"; "nan"; "inf";
    "1e-300"; "1e300" ]

let test_extremes () =
  List.iter
    (fun (flag, judge) ->
      List.iter
        (fun v -> checkb (Printf.sprintf "--%s=%s" flag v) true (judge v))
        extremes)
    cases

let prop_random_values =
  let value =
    QCheck.Gen.(
      oneof
        [ oneofl extremes; map string_of_int int; map string_of_int small_signed_int;
          map (Printf.sprintf "%.17g") float ])
  in
  QCheck.Test.make ~name:"shared flags: in bounds and unwrapped, or rejected"
    ~count:500
    QCheck.(
      make
        ~print:(fun (i, v) -> Printf.sprintf "--%s=%s" (fst (List.nth cases i)) v)
        Gen.(pair (int_bound (List.length cases - 1)) value))
    (fun (i, v) -> (snd (List.nth cases i)) v)

(* A rejection names the flag as its site, so the CLI prints
   "hypertp-cli: --vcpus: ...". *)
let test_rejection_site () =
  let site term ~flag value =
    match
      Cmd.eval_value ~catch:false ~help:null ~err:null
        ~argv:[| "probe"; Printf.sprintf "--%s=%s" flag value |]
        (Cmd.v (Cmd.info "probe") term)
    with
    | exception Hypertp.Error.Error e -> e.Hypertp.Error.site
    | _ -> "accepted"
  in
  checks "--vcpus 0" "--vcpus" (site Flags.host ~flag:"vcpus" "0");
  checks "--vms -1" "--vms" (site Flags.host ~flag:"vms" "-1");
  checks "--gib max_int" "--gib" (site Flags.host ~flag:"gib" (string_of_int max_int));
  checks "--breaker-cooldown nan" "--breaker-cooldown"
    (site Flags.campaign_knobs ~flag:"breaker-cooldown" "nan");
  checks "--breaker-cooldown 1e10" "--breaker-cooldown"
    (site Flags.campaign_knobs ~flag:"breaker-cooldown" "1e10");
  checks "--breaker-threshold nan" "Campaign"
    (site Flags.campaign_knobs ~flag:"breaker-threshold" "nan")

let test_defaults () =
  let h = Option.get (probe Flags.host ~flag:"vms" "2") in
  checks "machine" "M1" h.Flags.machine.Hw.Machine.name;
  checkb "source xen" true (Hv.Kind.equal h.Flags.source Hv.Kind.Xen);
  checkb "seed 42" true (h.Flags.seed = 42L);
  checkb "knob defaults are Campaign.default_config" true
    (probe Flags.campaign_knobs ~flag:"breaker-window" "5"
    = Some Cluster.Campaign.default_config)

let suites =
  [
    ( "flags",
      [
        Alcotest.test_case "extreme values" `Quick test_extremes;
        QCheck_alcotest.to_alcotest prop_random_values;
        Alcotest.test_case "rejection names the flag" `Quick test_rejection_site;
        Alcotest.test_case "defaults" `Quick test_defaults;
      ] );
  ]
