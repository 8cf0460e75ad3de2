(* The flag vocabulary of hypertp-cli and the bench harness: each flag
   spelled once, each value checked before any run starts. *)

open Cmdliner

let reject ~flag fmt = Hypertp.Error.raise_errorf ~site:("--" ^ flag) fmt

(* --- converters --- *)

let of_result parse print =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let machine =
  let parse = function
    | "m1" | "M1" -> Ok (Hw.Machine.m1 ())
    | "m2" | "M2" -> Ok (Hw.Machine.m2 ())
    | "g5k" | "G5K" -> Ok (Hw.Machine.g5k_node ())
    | s -> Error (Printf.sprintf "unknown machine %S (m1|m2|g5k)" s)
  in
  of_result parse (fun fmt (m : Hw.Machine.t) -> Format.pp_print_string fmt m.name)

let hypervisor =
  let parse s =
    Option.to_result (Hv.Kind.of_string s)
      ~none:(Printf.sprintf "unknown hypervisor %S (xen|kvm)" s)
  in
  of_result parse Hv.Kind.pp

let topology =
  of_result Cluster.Topology.of_spec (fun fmt t ->
      Format.pp_print_string fmt (Cluster.Topology.spec t))

let shard_mode =
  of_result Sim.Shard.of_string (fun fmt m ->
      Format.pp_print_string fmt (Sim.Shard.to_string m))

let fault_spec =
  of_result Fault.parse_spec (fun fmt (sp : Fault.spec) ->
      Format.fprintf fmt "%a:..." Fault.pp_site sp.spec_injection.site)

(* --- range checks --- *)

let int_in ~flag lo hi n =
  if not (lo <= n && n <= hi) then
    reject ~flag "expects an integer in [%d, %d] (got %d)" lo hi n;
  n

let positive ~flag x =
  if not (0.0 < x && x < Float.infinity) then
    reject ~flag "expects a finite number above 0 (got %g)" x;
  x

let opt_arg c ~flag ~docv ~doc =
  let i = Arg.info [ flag ] ~docv ~doc in
  Arg.(value & opt (some c) None i)

let int_opt ~flag ~doc lo hi =
  Term.(const (Option.map (int_in ~flag lo hi))
        $ opt_arg Arg.int ~flag ~docv:"N" ~doc)

let positive_opt ~flag ~docv ~doc =
  Term.(const (Option.map (positive ~flag)) $ opt_arg Arg.float ~flag ~docv ~doc)

let seconds ~flag ~default ~doc =
  let check s =
    if not (Sim.Time.fits_sec_f s) then
      reject ~flag "expects a finite number of seconds in [0, 4.6e9) (got %g)" s;
    Sim.Time.of_sec_f s
  in
  let i = Arg.info [ flag ] ~docv:"SECONDS" ~doc in
  Term.(const check $ Arg.(value & opt float (Sim.Time.to_sec_f default) i))

(* --- the simulated host --- *)

let seed =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let count ~flag ~doc =
  let i = Arg.info [ flag ] ~docv:"N" ~doc in
  Arg.(value & opt int 1 i)

(* A guard against allocating absurd vCPU arrays, far above any guest
   the evaluation boots. *)
let max_vcpus = 1024

let vcpus =
  Term.(const (int_in ~flag:"vcpus" 1 max_vcpus)
        $ count ~flag:"vcpus" ~doc:"vCPUs per VM.")

type host = {
  machine : Hw.Machine.t;
  source : Hv.Kind.t;
  vms : int;
  vcpus : int;
  gib : int;
  seed : int64;
}

let host =
  let make machine source vms vcpus gib seed =
    (* Divide rather than multiply: [Hw.Units.gib] wraps for huge counts. *)
    let ram_gib = machine.Hw.Machine.ram / Hw.Units.gib 1 in
    if not (1 <= gib && gib <= ram_gib) then
      reject ~flag:"gib" "expects 1 to %d GiB per VM, %s's RAM (got %d)"
        ram_gib machine.Hw.Machine.name gib;
    if not (1 <= vms && vms <= ram_gib / gib) then
      reject ~flag:"vms" "expects 1 to %d VMs of %d GiB on %s (got %d)"
        (ram_gib / gib) gib machine.Hw.Machine.name vms;
    { machine; source; vms; vcpus; gib; seed }
  in
  Term.(const make
        $ Arg.(value & opt machine (Hw.Machine.m1 ())
               & info [ "machine" ] ~docv:"MACHINE"
                   ~doc:"Host machine model (m1|m2|g5k).")
        $ Arg.(value & opt hypervisor Hv.Kind.Xen
               & info [ "source" ] ~docv:"HV" ~doc:"Hypervisor the host starts on.")
        $ count ~flag:"vms" ~doc:"Number of VMs."
        $ vcpus
        $ count ~flag:"gib" ~doc:"GiB of RAM per VM."
        $ seed)

let provision h =
  let configs =
    List.init h.vms (fun i ->
        Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus:h.vcpus
          ~ram:(Hw.Units.gib h.gib) ())
  in
  Hypertp.Api.provision ~seed:h.seed ~name:"cli-host" ~machine:h.machine
    ~hv:h.source configs

(* --- campaign knobs --- *)

let campaign_knobs =
  let module C = Cluster.Campaign in
  let d = C.default_config in
  let make straggler_factor breaker_window breaker_threshold breaker_cooldown =
    let c =
      { d with C.straggler_factor; breaker_window; breaker_threshold; breaker_cooldown }
    in
    C.validate_config c;
    c
  in
  Term.(const make
        $ Arg.(value & opt float d.C.straggler_factor
               & info [ "straggler-factor" ] ~docv:"F"
                   ~doc:"Escalate a host attempt after F x its expected duration.")
        $ Arg.(value & opt int d.C.breaker_window
               & info [ "breaker-window" ] ~docv:"K"
                   ~doc:"Circuit-breaker rolling window: the last K attempts \
                         (of each region, under the control plane).")
        $ Arg.(value & opt float d.C.breaker_threshold
               & info [ "breaker-threshold" ] ~docv:"F"
                   ~doc:"Trip the breaker when failures/K reaches F.")
        $ seconds ~flag:"breaker-cooldown" ~default:d.C.breaker_cooldown
            ~doc:"Pause admission for this long after a trip.")

(* --- evaluation --- *)

let eval cmd =
  (* ~catch:false lets structured errors reach this handler, so they
     print uniformly instead of as cmdliner backtraces. *)
  try exit (Cmd.eval ~catch:false cmd)
  with Hypertp.Error.Error e ->
    Format.eprintf "%s: %s@." (Cmd.name cmd) (Hypertp.Error.to_string e);
    exit 3
