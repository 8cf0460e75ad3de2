(* The guest-view equivalence every engine answers to.  One property
   drives InPlaceTP, MigrationTP and the shadow cutover over the six
   Xen/KVM/bhyve directions and varied VM shapes (vCPUs, MSR sets,
   IOAPIC pins, devices), InPlaceTP also with a salvaged VM: the
   engine's checks hold, the diff of each landed guest against its
   capture holds only allowed differences, and a PIT skewed after
   landing is caught.  A fixed-seed sample must hit every allowance. *)

module GV = Uisr.Guest_view

let checkb = Alcotest.check Alcotest.bool

type engine = Inplace | Migration | Shadow

type shape = {
  vcpus : int;
  msrs : [ `Default | `Amd | `No_mce ];
  pins : int option;
  devices : Vmstate.Device.kind list;
}

type case = {
  engine : engine;
  src : Hv.Kind.t;
  dst : Hv.Kind.t;
  shapes : shape list;
  salvage : bool;  (* InPlaceTP only: corrupt vm0's PIT section *)
  seed : int;
}

let engine_name = function
  | Inplace -> "inplace"
  | Migration -> "migration"
  | Shadow -> "shadow"

let print_case c =
  Printf.sprintf "%s %s->%s salvage=%b seed=%d vms=[%s]" (engine_name c.engine)
    (Hv.Kind.to_string c.src) (Hv.Kind.to_string c.dst) c.salvage c.seed
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "%d vcpu %s pins=%s %d dev" s.vcpus
              (match s.msrs with
              | `Default -> "default"
              | `Amd -> "amd"
              | `No_mce -> "no_mce")
              (match s.pins with Some p -> string_of_int p | None -> "native")
              (List.length s.devices))
          c.shapes))

let directions =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun d -> if Hv.Kind.equal s d then None else Some (s, d))
        Hv.Kind.all)
    Hv.Kind.all

let gen_case =
  let open QCheck.Gen in
  let shape =
    let* vcpus = int_range 1 3 in
    let* msrs = oneofl [ `Default; `Amd; `No_mce ] in
    let* pins = oneofl [ None; Some 24 ] in
    let* devices =
      List.fold_right
        (fun k acc ->
          let* keep = bool and* rest = acc in
          return (if keep then k :: rest else rest))
        [ Vmstate.Device.Net_emulated; Vmstate.Device.Net_passthrough;
          Vmstate.Device.Blk_emulated; Vmstate.Device.Blk_passthrough;
          Vmstate.Device.Serial_console ]
        (return [])
    in
    return { vcpus; msrs; pins; devices }
  in
  let* engine = oneofl [ Inplace; Migration; Shadow ] in
  let* src, dst = oneofl directions in
  let* shapes = list_size (int_range 1 3) shape in
  let* salvage = bool in
  let* seed = int_range 0 10_000 in
  return { engine; src; dst; shapes; salvage = salvage && engine = Inplace; seed }

let name i = Printf.sprintf "vm%d" i
let amd_msr = 0xC0010015 (* Xen does not virtualise the AMD range *)
let is_mce_bank i = i >= 0x400 && i < 0x480 (* bhyve drops these *)

let provision c =
  let host =
    Hypertp.Api.provision ~seed:(Int64.of_int c.seed) ~name:"gv-src"
      ~machine:(Hw.Machine.m1 ()) ~hv:c.src
      (List.mapi
         (fun i s ->
           Vmstate.Vm.config ~name:(name i) ~vcpus:s.vcpus ~ram:(Hw.Units.mib 64)
             ~device_kinds:s.devices ?compat_ioapic_pins:s.pins ())
         c.shapes)
  in
  List.iteri
    (fun i s ->
      let vm = Option.get (Hv.Host.find_vm host (name i)) in
      Array.iteri
        (fun k (v : Vmstate.Vcpu.t) ->
          let regs =
            match s.msrs with
            | `Default -> v.regs
            | `Amd -> Vmstate.Regs.with_msr v.regs amd_msr 7L
            | `No_mce ->
              { v.regs with
                msrs =
                  List.filter
                    (fun (m : Vmstate.Regs.msr) -> not (is_mce_bank m.index))
                    v.regs.msrs }
          in
          vm.vcpus.(k) <- { v with regs })
        vm.vcpus)
    c.shapes;
  host

(* The capture, with its own PIT channels: the skew below must not
   reach it through a shared array. *)
let capture (vm : Vmstate.Vm.t) =
  let v = GV.of_vm vm in
  { v with pit = { v.pit with channels = Array.copy v.pit.channels } }

(* Run the case; return whether the engine's own checks hold, and per
   landed VM its capture, the live VM on the target, its fixups and
   whether it was salvaged. *)
let run c =
  let src = provision c in
  let names = Hv.Host.vm_names src in
  let before =
    List.map (fun n -> (n, capture (Option.get (Hv.Host.find_vm src n)))) names
  in
  let target = Hypertp.Api.hypervisor_of c.dst in
  let landed host fixups_of salvaged =
    List.map
      (fun (n, b) ->
        (n, b, Option.get (Hv.Host.find_vm host n), fixups_of n, salvaged n))
      before
  in
  match c.engine with
  | Inplace ->
    let fault =
      if c.salvage then
        Some
          (Fault.make
             [ { Fault.site = Fault.Uisr_corrupt; trigger = Fault.On_vm "vm0" } ])
      else None
    in
    let r = Hypertp.Inplace.run ?fault ~host:src ~target () in
    let salvaged =
      match r.outcome with
      | Hypertp.Inplace.Recovered d -> List.map fst d.salvaged
      | Hypertp.Inplace.Committed | Hypertp.Inplace.Rolled_back _ -> []
    in
    ( Hypertp.Inplace.all_ok r.checks && List.length salvaged = Bool.to_int c.salvage,
      landed src (fun n -> List.assoc n r.fixups) (fun n -> List.mem n salvaged) )
  | Migration ->
    let dst =
      Hypertp.Api.provision ~seed:(Int64.of_int (c.seed + 1)) ~name:"gv-dst"
        ~machine:(Hw.Machine.m1 ()) ~hv:c.dst []
    in
    let r = Hypertp.Migrate.run ~src ~dst () in
    let fixups n =
      (List.find (fun (v : Hypertp.Migrate.vm_report) -> v.vm_name = n) r.per_vm)
        .fixups
    in
    (Hypertp.Migrate.all_ok r.checks, landed dst fixups (fun _ -> false))
  | Shadow ->
    let spare = Hv.Host.create ~name:"gv-spare" (Hw.Machine.m1 ()) in
    let r = Hypertp.Migrate.run_shadow ~src ~spare ~target () in
    let fixups n =
      (List.find (fun (v : Hypertp.Migrate.shadow_vm) -> v.sv_name = n) r.sh_per_vm)
        .sv_fixups
    in
    ( r.sh_strategy = Hypertp.Migrate.Shadow_cutover
      && Option.fold ~none:false ~some:Hypertp.Migrate.all_ok r.sh_checks,
      landed spare fixups (fun _ -> false) )

let diff_of (_, before, vm, fixups, salvaged) =
  GV.diff ~fixups ~salvaged before (GV.of_vm vm)

(* A target that restored the PIT wrong. *)
let skew_pit (_, _, (vm : Vmstate.Vm.t), _, _) =
  let ch = vm.pit.channels in
  ch.(0) <- { (ch.(0)) with count = (ch.(0).count + 0x1234) land 0xFFFF }

let holds c =
  let engine_ok, landed = run c in
  let diffs = List.map diff_of landed in
  let only_allowed = List.for_all (List.for_all GV.allowed) diffs in
  let skew_caught =
    List.for_all
      (fun l ->
        skew_pit l;
        not (GV.platform_preserved (diff_of l)))
      landed
  in
  if not (engine_ok && only_allowed && skew_caught) then
    QCheck.Test.fail_reportf "engine checks %b; skew caught %b; diffs: %s"
      engine_ok skew_caught
      (String.concat "; "
         (List.map (Format.asprintf "%a" GV.pp_difference) (List.concat diffs)));
  true

let prop_engines =
  QCheck.Test.make ~count:100
    ~name:"every engine lands guests with only allowed differences"
    (QCheck.make ~print:print_case gen_case)
    holds

(* --- every allowance is needed --- *)

let allowance_name = function
  | GV.Msr_dropped _ -> Some "msr_dropped"
  | GV.Ioapic_pins_unshared _ -> Some "ioapic_pins_unshared"
  | GV.Pit_reset -> Some "pit_reset"
  | _ -> None

let test_every_allowance_hit () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 26 |]) ~n:60 gen_case
  in
  let hit = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let _, landed = run c in
      List.iter
        (fun l ->
          List.iter
            (fun d ->
              Option.iter (fun a -> Hashtbl.replace hit a ()) (allowance_name d))
            (diff_of l))
        landed)
    cases;
  List.iter
    (fun a -> checkb (a ^ " is hit by a generated case") true (Hashtbl.mem hit a))
    [ "msr_dropped"; "ioapic_pins_unshared"; "pit_reset" ]

(* --- the diff itself --- *)

let test_diff_names_differences () =
  let pmem = Hw.Pmem.create ~frames:(512 * 64) () in
  let vm =
    Vmstate.Vm.create ~pmem ~rng:(Sim.Rng.create 3L)
      (Vmstate.Vm.config ~name:"g" ~vcpus:2 ~ram:(Hw.Units.mib 32) ())
  in
  let v = GV.of_vm vm in
  checkb "a view equals itself" true (GV.diff v v = []);
  let dev = List.hd v.devices in
  let after =
    { v with
      pit = Uisr.Integrity.default_pit;
      devices =
        { dev with tcp_connections = dev.tcp_connections + 1 }
        :: List.tl v.devices
        @ [ { dev with id = 99 } ] }
  in
  checkb "PIT reset is allowed only after salvage" true
    (GV.diff ~salvaged:true v after
    = [ GV.Pit_reset;
        GV.Device_connections
          { id = dev.id; before = dev.tcp_connections;
            after = dev.tcp_connections + 1 };
        GV.Device_appeared 99 ]);
  checkb "unsalvaged, the same PIT is a change" true
    (List.mem GV.Pit_changed (GV.diff v after));
  checkb "devices not preserved" false
    (GV.devices_preserved (GV.diff ~salvaged:true v after));
  checkb "platform still preserved" true
    (GV.platform_preserved (GV.diff ~salvaged:true v after));
  let fewer = { v with vcpus = [ List.hd v.vcpus ]; devices = [] } in
  checkb "vCPU count and vanished devices" true
    (GV.diff v fewer
    = GV.Vcpu_count { before = 2; after = 1 }
      :: List.map (fun (d : GV.device) -> GV.Device_vanished d.id) v.devices)

(* Salvage substitutes the default PIT by value: skewing one salvaged
   VM's timer must not move the default every later salvage uses. *)
let test_salvaged_pit_is_a_copy () =
  let pmem = Hw.Pmem.create ~frames:(512 * 64) () in
  let vm =
    Vmstate.Vm.create ~pmem ~rng:(Sim.Rng.create 5L)
      (Vmstate.Vm.config ~name:"s" ~ram:(Hw.Units.mib 32) ())
  in
  Vmstate.Vm.pause vm;
  let blob =
    Uisr.Codec.corrupt_section ~tag:Uisr.Codec.tag_pit
      (Uisr.Codec.encode (Uisr.Vm_state.of_vm ~source_hypervisor:"x" vm))
  in
  let salvaged () =
    Option.get (Uisr.Codec.decode_verified blob).Uisr.Integrity.state
  in
  let first = salvaged () in
  let ch = first.pit.channels in
  ch.(0) <- { (ch.(0)) with count = 0x1234 };
  checkb "the next salvage still gets the defaults" true
    (Vmstate.Pit.equal (salvaged ()).pit Uisr.Integrity.default_pit);
  checkb "and the defaults are untouched" true
    (Uisr.Integrity.default_pit.channels.(0).count = 0)

let suites =
  [ ( "guest_view",
      [ Alcotest.test_case "diff names differences" `Quick
          test_diff_names_differences;
        Alcotest.test_case "salvaged PIT is a copy" `Quick
          test_salvaged_pit_is_a_copy;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_engines;
        Alcotest.test_case "every allowance is hit" `Quick
          test_every_allowance_hit ] ) ]
