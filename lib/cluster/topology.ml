(* The single fleet-shape value.  Regions -> hosts -> VMs, with
   optional per-region staged-spare pools and wire budgets.  Every
   fleet-level entry point ([Fleet.simulate], [Campaign.run_fleet],
   [Controlplane.config_of_topology], [Stream.Service.mix_of_topology])
   consumes one of these instead of ad-hoc host-count integers; the
   legacy int arguments are deprecated wrappers that build a [flat]
   or [uniform] topology and stay byte-identical. *)

type region = {
  rg_name : string;
  rg_hosts : int;
  rg_vms_per_host : int;
  rg_spares : int;  (* staged spare lanes; 0 = inherit the campaign config *)
  rg_wire_budget : int option;  (* bytes on the wire; None = unlimited *)
}

type t = { tp_regions : region array }

let site = "Topology"

(* Bounds that keep every fleet total an exact [int]: with at most
   [max_hosts] hosts of at most [max_vms_per_host] VMs each, no sum or
   product over regions can overflow. *)
let max_regions = 1 lsl 20
let max_hosts = 1 lsl 30
let max_vms_per_host = 1 lsl 20
let max_vms = 1 lsl 40

let region ?(spares = 0) ?wire_budget ~name ~hosts ~vms_per_host () =
  { rg_name = name; rg_hosts = hosts; rg_vms_per_host = vms_per_host;
    rg_spares = spares; rg_wire_budget = wire_budget }

let regions t = t.tp_regions
let n_regions t = Array.length t.tp_regions

let hosts t =
  Array.fold_left (fun acc r -> acc + r.rg_hosts) 0 t.tp_regions

let vms t =
  Array.fold_left (fun acc r -> acc + (r.rg_hosts * r.rg_vms_per_host)) 0
    t.tp_regions

let region_name i = "r" ^ string_of_int i

let make regions =
  { tp_regions = Array.of_list regions }

(* [hosts] is the fleet total, split as evenly as possible with the
   remainder on the lowest region indices — the same split rule the
   control plane uses for its admission budget. *)
let uniform ?(spares = 0) ?wire_budget ~regions ~hosts ~vms_per_host () =
  if regions < 1 || regions > max_regions then
    Hypertp_error.raise_errorf ~site "uniform: need 1 to %d regions"
      max_regions;
  let base = hosts / regions and rem = hosts mod regions in
  {
    tp_regions =
      Array.init regions (fun i ->
          {
            rg_name = region_name i;
            rg_hosts = (base + if i < rem then 1 else 0);
            rg_vms_per_host = vms_per_host;
            rg_spares = spares;
            rg_wire_budget = wire_budget;
          });
  }

(* One anonymous region holding the whole fleet: the shape every legacy
   [~hosts]/[~vms_per_host] entry point maps to. *)
let flat ~hosts ~vms_per_host =
  {
    tp_regions =
      [| { rg_name = region_name 0; rg_hosts = hosts;
           rg_vms_per_host = vms_per_host; rg_spares = 0;
           rg_wire_budget = None } |];
  }

let validate t =
  let err fmt = Printf.ksprintf (fun reason -> Error (Hypertp_error.make ~site reason)) fmt in
  let n = Array.length t.tp_regions in
  if n < 1 then err "a topology needs at least one region"
  else if n > max_regions then
    err "%d regions exceed the limit of %d" n max_regions
  else begin
    let seen = Hashtbl.create n in
    let rec check i ~hosts ~vms =
      if i >= n then Ok t
      else
        let r = t.tp_regions.(i) in
        if String.trim r.rg_name = "" then err "region %d has an empty name" i
        else if String.contains r.rg_name ' ' || String.contains r.rg_name ';'
                || String.contains r.rg_name ':'
        then err "region name %S contains a reserved character" r.rg_name
        else if Hashtbl.mem seen r.rg_name then
          err "duplicate region name %S" r.rg_name
        else if r.rg_hosts < 2 then
          err "region %S needs at least 2 hosts (campaigns drain into peers)"
            r.rg_name
        else if r.rg_vms_per_host < 1 then
          err "region %S needs at least 1 VM per host" r.rg_name
        else if r.rg_hosts > max_hosts - hosts then
          err "region %S takes the fleet past %d hosts" r.rg_name max_hosts
        else if r.rg_vms_per_host > max_vms_per_host then
          err "region %S exceeds %d VMs per host" r.rg_name max_vms_per_host
        else if r.rg_hosts * r.rg_vms_per_host > max_vms - vms then
          err "region %S takes the fleet past %d VMs" r.rg_name max_vms
        else if r.rg_spares < 0 then
          err "region %S has a negative spare pool" r.rg_name
        else if (match r.rg_wire_budget with Some b -> b < 0 | None -> false)
        then err "region %S has a negative wire budget" r.rg_name
        else begin
          Hashtbl.add seen r.rg_name ();
          check (i + 1) ~hosts:(hosts + r.rg_hosts)
            ~vms:(vms + (r.rg_hosts * r.rg_vms_per_host))
        end
    in
    check 0 ~hosts:0 ~vms:0
  end

let validate_exn t =
  match validate t with
  | Ok t -> t
  | Error e -> raise (Hypertp_error.Error e)

(* --- CLI spec syntax ---

   Uniform shorthand:  "RxHxV"            R regions x H hosts each x V VMs/host
   Region list:        "name:H:V[:spares[:wire]];..."

   [spec] renders the shorthand whenever the topology is uniform with
   default names/spares/budgets, the region list otherwise; [of_spec]
   accepts both, so [of_spec (spec t) = t] round-trips. *)

let spec t =
  let rs = t.tp_regions in
  let n = Array.length rs in
  let is_uniform =
    n > 0
    && Array.for_all
         (fun r ->
           r.rg_hosts = rs.(0).rg_hosts
           && r.rg_vms_per_host = rs.(0).rg_vms_per_host
           && r.rg_spares = 0 && r.rg_wire_budget = None)
         rs
    && Array.for_all (fun i -> rs.(i).rg_name = region_name i)
         (Array.init n (fun i -> i))
  in
  if is_uniform then
    Printf.sprintf "%dx%dx%d" n rs.(0).rg_hosts rs.(0).rg_vms_per_host
  else
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun r ->
              let base =
                Printf.sprintf "%s:%d:%d" r.rg_name r.rg_hosts
                  r.rg_vms_per_host
              in
              match (r.rg_spares, r.rg_wire_budget) with
              | 0, None -> base
              | s, None -> Printf.sprintf "%s:%d" base s
              | s, Some w -> Printf.sprintf "%s:%d:%d" base s w)
            rs))

let of_spec s =
  let s = String.trim s in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let pos_int what v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "bad %s %S" what v)
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let uniform_of r h v =
    let* r = pos_int "region count" r in
    let* h = pos_int "host count" h in
    let* vv = pos_int "vms per host" v in
    if r < 1 then fail "need at least one region"
    else if r > max_regions then
      fail "%d regions exceed the limit of %d" r max_regions
    else
      Ok
        {
          tp_regions =
            Array.init r (fun i ->
                { rg_name = region_name i; rg_hosts = h; rg_vms_per_host = vv;
                  rg_spares = 0; rg_wire_budget = None });
        }
  in
  let region_of part =
    match String.split_on_char ':' part with
    | [ name; h; v ] ->
      let* h = pos_int "host count" h in
      let* v = pos_int "vms per host" v in
      Ok (region ~name ~hosts:h ~vms_per_host:v ())
    | [ name; h; v; sp ] ->
      let* h = pos_int "host count" h in
      let* v = pos_int "vms per host" v in
      let* sp = pos_int "spare count" sp in
      Ok (region ~spares:sp ~name ~hosts:h ~vms_per_host:v ())
    | [ name; h; v; sp; w ] ->
      let* h = pos_int "host count" h in
      let* v = pos_int "vms per host" v in
      let* sp = pos_int "spare count" sp in
      let* w = pos_int "wire budget" w in
      Ok (region ~spares:sp ~wire_budget:w ~name ~hosts:h ~vms_per_host:v ())
    | _ -> fail "bad region %S (want name:hosts:vms[:spares[:wire]])" part
  in
  let parsed =
    if String.contains s ';' || String.contains s ':' then
      let parts = List.filter (fun p -> p <> "") (String.split_on_char ';' s) in
      if parts = [] then fail "empty topology spec"
      else
        let rec go acc = function
          | [] -> Ok { tp_regions = Array.of_list (List.rev acc) }
          | p :: tl ->
            let* r = region_of p in
            go (r :: acc) tl
        in
        go [] parts
    else
      match String.split_on_char 'x' s with
      | [ r; h; v ] -> uniform_of r h v
      | _ ->
        fail
          "bad topology spec %S (want RxHxV, e.g. 4x250x8, or \
           name:hosts:vms[:spares[:wire]];...)"
          s
  in
  match parsed with
  | Error _ as e -> e
  | Ok t -> (
    (* Per-region hosts in the shorthand, so "64x15625x8" is the
       million-host fleet; validate while we are here. *)
    match validate t with
    | Ok t -> Ok t
    | Error e -> Error (Hypertp_error.to_string e))

let pp fmt t =
  Format.fprintf fmt "@[<v>topology: %d regions, %d hosts, %d VMs@," (n_regions t)
    (hosts t) (vms t);
  Array.iter
    (fun r ->
      Format.fprintf fmt "  %s: %d hosts x %d VMs%s%s@," r.rg_name r.rg_hosts
        r.rg_vms_per_host
        (if r.rg_spares > 0 then Printf.sprintf ", %d spares" r.rg_spares
         else "")
        (match r.rg_wire_budget with
        | Some w -> Printf.sprintf ", wire budget %d B" w
        | None -> ""))
    t.tp_regions;
  Format.fprintf fmt "@]"
