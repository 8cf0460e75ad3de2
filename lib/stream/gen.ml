(* Synthetic multi-year CVE arrival streams.

   One Poisson-ish process per attack-surface class (the taxonomy of
   Nvd.classify), each with its own split of the seed so changing one
   class's rate never perturbs another's arrivals.  The merged stream
   is then attributed: category and affected-hypervisor drawn from a
   per-class wheel chosen to be consistent with Nvd.classify by
   construction, severity from [critical_fraction], CVSS vector from
   the Table 1 representative pools, and a patch-availability delay
   from the documented window statistics. *)

type config = {
  years : float;
  rate_per_year : float;
  class_mix : (Cve.Nvd.taxonomy * float) list;
  critical_fraction : float;
  coordinated_fraction : float;
  base_year : int;
  seed : int64;
}

(* Rates echo the Table 1 era: ~14 disclosures a year across the two
   studied codebases, dominated by the hypercall surface (section 2.1),
   with just under half critical. *)
let default =
  {
    years = 5.0;
    rate_per_year = 14.0;
    class_mix =
      [ (Cve.Nvd.Hypercall_handlers, 0.5); (Cve.Nvd.Device_emulation, 0.3);
        (Cve.Nvd.Cross_domain, 0.2) ];
    critical_fraction = 0.45;
    coordinated_fraction = 0.3;
    base_year = 2021;
    seed = 0xCEEDL;
  }

type event = {
  seq : int;
  day : float;
  cve : Cve.Nvd.timed;
  subsystems : string list;
}

let site = "Stream.Gen"

let validate c =
  (* Written so that NaN fails every check. *)
  let bad fmt = Hypertp_error.raise_errorf ~site fmt in
  let within lo hi x = lo <= x && x <= hi in
  if not (0.0 < c.years) then bad "years must be positive";
  if not (0.0 < c.rate_per_year) then bad "rate_per_year must be positive";
  if not (within 0.0 1.0 c.critical_fraction) then
    bad "critical_fraction outside [0, 1]";
  if not (within 0.0 1.0 c.coordinated_fraction) then
    bad "coordinated_fraction outside [0, 1]";
  if c.class_mix = [] then bad "class_mix is empty";
  List.iter
    (fun (_, w) -> if not (0.0 <= w) then bad "class_mix weight is negative")
    c.class_mix;
  if not (0.0 < List.fold_left (fun acc (_, w) -> acc +. w) 0.0 c.class_mix)
  then bad "class_mix weights sum to zero"

let weight_of mix tax =
  List.fold_left
    (fun acc (t, w) -> if t = tax then acc +. w else acc)
    0.0 mix

(* The attribution wheels.  Every (category, affects) pair in a class's
   wheel classifies back into that class under [Nvd.classify] — the
   generator and the Table 1 dataset can never disagree on taxonomy. *)
let wheel_of = function
  | Cve.Nvd.Hypercall_handlers ->
    [| (Cve.Nvd.Pv_mechanisms, Cve.Nvd.Xen_only, "event_channels");
       (Cve.Nvd.Resource_mgmt, Cve.Nvd.Xen_only, "scheduler");
       (Cve.Nvd.Ioctl, Cve.Nvd.Kvm_only, "kvm_ioctl");
       (Cve.Nvd.Resource_mgmt, Cve.Nvd.Kvm_only, "memory_accounting") |]
  | Cve.Nvd.Device_emulation ->
    [| (Cve.Nvd.Qemu, Cve.Nvd.Xen_only, "qemu_device");
       (Cve.Nvd.Qemu, Cve.Nvd.Kvm_only, "virtio");
       (Cve.Nvd.Hardware_handling, Cve.Nvd.Kvm_only, "vtx_state");
       (Cve.Nvd.Hardware_handling, Cve.Nvd.Xen_only, "iommu") |]
  | Cve.Nvd.Cross_domain ->
    [| (Cve.Nvd.Toolstack, Cve.Nvd.Xen_only, "libxl");
       (Cve.Nvd.Qemu, Cve.Nvd.Both, "shared_fdc");
       (Cve.Nvd.Toolstack, Cve.Nvd.Kvm_only, "libvirt_glue");
       (Cve.Nvd.Qemu, Cve.Nvd.Both, "shared_net_backend") |]

let subsystem_of tax slot =
  let surface = Cve.Nvd.taxonomy_to_string tax in
  [ surface; slot ]

(* How many inter-arrival gaps a disclosure burst compresses, and by
   how much: an audit wave lands ~6 follow-on advisories in ~1/8 the
   usual spacing (the VENOM week). *)
let burst_len = 6
let burst_compression = 8.0

let generate ?fault config =
  validate config;
  let root = Sim.Rng.create config.seed in
  let attr_rng = Sim.Rng.split root in
  let horizon = config.years *. 365.0 in
  let total_w =
    List.fold_left (fun acc (_, w) -> acc +. w) 0.0 config.class_mix
  in
  (* Per-class exponential arrivals, each on its own split stream.
     Classes draw in [all_taxonomies] order so adding a class at the
     end never reshuffles earlier streams. *)
  let per_class =
    List.filter_map
      (fun tax ->
        let w = weight_of config.class_mix tax in
        if w <= 0.0 then None
        else begin
          let rng = Sim.Rng.split root in
          let rate_per_day = config.rate_per_year *. w /. total_w /. 365.0 in
          let arrivals = ref [] in
          let day = ref 0.0 in
          let continue = ref true in
          while !continue do
            let u = Sim.Rng.float rng 1.0 in
            let gap = -.log (1.0 -. u) /. rate_per_day in
            day := !day +. gap;
            if !day > horizon then continue := false
            else arrivals := (!day, tax) :: !arrivals
          done;
          Some (List.rev !arrivals)
        end)
      Cve.Nvd.all_taxonomies
  in
  let tax_order t =
    let rec idx i = function
      | [] -> i
      | x :: tl -> if x = t then i else idx (i + 1) tl
    in
    idx 0 Cve.Nvd.all_taxonomies
  in
  let merged =
    List.sort
      (fun (d1, t1) (d2, t2) ->
        match Float.compare d1 d2 with
        | 0 -> Int.compare (tax_order t1) (tax_order t2)
        | c -> c)
      (List.concat per_class)
  in
  (* Burst faults compress the next few merged gaps: the fault plan is
     consulted once per arrival, so seeded plans line up with [seq]. *)
  let events = ref [] in
  let seq = ref 0 in
  let prev_in = ref 0.0 in
  let prev_out = ref 0.0 in
  let burst_left = ref 0 in
  List.iter
    (fun (day, tax) ->
      let fired =
        match fault with
        | Some plan -> Fault.fire plan Fault.Cve_burst
        | None -> false
      in
      let gap = day -. !prev_in in
      prev_in := day;
      let gap =
        if !burst_left > 0 then begin
          decr burst_left;
          gap /. burst_compression
        end
        else gap
      in
      if fired then burst_left := burst_len;
      let out_day = !prev_out +. gap in
      prev_out := out_day;
      if out_day <= horizon then begin
        let wheel = wheel_of tax in
        let category, affects, slot =
          wheel.(Sim.Rng.int attr_rng (Array.length wheel))
        in
        let severity =
          if Sim.Rng.float attr_rng 1.0 < config.critical_fraction then
            Cve.Cvss.Critical
          else Cve.Cvss.Medium
        in
        let delay =
          Cve.Window.sample_patch_delay ~rng:attr_rng
            ~coordinated_fraction:config.coordinated_fraction ()
        in
        let year = config.base_year + int_of_float (out_day /. 365.0) in
        let id = Printf.sprintf "CVE-%d-5%03d" year (!seq mod 1000) in
        let body =
          {
            Cve.Nvd.id;
            year;
            affects;
            severity;
            category;
            vector = Cve.Nvd.vector_of severity !seq;
            window_days = None;
          }
        in
        let cve = Cve.Nvd.timed ~patch_delay_days:delay body in
        events :=
          { seq = !seq; day = out_day; cve; subsystems = subsystem_of tax slot }
          :: !events;
        incr seq
      end)
    merged;
  List.rev !events

let affects_to_string = function
  | Cve.Nvd.Xen_only -> "xen"
  | Cve.Nvd.Kvm_only -> "kvm"
  | Cve.Nvd.Both -> "both"

let severity_to_string = function
  | Cve.Cvss.Low -> "low"
  | Cve.Cvss.Medium -> "medium"
  | Cve.Cvss.Critical -> "critical"

let event_to_string e =
  Printf.sprintf "%d %.6f %s %s %s %s %.6f %s" e.seq e.day e.cve.Cve.Nvd.body.id
    (severity_to_string e.cve.Cve.Nvd.body.severity)
    (Cve.Nvd.taxonomy_to_string e.cve.Cve.Nvd.tax)
    (affects_to_string e.cve.Cve.Nvd.body.affects)
    e.cve.Cve.Nvd.patch_delay_days
    (String.concat "," e.subsystems)

let pp_event fmt e = Format.pp_print_string fmt (event_to_string e)
