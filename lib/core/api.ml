let hypervisor_of = function
  | Hv.Kind.Xen -> (module Xenhv.Xen : Hv.Intf.S)
  | Hv.Kind.Kvm -> (module Kvmhv.Kvm : Hv.Intf.S)
  | Hv.Kind.Bhyve -> (module Bhyvehv.Bhyve : Hv.Intf.S)

let provision ?seed ~name ~machine ~hv configs =
  let host = Hv.Host.create ?seed ~name machine in
  Hv.Host.boot_hypervisor host (hypervisor_of hv);
  List.iter (fun config -> ignore (Hv.Host.create_vm host config)) configs;
  host

type outcome =
  [ `Applied of Inplace.report
  | `Advised of Hv.Kind.t
  | `No_action
  | `No_safe_alternative ]

type response = { advice : Cve.Window.advice; outcome : outcome }

let transplant_inplace ?options ?rng ?fault ?obs ?metrics ?audit ~host ~target
    () =
  Inplace.run ?options ?rng ?fault ?obs ?metrics ?audit ~host
    ~target:(hypervisor_of target) ()

let transplant_migration ?rng ?fault ?retry ?obs ?metrics ?audit ~src ~dst
    ?vm_names () =
  Migrate.run ?rng ?fault ?retry ?obs ?metrics ?audit ~src ~dst ?vm_names ()

let transplant_shadow ?rng ?fault ?retry ?obs ?metrics ?params ?ladder ~src
    ~spare ~target ?vm_names () =
  Migrate.run_shadow ?rng ?fault ?retry ?obs ?metrics ?params ?ladder ~src
    ~spare ~target:(hypervisor_of target) ?vm_names ()

let respond_to_cve ?options ?rng ?fault ~host ~cve_id ~mode () =
  let site = "Api.respond_to_cve" in
  let record =
    match Cve.Nvd.find cve_id with
    | Some r -> r
    | None ->
      Error.raise_errorf ~site
        ~hint:"list known ids with the `cve` CLI command" "unknown CVE %s"
        cve_id
  in
  let current =
    match Hv.Host.hypervisor_kind host with
    | Some k -> Hv.Kind.to_string k
    | None ->
      Error.raise_error ~site
        ~hint:"boot one first, e.g. with Api.provision" "host has no hypervisor"
  in
  let advice =
    Cve.Window.advise ~fleet:(List.map Hv.Kind.to_string Hv.Kind.all) ~current
      record
  in
  let outcome =
    match advice with
    | Cve.Window.Transplant_to target_name -> (
      let target =
        match Hv.Kind.of_string target_name with
        | Some k -> k
        | None ->
          Error.raise_errorf ~site "unknown target %s" target_name
      in
      match mode with
      | `Apply ->
        `Applied (transplant_inplace ?options ?rng ?fault ~host ~target ())
      | `Advise -> `Advised target)
    (* Plain [advise] never returns [Wait_for_patch]; only the
       cost-aware stream policy does. *)
    | Cve.Window.Wait_for_patch | Cve.Window.No_action -> `No_action
    | Cve.Window.No_safe_alternative -> `No_safe_alternative
  in
  { advice; outcome }

let applied_report r =
  match r.outcome with `Applied rep -> Some rep | _ -> None
