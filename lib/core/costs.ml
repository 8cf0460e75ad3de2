let makespan ~workers jobs =
  if workers <= 0 then invalid_arg "Costs.makespan: non-positive workers";
  match jobs with
  | [] -> 0.0
  | _ ->
    let sorted = List.sort (fun a b -> Float.compare b a) jobs in
    let loads = Array.make workers 0.0 in
    let place job =
      let best = ref 0 in
      for i = 1 to workers - 1 do
        if loads.(i) < loads.(!best) then best := i
      done;
      loads.(!best) <- loads.(!best) +. job
    in
    List.iter place sorted;
    Array.fold_left Float.max 0.0 loads

let mem_factor (m : Hw.Machine.t) = m.costs.Hw.Machine.mem_factor

let pram_build_seconds m ~gib ~entries =
  ((0.33 +. (0.11 *. gib)) +. (0.4e-6 *. float_of_int entries)) *. mem_factor m

let pram_finalize_seconds m ~total_gib nvms =
  (0.012 +. (0.018 *. total_gib) +. (0.004 *. float_of_int nvms))
  *. mem_factor m

let pram_parse_seconds m ~metadata_pages ~entries ~covered_frames =
  ((15e-6 *. float_of_int metadata_pages)
  +. (2e-6 *. float_of_int entries)
  +. (0.3e-6 *. float_of_int covered_frames))
  *. mem_factor m

let uisr_encode_seconds ~bytes_len = 2e-9 *. float_of_int bytes_len
let resume_seconds ~nvms = 0.003 *. float_of_int nvms

let audit_sweep_seconds m ~frames_swept ~vms =
  ((0.2e-6 *. float_of_int frames_swept) +. (0.002 *. float_of_int vms))
  *. mem_factor m

let scrub_seconds m ~frames_freed ~findings =
  ((5e-6 *. float_of_int frames_freed) +. (0.001 *. float_of_int findings))
  *. mem_factor m

let per_riding_vm_seconds = 0.4

let expected_host_upgrade_seconds ~boot_seconds ~vms =
  boot_seconds +. (per_riding_vm_seconds *. float_of_int vms)

(* Shadow-host cutover: staging the spare is the target boot plus a
   per-VM skeleton pre-restore, all paid while the source serves; the
   identity swap itself is a fixed ARP/route flip on top of the final
   dirty set; reclaim tears the source copies down after the commit. *)
let shadow_prestage_vm_seconds = 0.25

let shadow_stage_seconds ~boot_seconds ~vms =
  if boot_seconds < 0.0 then
    invalid_arg "Costs.shadow_stage_seconds: negative boot time";
  boot_seconds +. (shadow_prestage_vm_seconds *. float_of_int vms)

let shadow_flip_seconds = 0.0005
let shadow_reclaim_seconds ~vms = 0.5 +. (0.15 *. float_of_int vms)

let straggler_deadline_seconds ~factor ~expected =
  if factor < 1.0 then
    invalid_arg "Costs.straggler_deadline_seconds: factor below 1.0";
  if expected < 0.0 then
    invalid_arg "Costs.straggler_deadline_seconds: negative expected duration";
  factor *. expected

(* Per-host estimates are pure functions of small keys (hv pair, VM
   profile), yet campaign planning used to recompute them once per
   host — at 10k hosts that is 10k identical Precopy plans and boot
   models.  [Memo] caches them; correctness is unchanged because the
   underlying estimators are deterministic. *)
module Memo = struct
  (* The caches behind [Upgrade.migration_op_time] and
     [inplace_host_time] are module-level, and sharded fleet runs plan
     from several domains at once.  Each domain keeps a table of its
     own, so a lookup takes no lock; determinism is unaffected because
     the memoised estimators are pure — every domain computes the value
     any other would have. *)
  type ('a, 'b) t = ('a, 'b) Hashtbl.t Domain.DLS.key

  let create n : ('a, 'b) t = Domain.DLS.new_key (fun () -> Hashtbl.create n)

  let find_or_add t key f =
    let tbl = Domain.DLS.get t in
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.replace tbl key v;
      v
end
