(* Deterministic sharded execution of independent simulation tasks.

   A fleet simulation is partitioned into region shards, each a pure
   function of its index (own [Engine], own derived seed).  [map] runs
   the tasks under one of three schedules — sequential, rotated
   batches, or parallel on stdlib domains — and always returns results
   in task-index order.  Because every task is independent and
   deterministic, all three schedules produce identical result arrays;
   the mode only decides wall-clock, never bytes.  The qcheck suite
   pins exactly that. *)

type mode =
  | Sequential
  | Rotated of int
  | Parallel of { shards : int; domains : int }

(* The OCaml 5.1 runtime's limit on live domains, the calling one
   included: a larger count would fail in [Domain.spawn]. *)
let max_domains = 128

let validate = function
  | Sequential -> Ok ()
  | Rotated k ->
    if k >= 1 then Ok ()
    else Error (Printf.sprintf "rotation count must be >= 1 (got %d)" k)
  | Parallel { shards; domains } ->
    if shards < 1 || domains < 1 then
      Error
        (Printf.sprintf
           "parallel shards and domains must be >= 1 (got %dx%d)" shards
           domains)
    else if domains > max_domains then
      Error
        (Printf.sprintf "%d domains exceed the runtime's limit of %d" domains
           max_domains)
    else Ok ()

let to_string = function
  | Sequential -> "seq"
  | Rotated k -> Printf.sprintf "rotated:%d" k
  | Parallel { shards; domains } -> Printf.sprintf "parallel:%dx%d" shards domains

let parse s =
  let int_of v = match int_of_string_opt v with
    | Some i when i >= 1 -> Some i
    | _ -> None
  in
  match String.split_on_char ':' (String.trim s) with
  | [ ("seq" | "sequential") ] -> Ok Sequential
  | [ ("rotated" | "rot"); k ] -> (
    match int_of k with
    | Some k -> Ok (Rotated k)
    | None -> Error (Printf.sprintf "bad rotation count %S" k))
  | [ ("parallel" | "par"); spec ] -> (
    match String.split_on_char 'x' spec with
    | [ sh; dm ] -> (
      match (int_of sh, int_of dm) with
      | Some shards, Some domains -> Ok (Parallel { shards; domains })
      | _ -> Error (Printf.sprintf "bad parallel spec %S (want SHARDSxDOMAINS)" spec))
    | [ sh ] -> (
      match int_of sh with
      | Some shards -> Ok (Parallel { shards; domains = shards })
      | None -> Error (Printf.sprintf "bad parallel spec %S" spec))
    | _ -> Error (Printf.sprintf "bad parallel spec %S (want SHARDSxDOMAINS)" spec))
  | _ ->
    Error
      (Printf.sprintf
         "unknown sharding mode %S (want seq, rotated:K or parallel:SxD)" s)

let of_string s = Result.bind (parse s) (fun m -> Result.map (fun () -> m) (validate m))

(* How many worker batches / domains a mode uses over [n] tasks; the
   answer feeds benchmark metadata, not scheduling decisions. *)
let shards_used mode n =
  match mode with
  | Sequential -> 1
  | Rotated k -> Stdlib.min (Stdlib.max 1 k) (Stdlib.max 1 n)
  | Parallel { shards; _ } -> Stdlib.min (Stdlib.max 1 shards) (Stdlib.max 1 n)

let domains_used mode n =
  match mode with
  | Sequential | Rotated _ -> 1
  | Parallel { domains; _ } as m -> Stdlib.min (Stdlib.max 1 domains) (shards_used m n)

let map mode n f =
  if n < 0 then invalid_arg "Shard.map: negative task count";
  (match validate mode with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Shard.map: " ^ msg));
  let out = Array.make n None in
  let run i = out.(i) <- Some (f i) in
  (match mode with
  | Sequential -> for i = 0 to n - 1 do run i done
  | Rotated k ->
    (* k rotation batches: batch r serves tasks r, r+k, r+2k, ...  A
       different execution order from Sequential, the same results. *)
    let k = Stdlib.min (Stdlib.max 1 k) (Stdlib.max 1 n) in
    for r = 0 to k - 1 do
      let i = ref r in
      while !i < n do
        run !i;
        i := !i + k
      done
    done
  | Parallel { shards; domains } ->
    (* Contiguous chunks dealt to domains through an atomic counter.
       Each result lands in its own slot, so no ordering between
       domains is observable; [Domain.join] publishes the writes. *)
    let shards = Stdlib.min (Stdlib.max 1 shards) (Stdlib.max 1 n) in
    let chunk = (n + shards - 1) / shards in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let c = Atomic.fetch_and_add next 1 in
        if c >= shards || Atomic.get failed <> None then continue_ := false
        else
          let lo = c * chunk and hi = Stdlib.min n ((c + 1) * chunk) in
          try
            for i = lo to hi - 1 do
              run i
            done
          with e -> ignore (Atomic.compare_and_set failed None (Some e))
      done
    in
    let workers = Stdlib.min (Stdlib.max 1 domains) shards in
    if workers <= 1 then worker ()
    else begin
      let doms = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join doms
    end;
    (match Atomic.get failed with Some e -> raise e | None -> ()));
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Shard.map: task produced no result")
    out
