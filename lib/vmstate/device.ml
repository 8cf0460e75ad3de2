type kind =
  | Net_emulated
  | Net_passthrough
  | Blk_emulated
  | Blk_passthrough
  | Serial_console

type run_state = Dev_running | Dev_paused | Dev_unplugged

type t = {
  id : int;
  kind : kind;
  run_state : run_state;
  emulation_state : int64 array;
  queues : Virtqueue.t array;
  tcp_connections : int;
}

let emulation_words = function
  | Net_emulated -> 64 (* MAC filter, feature bits, interrupt coalescing *)
  | Blk_emulated -> 48 (* geometry, feature bits, request accounting *)
  | Serial_console -> 8
  | Net_passthrough | Blk_passthrough -> 0

let queue_count = function
  | Net_emulated -> 2 (* rx + tx *)
  | Blk_emulated -> 1
  | Serial_console | Net_passthrough | Blk_passthrough -> 0

let fresh_queues rng kind ~guest_frames =
  Array.init (queue_count kind) (fun _ ->
      Virtqueue.create rng ~size:256 ~guest_frames)

let generate rng ~id ~kind ?(guest_frames = 262144) () =
  let words = emulation_words kind in
  {
    id;
    kind;
    run_state = Dev_running;
    emulation_state = Array.init words (fun _ -> Sim.Rng.int64 rng);
    queues = fresh_queues rng kind ~guest_frames;
    tcp_connections =
      (match kind with
      | Net_emulated | Net_passthrough -> 1 + Sim.Rng.int rng 32
      | Blk_emulated | Blk_passthrough | Serial_console -> 0);
  }

let is_passthrough t =
  match t.kind with
  | Net_passthrough | Blk_passthrough -> true
  | Net_emulated | Blk_emulated | Serial_console -> false

let is_network t =
  match t.kind with
  | Net_emulated | Net_passthrough -> true
  | Blk_emulated | Blk_passthrough | Serial_console -> false

let in_flight t =
  Array.fold_left (fun acc q -> acc + Virtqueue.in_flight q) 0 t.queues

let pause t =
  Array.iter Virtqueue.quiesce t.queues;
  { t with run_state = Dev_paused }

let unplug t =
  if is_passthrough t then invalid_arg "Device.unplug: pass-through device";
  { t with run_state = Dev_unplugged; emulation_state = [||]; queues = [||] }

let rescan t rng =
  if t.run_state <> Dev_unplugged then
    invalid_arg "Device.rescan: device was not unplugged";
  {
    t with
    run_state = Dev_running;
    emulation_state =
      Array.init (emulation_words t.kind) (fun _ -> Sim.Rng.int64 rng);
    queues = fresh_queues rng t.kind ~guest_frames:262144;
  }

let resume t = { t with run_state = Dev_running }

let equal a b =
  a.id = b.id && a.kind = b.kind && a.run_state = b.run_state
  && Array.for_all2 Int64.equal a.emulation_state b.emulation_state
  && Array.length a.queues = Array.length b.queues
  && Array.for_all2 Virtqueue.equal a.queues b.queues
  && a.tcp_connections = b.tcp_connections

let pp_kind fmt = function
  | Net_emulated -> Format.pp_print_string fmt "net(emulated)"
  | Net_passthrough -> Format.pp_print_string fmt "net(passthrough)"
  | Blk_emulated -> Format.pp_print_string fmt "blk(emulated)"
  | Blk_passthrough -> Format.pp_print_string fmt "blk(passthrough)"
  | Serial_console -> Format.pp_print_string fmt "console"

let pp fmt t =
  let state =
    match t.run_state with
    | Dev_running -> "running"
    | Dev_paused -> "paused"
    | Dev_unplugged -> "unplugged"
  in
  Format.fprintf fmt "dev%d %a [%s, %d conns, %d in flight]" t.id pp_kind
    t.kind state t.tcp_connections (in_flight t)
