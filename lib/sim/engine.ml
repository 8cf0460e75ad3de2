(* A binary min-heap over (time, sequence) keys. The sequence number makes
   the execution order of simultaneous events equal to their scheduling
   order, which pins down determinism.

   The heap holds no pointers: each slot is four ints in one flat array
   (time in ns, sequence, handler, payload), so scheduling and popping
   move ints and never allocate or run the write barrier.  A handler is
   its index in [handlers], registered once with [handler]. *)

type handler = int

type t = {
  mutable clock : Time.t;
  mutable keys : int array; (* [stride] ints per heap slot *)
  mutable size : int;
  mutable next_seq : int;
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
}

let stride = 4

let create () =
  { clock = Time.zero; keys = Array.make (64 * stride) 0; size = 0;
    next_seq = 0; handlers = Array.make 4 ignore; n_handlers = 0 }

let now t = t.clock
let pending t = t.size

let handler t f =
  if t.n_handlers = Array.length t.handlers then begin
    let bigger = Array.make (2 * t.n_handlers) ignore in
    Array.blit t.handlers 0 bigger 0 t.n_handlers;
    t.handlers <- bigger
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

(* Slot [i] runs before slot [j]. *)
let before k i j =
  let a = k.(i * stride) and b = k.(j * stride) in
  a < b || (a = b && k.((i * stride) + 1) < k.((j * stride) + 1))

let move k ~src ~dst =
  let s = src * stride and d = dst * stride in
  k.(d) <- k.(s);
  k.(d + 1) <- k.(s + 1);
  k.(d + 2) <- k.(s + 2);
  k.(d + 3) <- k.(s + 3)

let schedule_event t (at : Time.t) h payload =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule_event: time in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if (t.size + 1) * stride > Array.length t.keys then begin
    let bigger = Array.make (2 * Array.length t.keys) 0 in
    Array.blit t.keys 0 bigger 0 (t.size * stride);
    t.keys <- bigger
  end;
  let k = t.keys and at = (at :> int) in
  (* Sift the hole up.  The new sequence number is the largest in the
     heap, so the key comparison reduces to the time. *)
  let i = ref t.size in
  while !i > 0 && at < k.(((!i - 1) / 2) * stride) do
    let parent = (!i - 1) / 2 in
    move k ~src:parent ~dst:!i;
    i := parent
  done;
  let d = !i * stride in
  k.(d) <- at;
  k.(d + 1) <- seq;
  k.(d + 2) <- h;
  k.(d + 3) <- payload;
  t.size <- t.size + 1

(* Remove the root: the last slot fills the hole left at the top and
   sinks to its place. *)
let remove_root t =
  let k = t.keys in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let c = if l + 1 < n && before k (l + 1) l then l + 1 else l in
        if before k c n then begin
          move k ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    move k ~src:n ~dst:!i
  end

(* Pop the earliest event, advance the clock to it and run it.  The heap
   is consistent before the handler runs, so a handler may schedule and
   an exception it raises leaves the engine usable. *)
let step t =
  let k = t.keys in
  let at = k.(0) and h = k.(2) and payload = k.(3) in
  remove_root t;
  t.clock <- Time.ns at;
  t.handlers.(h) payload

let run t =
  while t.size > 0 do
    step t
  done

let run_until t (limit : Time.t) =
  while t.size > 0 && t.keys.(0) <= (limit :> int) do
    step t
  done;
  if Time.(t.clock < limit) then t.clock <- limit
