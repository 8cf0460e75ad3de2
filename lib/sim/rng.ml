type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Keep 62 bits so the value is a non-negative OCaml int. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

(* 53 random bits of a draw scaled into [0, 1), then into [0, bound).
   [mix64] and this are inlined so their int64 temporaries stay
   unboxed. *)
let[@inline] scaled draw bound =
  Int64.to_float (Int64.shift_right_logical draw 11) /. 9007199254740992.0 *. bound

let float t bound = scaled (int64 t) bound

(* [float (create seed) bound], without building a generator. *)
let first_float seed bound =
  scaled (mix64 (Int64.add seed golden_gamma)) bound

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let jitter t pct =
  if pct < 0.0 then invalid_arg "Rng.jitter: negative";
  1.0 -. pct +. float t (2.0 *. pct)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
