type t = int

let zero = 0

let ns n =
  if n < 0 then invalid_arg "Time.ns: negative";
  n

let us n = ns (n * 1_000)
let ms n = ns (n * 1_000_000)
let sec n = ns (n * 1_000_000_000)

(* [Float.of_int max_int] rounds up to the power of two just past
   [max_int], so every float below it converts without wrapping. *)
let max_ns_f = Float.of_int max_int
let fits_sec_f s = Float.is_finite s && 0.0 <= s && s *. 1e9 < max_ns_f

let of_sec_f s =
  if not (Float.is_finite s) || s < 0.0 then
    invalid_arg "Time.of_sec_f: negative or non-finite";
  let ns = s *. 1e9 in
  if not (ns < max_ns_f) then
    invalid_arg "Time.of_sec_f: above the int nanosecond range";
  int_of_float (Float.round ns)

let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_ns t = t

let add a b = a + b

let sub a b =
  if b > a then invalid_arg "Time.sub: negative result";
  a - b

let diff a b = abs (a - b)

let scale k t =
  if not (Float.is_finite k) || k < 0.0 then
    invalid_arg "Time.scale: negative or non-finite factor";
  int_of_float (Float.round (k *. float_of_int t))

let max = Stdlib.max
let min = Stdlib.min
let sum = List.fold_left add zero
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let pp fmt t =
  if t >= 1_000_000_000 then Format.fprintf fmt "%.3fs" (to_sec_f t)
  else if t >= 1_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else if t >= 1_000 then Format.fprintf fmt "%dus" (t / 1_000)
  else Format.fprintf fmt "%dns" t

let to_string t = Format.asprintf "%a" pp t
