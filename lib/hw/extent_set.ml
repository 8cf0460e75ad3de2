(* Ranges [starts.(i), stops.(i)) in ascending order with
   stops.(i) < starts.(i + 1): ranges neither overlap nor touch, so the
   frame at stops.(i) is never in the set. *)
type t = { starts : int array; stops : int array }

let empty = { starts = [||]; stops = [||] }

let by_start (a, _) (b, _) = Int.compare a b

(* Coalesce (start, stop) pairs sorted by start: overlapping or adjacent
   ones merge, empty ones vanish. *)
let coalesce sorted =
  let merged =
    List.fold_left
      (fun acc (a, b) ->
        if a >= b then acc
        else
          match acc with
          | (a', b') :: rest when a <= b' -> (a', Stdlib.max b b') :: rest
          | _ -> (a, b) :: acc)
      [] sorted
  in
  let merged = Array.of_list (List.rev merged) in
  { starts = Array.map fst merged; stops = Array.map snd merged }

let of_ranges ranges = coalesce (List.sort by_start ranges)
let ranges t = List.init (Array.length t.starts) (fun i -> (t.starts.(i), t.stops.(i)))

let range_of start len =
  let a = Frame.Mfn.to_int start in
  (a, a + len)

let of_extents l = of_ranges (List.map (fun (s, len) -> range_of s len) l)

let cardinal t =
  let n = ref 0 in
  Array.iteri (fun i a -> n := !n + (t.stops.(i) - a)) t.starts;
  !n

let union a b = coalesce (List.merge by_start (ranges a) (ranges b))
let add t start len = union t (of_extents [ (start, len) ])

let remove t start len =
  let lo, hi = range_of start len in
  if len <= 0 then t
  else
    of_ranges
      (List.concat_map
         (fun (a, b) -> [ (a, Stdlib.min b lo); (Stdlib.max a hi, b) ])
         (ranges t))

(* Index of the last range starting at or before [x]; -1 if none. *)
let index_le t x =
  let lo = ref 0 and hi = ref (Array.length t.starts - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) <= x then lo := mid + 1 else hi := mid - 1
  done;
  !hi

let covered t i x = i >= 0 && x < t.stops.(i)
let mem t mfn =
  let x = Frame.Mfn.to_int mfn in
  covered t (index_le t x) x

let first_mem t start len =
  let lo, hi = range_of start len in
  if len <= 0 then None
  else
    let i = index_le t lo in
    if covered t i lo then Some start
    else if i + 1 < Array.length t.starts && t.starts.(i + 1) < hi then
      Some (Frame.Mfn.of_int t.starts.(i + 1))
    else None

let first_absent t start len =
  let lo, hi = range_of start len in
  if len <= 0 then None
  else
    let i = index_le t lo in
    if not (covered t i lo) then Some start
    else if t.stops.(i) >= hi then None
    else Some (Frame.Mfn.of_int t.stops.(i))

let disjoint t start len = Option.is_none (first_mem t start len)
let covers t start len = Option.is_none (first_absent t start len)
