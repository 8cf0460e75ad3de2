(* A text is lines of space-separated tokens: an optional tag, bare
   words and [key=value] fields.  The reader is a cursor over the whole
   string: nothing is split or trimmed, and fields are matched in place,
   in the writer's order. *)

type 'v value = {
  put : Buffer.t -> 'v -> unit;
  get : string -> 'v option;
  to_eol : bool;
}

let conv to_s get =
  { put = (fun b v -> Buffer.add_string b (to_s v)); get; to_eol = false }

(* Digits straight into the buffer: entry stamps and cursors are the
   bulk of a journal. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n
let int = { (conv string_of_int int_of_string_opt) with put = add_int }

let time =
  let get s =
    match int_of_string_opt s with Some n when n >= 0 -> Some (Time.ns n) | _ -> None
  in
  { put = (fun b t -> add_int b (Time.to_ns t)); get; to_eol = false }

let int64 = conv Int64.to_string Int64.of_string_opt
let float = conv (Printf.sprintf "%.17g") float_of_string_opt
let bool = conv string_of_bool bool_of_string_opt
let str = conv Fun.id Option.some
let rest = { str with to_eol = true }
let enum names = conv (Array.get names) (fun s -> Array.find_index (String.equal s) names)

let line b s = Buffer.add_string b s; Buffer.add_char b '\n'

(* --- reading --- *)

type reader = { s : string; mutable pos : int; mutable line : int; mutable bol : int }
type mark = int * int

exception Bad of string

let mark_at r a = (r.line, a - r.bol + 1)
let mark r = mark_at r r.pos

let fail ?at r fmt =
  let line, col = Option.value at ~default:(mark r) in
  Printf.ksprintf
    (fun m -> raise (Bad (Printf.sprintf "line %d, column %d: %s" line col m)))
    fmt

let sub r a b = String.sub r.s a (b - a)
let at_eof r = r.pos >= String.length r.s

(* The end of the token at [i]: the next [stop], newline or end of text. *)
let rec scan r i stop =
  if i < String.length r.s && r.s.[i] <> '\n' && r.s.[i] <> stop then scan r (i + 1) stop
  else i

let rec skip_blank r =
  if (not (at_eof r)) && r.s.[r.pos] = '\n' then begin
    r.pos <- r.pos + 1;
    r.line <- r.line + 1;
    r.bol <- r.pos;
    skip_blank r
  end

let end_line r =
  let e = scan r r.pos '\n' in
  if e > r.pos then fail r "unexpected %S" (sub r r.pos e);
  skip_blank r

let raw_line r =
  let e = scan r r.pos '\n' in
  let l = sub r r.pos e in
  r.pos <- e;
  end_line r;
  l

let magic r m =
  let at = mark r in
  let l = raw_line r in
  if l <> m then fail ~at r "bad magic %S (want %S)" l m

let at_tag r t = r.pos = r.bol && String.equal (sub r r.pos (scan r r.pos ' ')) t

let tag r t =
  if t <> "" then
    if at_tag r t then r.pos <- r.pos + String.length t else fail r "want a %S line" t

(* The next token's start: the line's first, or one past a space. *)
let start r = if r.pos = r.bol then r.pos else r.pos + 1

(* Where the value of the next token starts, if that token is field
   [key], or a bare word for [key = ""]. *)
let key_at r key =
  let a = start r and n = String.length key in
  let e = scan r a ' ' in
  if e = a || (a > r.pos && r.s.[r.pos] <> ' ') then None
  else if key = "" then Some a
  else if e > a + n && r.s.[a + n] = '=' && String.equal (sub r a (a + n)) key then
    Some (a + n + 1)
  else None

let has r key = key_at r key <> None

let what key = if key = "" then "word" else "field " ^ key

let get r key v =
  match key_at r key with
  | Some a -> (
    let b = scan r a (if v.to_eol then '\n' else ' ') in
    match v.get (sub r a b) with
    | Some x -> r.pos <- b; x
    | None -> fail ~at:(mark_at r a) r "bad %s %S" (what key) (sub r a b))
  | None ->
    let a = min (start r) (scan r r.pos '\n') in
    fail ~at:(mark_at r a) r "want a %s" (what key)

let parse s f =
  let r = { s; pos = 0; line = 1; bol = 0 } in
  match
    skip_blank r;
    let x = f r in
    if not (at_eof r) then fail r "unexpected line";
    x
  with
  | x -> Ok x
  | exception Bad m -> Error m

(* --- lines described once --- *)

type fields = {
  field : 'v. string -> 'v value -> 'v -> 'v;
  optional : 'v. string -> 'v value -> 'v option -> 'v option;
  word : 'v. 'v value -> 'v -> 'v;
}

(* Writing passes the record's values through; reading replaces them.
   A bare word is a field without a key, and every token but a line's
   first follows a space. *)
let put_line b t line x =
  let field k v x =
    let n = Buffer.length b in
    if n > 0 && Buffer.nth b (n - 1) <> '\n' then Buffer.add_char b ' ';
    if k <> "" then (Buffer.add_string b k; Buffer.add_char b '=');
    v.put b x;
    x
  in
  let optional k v o = Option.map (field k v) o in
  ignore (field "" str t);
  ignore (line { field; optional; word = (fun v x -> field "" v x) } x);
  Buffer.add_char b '\n'

let get_line r t line x =
  let field k v _ = get r k v in
  let optional k v _ = if has r k then Some (get r k v) else None in
  tag r t;
  let x = line { field; optional; word = (fun v x -> field "" v x) } x in
  end_line r;
  x

let to_line t line x =
  let b = Buffer.create 256 in
  put_line b t line x;
  Buffer.sub b 0 (Buffer.length b - 1)

let of_line t line x s = parse s (fun r -> get_line r t line x)

let sections r t line x ~body =
  let rec go acc =
    if at_eof r then List.rev acc
    else
      let m = mark r in
      let h = get_line r t line x in
      go ((m, h, body r) :: acc)
  in
  go []
