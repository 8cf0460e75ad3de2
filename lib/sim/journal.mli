(** The one line codec behind every persisted text: campaign, fleet and
    stream journals, control-plane bundles and audit reports.

    Grammar.  A text is a sequence of lines; blank lines are skipped.
    It opens with a {e magic} line naming the format and its version.
    Every other line is space-separated tokens: an optional {e tag}
    (["config"], ["e"], ["region"], ...), bare positional {e words} and
    [key=value] {e fields}.  Fields are written and read in one fixed
    order.  A {!rest} field runs to the end of its line, so its value
    may hold spaces; it comes last.  A {e config line} is a tag plus
    fields that one {!fields} description drives in both directions.  A
    {e section} is a header line followed by an embedded text (a
    campaign journal inside a bundle or a fleet journal) that runs to
    the next header.

    Every reader error reads ["line N, column C: ..."], pointing at the
    offending token. *)

(** {1 Values} *)

type 'v value
(** How one field value is written and read. *)

val int : int value
(** Written in decimal; read as an OCaml integer literal. *)

val int64 : int64 value
val float : float value  (** [%.17g], so it round-trips exactly *)

val bool : bool value
val str : string value  (** a token without spaces *)

val rest : string value  (** the rest of the line, spaces included *)

val time : Time.t value  (** non-negative nanoseconds *)

val enum : string array -> int value
(** An index into a table of names, written as the name. *)

val conv : ('v -> string) -> (string -> 'v option) -> 'v value
(** A token written by the first function and read by the second. *)

(** {1 Whole lines} *)

val line : Buffer.t -> string -> unit
(** Write a whole line, verbatim: a magic, an opaque entry. *)

type reader
(** A cursor over the whole text, at a line's start or inside one. *)

type mark
(** A line and column, for errors about a whole section. *)

val parse : string -> (reader -> 'a) -> ('a, string) result
(** Run a reader over a text, which must be consumed entirely.  Errors
    raised with {!fail} come back as [Error]. *)

val fail : ?at:mark -> reader -> ('a, unit, string, 'b) format4 -> 'a
(** Abort {!parse} with an error at [at] (default: the cursor). *)

val mark : reader -> mark
val at_eof : reader -> bool

val magic : reader -> string -> unit
(** Consume the line, which must equal the magic. *)

val raw_line : reader -> string
(** Consume the line and return it verbatim. *)

val at_tag : reader -> string -> bool
(** The cursor opens a line whose first token is the tag. *)

(** {1 Lines described once}

    A line description is a function [fields -> 'a -> 'a] that applies
    [field], [optional] or [word] to each token of a record in order, binding
    each result with [let] (a record expression's evaluation order is
    unspecified), and builds the record from the results.  Writing
    passes the given record's values through; reading ignores them and
    returns the parsed ones.  Round-trip holds by construction. *)

type fields = {
  field : 'v. string -> 'v value -> 'v -> 'v;
  optional : 'v. string -> 'v value -> 'v option -> 'v option;
      (** written only when [Some], read only when present *)
  word : 'v. 'v value -> 'v -> 'v;  (** a bare positional token *)
}

val put_line : Buffer.t -> string -> (fields -> 'a -> 'a) -> 'a -> unit
(** A line tagged [tag] ([""]: untagged), newline included. *)

val get_line : reader -> string -> (fields -> 'a -> 'a) -> 'a -> 'a
(** Read what {!put_line} wrote; the record passed is only a
    template. *)

val to_line : string -> (fields -> 'a -> 'a) -> 'a -> string
(** {!put_line} as a string, without the newline. *)

val of_line : string -> (fields -> 'a -> 'a) -> 'a -> string -> ('a, string) result
(** {!get_line} over a one-line string. *)

val sections :
  reader -> string -> (fields -> 'h -> 'h) -> 'h -> body:(reader -> 'b) ->
  (mark * 'h * 'b) list
(** Sections to the end of the text.  Each is a header line tagged
    [tag], read by {!get_line}, then a body that [body] reads up to the
    next header.  Each comes with its header's mark, for errors about
    the whole section. *)
