(** Structured integrity verdicts for UISR blobs.

    [Codec.decode_verified] classifies every blob as [Intact] (bytes
    pristine, state architecturally sane), [Salvaged] (some damage was
    detected, localized by the per-section CRCs or repaired with
    substitute state, and the VM can still resume) or [Rejected] (a
    mandatory section or invariant is gone — the VM must be
    quarantined).  The semantic validator backs the verdict with
    architecture-level checks on the decoded state. *)

type diagnostic = {
  diag_section : string;  (** e.g. ["vcpu[1]"], ["memmap"], ["envelope"] *)
  diag_offset : int option;  (** byte offset inside the blob, if known *)
  diag_reason : string;
  diag_fatal : bool;
      (** fatal diagnostics force [Rejected]; the rest allow salvage *)
}

type verdict =
  | Intact
  | Salvaged of diagnostic list
  | Rejected of diagnostic

type report = {
  verdict : verdict;
  state : Vm_state.t option;  (** decoded state, for Intact/Salvaged *)
  sections_total : int;  (** TLV sections encountered in the blob *)
  sections_ok : int;  (** sections whose CRC and decode both passed *)
}

val diag :
  ?offset:int -> section:string -> fatal:bool -> string -> diagnostic

val diagnostics : report -> diagnostic list
(** All diagnostics carried by the verdict ([] for [Intact]). *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

val default_pit : Vmstate.Pit.t
(** Power-on PIT substituted when the PIT section is damaged. *)

val default_ioapic : pins:int -> Vmstate.Ioapic.t
(** All-masked IOAPIC substituted when the IOAPIC section is damaged. *)

val validate :
  ?preserved:Hw.Extent_set.t -> Vm_state.t -> diagnostic list
(** The semantic validator: LAPIC vector-range and register-shape rules,
    MTRR count/type/overlap rules, XSAVE area bounds against
    [Xsave.component_words], virtqueue index sanity via
    [Virtqueue.of_words], device uniqueness/unplug consistency, memory
    map power-of-two/coverage/overlap rules, and (when [preserved] is
    given, typically [Pram.Build.preserved]) that every mapped machine
    frame is resolvable in the PRAM-preserved frame map: one range
    query per memory-map entry, naming the entry's first uncovered
    frame.
    Pristine states produced by the hypervisors' [to_uisr] pass with
    zero diagnostics. *)

(**/**)

(* Assembly helpers for [Codec.decode_verified]. *)

val verdict_of :
  outer_ok:bool ->
  scan_diags:diagnostic list ->
  semantic_diags:diagnostic list ->
  state:Vm_state.t ->
  sections_total:int ->
  sections_ok:int ->
  report

val rejected :
  ?offset:int ->
  section:string ->
  sections_total:int ->
  sections_ok:int ->
  string ->
  report
