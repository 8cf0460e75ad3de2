(** Seeded multi-year synthetic CVE arrival streams.

    One Poisson-ish arrival process per attack-surface class
    ({!Cve.Nvd.taxonomy}), each drawing from its own {!Sim.Rng.split}
    of the seed, merged into one chronological stream and attributed:
    category / affected hypervisor from a per-class wheel that is
    consistent with {!Cve.Nvd.classify} by construction, severity from
    [critical_fraction], CVSS vectors from the Table 1 representative
    pools, and a patch-availability delay drawn from the documented
    vulnerability-window statistics
    ({!Cve.Window.sample_patch_delay}). *)

type config = {
  years : float;  (** stream length in virtual years *)
  rate_per_year : float;  (** total arrivals per year across classes *)
  class_mix : (Cve.Nvd.taxonomy * float) list;
      (** relative class weights; repeated entries accumulate *)
  critical_fraction : float;  (** remainder is medium severity *)
  coordinated_fraction : float;  (** see {!Cve.Window.sample_patch_delay} *)
  base_year : int;  (** identifiers start at [CVE-<base_year>-5000] *)
  seed : int64;
}

val default : config
(** 5 years at 14 disclosures/year (the Table 1 era rate), hypercall
    surface dominating (50/30/20), 45 % critical. *)

type event = {
  seq : int;  (** position in the merged stream, 0-based *)
  day : float;  (** virtual arrival day since stream start *)
  cve : Cve.Nvd.timed;
  subsystems : string list;  (** surface class plus the flawed subsystem *)
}

val max_arrivals : int
(** 100,000: the most arrivals ([rate_per_year] x [years]) a config may
    expect. *)

val check_volume : site:string -> years:float -> rate_per_year:float -> unit
(** Raises [Hypertp_error.Error] under [site] unless the horizon fits
    {!Sim.Time} and at most {!max_arrivals} arrivals are expected. *)

val validate : config -> unit
(** The config checks {!generate} runs, {!check_volume} among them
    (site ["Stream.Gen"]).  Arithmetic only; NaN fails every check. *)

val generate : ?fault:Fault.t -> config -> event list
(** The full stream, chronological.  [fault] is consulted once per
    merged arrival at {!Fault.Cve_burst}: a firing compresses the next
    few inter-arrival gaps (an audit-wave disclosure burst), pulling
    later events earlier.  Equal seeds and equal plans give
    byte-identical streams.  Raises [Hypertp_error.Error] (site
    ["Stream.Gen"]) on a malformed config. *)

val event_to_string : event -> string
(** One-line stable rendering (the determinism tests pin it). *)

val affects_to_string : Cve.Nvd.system -> string
val severity_to_string : Cve.Cvss.severity -> string
val pp_event : Format.formatter -> event -> unit
