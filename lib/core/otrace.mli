(** Thin optional-tracer helpers for the transplant engines.

    Every engine takes an optional {!Obs.Tracer.t}; these wrappers make
    the un-traced path free ([None] short-circuits) and route each span
    open/close through {!Log} at debug level, so [-v -v] on the CLI
    narrates the same structure the exporter emits. *)

val attach : Obs.Tracer.t -> Obs.Tracer.t
(** Install the {!Log}-routing hook on a tracer and return it.  The
    engines call this on every tracer they are handed; installing twice
    is harmless. *)

val start :
  Obs.Tracer.t option -> at:Sim.Time.t -> ?parent:Obs.Span.t ->
  ?track:string -> ?attrs:(string * string) list -> string ->
  Obs.Span.t option

val finish : Obs.Tracer.t option -> Obs.Span.t option -> at:Sim.Time.t -> unit

val span :
  Obs.Tracer.t option -> at:Sim.Time.t -> until:Sim.Time.t ->
  ?parent:Obs.Span.t -> ?track:string -> ?attrs:(string * string) list ->
  string -> Obs.Span.t option
(** Record an already-delimited interval. *)

val instant :
  Obs.Tracer.t option -> at:Sim.Time.t -> ?parent:Obs.Span.t ->
  ?track:string -> ?attrs:(string * string) list -> string -> unit

val event : Obs.Span.t option -> at:Sim.Time.t -> string -> unit
(** Annotate a span (no-op when the span is absent). *)

(** {1 Optional-registry metric helpers}

    The same short-circuit convention for {!Obs.Metrics}: registry
    lookups are by (name, labels), so handles are re-derived per call
    and sites stay one-liners. *)

val count :
  Obs.Metrics.t option -> ?by:float -> ?labels:Obs.Metrics.labels -> string ->
  unit

val gauge_set :
  Obs.Metrics.t option -> ?labels:Obs.Metrics.labels -> string -> float -> unit

val observe :
  Obs.Metrics.t option -> ?labels:Obs.Metrics.labels -> buckets:float list ->
  string -> float -> unit

val seconds_buckets : float list
(** Shared histogram bounds (seconds) for phase/downtime durations. *)

val fire :
  Fault.t option -> Obs.Metrics.t option -> engine:string -> ?vm:string ->
  Fault.site -> bool
(** The engines' one way to consult an optional fault plan: whether
    [site] fires ([false] without a plan), {!fault_noted} if it does. *)

val fault_noted :
  Obs.Metrics.t option -> engine:string -> ?vm:string -> Fault.site -> unit
(** Log ["fault injected at SITE (VM)"] and count
    [hypertp_faults_total{engine,site}]. *)
