(** Discrete-event simulation engine.

    An event is a handler registered once plus one int payload,
    scheduled at an absolute virtual time.  Events run in time order;
    ties break in scheduling order, which keeps every run
    deterministic.  The payload carries whatever the handler needs to
    tell its events apart (a controller packs an event kind, a host
    index and an attempt epoch into it), so scheduling one allocates
    nothing.  Handlers may schedule further events, and an exception a
    handler raises propagates out of {!run} with the queue intact.

    A periodic activity is a handler that schedules its own next
    firing after its body, so a body that raises ends the series: the
    control plane's heartbeat and the CVE stream's admission tick both
    work this way.

    An event leaves the queue only by running: there is no
    cancellation.  A caller that changes its mind makes the event a
    no-op when it fires, e.g. the campaign controller stamps each host
    event with the attempt it belongs to and ignores stale ones. *)

type t

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current virtual time.  Inside a handler, this is the event's time. *)

type handler
(** A handler registered with one engine. *)

val handler : t -> (int -> unit) -> handler
(** [handler e f] registers [f] with [e] for the engine's lifetime.
    Register once per controller, not per event. *)

val schedule_event : t -> Time.t -> handler -> int -> unit
(** [schedule_event e t h payload] runs [h payload] when the clock
    reaches [t].  Raises [Invalid_argument] if [t] is in the past. *)

val run : t -> unit
(** Execute events until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** Execute events with time [<= limit], then advance the clock to
    [limit] (even if the queue still holds later events). *)

val pending : t -> int
(** Number of events not yet executed. *)
