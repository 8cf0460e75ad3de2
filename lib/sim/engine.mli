(** Discrete-event simulation engine.

    Events are closures or typed events (a registered handler and an
    int payload) scheduled at absolute virtual times and executed in
    time order; ties break in scheduling order, which keeps every run
    deterministic.  Handlers may schedule further events, and an
    exception a handler raises propagates out of {!run} with the queue
    intact.

    An event leaves the queue only by running: there is no
    cancellation.  A caller that changes its mind makes the event a
    no-op when it fires, e.g. the campaign controller stamps each host
    event with the attempt it belongs to and ignores stale ones. *)

type t

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current virtual time.  Inside a handler, this is the event's time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_at e t f] runs [f] when the clock reaches [t].  Raises
    [Invalid_argument] if [t] is in the past. *)

val schedule_every :
  t -> ?start:Time.t -> Time.t -> (unit -> [ `Continue | `Stop ]) -> unit
(** [schedule_every e d f] runs [f] at [start] (default [now e + d]) and
    then every [d] thereafter, until [f] returns [`Stop].  This is the
    heartbeat surface supervision layers are built on: the control
    plane's root supervisor ticks on it to collect sub-controller
    heartbeats and arm detection timeouts.  Each firing counts as one
    engine event; the callback decides continuation, so there is no
    handle to cancel — return [`Stop].  Raises [Invalid_argument] if
    [d] is not strictly positive. *)

(** {1 Typed events}

    A typed event is a handler registered once plus one int payload per
    event.  The payload carries whatever the handler needs to tell its
    events apart (a controller packs an event kind, a host index and an
    attempt epoch into it), so scheduling one allocates nothing.  Typed
    and closure events share one queue and one (time, scheduling order)
    key: at the same instant they run in the order they were scheduled,
    whichever kind they are. *)

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
