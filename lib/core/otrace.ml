let attach tracer =
  Obs.Tracer.set_hook tracer (fun phase span at ->
      Log.debug (fun m ->
          m "%s %s [%s] at %a"
            (match (phase, Obs.Span.kind span) with
            | _, Obs.Span.Instant -> "instant"
            | `Open, _ -> "span open"
            | `Close, _ -> "span close")
            (Obs.Span.name span) (Obs.Span.track span) Sim.Time.pp at));
  tracer

let start obs ~at ?parent ?track ?attrs name =
  match obs with
  | None -> None
  | Some tr -> Some (Obs.Tracer.start tr ~at ?parent ?track ?attrs name)

let finish obs span ~at =
  match (obs, span) with
  | Some tr, Some s -> Obs.Tracer.finish tr s ~at
  | _ -> ()

let span obs ~at ~until ?parent ?track ?attrs name =
  match obs with
  | None -> None
  | Some tr -> Some (Obs.Tracer.span tr ~at ~until ?parent ?track ?attrs name)

let instant obs ~at ?parent ?track ?attrs name =
  match obs with
  | None -> ()
  | Some tr -> Obs.Tracer.instant tr ~at ?parent ?track ?attrs name

let event span ~at label =
  match span with None -> () | Some s -> Obs.Span.add_event s ~at label

(* --- optional-registry metric helpers --- *)

let count metrics ?(by = 1.0) ?(labels = []) name =
  match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.inc ~by (Obs.Metrics.counter m ~labels name)

let gauge_set metrics ?(labels = []) name v =
  match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.set (Obs.Metrics.gauge m ~labels name) v

let observe metrics ?(labels = []) ~buckets name v =
  match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.observe (Obs.Metrics.histogram m ~labels ~buckets name) v

(* Shared duration buckets (seconds) for phase and downtime histograms:
   spans the paper's sub-second phases up to a full-reboot fallback. *)
let seconds_buckets =
  [ 0.01; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 5.0; 10.0; 30.0; 60.0; 120.0 ]

(* --- fault injection --- *)

let fault_noted metrics ~engine ?vm site =
  Log.warn (fun m ->
      m "fault injected at %a%s" Fault.pp_site site
        (match vm with Some v -> " (" ^ v ^ ")" | None -> ""));
  count metrics
    ~labels:[ ("engine", engine); ("site", Fault.site_to_string site) ]
    "hypertp_faults_total"

let fire fault metrics ~engine ?vm site =
  match fault with
  | None -> false
  | Some f ->
    let fired = Fault.fire f ?vm site in
    if fired then fault_noted metrics ~engine ?vm site;
    fired
