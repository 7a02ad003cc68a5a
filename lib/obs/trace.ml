(** Typed trace events for the GRiP scheduling stack.

    Producers (the pipeline driver, the robustness guards, the
    supervisor and the daemon) emit {!event}s through a {!t}, which is
    one of two things:

    - {!null} — the default; {!enabled} is false so producers skip even
      event construction, making the cost of an untraced run a test per
      emission site;
    - a {!ring} — a bounded in-memory ring buffer holding the newest
      events with their timestamps, the replay surface for tests and
      for post-run rendering.

    The trace answers where a run's time went: phase and stage spans,
    guard verdicts, ladder descents, supervisor and runtime events and
    request milestones.  What a migration did (each hop, suspension,
    barrier and rejection) is recorded once, in the {!Provenance}
    journal keyed by the operation's id (DESIGN.md §37), so a run emits
    a few dozen events and the default ring of 4,096 slots holds a
    traced cell or a served request whole.

    {!chrome_tracks} renders collected events as one Chrome
    [trace_event] JSON document (load the file in chrome://tracing or
    ui.perfetto.dev); {!Trace_file} writes it for the CLI and the
    daemon.
    Timestamps are wall-clock seconds from [Unix.gettimeofday],
    rendered in microseconds relative to the earliest event. *)

(** Pipeline phases spanned with {!Span_begin}/{!Span_end}. *)
type phase =
  | Unwind
  | Redundancy
  | Schedule
  | Converge
  | Measure
  | Stage of string  (** anything else (ladder rungs, CLI stages) *)

let phase_name = function
  | Unwind -> "unwind"
  | Redundancy -> "redundancy"
  | Schedule -> "schedule"
  | Converge -> "converge"
  | Measure -> "measure"
  | Stage s -> s

type event =
  | Span_begin of phase
  | Span_end of phase
  | Guard_verdict of { guard : string; ok : bool; detail : string }
  | Descent of { rung : string; reason : string }
      (** the degradation ladder abandoned [rung] *)
  | Task_retry of { task : int; attempt : int; reason : string }
      (** the supervisor requeued task [task] for try [attempt] *)
  | Task_shed of { task : int; rung : string }
      (** backpressure admitted [task] at the degraded [rung] *)
  | Task_quarantine of { task : int; attempts : int; reason : string }
      (** [task] failed every retry and was quarantined *)
  | Worker_restart of { worker : int; generation : int }
      (** the supervisor replaced worker [worker] (now generation
          [generation]) after a crash or blown deadline *)
  | Watchdog_gap of { worker : int; task : int; gap : float; cause : string }
      (** the starvation watchdog saw worker [worker] silent for [gap]
          seconds while running [task]; [cause] classifies the gap
          ("stall", or "gc_pause" when it overlaps a captured GC
          span) *)
  | Runtime_span of { domain : int; kind : string; dur : float }
      (** a runtime-event span (e.g. a "minor" or "major" GC slice) on
          OCaml domain [domain], lasting [dur] seconds from the event's
          timestamp *)
  | Runtime_mark of { domain : int; kind : string }
      (** an instantaneous runtime lifecycle event (domain spawn /
          terminate, ring start) on domain [domain] *)
  | Request_stage of { id : int; stage : string }
      (** a serving-path milestone of request [id] ("received",
          "cache_hit", "scheduled", "respond", ...); together with the
          [Stage "request N"] span the daemon wraps each request in,
          this correlates one request's frontend -> schedule -> respond
          path across the merged trace *)

let event_name = function
  | Span_begin p -> "begin:" ^ phase_name p
  | Span_end p -> "end:" ^ phase_name p
  | Guard_verdict _ -> "guard"
  | Descent _ -> "descent"
  | Task_retry _ -> "supervise.retry"
  | Task_shed _ -> "supervise.shed"
  | Task_quarantine _ -> "supervise.quarantine"
  | Worker_restart _ -> "supervise.restart"
  | Watchdog_gap _ -> "watchdog.gap"
  | Runtime_span { kind; _ } -> "runtime." ^ kind
  | Runtime_mark { kind; _ } -> "runtime." ^ kind
  | Request_stage { stage; _ } -> "request." ^ stage

(* -- tracers -------------------------------------------------------------- *)

type ring = {
  cap : int;
  buf : (float * event) option array;
  mutable next : int;  (** total events seen; slot = next mod cap *)
}

type t = Null | Ring of ring

let null = Null

(** Producers skip event construction when false. *)
let enabled = function Null -> false | Ring _ -> true

(** [emit t ev] — timestamp [ev] into the ring; a no-op on {!null}. *)
let emit t ev =
  match t with
  | Null -> ()
  | Ring r ->
      r.buf.(r.next mod r.cap) <- Some (Unix.gettimeofday (), ev);
      r.next <- r.next + 1

(** [ring ~capacity ()] — a tracer recording the last [capacity]
    events (by default 4,096, a 32 KB slot array: a traced Table 1
    cell emits at most a few dozen); {!ring_events} returns them
    oldest-first and {!ring_dropped} how many were overwritten. *)
let ring ?(capacity = 4096) () =
  let r = { cap = capacity; buf = Array.make capacity None; next = 0 } in
  (r, Ring r)

let ring_dropped r = max 0 (r.next - r.cap)

let ring_events r =
  let start = ring_dropped r in
  List.filter_map
    (fun i -> r.buf.(i mod r.cap))
    (List.init (r.next - start) (fun i -> start + i))

(* Chrome trace_event JSON *)

let chrome_args = function
  | Span_begin _ | Span_end _ -> []
  | Guard_verdict { guard; ok; detail } ->
      [ ("guard", Json.Str guard); ("ok", Json.Bool ok);
        ("detail", Json.Str detail) ]
  | Descent { rung; reason } ->
      [ ("rung", Json.Str rung); ("reason", Json.Str reason) ]
  | Task_retry { task; attempt; reason } ->
      [ ("task", Json.int task); ("attempt", Json.int attempt);
        ("reason", Json.Str reason) ]
  | Task_shed { task; rung } ->
      [ ("task", Json.int task); ("rung", Json.Str rung) ]
  | Task_quarantine { task; attempts; reason } ->
      [ ("task", Json.int task); ("attempts", Json.int attempts);
        ("reason", Json.Str reason) ]
  | Worker_restart { worker; generation } ->
      [ ("worker", Json.int worker); ("generation", Json.int generation) ]
  | Watchdog_gap { worker; task; gap; cause } ->
      [ ("worker", Json.int worker); ("task", Json.int task);
        ("gap_s", Json.Num gap); ("cause", Json.Str cause) ]
  | Runtime_span { domain; kind; dur } ->
      [ ("domain", Json.int domain); ("kind", Json.Str kind);
        ("dur_s", Json.Num dur) ]
  | Runtime_mark { domain; kind } ->
      [ ("domain", Json.int domain); ("kind", Json.Str kind) ]
  | Request_stage { id; stage } ->
      [ ("request", Json.int id); ("stage", Json.Str stage) ]

(* [chrome_record ~tid ~t0 ts ev] — one [trace_event] object; [ts]
   and [t0] in seconds, the record in microseconds since [t0], placed
   on Chrome track [tid].  [Runtime_span] events render as complete
   ("X") slices carrying their duration. *)
let chrome_record ~tid ~t0 ts ev =
  let us = (ts -. t0) *. 1e6 in
  let name, ph =
    match ev with
    | Span_begin p -> (phase_name p, "B")
    | Span_end p -> (phase_name p, "E")
    | Runtime_span _ -> (event_name ev, "X")
    | ev -> (event_name ev, "i")
  in
  let base =
    [
      ("name", Json.Str name);
      ("cat", Json.Str "grip");
      ("ph", Json.Str ph);
      ("ts", Json.Num us);
      ("pid", Json.int 1);
      ("tid", Json.int tid);
    ]
  in
  let dur =
    match ev with
    | Runtime_span { dur; _ } -> [ ("dur", Json.Num (dur *. 1e6)) ]
    | _ -> []
  in
  let scope = if ph = "i" then [ ("s", Json.Str "t") ] else [] in
  let args =
    match chrome_args ev with [] -> [] | a -> [ ("args", Json.Obj a) ]
  in
  Json.Obj (base @ dur @ scope @ args)

(** [merge_events buffers] — concatenate per-domain event buffers
    (e.g. one {!ring_events} listing per worker of a parallel run)
    into a single timeline ordered by absolute timestamp.  The sort is
    stable, so events with equal timestamps keep the order of
    [buffers]; span begin/end pairs emitted on one domain stay
    correctly nested because each domain's clock is monotone. *)
let merge_events buffers =
  List.stable_sort
    (fun ((a : float), _) ((b : float), _) -> compare a b)
    (List.concat buffers)

(* -- multi-track rendering ------------------------------------------------- *)

(** One Chrome track: a deterministic [tid], a human label rendered
    via a [thread_name] metadata record, and that track's events with
    absolute timestamps.  The tid scheme is {!Trace_file}'s. *)
type track = { tid : int; label : string; events : (float * event) list }

let thread_name_record ~tid label =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.int 1);
      ("tid", Json.int tid);
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

(** [chrome_tracks tracks] — render a complete Chrome trace document
    with each {!track}'s events on its own stable [tid] and a
    [thread_name] metadata record per track, so merged multi-domain
    traces land on consistently-labelled rows across runs. *)
let chrome_tracks tracks =
  let all = List.concat_map (fun tr -> tr.events) tracks in
  let t0 = List.fold_left (fun acc (ts, _) -> min acc ts) infinity all in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let meta =
    List.map
      (fun tr -> thread_name_record ~tid:tr.tid tr.label)
      (List.sort (fun a b -> compare a.tid b.tid) tracks)
  in
  let records =
    List.concat_map
      (fun tr ->
        List.map (fun (ts, ev) -> chrome_record ~tid:tr.tid ~t0 ts ev)
          tr.events)
      tracks
  in
  Json.to_string ~pretty:true (Json.List (meta @ records))
