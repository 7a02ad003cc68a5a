(** Typed trace events for the GRiP scheduling stack.

    Producers (the percolation engine, the scheduler, the pipeline
    driver, the robustness guards, the supervisor and the daemon) emit
    {!event}s through a {!t}, which is one of two things:

    - {!null} — the default; {!enabled} is false so producers skip even
      event construction (the hot paths guard on it), making the cost
      of an untraced run a test per emission site;
    - a {!ring} — a bounded in-memory ring buffer holding the newest
      events with their timestamps, the replay surface for tests and
      for post-run rendering.

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
  | Migrate_attempt of { op : int; target : int }
      (** the scheduler launched a migration of [op] toward [target] *)
  | Migrate_hop of { op : int; from_ : int; to_ : int }
      (** one successful one-node move *)
  | Migrate_suspend of { op : int; node : int }
      (** gap prevention vetoed the hop; [op] suspended at [node] *)
  | Migrate_barrier of { op : int; node : int }
      (** a full node short of the target blocked [op] (section 3.2) *)
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
  | Migrate_attempt _ -> "migrate.attempt"
  | Migrate_hop _ -> "migrate.hop"
  | Migrate_suspend _ -> "migrate.suspend"
  | Migrate_barrier _ -> "migrate.barrier"
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

(** Producers must skip emission (and event construction) entirely
    when false. *)
let enabled = function Null -> false | Ring _ -> true

(** [emit t ev] — timestamp [ev] into the ring; a no-op on {!null}
    (hot paths should additionally guard on {!enabled} to avoid
    constructing [ev] at all). *)
let emit t ev =
  match t with
  | Null -> ()
  | Ring r ->
      r.buf.(r.next mod r.cap) <- Some (Unix.gettimeofday (), ev);
      r.next <- r.next + 1

(** [ring ~capacity ()] — a tracer recording the last [capacity]
    events; {!ring_events} returns them oldest-first and
    {!ring_dropped} how many were overwritten. *)
let ring ?(capacity = 1 lsl 20) () =
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
  | Migrate_attempt { op; target } ->
      [ ("op", Json.int op); ("target", Json.int target) ]
  | Migrate_hop { op; from_; to_ } ->
      [ ("op", Json.int op); ("from", Json.int from_); ("to", Json.int to_) ]
  | Migrate_suspend { op; node } | Migrate_barrier { op; node } ->
      [ ("op", Json.int op); ("node", Json.int node) ]
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

(* Flow enrichment: one Chrome flow chain ("s" start, "t" steps, "f"
   finish, sharing an id) per operation with at least two recorded
   hops, derived from the Migrate_hop events so viewers draw each
   operation's journey as connected arrows.  Renames split an
   operation across ids, so a cloned op contributes one chain per
   identity — journals in [Provenance] are the authoritative
   cross-rename view. *)
let flow_records ~t0 events =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | Migrate_hop { op; from_; to_ } ->
          (match Hashtbl.find_opt tbl op with
          | Some hops -> hops := (ts, from_, to_) :: !hops
          | None ->
              Hashtbl.replace tbl op (ref [ (ts, from_, to_) ]);
              order := op :: !order)
      | _ -> ())
    events;
  let record ~ph ~op ~ts ~from_ ~to_ =
    Json.Obj
      [
        ("name", Json.Str (Printf.sprintf "op%d journey" op));
        ("cat", Json.Str "grip.flow");
        ("ph", Json.Str ph);
        ("id", Json.int op);
        ("ts", Json.Num ((ts -. t0) *. 1e6));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ( "args",
          Json.Obj [ ("from", Json.int from_); ("to", Json.int to_) ] );
      ]
  in
  List.concat_map
    (fun op ->
      match List.rev !(Hashtbl.find tbl op) with
      | [] | [ _ ] -> []
      | hops ->
          let last = List.length hops - 1 in
          List.mapi
            (fun i (ts, from_, to_) ->
              let ph = if i = 0 then "s" else if i = last then "f" else "t" in
              record ~ph ~op ~ts ~from_ ~to_)
            hops)
    (List.rev !order)

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

(** [chrome_tracks ~flows tracks] — render a complete Chrome trace
    document with each {!track}'s events on its own stable [tid] and a
    [thread_name] metadata record per track, so merged multi-domain
    traces land on consistently-labelled rows across runs.  With
    [~flows:true], Migrate_hop chains across all tracks are rendered
    as flow arrows on tid 1. *)
let chrome_tracks ~flows tracks =
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
  let extra =
    if flows then flow_records ~t0 (merge_events [ all ]) else []
  in
  Json.to_string ~pretty:true (Json.List (meta @ records @ extra))
