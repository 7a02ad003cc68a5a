(** Self-monitoring consumer for OCaml 5 runtime events.

    [start] enables the runtime's event ring buffers in-process and
    attaches a cursor to them; [poll] drains whatever the runtime has
    published since the last drain (minor/major GC spans and domain
    lifecycle events, across every domain of the process); [stop]
    detaches and pauses collection.  Captured spans are exposed on the
    wall-clock timeline used by {!Trace} so they can be merged into
    Chrome traces next to scheduler events and intersected with
    watchdog gaps.

    Runtime-events timestamps are monotonic nanoseconds with no public
    "now" accessor, so the consumer calibrates its own offset to wall
    time: [start] records [Unix.gettimeofday], immediately writes a
    custom [grip.epoch] user event, and derives
    [offset = wall - mono] when that event comes back through the
    first poll.  Until calibration succeeds every accessor returns the
    empty view, never garbage timestamps.

    The consumer is a process-wide singleton ([start] is idempotent
    and returns the live instance; [stop] is idempotent too) and is
    meant to be driven from the coordinating domain — callbacks run
    inside [poll], not concurrently. *)

module RE = Runtime_events

type span = { domain : int; kind : string; t0 : float; t1 : float }
(** A completed runtime span on ring/domain [domain]: ["minor"] or
    ["major"] GC work between wall-clock seconds [t0] and [t1]. *)

type mark = { domain : int; kind : string; at : float }
(** An instantaneous lifecycle event: ["ring_start"],
    ["domain_spawn"] or ["domain_terminate"]. *)

type t = {
  mutable cursor : RE.cursor option;
  mutable callbacks : RE.Callbacks.t option;
  open_spans : (int * string, float) Hashtbl.t;
      (** (ring, kind) -> monotonic start seconds of an unclosed span *)
  mutable spans_mono : (int * string * float * float) list;  (** newest first *)
  mutable marks_mono : (int * string * float) list;  (** newest first *)
  mutable lost : int;
  mutable offset : float;  (** wall - monotonic seconds; nan = uncalibrated *)
  mutable epoch_wall : float;
}

type RE.User.tag += Epoch

let epoch_ev = lazy (RE.User.register "grip.epoch" Epoch RE.Type.unit)

let mono ts = Int64.to_float (RE.Timestamp.to_int64 ts) /. 1e9

let phase_kind = function
  | RE.EV_MINOR -> Some "minor"
  | RE.EV_MAJOR -> Some "major"
  | _ -> None

let lifecycle_kind = function
  | RE.EV_RING_START -> Some "ring_start"
  | RE.EV_DOMAIN_SPAWN -> Some "domain_spawn"
  | RE.EV_DOMAIN_TERMINATE -> Some "domain_terminate"
  | _ -> None

let make_callbacks t =
  let runtime_begin ring ts phase =
    match phase_kind phase with
    | Some k -> Hashtbl.replace t.open_spans (ring, k) (mono ts)
    | None -> ()
  in
  let runtime_end ring ts phase =
    match phase_kind phase with
    | Some k -> (
        match Hashtbl.find_opt t.open_spans (ring, k) with
        | Some m0 ->
            Hashtbl.remove t.open_spans (ring, k);
            t.spans_mono <- (ring, k, m0, mono ts) :: t.spans_mono
        | None -> ())
    | None -> ()
  in
  let lifecycle ring ts ev _arg =
    match lifecycle_kind ev with
    | Some k -> t.marks_mono <- (ring, k, mono ts) :: t.marks_mono
    | None -> ()
  in
  let lost_events _ring n = t.lost <- t.lost + n in
  RE.Callbacks.create ~runtime_begin ~runtime_end ~lifecycle ~lost_events ()
  |> RE.Callbacks.add_user_event RE.Type.unit (fun _ring ts u () ->
         match RE.User.tag u with
         | Epoch -> if Float.is_nan t.offset then t.offset <- t.epoch_wall -. mono ts
         | _ -> ())

let active : t option ref = ref None

(** [poll t] — drain the per-domain ring buffers through the
    callbacks; a no-op after [stop] (or if [start] failed to attach). *)
let poll t =
  match (t.cursor, t.callbacks) with
  | Some c, Some cb -> ( try ignore (RE.read_poll c cb None) with _ -> ())
  | _ -> ()

(** [start ()] — enable runtime events and attach the singleton
    consumer; returns the already-live instance when called twice.  On
    any failure to attach, the returned instance degrades to an inert
    handle (empty views, no-op polls) rather than raising. *)
let start () =
  match !active with
  | Some t -> t
  | None ->
      let t =
        {
          cursor = None;
          callbacks = None;
          open_spans = Hashtbl.create 8;
          spans_mono = [];
          marks_mono = [];
          lost = 0;
          offset = Float.nan;
          epoch_wall = 0.0;
        }
      in
      (try
         RE.start ();
         (* [RE.start] is a no-op when events were already started once;
            after a previous [stop] (which pauses collection) the
            runtime needs an explicit resume. *)
         RE.resume ();
         let cursor = RE.create_cursor None in
         t.cursor <- Some cursor;
         t.callbacks <- Some (make_callbacks t);
         t.epoch_wall <- Unix.gettimeofday ();
         RE.User.write (Lazy.force epoch_ev) ();
         let tries = ref 0 in
         while Float.is_nan t.offset && !tries < 100 do
           poll t;
           incr tries
         done
       with _ -> ());
      active := Some t;
      t

(** [stop t] — final poll, detach the cursor and pause event
    collection.  Idempotent; a later [start] attaches a fresh
    consumer. *)
let stop t =
  poll t;
  (match t.cursor with
  | Some c ->
      t.cursor <- None;
      t.callbacks <- None;
      (try RE.free_cursor c with _ -> ())
  | None -> ());
  (try RE.pause () with _ -> ());
  match !active with Some a when a == t -> active := None | _ -> ()

let calibrated t = not (Float.is_nan t.offset)
let lost t = t.lost

(** Completed GC spans, oldest-first, on the wall-clock timeline;
    empty until calibration succeeds. *)
let spans t =
  if not (calibrated t) then []
  else
    List.rev_map
      (fun (d, k, m0, m1) ->
        { domain = d; kind = k; t0 = m0 +. t.offset; t1 = m1 +. t.offset })
      t.spans_mono

(** Lifecycle marks, oldest-first, on the wall-clock timeline. *)
let marks t =
  if not (calibrated t) then []
  else
    List.rev_map
      (fun (d, k, m) -> { domain = d; kind = k; at = m +. t.offset })
      t.marks_mono

(** [gc_overlap t ~t0 ~t1] — seconds of the wall-clock window
    [t0, t1] covered by at least one captured GC span (interval union
    across domains, so simultaneous stop-the-world slices are not
    double-counted). *)
let gc_overlap t ~t0 ~t1 =
  let ivs =
    List.filter_map
      (fun s ->
        let lo = Float.max t0 s.t0 and hi = Float.min t1 s.t1 in
        if hi > lo then Some (lo, hi) else None)
      (spans t)
  in
  let ivs = List.sort compare ivs in
  fst
    (List.fold_left
       (fun (acc, cursor) (lo, hi) ->
         let lo = Float.max lo cursor in
         if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max cursor hi))
       (0.0, neg_infinity) ivs)

(** [gap_cause rt ~t0 ~t1] — a supervisor's starvation-gap classifier:
    "gc_pause" when captured GC spans cover at least half of the gap
    [t0, t1], else "stall" (always "stall" without a consumer). *)
let gap_cause rt ~t0 ~t1 =
  match rt with
  | None -> "stall"
  | Some rt ->
      poll rt;
      if gc_overlap rt ~t0 ~t1 >= 0.5 *. (t1 -. t0) then "gc_pause" else "stall"

(** [max_pause t ~t0 ~t1] — duration of the longest single captured
    GC span overlapping the window, in seconds. *)
let max_pause t ~t0 ~t1 =
  List.fold_left
    (fun acc s ->
      if s.t1 > t0 && s.t0 < t1 then Float.max acc (s.t1 -. s.t0) else acc)
    0.0 (spans t)

(** [gc_seconds ?window t ~domain] — (minor, major) total span
    seconds captured on ring [domain]; [window = (t0, t1)] clips each
    span to that wall-clock interval (e.g. the run being profiled, so
    collection work from consumer startup is not charged to it). *)
let gc_seconds ?window t ~domain =
  let clip (s : span) =
    match window with
    | None -> s.t1 -. s.t0
    | Some (w0, w1) -> Float.max 0.0 (Float.min w1 s.t1 -. Float.max w0 s.t0)
  in
  List.fold_left
    (fun (mi, ma) (s : span) ->
      if s.domain <> domain then (mi, ma)
      else if s.kind = "minor" then (mi +. clip s, ma)
      else (mi, ma +. clip s))
    (0.0, 0.0) (spans t)

(** Rings/domains that contributed at least one span or mark,
    ascending. *)
let domains t =
  List.sort_uniq compare
    (List.map (fun (s : span) -> s.domain) (spans t)
    @ List.map (fun (m : mark) -> m.domain) (marks t))

(** [trace_events ?domain t] — captured spans and marks as typed
    trace events with absolute wall timestamps, ready for
    [Trace.merge_events] / [Trace.chrome_tracks]; [?domain] restricts
    to one ring. *)
let trace_events ?domain t =
  let keep d = match domain with None -> true | Some d' -> d = d' in
  let sp =
    List.filter_map
      (fun (s : span) ->
        if keep s.domain then
          Some
            ( s.t0,
              Trace.Runtime_span
                { domain = s.domain; kind = s.kind; dur = s.t1 -. s.t0 } )
        else None)
      (spans t)
  in
  let mk =
    List.filter_map
      (fun m ->
        if keep m.domain then
          Some (m.at, Trace.Runtime_mark { domain = m.domain; kind = m.kind })
        else None)
      (marks t)
  in
  Trace.merge_events [ sp; mk ]
