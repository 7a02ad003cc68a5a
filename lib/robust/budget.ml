(** Per-task execution budgets: a cancellation token polled at the
    scheduler loop heads.

    A budget bounds one scheduling attempt two ways at once:

    - {b wall-clock deadline} — [?deadline] seconds from creation;
      blowing it raises {!Grip_error.Deadline_exceeded};
    - {b external cancellation} — {!cancel} may be called from any
      domain (the supervisor's watchdog, a shutting-down driver); the
      next poll raises {!Grip_error.Cancelled}.

    Both surface as structured [Grip_error.Error]s in the [Scheduling]
    stage, so a stuck cell abandons its rung through the degradation
    ladder instead of hanging a pool domain.  (The scheduler's own
    migration budget, [max_migrations], bounds the work of a run.)

    {!check} is designed to sit on a hot loop head: the disabled token
    ({!unlimited}) is a single pattern match, and a live token reads
    the cancellation flag (one atomic load) on every poll but consults
    the clock only every {!check_every} polls.  Each clock read also
    publishes a heartbeat ({!last_beat}) that the supervisor's watchdog
    samples for starvation-gap detection, so a task that polls is a
    task provably making progress. *)

type live = {
  t0 : float;  (** creation time, [Unix.gettimeofday] *)
  deadline : float option;  (** seconds from [t0] *)
  cancelled : string option Atomic.t;  (** cross-domain cancel flag *)
  beat : float Atomic.t;  (** last clock read; watchdog heartbeat *)
  mutable ticks : int;  (** polls since the last clock read *)
}

type t = Off | On of live

(** Polls between two clock reads. *)
let check_every = 32

(** The always-passing token: {!check} is a single match, no clock, no
    atomics.  The default everywhere. *)
let unlimited = Off

(** [make ?deadline ()] — a live token.  The first poll always
    consults the clock (so a zero deadline trips deterministically);
    later polls do so every {!check_every}. *)
let make ?deadline () =
  let t0 = Unix.gettimeofday () in
  On
    {
      t0;
      deadline;
      cancelled = Atomic.make None;
      beat = Atomic.make t0;
      ticks = check_every;  (* force a clock read on the first poll *)
    }

(** [sub t ?deadline ()] — a child token for one stage (e.g. one
    ladder rung) of the task [t] governs: a fresh clock, but the
    {e same} cancellation flag and heartbeat, so cancelling the parent
    aborts every stage and the watchdog keeps one view of the task. *)
let sub t ?deadline () =
  match t with
  | Off -> ( match deadline with None -> Off | Some _ -> make ?deadline ())
  | On l ->
      On
        {
          t0 = Unix.gettimeofday ();
          deadline;
          cancelled = l.cancelled;
          beat = l.beat;
          ticks = check_every;
        }

(** [cancel t reason] — trip the token from any domain; the owning
    task raises {!Grip_error.Cancelled} at its next poll.  First
    reason wins; [true] iff this call is the one that tripped it (a
    no-op, [false], on {!unlimited}). *)
let cancel t ~reason =
  match t with
  | Off -> false
  | On l -> Atomic.compare_and_set l.cancelled None (Some reason)

let cancelled = function
  | Off -> None
  | On l -> Atomic.get l.cancelled

(** [last_beat t] — the last time the owning task consulted the clock
    (its creation time before the first read); the watchdog's measure
    of task liveness. *)
let last_beat = function Off -> None | On l -> Some (Atomic.get l.beat)

let raise_ cause = Grip_error.raise_ Grip_error.Scheduling cause

(** [check t] — one poll.  Raises the structured error when the budget
    is blown; otherwise returns unit.  Safe (and nearly free) on
    {!unlimited}. *)
let check t =
  match t with
  | Off -> ()
  | On l ->
      (match Atomic.get l.cancelled with
      | Some reason ->
          raise_
            (Grip_error.Cancelled
               { after = Unix.gettimeofday () -. l.t0; reason })
      | None -> ());
      l.ticks <- l.ticks + 1;
      if l.ticks >= check_every then begin
        l.ticks <- 0;
        let now = Unix.gettimeofday () in
        Atomic.set l.beat now;
        match l.deadline with
        | Some d when now -. l.t0 >= d ->
            raise_
              (Grip_error.Deadline_exceeded { elapsed = now -. l.t0; budget = d })
        | Some _ | None -> ()
      end

(** [guard t f] — run [f], converting a raised budget error into
    [Error].  Other [Grip_error.Error]s pass through as [Error] too
    (it is {!Grip_error.guard} with the token checked once up front,
    so an already-cancelled task never starts its stage). *)
let guard t f =
  match
    check t;
    f ()
  with
  | v -> Ok v
  | exception Grip_error.Error e -> Error e
