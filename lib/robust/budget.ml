(** Per-task execution budgets: a cancellation token polled at the
    scheduler loop heads.

    A budget bounds one scheduling attempt three ways at once:

    - {b wall-clock deadline} — [?deadline] seconds from creation;
      blowing it raises {!Grip_error.Deadline_exceeded};
    - {b fuel} — [?fuel] polls (one poll per migration attempt /
      scheduling-loop iteration); blowing it raises
      {!Grip_error.Fuel_exhausted};
    - {b external cancellation} — {!cancel} may be called from any
      domain (the supervisor's watchdog, a shutting-down driver); the
      next poll raises {!Grip_error.Cancelled}.

    All three surface as structured [Grip_error.Error]s in the
    [Scheduling] stage, so a stuck cell abandons its rung through the
    degradation ladder instead of hanging a pool domain.

    {!check} is designed to sit on a hot loop head: the disabled token
    ({!unlimited}) is a single pattern match, and a live token reads
    the cancellation flag (one atomic load) on every poll but consults
    the clock only every [check_every] polls.  Each clock read also
    publishes a heartbeat ({!last_beat}) that the supervisor's watchdog
    samples for starvation-gap detection, so a task that polls is a
    task provably making progress. *)

type live = {
  t0 : float;  (** creation time, [Unix.gettimeofday] *)
  deadline : float option;  (** seconds from [t0] *)
  fuel : int option;  (** maximum polls before Fuel_exhausted *)
  cancelled : string option Atomic.t;  (** cross-domain cancel flag *)
  beat : float Atomic.t;  (** last clock read; watchdog heartbeat *)
  kernel : string option;
  machine : string option;
  check_every : int;
  mutable ticks : int;  (** polls since the last clock read *)
  mutable polls : int;  (** total polls (= fuel spent) *)
}

type t = Off | On of live

(** The always-passing token: {!check} is a single match, no clock, no
    atomics.  The default everywhere. *)
let unlimited = Off

(** [make ?kernel ?machine ?deadline ?fuel ()] — a live token.  The
    first poll always consults the clock (so a zero deadline trips
    deterministically); later polls do so every [check_every] (default
    32). *)
let make ?kernel ?machine ?deadline ?fuel ?(check_every = 32) () =
  let t0 = Unix.gettimeofday () in
  On
    {
      t0;
      deadline;
      fuel;
      cancelled = Atomic.make None;
      beat = Atomic.make t0;
      kernel;
      machine;
      check_every = max 1 check_every;
      ticks = max 1 check_every;  (* force a clock read on the first poll *)
      polls = 0;
    }

(** [sub t ?deadline ?fuel ()] — a child token for one stage (e.g. one
    ladder rung) of the task [t] governs: fresh clock and fuel, but the
    {e same} cancellation flag and heartbeat, so cancelling the parent
    aborts every stage and the watchdog keeps one view of the task. *)
let sub t ?deadline ?fuel () =
  match t with
  | Off -> (
      match (deadline, fuel) with
      | None, None -> Off
      | _ -> make ?deadline ?fuel ())
  | On l ->
      let t0 = Unix.gettimeofday () in
      On
        {
          t0;
          deadline;
          fuel;
          cancelled = l.cancelled;
          beat = l.beat;
          kernel = l.kernel;
          machine = l.machine;
          check_every = l.check_every;
          ticks = l.check_every;
          polls = 0;
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

let polls = function Off -> 0 | On l -> l.polls

let raise_ (l : live) cause =
  Grip_error.raise_ ?kernel:l.kernel ?machine:l.machine Grip_error.Scheduling
    cause

(** [check t] — one poll.  Raises the structured error when the budget
    is blown; otherwise returns unit.  Safe (and nearly free) on
    {!unlimited}. *)
let check t =
  match t with
  | Off -> ()
  | On l ->
      l.polls <- l.polls + 1;
      (match Atomic.get l.cancelled with
      | Some reason ->
          raise_ l
            (Grip_error.Cancelled
               { after = Unix.gettimeofday () -. l.t0; reason })
      | None -> ());
      (match l.fuel with
      | Some f when l.polls > f ->
          raise_ l (Grip_error.Fuel_exhausted { migrations = l.polls; budget = f })
      | Some _ | None -> ());
      l.ticks <- l.ticks + 1;
      if l.ticks >= l.check_every then begin
        l.ticks <- 0;
        let now = Unix.gettimeofday () in
        Atomic.set l.beat now;
        match l.deadline with
        | Some d when now -. l.t0 >= d ->
            raise_ l
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
