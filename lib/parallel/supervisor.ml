(** Supervised execution over a {!Pool}: deadlines, retries,
    backpressure and a starvation-gap watchdog.

    {!Pool.map_ordered} gives deterministic fan-out but trusts every
    task to finish.  The supervisor wraps a batch so that no single
    task can wedge, poison or starve the harness:

    - {b budgets} — every attempt runs under its own
      {!Grip_robust.Budget} token (a wall-clock deadline),
      polled at the scheduler loop heads, so a runaway cell abandons
      itself with a structured error instead of hanging its domain;
    - {b retries} — a failed attempt is re-admitted with exponential
      backoff (5 ms, doubling per attempt) up to [retries] extra tries;
      a task that fails them all is {e quarantined}: its slot carries
      the final error, every other slot completes normally;
    - {b restart accounting} — an attempt that dies of a stray
      exception (not a structured [Grip_error]) marks its worker
      crashed; the worker's generation is bumped and a
      [Worker_restart] trace event emitted.  OCaml domains cannot be
      killed from outside, so "restart" is honest bookkeeping over a
      surviving domain: the {e task} is what gets re-queued, and a
      domain wedged in a non-polling infinite loop can only be flagged
      (by the watchdog), never reclaimed — see DESIGN.md;
    - {b backpressure} — admission happens in waves of at most
      [queue_limit] tasks; retries join the back of the queue.  Items
      whose admission wave overflows the queue by more than one wave
      are {e load-shed}: the [degrade] callback maps them to a cheaper
      variant (one rung down the degradation ladder per wave past the
      first), and the descent is recorded ([Task_shed]);
    - {b watchdog} — a dedicated domain samples every in-flight
      attempt's heartbeat ({!Grip_robust.Budget.last_beat}) every
      2 ms.  A worker silent past [gap_threshold] is a starvation gap:
      recorded per-(worker, task) with its widest gap, surfaced as
      [Watchdog_gap] trace events and [gap_violations]/[max_gap] in
      {!stats}, and the run is {!flagged} so drivers dump the trace
      ring.  The watchdog also cancels budgets of attempts far past
      their deadline, so even a task that skipped its polls for a
      while aborts at the next one.

    Determinism: results are positional, retries are keyed by (task
    index, attempt), and injected faults ({!Grip_robust.Fault.trip})
    are a pure function of (plan, task, attempt) — so a chaos run with
    transient faults produces byte-identical results to a fault-free
    run, which the chaos suite checks against the sequential
    reference. *)

module Grip_error = Grip_robust.Grip_error
module Budget = Grip_robust.Budget
module Fault = Grip_robust.Fault
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics

type config = {
  deadline : float option;  (** per-attempt wall-clock budget, seconds *)
  retries : int;  (** extra attempts after the first *)
  queue_limit : int;  (** admission wave size; [max_int] = one wave *)
  gap_threshold : float option;  (** starvation gap, seconds *)
  fault : Fault.pool_plan option;  (** chaos injection plan *)
}

let default_config =
  {
    deadline = None;
    retries = 2;
    queue_limit = max_int;
    gap_threshold = None;
    fault = None;
  }

(* base retry backoff, seconds; doubles per attempt *)
let backoff = 0.005

(* overflow waves admitted before load-shed *)
let shed_grace = 1

(* watchdog sampling period, seconds *)
let watchdog_interval = 0.002

type stats = {
  mutable attempts : int;  (** task executions, retries included *)
  mutable retries : int;
  mutable sheds : int;
  mutable quarantined : int;
  mutable worker_restarts : int;
  mutable watchdog_cancels : int;
      (** budgets the watchdog cancelled for blowing their deadline
          between polls *)
  mutable gap_violations : int;  (** distinct (worker, task) starvations *)
  mutable max_gap : float;  (** widest observed starvation gap, seconds *)
  generations : int array;  (** per-worker restart generation *)
  busy : float array;  (** per-worker cumulative task seconds *)
  mutable worker_gaps : (int * int * float * string) list;
      (** every recorded starvation: (worker, task, widest gap s,
          cause).  Cause is "stall" unless the run's [gap_cause]
          classifier attributed the gap elsewhere (e.g. "gc_pause"
          when it overlaps a captured GC span) *)
}

let fresh_stats ~jobs =
  {
    attempts = 0;
    retries = 0;
    sheds = 0;
    quarantined = 0;
    worker_restarts = 0;
    watchdog_cancels = 0;
    gap_violations = 0;
    max_gap = 0.0;
    generations = Array.make (max 1 jobs) 0;
    busy = Array.make (max 1 jobs) 0.0;
    worker_gaps = [];
  }

(** [flagged stats] — the watchdog saw at least one starvation gap;
    drivers should dump the trace ring. *)
let flagged stats = stats.gap_violations > 0

(** [trace_events config ~tasks] — the most trace events a {!supervise}
    of [tasks] items under [config] emits: a shed per item at
    admission, and per attempt (at most [retries + 1] per item) a
    worker restart, a retry or a quarantine, and one watchdog gap (gaps
    are kept per (worker, task)).  A ring this large drops none. *)
let trace_events (config : config) ~tasks =
  tasks * (1 + (3 * (config.retries + 1)))

let pp_stats ppf s =
  Format.fprintf ppf
    "attempts=%d retries=%d sheds=%d quarantined=%d restarts=%d \
     gap-violations=%d max-gap=%.1fms"
    s.attempts s.retries s.sheds s.quarantined s.worker_restarts
    s.gap_violations (s.max_gap *. 1e3)

(* -- watchdog -------------------------------------------------------------- *)

(* One in-flight attempt, registered by the worker before the task
   body runs and cleared after; the watchdog's only view of the
   workers.  The tuple is immutable and the slot an [Atomic.t], so the
   watchdog reads a consistent snapshot without taking any lock a
   worker could hold. *)
type slot = (int * Budget.t * float) option Atomic.t

type watch = {
  wmutex : Mutex.t;
  gaps : (int * int, float * float) Hashtbl.t;
      (** (worker, task) -> (widest gap, wall time it was observed),
          i.e. the gap covered [t_end - gap, t_end] *)
  mutable cancels : int;
}

let watchdog_tick (config : config) (watch : watch) (inflight : slot array) =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun w slot ->
      match Atomic.get slot with
      | None -> ()
      | Some (task, budget, t0) ->
          (match config.deadline with
          | Some d when now -. t0 > (d *. 1.5) +. 0.05 ->
              if Budget.cancel budget ~reason:"watchdog: deadline blown" then begin
                Mutex.lock watch.wmutex;
                watch.cancels <- watch.cancels + 1;
                Mutex.unlock watch.wmutex
              end
          | Some _ | None -> ());
          (match config.gap_threshold with
          | Some g ->
              let beat =
                max t0 (Option.value (Budget.last_beat budget) ~default:t0)
              in
              let gap = now -. beat in
              if gap > g then begin
                Mutex.lock watch.wmutex;
                let key = (w, task) in
                let prev =
                  match Hashtbl.find_opt watch.gaps key with
                  | Some (g', _) -> g'
                  | None -> 0.0
                in
                if gap > prev then Hashtbl.replace watch.gaps key (gap, now);
                Mutex.unlock watch.wmutex
              end
          | None -> ()))
    inflight

(* -- supervised map -------------------------------------------------------- *)

let split_at k l =
  let rec go acc k = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> go (x :: acc) (k - 1) tl
  in
  go [] (max 0 k) l

let is_stray_cause (e : Grip_error.t) =
  match e.Grip_error.cause with Grip_error.Worker _ -> true | _ -> false

(** [supervise_worker ?config ?obs ?degrade ?gap_cause pool ~f items]
    — run [f] over [items] under supervision; returns per-item
    results (positional, [Error] = quarantined after exhausting
    retries) and the run's {!stats}.

    [f] receives the executing worker's index (0 = the submitting
    domain, as in {!Pool.map_ordered_worker}) and the attempt's budget
    token; implementations that forward the budget to
    [Pipeline.run]/[run_robust] get live deadline enforcement,
    otherwise the watchdog's post-hoc cancel is the only bound.
    [degrade ~level item] maps an overflow-admitted item to a cheaper
    variant and the name of the rung it now starts at; returning
    [None] admits the item unchanged.

    [gap_cause ~t0 ~t1] classifies a recorded starvation gap covering
    the wall-clock window [t0, t1]; it is consulted once per gap after
    the join (on the calling domain) and defaults to ["stall"].
    Drivers with a live {!Grip_obs.Runtime} consumer pass a closure
    that answers ["gc_pause"] when captured GC spans cover most of the
    window, so chaos reports separate runtime pauses from genuine
    stalls.

    Metrics and trace events are recorded on the calling domain only
    (during coordination and after the join), never from workers, so
    any [obs] handle is safe here even though [Metrics.t] is not
    thread-safe. *)
let supervise_worker ?(config = default_config) ?(obs = Obs.null) ?degrade
    ?(gap_cause = fun ~t0:_ ~t1:_ -> "stall") (pool : Pool.t) ~f items =
  let jobs = Pool.jobs pool in
  let stats = fresh_stats ~jobs in
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then ([], stats)
  else begin
    let trace ev = Trace.emit obs.Obs.trace ev in
    (* admission-time load shedding: an item whose wave index
       overflows the grace window starts degraded *)
    let effective =
      Array.mapi
        (fun i item ->
          let wave =
            if config.queue_limit = max_int then 0 else i / config.queue_limit
          in
          let level = wave - shed_grace + 1 in
          if level <= 0 then item
          else
            match degrade with
            | None -> item
            | Some d -> (
                match d ~level item with
                | None -> item
                | Some (item', rung) ->
                    stats.sheds <- stats.sheds + 1;
                    Metrics.incr obs.Obs.metrics "pool.sheds";
                    trace (Trace.Task_shed { task = i; rung });
                    item'))
        arr
    in
    let results = Array.make n None in
    let inflight : slot array = Array.init jobs (fun _ -> Atomic.make None) in
    let watch = { wmutex = Mutex.create (); gaps = Hashtbl.create 16; cancels = 0 } in
    let watchdog_on = config.gap_threshold <> None || config.deadline <> None in
    let stop = Atomic.make false in
    let watchdog =
      if watchdog_on then
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get stop) do
                 Unix.sleepf watchdog_interval;
                 watchdog_tick config watch inflight
               done))
      else None
    in
    (* one attempt, on a worker domain: register, inject, run, clear.
       Never raises — the pool only ever sees [Ok]. *)
    let attempt ~worker (idx, att) =
      if att > 0 then Unix.sleepf (backoff *. (2.0 ** float_of_int (att - 1)));
      let budget = Budget.make ?deadline:config.deadline () in
      let t0 = Unix.gettimeofday () in
      Atomic.set inflight.(worker) (Some (idx, budget, t0));
      let r =
        match
          (match config.fault with
          | Some plan -> Fault.trip plan ~budget ~task:idx ~attempt:att
          | None -> ());
          f ~worker ~budget effective.(idx)
        with
        | v -> Ok v
        | exception Grip_error.Error e -> Error e
        | exception exn ->
            Error
              (Grip_error.make Grip_error.Parallel
                 (Grip_error.Worker
                    { worker; task = idx; detail = Printexc.to_string exn }))
      in
      Atomic.set inflight.(worker) None;
      (idx, att, worker, r, Unix.gettimeofday () -. t0)
    in
    let finish () =
      Atomic.set stop true;
      Option.iter Domain.join watchdog
    in
    Fun.protect ~finally:finish (fun () ->
        let pending = ref (List.init n (fun i -> (i, 0))) in
        while !pending <> [] do
          (* admission-queue depth at each wave boundary: a live gauge
             for the serving plane plus its high-water mark *)
          let depth = float_of_int (List.length !pending) in
          Metrics.gauge_set obs.Obs.metrics "pool.queue_depth" depth;
          Metrics.gauge_max obs.Obs.metrics "pool.queue_depth.peak" depth;
          let wave, rest = split_at config.queue_limit !pending in
          pending := rest;
          let outcomes = Pool.map_ordered_worker pool ~f:attempt wave in
          List.iter
            (fun (idx, att, worker, r, dt) ->
              stats.attempts <- stats.attempts + 1;
              stats.busy.(worker) <- stats.busy.(worker) +. dt;
              Metrics.observe obs.Obs.metrics "pool.task_us"
                (int_of_float (dt *. 1e6));
              match r with
              | Ok v -> results.(idx) <- Some (Ok v)
              | Error e ->
                  let reason = Grip_error.to_string e in
                  if is_stray_cause e then begin
                    (* a stray exception killed the attempt: account a
                       worker restart (generation bump) *)
                    stats.worker_restarts <- stats.worker_restarts + 1;
                    stats.generations.(worker) <-
                      stats.generations.(worker) + 1;
                    Metrics.incr obs.Obs.metrics "pool.worker_restarts";
                    trace
                      (Trace.Worker_restart
                         { worker; generation = stats.generations.(worker) })
                  end;
                  if att < config.retries then begin
                    stats.retries <- stats.retries + 1;
                    Metrics.incr obs.Obs.metrics "pool.retries";
                    trace
                      (Trace.Task_retry
                         { task = idx; attempt = att + 1; reason });
                    pending := !pending @ [ (idx, att + 1) ]
                  end
                  else begin
                    stats.quarantined <- stats.quarantined + 1;
                    Metrics.incr obs.Obs.metrics "pool.quarantined";
                    trace
                      (Trace.Task_quarantine
                         { task = idx; attempts = att + 1; reason });
                    results.(idx) <- Some (Error e)
                  end)
            outcomes
        done);
    (* fold the watchdog's observations in, on the calling domain *)
    Mutex.lock watch.wmutex;
    stats.watchdog_cancels <- watch.cancels;
    Hashtbl.iter
      (fun (worker, task) (gap, t_end) ->
        stats.gap_violations <- stats.gap_violations + 1;
        let cause = gap_cause ~t0:(t_end -. gap) ~t1:t_end in
        stats.worker_gaps <- (worker, task, gap, cause) :: stats.worker_gaps;
        if gap > stats.max_gap then stats.max_gap <- gap;
        Metrics.observe obs.Obs.metrics "pool.worker_gap_ms"
          (int_of_float (gap *. 1e3));
        Metrics.incr obs.Obs.metrics ("pool.gap_cause." ^ cause);
        trace (Trace.Watchdog_gap { worker; task; gap; cause }))
      watch.gaps;
    Mutex.unlock watch.wmutex;
    if flagged stats then Metrics.incr obs.Obs.metrics "pool.gap_violations";
    let out =
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> assert false (* every index resolves or quarantines *))
           results)
    in
    (out, stats)
  end

(** [supervise ?config ?obs ?degrade ?gap_cause pool ~f items] — like
    {!supervise_worker} for task bodies that do not care which worker
    runs them. *)
let supervise ?config ?obs ?degrade ?gap_cause pool ~f items =
  supervise_worker ?config ?obs ?degrade ?gap_cause pool
    ~f:(fun ~worker:_ ~budget item -> f ~budget item)
    items

(** [supervise_or_raise ?config ?obs ?degrade pool ~f items] — like
    {!supervise} but with {!Pool.map_ordered}'s failure contract: the
    lowest-index quarantined error is re-raised as
    [Grip_error.Error]. *)
let supervise_or_raise ?config ?obs ?degrade pool ~f items =
  let results, stats = supervise ?config ?obs ?degrade pool ~f items in
  let rec unwrap i = function
    | [] -> []
    | Ok v :: tl -> v :: unwrap (i + 1) tl
    | Error e :: _ -> raise (Grip_error.Error e)
  in
  (unwrap 0 results, stats)
