(* Chaos suite for the supervised execution layer (lib/parallel):
   deterministic pool-level fault injection (crash / stall / slow),
   retry-until-identical, quarantine of poison tasks, deadline-driven
   ladder descent with byte-identical-to-sequential output, the
   starvation-gap watchdog, and the pool-misuse guards.  Fast subset —
   the full 126-cell supervised digest sweep runs under @chaos-sweep
   (schedule_digests --chaos). *)

module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor
module Grip_error = Grip_robust.Grip_error
module Budget = Grip_robust.Budget
module Fault = Grip_robust.Fault
module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore
module Trace = Grip_obs.Trace
module Obs = Grip_obs

let supervise ?config ?obs ?degrade pool ~f items =
  Supervisor.supervise ?config ?obs ?degrade pool ~f items

(* -- budgets --------------------------------------------------------------- *)

let test_budget_zero_deadline () =
  (* a zero deadline must trip on the very first poll: the token reads
     the clock on poll 1, not only every check_every polls *)
  let b = Budget.make ~deadline:0.0 () in
  match Budget.check b with
  | () -> Alcotest.fail "zero deadline should trip the first poll"
  | exception Grip_error.Error e -> (
      match e.Grip_error.cause with
      | Grip_error.Deadline_exceeded _ -> ()
      | _ -> Alcotest.failf "wrong cause: %a" Grip_error.pp e)

let test_budget_cancel_shared () =
  (* cancelling the parent aborts a child made with [sub] *)
  let parent = Budget.make ~deadline:60.0 () in
  let child = Budget.sub parent ~deadline:60.0 () in
  Alcotest.(check bool) "first cancel wins" true
    (Budget.cancel parent ~reason:"test");
  Alcotest.(check bool) "second cancel loses" false
    (Budget.cancel parent ~reason:"late");
  match Budget.check child with
  | () -> Alcotest.fail "cancelled child must not pass a poll"
  | exception Grip_error.Error e -> (
      match e.Grip_error.cause with
      | Grip_error.Cancelled { reason; _ } ->
          Alcotest.(check string) "first reason" "test" reason
      | _ -> Alcotest.failf "wrong cause: %a" Grip_error.pp e)

(* -- supervised fan-out ---------------------------------------------------- *)

(* Transient crashes: every batch completes, results identical to a
   fault-free run, no quarantine. *)
let test_transient_crash_retries () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault = Some (Fault.pool_plan ~every:3 Fault.Crash);
        }
      in
      let items = List.init 12 Fun.id in
      let metrics = Obs.Metrics.create () in
      let results, stats =
        supervise ~config ~obs:(Obs.make ~metrics ()) pool
          ~f:(fun ~budget:_ i -> i * i)
          items
      in
      (* every attempt, retries included, lands once in pool.task_us *)
      Alcotest.(check (option int))
        "one pool.task_us observation per attempt"
        (Some stats.Supervisor.attempts)
        (Option.map Obs.Hdr.count
           (Obs.Metrics.histogram metrics "pool.task_us"));
      Alcotest.(check (list int))
        "identical to fault-free"
        (List.map (fun i -> i * i) items)
        (List.map Result.get_ok results);
      Alcotest.(check bool) "retried" true (stats.Supervisor.retries > 0);
      Alcotest.(check int) "no quarantine" 0 stats.Supervisor.quarantined;
      Alcotest.(check bool)
        "restarts accounted" true
        (stats.Supervisor.worker_restarts > 0))

(* Poison pills: only the poisoned tasks are quarantined; every other
   slot completes with the fault-free value. *)
let test_poison_quarantine () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault =
            Some (Fault.pool_plan ~every:5 ~transient:false Fault.Crash);
          Supervisor.retries = 2;
        }
      in
      let results, stats =
        supervise ~config pool ~f:(fun ~budget:_ i -> i) (List.init 11 Fun.id)
      in
      Alcotest.(check int)
        "three poisoned tasks" 3 stats.Supervisor.quarantined;
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "healthy slot" true (i mod 5 <> 0);
              Alcotest.(check int) "value" i v
          | Error e -> (
              Alcotest.(check bool) "poisoned slot" true (i mod 5 = 0);
              match e.Grip_error.cause with
              | Grip_error.Worker { task; _ } ->
                  Alcotest.(check int) "task index in error" i task
              | _ -> Alcotest.failf "wrong cause: %a" Grip_error.pp e))
        results)

(* Slow-task faults: latency but no failures, no retries. *)
let test_slow_fault_completes () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault = Some (Fault.pool_plan ~every:2 (Fault.Slow 0.01));
        }
      in
      let results, stats =
        supervise ~config pool ~f:(fun ~budget:_ i -> i + 1) (List.init 6 Fun.id)
      in
      Alcotest.(check (list int))
        "all complete" [ 1; 2; 3; 4; 5; 6 ]
        (List.map Result.get_ok results);
      Alcotest.(check int) "no retries" 0 stats.Supervisor.retries)

(* Load shedding: overflow waves degrade through the callback and the
   descent is recorded. *)
let test_load_shed () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.queue_limit = 3;
        }
      in
      let results, stats =
        supervise ~config pool
          ~degrade:(fun ~level i -> Some (i + (1000 * level), "cheaper"))
          ~f:(fun ~budget:_ i -> i)
          (List.init 8 Fun.id)
      in
      Alcotest.(check int) "sheds recorded" 5 stats.Supervisor.sheds;
      Alcotest.(check (list int))
        "degraded payloads"
        [ 0; 1; 2; 1003; 1004; 1005; 2006; 2007 ]
        (List.map Result.get_ok results))

(* The supervisor emits no more trace events than [trace_events]
   bounds, which is what [grip stress] sizes its ring by: every task
   poisoned, so each attempt emits a worker restart and a retry or a
   quarantine, and most of them shed at admission.  A ring of exactly
   that size drops nothing, and holds one event per counted
   occurrence. *)
let test_trace_events_bound () =
  let config =
    {
      Supervisor.default_config with
      Supervisor.fault =
        Some (Fault.pool_plan ~every:1 ~transient:false Fault.Crash);
      Supervisor.retries = 2;
      Supervisor.queue_limit = 2;
    }
  in
  let tasks = 7 in
  let ring, tracer =
    Trace.ring ~capacity:(Supervisor.trace_events config ~tasks) ()
  in
  let stats =
    Pool.with_pool ~jobs:2 (fun pool ->
        snd
          (supervise ~config ~obs:(Obs.make ~trace:tracer ()) pool
             ~degrade:(fun ~level i -> Some (i + (1000 * level), "cheaper"))
             ~f:(fun ~budget:_ i -> i)
             (List.init tasks Fun.id)))
  in
  Alcotest.(check int) "every task quarantined" tasks stats.Supervisor.quarantined;
  Alcotest.(check bool) "tasks shed" true (stats.Supervisor.sheds > 0);
  Alcotest.(check int) "no events dropped" 0 (Trace.ring_dropped ring);
  Alcotest.(check int) "one event per shed, restart, retry and quarantine"
    (stats.Supervisor.sheds + stats.Supervisor.worker_restarts
   + stats.Supervisor.retries + stats.Supervisor.quarantined)
    (List.length (Trace.ring_events ring))

(* -- deadline-driven ladder descent ---------------------------------------- *)

(* A GRiP-rung cell that blows its budget must land on a cheaper rung
   whose output is byte-identical to the sequential reference (the
   final oracle check of every rung guarantees semantics; here we also
   pin the landing rung and compare renderings). *)
let test_deadline_descends_ladder () =
  let e = List.hd Livermore.all in
  let k = e.Livermore.kernel in
  let machine = Machine.homogeneous 4 in
  let r =
    match
      Pipeline.run_robust ~deadline:0.0 ~data:e.Livermore.data k ~machine
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "fallback must win: %a" Grip_error.pp e
  in
  (* every pipelining rung polls its token, so a zero deadline abandons
     GRiP, no-gap and POST; the list rung doesn't schedule iteratively
     and wins *)
  Alcotest.(check string)
    "lands on the list rung" "list-rolled"
    (Pipeline.rung_name r.Pipeline.rung);
  Alcotest.(check int) "three descents" 3 (List.length r.Pipeline.descents);
  List.iter
    (fun (_, (err : Grip_error.t)) ->
      match err.Grip_error.cause with
      | Grip_error.Deadline_exceeded _ | Grip_error.Cancelled _ -> ()
      | _ -> Alcotest.failf "descent not deadline-driven: %a" Grip_error.pp err)
    r.Pipeline.descents;
  (* byte-identical to the same rung reached directly, and semantically
     identical to the sequential reference *)
  let direct =
    match
      Pipeline.run_robust ~data:e.Livermore.data ~start:Pipeline.R_list k
        ~machine
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "direct list rung: %a" Grip_error.pp e
  in
  Alcotest.(check string)
    "schedule identical to direct list rung"
    (Format.asprintf "%a" Vliw_ir.Program.pp direct.Pipeline.program)
    (Format.asprintf "%a" Vliw_ir.Program.pp r.Pipeline.program)

(* The rung a zero deadline abandons first is reported with its
   deadline error, at the head of [descents]. *)
let test_first_descent_reports_deadline () =
  let e = List.hd Livermore.all in
  match
    Pipeline.run_robust ~deadline:0.0 ~data:e.Livermore.data
      e.Livermore.kernel ~machine:(Machine.homogeneous 4)
  with
  | Error err -> Alcotest.failf "the ladder must win: %a" Grip_error.pp err
  | Ok r -> (
      match r.Pipeline.descents with
      | (Pipeline.R_grip, { Grip_error.cause = Grip_error.Deadline_exceeded _; _ })
        :: _ ->
          ()
      | (rung, err) :: _ ->
          Alcotest.failf "first descent %s: %a" (Pipeline.rung_name rung)
            Grip_error.pp err
      | [] -> Alcotest.fail "a zero deadline must abandon GRiP")

(* -- digest subset under faults -------------------------------------------- *)

let cell_digest (k : Grip.Kernel.t) ~fu ~method_ =
  let machine = Machine.homogeneous fu in
  let o = Pipeline.run k ~machine ~method_ in
  Digest.to_hex
    (Digest.string (Format.asprintf "%a" Vliw_ir.Program.pp o.Pipeline.program))

(* Supervised runs under crash and stall faults reproduce the
   fault-free inline digests exactly (the full 126-cell sweep runs
   under @chaos-sweep). *)
let test_digest_subset_under_faults () =
  let cells =
    List.filteri
      (fun i _ -> i < 3)
      (List.map (fun (e : Livermore.entry) -> e.Livermore.kernel) Livermore.all)
  in
  let tasks = List.map (fun k -> (k, 4, Pipeline.Grip)) cells in
  let baseline =
    List.map (fun (k, fu, method_) -> cell_digest k ~fu ~method_) tasks
  in
  List.iter
    (fun fault ->
      Pool.with_pool ~jobs:2 (fun pool ->
          let config =
            {
              Supervisor.default_config with
              Supervisor.fault = Some (Fault.pool_plan ~every:2 fault);
            }
          in
          let results, stats =
            supervise ~config pool
              ~f:(fun ~budget:_ (k, fu, method_) -> cell_digest k ~fu ~method_)
              tasks
          in
          Alcotest.(check (list string))
            (Printf.sprintf "digests under %s" (Fault.pool_fault_name fault))
            baseline
            (List.map Result.get_ok results);
          Alcotest.(check int)
            "nothing quarantined" 0 stats.Supervisor.quarantined))
    [ Fault.Crash; Fault.Stall 0.03 ]

(* -- watchdog -------------------------------------------------------------- *)

(* A synthetic stall (no budget polls while sleeping) must trip the
   starvation-gap watchdog, flag the run, and the trace-ring dump must
   carry the gap events plus the dropped-events count. *)
let test_stall_trips_watchdog () =
  let ring, tracer = Trace.ring ~capacity:256 () in
  let obs = Obs.make ~trace:tracer () in
  Pool.with_pool ~jobs:2 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault = Some (Fault.pool_plan ~every:4 (Fault.Stall 0.15));
          Supervisor.gap_threshold = Some 0.03;
        }
      in
      let results, stats =
        supervise ~config ~obs pool
          ~f:(fun ~budget:_ i -> i)
          (List.init 8 Fun.id)
      in
      Alcotest.(check bool)
        "all complete despite stalls" true
        (List.for_all Result.is_ok results);
      Alcotest.(check bool) "flagged" true (Supervisor.flagged stats);
      Alcotest.(check bool)
        "widest gap past the stall threshold" true
        (stats.Supervisor.max_gap > 0.03);
      Alcotest.(check bool)
        "per-worker gaps recorded" true
        (stats.Supervisor.worker_gaps <> []);
      Alcotest.(check bool)
        "default gap cause is stall" true
        (List.for_all
           (fun (_, _, _, cause) -> cause = "stall")
           stats.Supervisor.worker_gaps));
  let events = Trace.ring_events ring in
  Alcotest.(check bool)
    "ring holds watchdog.gap events" true
    (List.exists
       (fun (_, ev) -> match ev with Trace.Watchdog_gap _ -> true | _ -> false)
       events);
  (* the dump a flagged run produces: Chrome JSON of the ring, with the
     dropped-events count surfaced next to it *)
  let dump =
    Trace.chrome_tracks [ { Trace.tid = 0; label = "main"; events } ]
  in
  Alcotest.(check bool)
    "dump renders the gap events" true
    (let sub = "watchdog.gap" in
     let rec find i =
       i + String.length sub <= String.length dump
       && (String.sub dump i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check int) "no events dropped" 0 (Trace.ring_dropped ring)

(* A driver-supplied [gap_cause] classifier reattributes every
   recorded gap: the stats tuples and the Watchdog_gap trace events
   both carry its verdict, and the classifier sees a plausible
   interval (t0 < t1, width = the recorded gap). *)
let test_gap_cause_classifier () =
  let ring, tracer = Trace.ring ~capacity:256 () in
  let obs = Obs.make ~trace:tracer () in
  let seen = ref [] in
  Pool.with_pool ~jobs:2 (fun pool ->
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault = Some (Fault.pool_plan ~every:4 (Fault.Stall 0.15));
          Supervisor.gap_threshold = Some 0.03;
        }
      in
      let gap_cause ~t0 ~t1 =
        seen := (t0, t1) :: !seen;
        "gc_pause"
      in
      let _, stats =
        Supervisor.supervise ~config ~obs ~gap_cause pool
          ~f:(fun ~budget:_ i -> i)
          (List.init 8 Fun.id)
      in
      Alcotest.(check bool) "flagged" true (Supervisor.flagged stats);
      Alcotest.(check bool)
        "every recorded gap classified gc_pause" true
        (stats.Supervisor.worker_gaps <> []
        && List.for_all
             (fun (_, _, _, cause) -> cause = "gc_pause")
             stats.Supervisor.worker_gaps);
      Alcotest.(check int)
        "classifier consulted once per gap"
        (List.length stats.Supervisor.worker_gaps)
        (List.length !seen);
      Alcotest.(check bool)
        "classifier windows are plausible" true
        (List.for_all (fun (t0, t1) -> t0 < t1 && t1 -. t0 > 0.03) !seen));
  Alcotest.(check bool)
    "trace events carry the cause" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Trace.Watchdog_gap { cause; _ } -> cause = "gc_pause"
         | _ -> false)
       (Trace.ring_events ring))

(* -- pool misuse guards ---------------------------------------------------- *)

let is_parallel_error f =
  match f () with
  | _ -> false
  | exception Grip_error.Error e -> e.Grip_error.stage = Grip_error.Parallel

let test_non_owner_rejected () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let d =
        Domain.spawn (fun () ->
            is_parallel_error (fun () ->
                Pool.map_ordered pool ~f:Fun.id [ 1; 2; 3 ]))
      in
      Alcotest.(check bool)
        "structured error from a non-owner domain" true (Domain.join d))

let test_reentrant_rejected () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let nested =
        Pool.map_ordered pool
          ~f:(fun _ ->
            (* worker domains fail the owner check; the submitting
               domain fails the in-flight guard — either way the
               misuse surfaces as a structured error, not a deadlock *)
            is_parallel_error (fun () ->
                Pool.map_ordered pool ~f:Fun.id [ 1 ]))
          (List.init 8 Fun.id)
      in
      Alcotest.(check bool)
        "every nested call rejected" true
        (List.for_all Fun.id nested))

let () =
  Alcotest.run "chaos"
    [
      ( "budget",
        [
          Alcotest.test_case "zero deadline" `Quick test_budget_zero_deadline;
          Alcotest.test_case "cancel shared with sub" `Quick
            test_budget_cancel_shared;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "transient crash retries" `Quick
            test_transient_crash_retries;
          Alcotest.test_case "poison quarantine" `Quick test_poison_quarantine;
          Alcotest.test_case "slow fault completes" `Quick
            test_slow_fault_completes;
          Alcotest.test_case "load shed" `Quick test_load_shed;
          Alcotest.test_case "trace events bounded" `Quick
            test_trace_events_bound;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "deadline descends ladder" `Quick
            test_deadline_descends_ladder;
          Alcotest.test_case "no-fallback reports deadline" `Quick
            test_first_descent_reports_deadline;
        ] );
      ( "digests",
        [
          Alcotest.test_case "subset under crash+stall" `Slow
            test_digest_subset_under_faults;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "stall trips watchdog" `Quick
            test_stall_trips_watchdog;
          Alcotest.test_case "gap cause classifier" `Quick
            test_gap_cause_classifier;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "non-owner rejected" `Quick test_non_owner_rejected;
          Alcotest.test_case "re-entrant rejected" `Quick
            test_reentrant_rejected;
        ] );
    ]
