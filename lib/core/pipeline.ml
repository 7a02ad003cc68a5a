(** End-to-end driver: kernel -> unwind -> (redundancy removal) ->
    schedule -> converge -> measure.

    This is the top of the GRiP stack, tying together every piece the
    paper describes: Perfect Pipelining by fixed unwinding, the GRiP or
    baseline scheduler, convergence detection, and simulation-based
    speedup measurement against the rolled sequential loop. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Redundant = Vliw_percolation.Redundant
module Ddg = Vliw_analysis.Ddg
module Grip_error = Grip_robust.Grip_error
module Guard = Grip_robust.Guard
module Budget = Grip_robust.Budget
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics

type method_ =
  | Grip  (** resource-constrained GRiP with gap prevention *)
  | Grip_no_gap  (** ablation: GRiP without the Gapless-move test *)
  | Post  (** unconstrained pipelining + post-pass constraints *)
  | Unifiable  (** the expensive Unifiable-ops baseline *)

let method_name = function
  | Grip -> "GRiP"
  | Grip_no_gap -> "GRiP(no-gap)"
  | Post -> "POST"
  | Unifiable -> "Unifiable"

(** The scheduler-specific statistics of a run, surfaced uniformly so
    drivers (the CLI, the bench JSON artifact) can report whichever
    technique ran — including the Unifiable baseline, whose stats used
    to be discarded. *)
type sched_stats =
  | Grip_stats of Scheduler.stats
  | Post_stats of Post.stats
  | Unifiable_stats of Unifiable.stats

type outcome = {
  program : Program.t;  (** the scheduled unwound program *)
  kernel : Kernel.t;
  machine : Machine.t;
  horizon : int;
  method_ : method_;
  pattern : Convergence.pattern option;
  gaps : int;
  static_cpi : float option;  (** cycles/iteration from the pattern *)
  redundant_removed : int * int * int;  (** loads, copies, dead ops *)
  wall_seconds : float;  (** scheduling time (the efficiency claim) *)
  phase_seconds : (string * float) list;
      (** per-phase wall time: unwind, redundancy, schedule, converge *)
  stats : sched_stats;  (** the scheduler's own counters *)
  fuel_exhausted : bool;
      (** the migration budget truncated scheduling (see
          {!Scheduler.stats.fuel_exhausted}) *)
}

(** [default_horizon machine] — the unwinding depth used when the
    caller does not pin one: wide machines see enough iterations to
    converge.  Exposed so drivers that replay the pipeline stage by
    stage unwind at the same depth. *)
let default_horizon machine = max 18 ((2 * Machine.width machine) + 6)

(** [ddg_of k] — dependence graph of the body plus its loop-control
    conditional, with exact induction-based memory distances. *)
let ddg_of (k : Kernel.t) =
  let kinds = k.Kernel.body @ [ List.nth (Kernel.control k) 1 ] in
  let ops = List.mapi (fun i kind -> Operation.make ~id:i ~src_pos:i kind) kinds in
  Ddg.build ~ivar:(k.Kernel.ivar, k.Kernel.step) ops

(** [rate_edges ddg] — the arcs of [ddg] that bound the issue rate,
    as the recurrence bound ({!Obs.Bottleneck.critical_chain}) reads
    them: true (flow) and memory dependences.  Anti and output
    arcs are dissolved by the engine's renaming. *)
let rate_edges (ddg : Ddg.t) =
  List.filter_map
    (fun (a : Ddg.arc) ->
      match a.Ddg.kind with
      | Ddg.Flow | Ddg.Mem ->
          Some { Obs.Bottleneck.src = a.Ddg.src; dst = a.Ddg.dst; dist = a.Ddg.dist }
      | Ddg.Anti | Ddg.Output -> None)
    ddg.Ddg.arcs

(** [default_rank k] — the section 3.4 heuristic instantiated for
    [k]. *)
let default_rank (k : Kernel.t) = Rank.section_3_4 ~ddg:(ddg_of k)

(** [sched_totals stats] — (suspensions, resource barriers) of the
    winning scheduler, the counter-side of the provenance replay
    invariant (the Unifiable baseline tracks neither).  POST reports
    its unconstrained phase 1, where all percolation happens. *)
let sched_totals = function
  | Grip_stats (s : Scheduler.stats) ->
      (s.Scheduler.suspensions, s.Scheduler.resource_barrier_events)
  | Post_stats (s : Post.stats) ->
      ( s.Post.phase1.Scheduler.suspensions,
        s.Post.phase1.Scheduler.resource_barrier_events )
  | Unifiable_stats _ -> (0, 0)

(* Per-instruction slot occupancy of the final schedule, along the
   internal path (the utilization figure the paper argues GRiP wins). *)
let observe_occupancy (obs : Obs.t) machine p rows =
  if Metrics.enabled obs.Obs.metrics then
    List.iter
      (fun (r : Schedule_table.row) ->
        match Program.node_opt p r.Schedule_table.node with
        | None -> ()
        | Some _ ->
            Metrics.observe obs.Obs.metrics "schedule.slot_occupancy"
              (Machine.slot_demand_packed machine
                 (Program.counts_packed p r.Schedule_table.node)))
      rows

(* -- publication ------------------------------------------------------------ *)

(* [count m name ?events n] — add [n] under [name] when its event
   happened in the run ([events], by default [n] itself, is positive):
   a count is published exactly when recording each event into the
   registry would have created its cell. *)
let count m name ?events n =
  if Option.value events ~default:n > 0 then Metrics.add m name n

let publish_scheduler m (s : Scheduler.stats) =
  count m "scheduler.migrations" s.Scheduler.migrations;
  count m "scheduler.hops" ~events:s.Scheduler.migrations s.Scheduler.hops;
  count m "scheduler.reached" s.Scheduler.reached;
  count m "scheduler.suspensions" s.Scheduler.suspensions;
  count m "scheduler.barriers" s.Scheduler.resource_barrier_events;
  count m "scheduler.replays" s.Scheduler.replays;
  count m "scheduler.candidate_visits" ~events:s.Scheduler.nodes_scheduled
    s.Scheduler.candidate_visits;
  Array.iteri
    (fun hops k ->
      if k > 0 then Metrics.observe_n m "scheduler.travel_distance" hops k)
    s.Scheduler.travel

let publish_ctx m (c : Ctx.counts) =
  count m "ir.gc_runs" c.Ctx.gc_runs;
  count m "ir.gc_reclaimed" ~events:c.Ctx.gc_runs c.Ctx.gc_reclaimed;
  count m "gapless.scan_nodes" ~events:c.Ctx.searches c.Ctx.scan_nodes

(** [publish m p stats ctxs] — add a schedule phase's counts to [m]:
    the scheduler's [stats] and the counts of the contexts [ctxs] it
    ran on, all over program [p].  The collector's examined worklist
    entries are read off [p], whose collections only these contexts
    ran. *)
let publish m p stats ctxs =
  if Metrics.enabled m then begin
    (match stats with
    | Grip_stats s -> publish_scheduler m s
    | Post_stats s ->
        publish_scheduler m s.Post.phase1;
        count m "post.breaks" s.Post.breaks;
        count m "post.repair_hops" s.Post.repair_hops
    | Unifiable_stats _ -> ());
    List.iter (fun (c : Ctx.t) -> publish_ctx m c.Ctx.counts) ctxs;
    count m "ir.gc_candidates"
      ~events:
        (List.fold_left (fun a (c : Ctx.t) -> a + c.Ctx.counts.Ctx.gc_runs) 0 ctxs)
      (Program.gc_candidates p)
  end

(* -- the driver ------------------------------------------------------------ *)

(** The checks a guarded run applies (each pipelining rung of
    {!run_robust}): structural / resource / oracle spot-checks after
    every stage, fuel, [g_deadline], convergence and the final oracle
    check against [g_data]; any of them abandons the run. *)
type guards = { g_deadline : float option; g_data : string -> int -> Value.t }

let ( let* ) = Result.bind

(* The semantic check against the rolled reference: a rung may only
   win if the oracle agrees. *)
let oracle_final ~kernel ~mstr ~data ~n k p =
  match Speedup.verify ~data k ~scheduled:p ~n with
  | Ok _ -> Ok ()
  | Error ms ->
      Error (Guard.oracle_error ~kernel ~machine:mstr Grip_error.Validation ms)

(* The one unwind -> redundancy -> schedule -> converge sequence.  With
   [guards = None] ({!run}) no guard is evaluated, raised errors
   propagate and nothing abandons the run, so the result is always
   [Ok].  With [Some g] (a ladder rung) every stage is checked as
   {!guards} describes, and [budget] is the rung's cancellation token:
   the scheduler loop heads poll it, so a blown deadline (or an
   external cancel) surfaces as [Error] — a ladder descent — instead
   of wedging the domain.  The schedule phase's counts are published
   as soon as it returns ({!publish}), so a rung that a later guard
   abandons still reports the work it did; a rung abandoned inside
   the scheduler publishes none. *)
let drive ~obs ~rank ~horizon ~redundancy ~speculation ~max_migrations
    ~budget ~guards (k : Kernel.t) ~machine ~method_ =
  let kernel = k.Kernel.name in
  let mstr = lazy (Format.asprintf "%a" Machine.pp machine) in
  let abandon stage e =
    Error (Grip_error.make ~kernel ~machine:(Lazy.force mstr) stage e)
  in
  let catch guard f =
    match guards with None -> Ok (f ()) | Some _ -> guard f
  in
  let guarded named =
    match guards with
    | None -> Ok ()
    | Some g -> Guard.all_named ~obs (named g)
  in
  let structural stage p () =
    Guard.structural ~kernel ~machine:(Lazy.force mstr) stage p
  in
  let exit_live = Kernel.exit_live k in
  let* u, t_unwind =
    catch Grip_error.guard (fun () ->
        Obs.timed obs Trace.Unwind (fun () -> Unwind.build k ~horizon))
  in
  let p = u.Unwind.program in
  let* () =
    guarded (fun _ ->
        [ ("unwind.structural", structural Grip_error.Unwind p) ])
  in
  let redundant_removed, t_redundancy =
    Obs.timed obs Trace.Redundancy (fun () ->
        if redundancy then Redundant.cleanup p ~exit_live else (0, 0, 0))
  in
  let* () =
    guarded (fun g ->
        [
          ("redundancy.structural", structural Grip_error.Redundancy p);
          ( "redundancy.oracle",
            fun () ->
              Guard.oracle ~kernel ~machine:(Lazy.force mstr)
                Grip_error.Redundancy
                ~reference:(Kernel.rolled k).Builder.program ~candidate:p
                ~init:
                  (Kernel.initial_state ~n:(min 4 (horizon - 2)) k
                     ~data:g.g_data)
                ~observable:k.Kernel.observable );
        ])
  in
  let* (stats, fuel, ctxs), wall_seconds =
    catch (Budget.guard budget) (fun () ->
        Obs.timed obs Trace.Schedule (fun () ->
            let base = Scheduler.default_config ~rank in
            let fuel =
              Option.value max_migrations ~default:base.Scheduler.max_migrations
            in
            match method_ with
            | Grip | Grip_no_gap ->
                let ctx = Ctx.make ~obs p ~machine ~exit_live in
                let config =
                  {
                    base with
                    Scheduler.gap_prevention = (method_ = Grip);
                    Scheduler.speculation = speculation;
                    Scheduler.max_migrations = fuel;
                    Scheduler.budget = budget;
                  }
                in
                (Grip_stats (Scheduler.run config ctx), fuel, [ ctx ])
            | Post ->
                let ctx_unlimited =
                  Ctx.make ~obs p ~machine:Machine.unlimited ~exit_live
                in
                let ctx_real = Ctx.make ~obs p ~machine ~exit_live in
                ( Post_stats (Post.run ~budget ctx_unlimited ctx_real ~rank),
                  fuel,
                  [ ctx_unlimited; ctx_real ] )
            | Unifiable ->
                let ctx = Ctx.make ~obs p ~machine ~exit_live in
                let base =
                  Unifiable.default_config ~rank ~ddg:(ddg_of k) ~horizon
                in
                let config =
                  {
                    base with
                    Unifiable.max_migrations =
                      Option.value max_migrations
                        ~default:base.Unifiable.max_migrations;
                    Unifiable.budget = budget;
                  }
                in
                ( Unifiable_stats (Unifiable.run config ctx),
                  config.Unifiable.max_migrations,
                  [ ctx ] )))
  in
  publish obs.Obs.metrics p stats ctxs;
  (* Unifiable's loop stops at its migration budget without marking the
     truncation; reaching the budget is the only observable signal *)
  let migrations, fuel_exhausted =
    match stats with
    | Grip_stats s -> (s.Scheduler.migrations, s.Scheduler.fuel_exhausted)
    | Post_stats s ->
        ( s.Post.phase1.Scheduler.migrations,
          s.Post.phase1.Scheduler.fuel_exhausted )
    | Unifiable_stats s ->
        (s.Unifiable.migrations, s.Unifiable.migrations >= fuel)
  in
  let* () =
    match guards with
    | Some _ when fuel_exhausted ->
        abandon Grip_error.Scheduling
          (Grip_error.Fuel_exhausted { migrations; budget = fuel })
    | Some { g_deadline = Some b; _ } when wall_seconds > b ->
        abandon Grip_error.Scheduling
          (Grip_error.Deadline_exceeded { elapsed = wall_seconds; budget = b })
    | Some _ | None -> Ok ()
  in
  let* () =
    guarded (fun _ ->
        [
          ("validation.structural", structural Grip_error.Validation p);
          ( "validation.resources",
            fun () -> Guard.resources ~kernel Grip_error.Validation ~machine p );
        ])
  in
  let (rows, pattern), t_converge =
    Obs.timed obs Trace.Converge (fun () ->
        let rows = Schedule_table.rows p in
        ( rows,
          Convergence.detect
            ~body_positions:(List.length k.Kernel.body + 1)
            rows ))
  in
  let* () =
    match (guards, pattern) with
    | Some _, None ->
        abandon Grip_error.Convergence (Grip_error.Non_convergent { horizon })
    | Some g, Some _ ->
        oracle_final ~kernel ~mstr:(Lazy.force mstr) ~data:g.g_data
          ~n:(horizon - 2) k p
    | None, _ -> Ok ()
  in
  observe_occupancy obs machine p rows;
  Metrics.add obs.Obs.metrics "ir.order_walks" (Program.order_walks p);
  Metrics.add obs.Obs.metrics "ir.order_visits" (Program.order_visits p);
  Ok
    {
      program = p;
      kernel = k;
      machine;
      horizon;
      method_;
      pattern;
      gaps = Convergence.gaps rows;
      static_cpi = Option.map Convergence.cycles_per_iteration pattern;
      redundant_removed;
      wall_seconds;
      phase_seconds =
        [
          ("unwind", t_unwind);
          ("redundancy", t_redundancy);
          ("schedule", wall_seconds);
          ("converge", t_converge);
        ];
      stats;
      fuel_exhausted;
    }

(** [run ?obs ?rank ?horizon ?redundancy ?speculation k ~machine
    ~method_] schedules kernel [k] — the driver unguarded.  The default
    horizon scales with the machine width so wide machines see enough
    iterations to converge; [speculation] tunes the section 1 policy
    (GRiP methods only); [obs] receives phase spans, migration events
    and scheduler metrics (default: the null sink). *)
let run ?(obs = Obs.null) ?rank ?horizon ?(redundancy = true)
    ?(speculation = Scheduler.Always) ?max_migrations
    ?(budget = Budget.unlimited) (k : Kernel.t) ~machine ~method_ =
  let rank = match rank with Some r -> r | None -> default_rank k in
  let horizon =
    match horizon with Some h -> h | None -> default_horizon machine
  in
  match
    drive ~obs ~rank ~horizon ~redundancy ~speculation ~max_migrations
      ~budget ~guards:None k ~machine ~method_
  with
  | Ok o -> o
  | Error e -> raise (Grip_error.Error e) (* unreachable: nothing abandons *)

(* The trip counts (n1, n2) a schedule unwound [horizon] iterations
   deep is measured at, in its steady state.  [n2 - n1] is a multiple
   of 12, so exits land at the same phase of any repeating pattern
   with delta in {1,2,3,4,6} and the pipeline-drain epilogues cancel in
   the difference quotient. *)
let trip_counts horizon =
  let n2 = horizon - 2 in
  ((if n2 > 13 then n2 - 12 else max 1 (n2 / 2)), n2)

(** [measure outcome] — dynamic speedup from two trip counts deep in
    the steady state. *)
let measure ?(obs = Obs.null) ?data (o : outcome) =
  let n1, n2 = trip_counts o.horizon in
  (* steady-state differencing is only sound when the schedule
     converged (exits then drain through phase-equal epilogues); a
     non-convergent schedule is charged its full execution *)
  let steady = o.pattern <> None in
  fst
    (Obs.timed obs Trace.Measure (fun () ->
         Speedup.measure ?data ~steady o.kernel ~scheduled:o.program ~n1 ~n2))

(** [check outcome] — oracle equivalence of the scheduled program
    against the rolled loop. *)
let check ?data (o : outcome) =
  Speedup.verify ?data o.kernel ~scheduled:o.program ~n:(o.horizon - 2)

(* -- guarded pipeline with graceful degradation -------------------------- *)

(** One rung of the degradation ladder, best first: full GRiP, GRiP
    without the Gapless-move test, unconstrained pipelining with
    post-pass constraints, a list-scheduled rolled loop, and finally
    the sequential rolled loop — the trusted reference itself, which
    cannot fail. *)
type rung = R_grip | R_grip_no_gap | R_post | R_list | R_sequential

let rung_name = function
  | R_grip -> "GRiP"
  | R_grip_no_gap -> "GRiP(no-gap)"
  | R_post -> "POST"
  | R_list -> "list-rolled"
  | R_sequential -> "sequential"

let ladder = [ R_grip; R_grip_no_gap; R_post; R_list; R_sequential ]

(* The ladder from [start] down. *)
let from_rung start =
  let rec from = function r :: rest when r <> start -> from rest | l -> l in
  from ladder

(** [descend_rung start level] — the rung [level] rungs below [start],
    saturating at the sequential reference: a supervisor's load-shed
    map. *)
let descend_rung start level =
  let rungs = from_rung start in
  List.nth rungs (max 0 (min level (List.length rungs - 1)))

(** Ladder entry point corresponding to a pipeline method (the
    Unifiable baseline is not a rung; it maps to the top). *)
let rung_of_method = function
  | Grip -> R_grip
  | Grip_no_gap -> R_grip_no_gap
  | Post -> R_post
  | Unifiable -> R_grip

type robust = {
  program : Program.t;  (** the schedule of the winning rung *)
  kernel : Kernel.t;
  machine : Machine.t;
  horizon : int;
  rung : rung;  (** the rung that produced [program] *)
  descents : (rung * Grip_error.t) list;
      (** abandoned rungs with the error that abandoned each, top of
          the ladder first *)
  scheduled : outcome option;
      (** the full pipeline outcome when a pipelining rung won *)
  pattern : Convergence.pattern option;
  wall_seconds : float;
}

(* The list-scheduled rolled loop: no unwinding, no percolation; still
   guarded and still oracle-checked. *)
let attempt_list ~obs ~horizon ~data (k : Kernel.t) ~machine =
  let kernel = k.Kernel.name in
  let mstr = Format.asprintf "%a" Machine.pp machine in
  let* p =
    match List_scheduler.rolled_program k ~machine with
    | p -> Ok p
    | exception Grip_error.Error e -> Error e
    | exception e ->
        Error
          (Grip_error.make ~kernel ~machine:mstr Grip_error.Scheduling
             (Grip_error.Message (Printexc.to_string e)))
  in
  let* () =
    Guard.all_named ~obs
      [
        ( "validation.structural",
          fun () ->
            Guard.structural ~kernel ~machine:mstr Grip_error.Validation p );
        ( "validation.resources",
          fun () -> Guard.resources ~kernel Grip_error.Validation ~machine p );
      ]
  in
  let* () = oracle_final ~kernel ~mstr ~data ~n:(horizon - 2) k p in
  Ok p

(** [run_robust k ~machine] — the guarded pipeline.  Starts at [start]
    (default: the top rung, full GRiP) and falls one rung down the
    ladder whenever the current rung is abandoned: by a structural,
    resource or oracle guard after any stage, by fuel or deadline
    exhaustion, by failure to converge, or by the final oracle check.
    Each abandoned rung is reported in [descents] with its error.  The
    bottom rung is the sequential reference itself, so the result is
    [Ok] unless a cancelled [budget] abandons that rung too.

    [deadline] bounds each {e pipelining} rung: a per-rung child token
    ({!Budget.sub}) is polled live at the scheduler loop heads, so a
    blown deadline abandons the rung mid-schedule instead of after the
    fact.  [budget] is the caller's (supervisor's) task-level token:
    its cancellation flag is inherited by every rung's child, and it is
    checked again before the list and sequential rungs, so a cancelled
    task stops descending the ladder rather than finishing cheaply. *)
let run_robust ?(obs = Obs.null) ?rank ?horizon ?(redundancy = true)
    ?(speculation = Scheduler.Always) ?max_migrations ?deadline
    ?(budget = Budget.unlimited) ?(data = Kernel.default_data)
    ?(start = R_grip) (k : Kernel.t) ~machine =
  let rank = match rank with Some r -> r | None -> default_rank k in
  let horizon =
    match horizon with Some h -> h | None -> default_horizon machine
  in
  let t0 = Unix.gettimeofday () in
  let rungs = from_rung start in
  let finish rung descents (program, scheduled, pattern) =
    {
      program;
      kernel = k;
      machine;
      horizon;
      rung;
      descents = List.rev descents;
      scheduled;
      pattern;
      wall_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let guards = Some { g_deadline = deadline; g_data = data } in
  let attempt rung =
    match rung with
    | R_grip | R_grip_no_gap | R_post ->
        let method_ =
          match rung with
          | R_grip -> Grip
          | R_grip_no_gap -> Grip_no_gap
          | _ -> Post
        in
        Result.map
          (fun (o : outcome) -> (o.program, Some o, o.pattern))
          (drive ~obs ~rank ~horizon ~redundancy ~speculation
             ~max_migrations ~budget:(Budget.sub budget ?deadline ())
             ~guards k ~machine ~method_)
    | R_list -> (
        match
          Budget.guard budget (fun () ->
              attempt_list ~obs ~horizon ~data k ~machine)
        with
        | Ok r -> Result.map (fun p -> (p, None, None)) r
        | Error e -> Error e)
    | R_sequential -> (
        match
          Budget.guard budget (fun () -> (Kernel.rolled k).Builder.program)
        with
        | Ok p -> Ok (p, None, None)
        | Error e -> Error e)
  in
  let rec go descents = function
    | [] -> assert false (* the sequential rung never fails *)
    | rung :: rest -> (
        let result, _ =
          Obs.timed obs (Trace.Stage ("rung:" ^ rung_name rung)) (fun () ->
              attempt rung)
        in
        match result with
        | Ok win -> Ok (finish rung descents win)
        | Error e ->
            Metrics.incr obs.Obs.metrics "ladder.descents";
            Trace.emit obs.Obs.trace
              (Trace.Descent
                 { rung = rung_name rung; reason = Grip_error.to_string e });
            if rest <> [] then go ((rung, e) :: descents) rest
            else Error e)
  in
  go [] rungs

(** [measure_robust r] — dynamic speedup of the winning rung over the
    sequential reference.  Pipelined winners use the steady-state
    difference quotient of {!measure}; rolled-loop rungs are charged
    their full execution. *)
let measure_robust ?data (r : robust) =
  match r.scheduled with
  | Some o -> measure ?data o
  | None ->
      let n1, n2 = trip_counts r.horizon in
      Speedup.measure ?data ~steady:false r.kernel ~scheduled:r.program ~n1 ~n2

let pp_descents ppf ds =
  List.iter
    (fun (rung, e) ->
      Format.fprintf ppf "%s abandoned: %a@." (rung_name rung) Grip_error.pp e)
    ds
