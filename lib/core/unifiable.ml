(** The Unifiable-ops baseline (paper section 3.1, Figures 7 and 8).

    The Unifiable-ops set of a node [n] is "the set of all operations
    on the subgraph dominated by [n] that are not on the same data
    dependency chain as any operation currently in [n]" — computed here
    from the body's dependence graph expanded over unwound iteration
    instances.

    The scheduler moves only operations that will {e succeed} in
    reaching the node being scheduled; an attempted migration that
    falls short is rolled back (program snapshot/restore), so no
    compaction ever happens below the current node and no resource
    barrier can form.  Both properties are the expensive ones the paper
    replaces: the benchmark harness measures this scheduler's cost
    against GRiP's. *)

open Vliw_ir
module Ctx = Vliw_percolation.Ctx
module Migrate = Vliw_percolation.Migrate
module Move_op = Vliw_percolation.Move_op
module Move_cj = Vliw_percolation.Move_cj
module Ddg = Vliw_analysis.Ddg
module Provenance = Grip_obs.Provenance

type stats = {
  mutable nodes_scheduled : int;
  mutable migrations : int;
  mutable rollbacks : int;
  mutable reached : int;
  mutable set_computations : int;
}

let fresh_stats () =
  {
    nodes_scheduled = 0;
    migrations = 0;
    rollbacks = 0;
    reached = 0;
    set_computations = 0;
  }

(* Instance of an operation for chain tests: (body position, iteration);
   straight-line code maps to iteration 0. *)
let instance (op : Operation.t) =
  (op.Operation.lineage, max op.Operation.iter 0)

(** [set ctx scratch chains n] — the Unifiable-ops set of node [n]:
    the candidates of node entry's region pass
    ({!Scheduler.entry_op_ids}, on [scratch]), in its order, less
    those on a dependence chain with an operation of [n], asked of the
    run's chain memo [chains] ({!Ddg.chains}). *)
let set (ctx : Ctx.t) (scratch : Scheduler.scratch) chains n =
  let p = ctx.Ctx.program in
  let in_n = Program.ops p n @ Ctree.cjumps (Program.node p n).Node.ctree in
  let chained (op : Operation.t) =
    List.exists
      (fun (o : Operation.t) -> Ddg.related chains (instance o) (instance op))
      in_n
  in
  Iarr.to_list (Scheduler.entry_op_ids scratch n)
  |> List.map (Program.op_of p)
  |> List.filter (fun op -> not (chained op))

type config = {
  rank : Rank.t;
  ddg : Ddg.t;
  horizon : int;
  max_migrations : int;
  budget : Grip_robust.Budget.t;
      (** cancellation token polled at the scheduling loop head (see
          {!Scheduler.config}) *)
}

let default_config ~rank ~ddg ~horizon =
  {
    rank;
    ddg;
    horizon;
    max_migrations = 1_000_000;
    budget = Grip_robust.Budget.unlimited;
  }

(** [schedule_node config ctx scratch chains stats n] — Figure 7's
    [schedule(n)]: while resources remain and the set is non-empty,
    choose the best operation and migrate it; roll back if it fails to
    reach [n]. *)
let schedule_node ?on_sched (config : config) (ctx : Ctx.t) scratch chains stats n =
  let p = ctx.Ctx.program in
  let tried : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let continue_ = ref true in
  while !continue_ && stats.migrations < config.max_migrations do
    Grip_robust.Budget.check config.budget;
    stats.set_computations <- stats.set_computations + 1;
    let unifiable =
      set ctx scratch chains n
      |> List.filter (fun (op : Operation.t) ->
             not (Hashtbl.mem tried op.Operation.id))
    in
    match Rank.sort config.rank unifiable with
    | [] -> continue_ := false
    | best :: _ ->
        Hashtbl.replace tried best.Operation.id ();
        stats.migrations <- stats.migrations + 1;
        let snap = Program.snapshot p in
        let r = Migrate.migrate ctx ~target:n ~op_id:best.Operation.id () in
        if r.Migrate.reached_target then begin
          stats.reached <- stats.reached + 1;
          match on_sched with Some f -> f ~op:best ~node:n | None -> ()
        end
        else begin
          (* Journal why the attempt fell short.  Hops of a rolled-back
             walk stay in the journal on purpose: for this baseline the
             wasted motion IS the story (the cost GRiP's in-place
             compaction avoids). *)
          let pv = ctx.Ctx.obs.Grip_obs.prov in
          if Provenance.enabled pv then begin
            let reason =
              match r.Migrate.last_failure with
              | Some
                  ( Migrate.Op
                      ( Move_op.True_dependence o
                      | Move_op.Mem_dependence o )
                  | Migrate.Cj (Move_cj.True_dependence o) ) ->
                  Provenance.Dep o.Operation.id
              | Some f ->
                  Provenance.Structural
                    (Format.asprintf "%a" Migrate.pp_failure f)
              | None -> Provenance.Structural "short of target"
            in
            let op = best.Operation.id in
            Provenance.record_reject pv ~op
              ~node:(Option.value ~default:(-1) (Program.home p op))
              reason;
            if r.Migrate.moved > 0 then
              Provenance.record_reject pv ~op ~node:n
                (Provenance.Structural "rolled back (short of target)")
          end;
          if r.Migrate.moved > 0 then begin
            (* fell short: undo, preserving "no compaction below n" *)
            Program.restore p snap;
            stats.rollbacks <- stats.rollbacks + 1
          end
        end
  done

(** [run ?on_sched config ctx] — GRiP's top-down traversal
    ({!Scheduler.traverse}) with one region scratch and one chain memo
    for the run;
    [on_sched] fires after each operation reaches the node being
    scheduled (used to render the Figure 8 trace).  Like GRiP's node
    entry, a program that is not an out-tree raises a [Scheduling]
    error. *)
let run ?on_sched (config : config) (ctx : Ctx.t) =
  let p = ctx.Ctx.program in
  let stats = fresh_stats () in
  let scratch = Scheduler.fresh_scratch p in
  let chains = Ddg.chains config.ddg ~horizon:config.horizon in
  Scheduler.traverse p (fun n ->
      schedule_node ?on_sched config ctx scratch chains stats n;
      stats.nodes_scheduled <- stats.nodes_scheduled + 1);
  stats

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d migrations=%d rollbacks=%d reached=%d set-computations=%d"
    s.nodes_scheduled s.migrations s.rollbacks s.reached s.set_computations
