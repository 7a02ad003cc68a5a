(** The POST baseline (paper section 4, after [Po91]).

    "POST works in two phases.  First, GRiP scheduling is applied with
    infinite resources to obtain a pipelined loop.  Second, POST
    applies resource constraints by breaking apart nodes that contain
    too many operations and allowing further percolation to fill any
    nodes that have become underutilized."

    Breaking a too-full node [n] splices a fresh empty node above it
    and moves operations (best-ranked first) up into it with the
    regular [move-op]/[move-cj] machinery, which handles renaming and
    guard distribution; when only the conditional tree is left to
    shrink, the root conditional moves up and [n] splits into its two
    smaller arms.  The repair phase is resource-constrained percolation
    without gap prevention — the very property whose absence the paper
    blames for POST's inferior schedules. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Move_op = Vliw_percolation.Move_op
module Move_cj = Vliw_percolation.Move_cj

type stats = {
  mutable breaks : int;  (** spliced break nodes *)
  mutable demoted_ops : int;  (** operations moved out of full nodes *)
  mutable cj_splits : int;  (** conditional splits during breaking *)
  mutable repair_hops : int;  (** one-hop fills during repair *)
  phase1 : Scheduler.stats;
}

(* Splice a fresh empty node between [n] and its parent; returns its
   id.  The entry never needs this: [break_node] first pushes the
   entry's content down into a fresh node when the entry itself
   overflows. *)
let splice_above (p : Program.t) n =
  let q = Program.parent p n in
  let m = Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf n) in
  Program.redirect p ~from_:q ~old_:n ~new_:m.Node.id;
  m.Node.id

let push_entry_down (p : Program.t) =
  let e = Program.node p p.Program.entry in
  let tree = e.Node.ctree in
  (* clear the entry first (de-indexing its jumps), then rebuild its
     contents in a fresh node below *)
  let ops = Program.take_ops p p.Program.entry in
  Program.set_ctree p p.Program.entry (Ctree.leaf p.Program.exit_id);
  let m = Program.fresh_node p ~ops ~ctree:tree in
  Program.set_ctree p p.Program.entry (Ctree.leaf m.Node.id);
  m.Node.id

(* Slots a node with counters [packed] needs beyond what [m] issues
   (summed over FU classes on a typed machine): on a homogeneous
   machine this falls exactly when the node's slot demand falls. *)
let excess (m : Machine.t) packed =
  match m.Machine.shape with
  | Machine.Unlimited -> 0
  | Machine.Homogeneous k -> max 0 (Machine.slot_demand_packed m packed - k)
  | Machine.Typed { alu; mem; branch } ->
      let over cls cap = max 0 (Machine.used_slots_packed m packed cls - cap) in
      over Machine.Alu alu + over Machine.Mem mem + over Machine.Branch branch

(* Reduce node [n] until it fits, by moving ops (then the root
   conditional) up into spliced nodes.  Each round must lower [n]'s
   excess or split its conditional tree: a demotion can rename the op
   and leave a repair copy behind, so a round of demotions need not
   shrink [n] at all, and splicing another empty node above it would
   only repeat that round without end.  A round that achieves neither
   raises [Resource_overflow]. *)
let break_node ~budget (ctx : Ctx.t) rank stats n =
  let p = ctx.Ctx.program in
  let m = ctx.Ctx.machine in
  let fits id = Machine.fits_packed m (Program.counts_packed p id) in
  let work = ref n in
  let guard = ref 0 in
  while (not (fits !work)) && !guard < 10_000 do
    Grip_robust.Budget.check budget;
    incr guard;
    let target =
      if !work = p.Program.entry then begin
        let below = push_entry_down p in
        work := below;
        p.Program.entry
      end
      else splice_above p !work
    in
    stats.breaks <- stats.breaks + 1;
    let before = excess m (Program.counts_packed p !work) in
    let split = ref false in
    (* move best-ranked unguarded ops up while the new node has room
       and the old one is too full *)
    let progress = ref true in
    while (not (fits !work)) && !progress do
      progress := false;
      let candidates =
        Rank.sort rank
          (List.filter
             (fun (op : Operation.t) -> op.Operation.guard = [])
             (Program.ops p !work))
      in
      match
        List.find_map
          (fun (op : Operation.t) ->
            match Move_op.move ctx ~from_:!work ~to_:target ~op_id:op.Operation.id with
            | Ok _ -> Some ()
            | Error _ -> None)
          candidates
      with
      | Some () ->
          stats.demoted_ops <- stats.demoted_ops + 1;
          progress := true
      | None -> (
          (* only the conditional tree can shrink now *)
          match Ctree.root_cjump (Program.node p !work).Node.ctree with
          | Some cj -> (
              match
                Move_cj.move ctx ~from_:!work ~to_:target ~cj_id:cj.Operation.id
              with
              | Ok _ ->
                  stats.cj_splits <- stats.cj_splits + 1;
                  progress := true;
                  split := true;
                  (* n was split into arms; they are revisited by the
                     outer scan *)
                  work := target
              | Error _ -> ())
          | None -> ())
    done;
    let packed = Program.counts_packed p !work in
    if (not !split) && (not (fits !work)) && excess m packed >= before then
      Grip_robust.Grip_error.raise_ Grip_robust.Grip_error.Scheduling
        (Grip_robust.Grip_error.Resource_overflow
           {
             node = !work;
             demand = Machine.slot_demand_packed m packed;
             width = Machine.width m;
           })
  done

(* Phase 2b: local repair percolation — refill nodes the breaking left
   underutilized by pulling operations up from their direct successors,
   in rank order.  Deliberately a *local* post-pass, as in [Po91]: it
   neither recomputes a global schedule nor maintains gaplessness,
   which is exactly the deficiency the paper attributes to applying
   resource constraints after the fact. *)
let local_repair ~budget (ctx : Ctx.t) rank stats =
  let p = ctx.Ctx.program in
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed && !sweeps < 4 do
    Grip_robust.Budget.check budget;
    changed := false;
    incr sweeps;
    List.iter
      (fun n ->
        (* moves may delete nodes captured by this sweep's order *)
        if (not (Program.is_exit p n)) && Program.node_opt p n <> None then begin
          let progress = ref true in
          while !progress do
            progress := false;
            let candidates =
              List.concat_map
                (fun s ->
                  if Program.is_exit p s then []
                  else
                    List.filter
                      (fun (op : Operation.t) -> op.Operation.guard = [])
                      (Program.ops p s)
                    @
                    match Ctree.root_cjump (Program.node p s).Node.ctree with
                    | Some cj -> [ cj ]
                    | None -> [])
                (Program.succs p n)
            in
            match
              List.find_map
                (fun (op : Operation.t) ->
                  match Program.home p op.Operation.id with
                  | Some s when s <> n -> (
                      let attempt =
                        if Operation.is_cjump op then
                          match
                            Move_cj.move ctx ~from_:s ~to_:n ~cj_id:op.Operation.id
                          with
                          | Ok _ -> true
                          | Error _ -> false
                        else
                          match
                            Move_op.move ctx ~from_:s ~to_:n ~op_id:op.Operation.id
                          with
                          | Ok _ -> true
                          | Error _ -> false
                      in
                      if attempt then Some () else None)
                  | _ -> None)
                (Rank.sort rank candidates)
            with
            | Some () ->
                stats.repair_hops <- stats.repair_hops + 1;
                progress := true;
                changed := true
            | None -> ()
          done
        end)
      (Program.rpo p)
  done

(** [run ?budget ctx_unlimited ctx_real ~rank] — full POST pipeline
    over an unwound program.  [ctx_unlimited] and [ctx_real] must share
    the same program.  [budget] is polled through phase 1 (via the
    scheduler config) and at the break/repair loop heads of phase 2. *)
let run ?(budget = Grip_robust.Budget.unlimited) (ctx_unlimited : Ctx.t)
    (ctx_real : Ctx.t) ~rank =
  assert (ctx_unlimited.Ctx.program == ctx_real.Ctx.program);
  let p = ctx_real.Ctx.program in
  (* Phase 1: unconstrained pipelining (gap prevention on, so the
     unlimited schedule converges) *)
  let phase1 =
    Scheduler.run
      {
        (Scheduler.default_config ~rank) with
        Scheduler.gap_prevention = true;
        Scheduler.budget = budget;
      }
      ctx_unlimited
  in
  let stats =
    { breaks = 0; demoted_ops = 0; cj_splits = 0; repair_hops = 0; phase1 }
  in
  (* Phase 2a: apply resource constraints by node breaking *)
  let rec scan () =
    let offender =
      List.find_opt
        (fun id ->
          (not (Program.is_exit p id))
          && not
               (Machine.fits_packed ctx_real.Ctx.machine
                  (Program.counts_packed p id)))
        (Program.rpo p)
    in
    match offender with
    | None -> ()
    | Some n ->
        break_node ~budget ctx_real rank stats n;
        scan ()
  in
  scan ();
  local_repair ~budget ctx_real rank stats;
  stats
