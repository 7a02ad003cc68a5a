(** The [migrate] driver (paper Figures 4 and 12), on out-trees.

    [run w ~target ~op_id] moves one operation as high as possible
    toward [target], hoisting it one node per step with
    {!Move_op.move} / {!Move_cj.move}.

    Figure 4 descends the subgraph below [target] in post-order and
    pulls the operation across each level on the way back up.  The
    schedulers' programs are out-trees (DESIGN.md §36): every node but
    the entry has one parent ({!Program.parent}), so the only nodes
    below [target] that can pull the operation are the ancestors of
    its home up to [target], and the walk is a climb.  From the home,
    at each parent up to [target]: consult [early_stop], then try the
    one hop out of the home into that parent.  The climb ends at
    [target] or after an attempt that leaves the operation where it
    was, since no node further up has its home as a successor.  It
    makes the same attempts and hook calls, in the same order, as
    Figure 4's walk (test_percolation keeps the walk as its oracle),
    and so costs the hops it tries (DESIGN.md §21).

    [target] must be the operation's home or an ancestor of it, as
    node entry's region makes it for every scheduler; toward any other
    node the climb would go on to the entry.

    The gap-prevention behaviour of Figure 12 is injected through
    [hooks]:
    - [allow_hop] is the Gapless-move test (always true by default);
    - [on_suspend] records an operation stopped by the gap test;
    - [early_stop] implements "if something moved and ops are
      suspended then return". *)

open Vliw_ir

(** Migration hooks.  [early_stop] may depend only on [moved] and on
    state that [allow_hop] or [on_suspend] change, so that it gives one
    answer between two hop attempts.  The climb consults it fewer
    times than the post-order walk would: once per node it pulls at. *)
type hooks = {
  allow_hop : from_:int -> to_:int -> op:Operation.t -> bool;
  on_suspend : Operation.t -> unit;
  early_stop : moved:int -> bool;
}

(** Hooks that never suspend: plain Percolation Scheduling
    (Figure 4). *)
let no_hooks =
  {
    allow_hop = (fun ~from_:_ ~to_:_ ~op:_ -> true);
    on_suspend = (fun _ -> ());
    early_stop = (fun ~moved:_ -> false);
  }

(** Why the last attempted hop failed — a proper variant rather than a
    rendered message, so drivers (resource-barrier accounting in the
    scheduler, the robustness guards) can match on the cause without
    depending on diagnostic text.  Declared in {!Legality}, so that a
    {!Ctx} replay slot can hold it. *)
type failure = Legality.hop =
  | Vanished  (** the operation is not in the node it was to leave *)
  | Suspended  (** vetoed by the gap-prevention hook *)
  | Op of Move_op.failure
  | Cj of Move_cj.failure

let pp_failure = Legality.pp_hop

type outcome = {
  moved : int;  (** number of successful one-node hops *)
  reached_target : bool;
  final_id : int;  (** operation id after the climb *)
  last_failure : failure option;
}

(* Climb state, one record reused by every migration of a driver loop
   (see {!walker}): the climb runs once per migration attempt — the
   dominant call count of a scheduling run. *)
type walker = {
  w_ctx : Ctx.t;
  w_hooks : hooks;
  mutable w_moved : int;
  mutable w_current : int;
  mutable w_failure : failure option;
  mutable w_reached : bool;  (** the climb ended with the op at the target *)
}

(** [walker ctx hooks] — walk state for a loop of migrations on [ctx]
    under [hooks]; each {!run} resets it, so a migration allocates
    nothing. *)
let walker (ctx : Ctx.t) hooks =
  { w_ctx = ctx; w_hooks = hooks; w_moved = 0; w_current = -1;
    w_failure = None; w_reached = false }

(* The trace of a successful hop of [op_id] from [s] into [n], now
   [op']: one [Migrate_hop] event each (attempts, suspensions and
   barriers are emitted by the driving scheduler, which owns that
   bookkeeping). *)
let record_hop (ctx : Ctx.t) ~rule ~op_id ~from_:s ~to_:n op' =
  let obs = ctx.Ctx.obs in
  let tr = obs.Grip_obs.trace in
  if Grip_obs.Trace.enabled tr then
    Grip_obs.Trace.emit tr
      (Grip_obs.Trace.Migrate_hop { op = op'; from_ = s; to_ = n });
  let pv = obs.Grip_obs.prov in
  if Grip_obs.Provenance.enabled pv then
    Grip_obs.Provenance.record_hop pv ~op:op_id ~op' ~from_:s ~to_:n ~rule

(* [Some (Op f)], shared for the failures without a payload: most hop
   attempts fail, and these record their cause without allocating. *)
let op_failure : Move_op.failure -> failure option = function
  | Move_op.No_room -> Some (Op Move_op.No_room)
  | Move_op.Not_adjacent -> Some (Op Move_op.Not_adjacent)
  | Move_op.Op_not_found -> Some (Op Move_op.Op_not_found)
  | Move_op.Guarded -> Some (Op Move_op.Guarded)
  | (Move_op.True_dependence _ | Move_op.Mem_dependence _) as f -> Some (Op f)

(* Attempt one hop of the climb's operation from [s] into [n]: on
   success the climb counts it and follows the op's id; on failure it
   records why. *)
let hop_step w ~from_:s ~to_:n =
  let ctx = w.w_ctx in
  let p = ctx.Ctx.program in
  let op_id = w.w_current in
  match (if Program.home_int p op_id = s then Program.stored_op p op_id else None)
  with
  | None -> w.w_failure <- Some Vanished
  | Some op ->
      if not (w.w_hooks.allow_hop ~from_:s ~to_:n ~op) then begin
        w.w_hooks.on_suspend op;
        w.w_failure <- Some Suspended
      end
      else if Operation.is_cjump op then
        match Move_cj.move ctx ~from_:s ~to_:n ~cj_id:op_id with
        | Ok r ->
            let id' = r.Move_cj.cj.Operation.id in
            record_hop ctx ~rule:Grip_obs.Provenance.Move_cj ~op_id ~from_:s
              ~to_:n id';
            w.w_moved <- w.w_moved + 1;
            w.w_current <- id'
        | Error f -> w.w_failure <- Some (Cj f)
      else
        match Move_op.attempt ctx ~from_:s ~to_:n ~op_id with
        | r ->
            let id' = r.Move_op.op.Operation.id in
            record_hop ctx ~rule:Grip_obs.Provenance.Move_op ~op_id ~from_:s
              ~to_:n id';
            w.w_moved <- w.w_moved + 1;
            w.w_current <- id'
        | exception Move_op.Fail f -> w.w_failure <- op_failure f

(** [hop ctx hooks ~from_ ~to_ ~op_id] — one hop attempt outside a
    climb, as the climb makes it: the operation's id, or why it did not
    move. *)
let hop (ctx : Ctx.t) hooks ~from_ ~to_ ~op_id =
  let w = walker ctx hooks in
  w.w_current <- op_id;
  hop_step w ~from_ ~to_;
  if w.w_moved > 0 then Ok w.w_current else Error (Option.get w.w_failure)

(* From [below], the op's home, up to [target]: at each parent,
   [early_stop], then the one hop out of the home.  An attempt that
   does not move the op ends the climb. *)
let rec climb w ~target below =
  if below <> target then begin
    let nid = Program.parent w.w_ctx.Ctx.program below in
    if nid >= 0 && not (w.w_hooks.early_stop ~moved:w.w_moved) then begin
      let moved = w.w_moved in
      hop_step w ~from_:below ~to_:nid;
      if w.w_moved > moved then climb w ~target nid
    end
  end

(** [run w ~target ~op_id] — migrate [op_id] toward [target] (see the
    module comment) with [w]'s context and hooks; how far it got is
    read off [w] with {!moved}, {!reached_target}, {!final_id} and
    {!last_failure}, or as an {!outcome}. *)
let run w ~target ~op_id =
  let p = w.w_ctx.Ctx.program in
  w.w_moved <- 0;
  w.w_current <- op_id;
  w.w_failure <- None;
  climb w ~target (Program.home_int p op_id);
  w.w_reached <- Program.home_int p w.w_current = target

(** [replay w ~op_id outcome] — leave [w] as a {!run} of [op_id]
    leaves it when the attempt moves nothing and ends in [outcome] (a
    [Some] failure): how a driver replays a recorded attempt
    ({!Ctx.replay_hit}) without climbing. *)
let replay w ~op_id outcome =
  w.w_moved <- 0;
  w.w_current <- op_id;
  w.w_failure <- outcome;
  w.w_reached <- false

(** Successful one-node hops of the last {!run}. *)
let moved w = w.w_moved

(** Did the last {!run} leave the operation at its target? *)
let reached_target w = w.w_reached

(** The operation's id after the last {!run}. *)
let final_id w = w.w_current

(** Why the last attempted hop of the last {!run} failed. *)
let last_failure w = w.w_failure

(** The last {!run} as an {!outcome}. *)
let outcome w =
  {
    moved = w.w_moved;
    reached_target = w.w_reached;
    final_id = w.w_current;
    last_failure = w.w_failure;
  }

(** [migrate ctx ?hooks ~target ~op_id ()] — one {!run} on a fresh
    {!walker}, by default with {!no_hooks}: how far the operation got.
    A driver that migrates in a loop keeps a {!walker} and calls {!run}
    instead, which allocates nothing per migration. *)
let migrate (ctx : Ctx.t) ?(hooks = no_hooks) ~target ~op_id () =
  let w = walker ctx hooks in
  run w ~target ~op_id;
  outcome w
