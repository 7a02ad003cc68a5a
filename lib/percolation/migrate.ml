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

    A hop never renames the operation: [Move_op] lands it under its id
    and [Move_cj] moves the jump itself, so the climb follows one id
    from its home up, and the operation is in the node each hop leaves.
    Each accepted hop is journalled ({!Grip_obs.Provenance}, under that
    id); the trace records no migration events (DESIGN.md §37).

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
  | Suspended  (** vetoed by the gap-prevention hook *)
  | Op of Move_op.failure
  | Cj of Move_cj.failure

let pp_failure = Legality.pp_hop

type outcome = {
  moved : int;  (** number of successful one-node hops *)
  reached_target : bool;
  last_failure : failure option;
}

(* Climb state, one record reused by every migration of a driver loop
   (see {!walker}): the climb runs once per migration attempt — the
   dominant call count of a scheduling run. *)
type walker = {
  w_ctx : Ctx.t;
  w_hooks : hooks;
  mutable w_moved : int;
  mutable w_op : int;  (** the operation being migrated *)
  mutable w_failure : failure option;
  mutable w_reached : bool;  (** the climb ended with the op at the target *)
}

(** [walker ctx hooks] — walk state for a loop of migrations on [ctx]
    under [hooks]; each {!run} resets it, so a migration allocates
    nothing. *)
let walker (ctx : Ctx.t) hooks =
  { w_ctx = ctx; w_hooks = hooks; w_moved = 0; w_op = -1;
    w_failure = None; w_reached = false }

(* The journal entry of a successful hop of [op_id] from [s] into
   [n] (attempts, suspensions and barriers are journalled by the
   driving scheduler, which owns that bookkeeping). *)
let record_hop (ctx : Ctx.t) ~rule ~op_id ~from_:s ~to_:n =
  let pv = ctx.Ctx.obs.Grip_obs.prov in
  if Grip_obs.Provenance.enabled pv then
    Grip_obs.Provenance.record_hop pv ~op:op_id ~from_:s ~to_:n ~rule

(* [Some (Op f)], shared for the failures without a payload: most hop
   attempts fail, and these record their cause without allocating. *)
let op_failure : Move_op.failure -> failure option = function
  | Move_op.No_room -> Some (Op Move_op.No_room)
  | Move_op.Not_adjacent -> Some (Op Move_op.Not_adjacent)
  | Move_op.Op_not_found -> Some (Op Move_op.Op_not_found)
  | Move_op.Guarded -> Some (Op Move_op.Guarded)
  | (Move_op.True_dependence _ | Move_op.Mem_dependence _) as f -> Some (Op f)

(* Attempt one hop of the climb's operation, which is in [s], into
   [n]: on success the climb counts it; on failure it records why. *)
let hop_step w ~from_:s ~to_:n =
  let ctx = w.w_ctx in
  let op_id = w.w_op in
  let op = Program.op_of ctx.Ctx.program op_id in
  if not (w.w_hooks.allow_hop ~from_:s ~to_:n ~op) then begin
    w.w_hooks.on_suspend op;
    w.w_failure <- Some Suspended
  end
  else if Operation.is_cjump op then
    match Move_cj.move ctx ~from_:s ~to_:n ~cj_id:op_id with
    | Ok _ ->
        record_hop ctx ~rule:Grip_obs.Provenance.Move_cj ~op_id ~from_:s ~to_:n;
        w.w_moved <- w.w_moved + 1
    | Error f -> w.w_failure <- Some (Cj f)
  else
    match Move_op.attempt ctx ~from_:s ~to_:n ~op_id with
    | _ ->
        record_hop ctx ~rule:Grip_obs.Provenance.Move_op ~op_id ~from_:s ~to_:n;
        w.w_moved <- w.w_moved + 1
    | exception Move_op.Fail f -> w.w_failure <- op_failure f

(** [hop ctx hooks ~from_ ~to_ ~op_id] — one hop attempt outside a
    climb, as the climb makes it: [Ok ()], or why the operation did not
    move.  The operation must be in [from_]. *)
let hop (ctx : Ctx.t) hooks ~from_ ~to_ ~op_id =
  let w = walker ctx hooks in
  w.w_op <- op_id;
  hop_step w ~from_ ~to_;
  if w.w_moved > 0 then Ok () else Error (Option.get w.w_failure)

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
    read off [w] with {!moved}, {!reached_target} and {!last_failure},
    or as an {!outcome}. *)
let run w ~target ~op_id =
  let p = w.w_ctx.Ctx.program in
  w.w_moved <- 0;
  w.w_op <- op_id;
  w.w_failure <- None;
  climb w ~target (Program.home_int p op_id);
  w.w_reached <- Program.home_int p op_id = target

(** [replay w outcome] — leave [w] as a {!run} leaves it when the
    attempt moves nothing and ends in [outcome] (a [Some] failure): how
    a driver replays a recorded attempt ({!Ctx.replay_hit}) without
    climbing. *)
let replay w outcome =
  w.w_moved <- 0;
  w.w_failure <- outcome;
  w.w_reached <- false

(** Successful one-node hops of the last {!run}. *)
let moved w = w.w_moved

(** Did the last {!run} leave the operation at its target? *)
let reached_target w = w.w_reached

(** Why the last attempted hop of the last {!run} failed. *)
let last_failure w = w.w_failure

(** The last {!run} as an {!outcome}. *)
let outcome w =
  {
    moved = w.w_moved;
    reached_target = w.w_reached;
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
