(** The [migrate] driver (paper Figures 4 and 12).

    [migrate ctx ~target ~op_id] moves one operation as high as
    possible toward [target]: it recursively descends the subgraph
    below [target] (post-order, so deeper instances percolate first)
    and hoists the operation one node per unwinding step with
    {!Move_op.move} / {!Move_cj.move}.

    {b The chain climb.}  Most migrations run up a chain: the home has
    exactly one live predecessor, so does the node above it, and so on up to
    [target].  [migrate] first checks this, following
    {!Program.unique_live_pred} up from the home.  On a chain the
    post-order walk goes straight down to the home and finishes the
    nodes bottom-up, so the walk becomes a climb: at each node above
    the home, consult [early_stop], then pull (at most one hop
    attempt).  The climb ends at [target] or after an attempt that
    leaves the operation where it was, since no node further up has
    its home as a successor.  It makes the same attempts, in the same
    order, as the walk, and so costs the hops it tries (DESIGN.md
    §21).  Confirmed chains are stamped in a memo keyed on ([target],
    {!Program.chain_version}), so later checks toward the same target
    stop at the first stamped node; deleting an emptied node keeps the
    memo, since it cuts no chain (DESIGN.md §24).

    The plain post-order walk runs only when the check fails: a join, a
    node with no live predecessor, a dead or deleted home, or a target
    that is not above the home.  It enters every node below [target];
    only those that reach the operation's home can pull it, so the
    excursions elsewhere attempt nothing (DESIGN.md §19).

    The gap-prevention behaviour of Figure 12 is injected through
    [hooks]:
    - [allow_hop] is the Gapless-move test (always true by default);
    - [on_suspend] records an operation stopped by the gap test;
    - [early_stop] implements "if something moved and ops are
      suspended then return". *)

open Vliw_ir

(** Migration hooks.  [early_stop] may depend only on [moved] and on
    state that [allow_hop] or [on_suspend] change, so that it gives one
    answer between two hop attempts.  The chain climb consults it fewer
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
  | Vanished  (** the operation disappeared mid-walk (clone renamed it) *)
  | Suspended  (** vetoed by the gap-prevention hook *)
  | Op of Move_op.failure
  | Cj of Move_cj.failure

let pp_failure = Legality.pp_hop

type outcome = {
  moved : int;  (** number of successful one-node hops *)
  reached_target : bool;
  final_id : int;  (** operation id after the walk (clones may rename it) *)
  last_failure : failure option;
}

(* Walk state threaded through the top-level recursion below: one
   record where a nest of local closures used to be minted, and reused
   by every migration of a driver loop (see {!walker}): the walker runs
   once per migration attempt — the dominant call count of a
   scheduling run. *)
type walker = {
  w_ctx : Ctx.t;
  w_hooks : hooks;
  mutable w_moved : int;
  mutable w_current : int;
  mutable w_failure : failure option;
  mutable w_visits : int;  (** nodes the walk expanded *)
  mutable w_reached : bool;  (** the walk ended with the op at the target *)
}

(** [walker ctx hooks] — walk state for a loop of migrations on [ctx]
    under [hooks]; each {!run} resets it, so a migration allocates
    nothing. *)
let walker (ctx : Ctx.t) hooks =
  { w_ctx = ctx; w_hooks = hooks; w_moved = 0; w_current = -1;
    w_failure = None; w_visits = 0; w_reached = false }

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

(* Attempt one hop of the walk's operation from [s] into [n]: on
   success the walk counts it and follows the op's (possibly new) id;
   on failure it records why. *)
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
    walk, as the walk makes it: the operation's (possibly new) id, or
    why it did not move. *)
let hop (ctx : Ctx.t) hooks ~from_ ~to_ ~op_id =
  let w = walker ctx hooks in
  w.w_current <- op_id;
  hop_step w ~from_ ~to_;
  if w.w_moved > 0 then Ok w.w_current else Error (Option.get w.w_failure)

let walk_dead p nid =
  match Program.node_opt p nid with
  | None -> true
  | Some _ -> not (Program.is_live p nid)

(* The successor loops recurse over the list spine directly — no
   [List.iter] closure per visited node. *)
let rec walk_go w nid =
  let p = w.w_ctx.Ctx.program in
  if w.w_hooks.early_stop ~moved:w.w_moved || Ctx.walk_seen w.w_ctx nid then ()
  else begin
    Ctx.walk_mark w.w_ctx nid;
    w.w_visits <- w.w_visits + 1;
    if not (walk_dead p nid) then begin
      (* Recurse first: deeper occurrences percolate up before we
         try to pull the op across this level (Figure 4). *)
      walk_descend w (Program.succs p nid);
      if w.w_hooks.early_stop ~moved:w.w_moved then ()
      else if walk_dead p nid then ()
      else walk_pull w nid (Program.succs p nid)
    end
  end

and walk_descend w = function
  | [] -> ()
  | s :: tl ->
      if not (Program.is_exit w.w_ctx.Ctx.program s) then walk_go w s;
      walk_descend w tl

and walk_pull w nid = function
  | [] -> ()
  | s :: tl ->
      let p = w.w_ctx.Ctx.program in
      if (not (Program.is_exit p s)) && Program.home_int p w.w_current = s
      then hop_step w ~from_:s ~to_:nid;
      walk_pull w nid tl

(* Follow unique live predecessors from [id] until [target], or a node
   the memo knows leads there; [fuel] bounds the chase on a cyclic
   graph.  Every node followed is pushed on the context's queue. *)
let rec chain_reaches (ctx : Ctx.t) ~target id fuel =
  Iarr.push ctx.Ctx.chain_queue id;
  if id = target || Ctx.chain_known ctx id then true
  else if fuel = 0 then false
  else
    let q = Program.unique_live_pred ctx.Ctx.program id in
    q >= 0 && chain_reaches ctx ~target q (fuel - 1)

(* Do unique live predecessors lead from a live [home] up to
   [target]?  Stamps a confirmed chain in the memo; leaves the nodes
   followed in the context's queue either way. *)
let on_chain (ctx : Ctx.t) ~target ~home =
  let p = ctx.Ctx.program and q = ctx.Ctx.chain_queue in
  Iarr.clear q;
  Ctx.chain_begin ctx ~target;
  let chain =
    home >= 0
    && Program.is_live p home
    && chain_reaches ctx ~target home (Program.node_limit p)
  in
  if chain then
    for i = 0 to Iarr.length q - 1 do
      Ctx.chain_note ctx (Iarr.unsafe_get q i)
    done;
  chain

(* The walk on a chain, from the node above [below] up to [target]: at
   each node, [early_stop], then the pull.  A unique live predecessor
   is live, so the walk's dead-node test never fires, and asking for it
   after a hop finds the chain as it was: a hop leaves the chain above
   the op's new home alone.  An attempt that does not move the op ends
   the climb, since no node further up has its home as a successor
   (DESIGN.md §21). *)
let rec climb w ~target below =
  if below <> target then begin
    let p = w.w_ctx.Ctx.program in
    let nid = Program.unique_live_pred p below in
    if nid >= 0 && not (w.w_hooks.early_stop ~moved:w.w_moved) then begin
      let moved = w.w_moved in
      walk_pull w nid (Program.succs p nid);
      if w.w_moved > moved then climb w ~target nid
    end
  end

(** [run w ~target ~op_id] — migrate [op_id] toward [target] (see the
    module comment) with [w]'s context and hooks; how far it got is
    read off [w] with {!moved}, {!reached_target}, {!final_id} and
    {!last_failure}, or as an {!outcome}. *)
let run w ~target ~op_id =
  let ctx = w.w_ctx in
  let p = ctx.Ctx.program in
  let home = Program.home_int p op_id in
  w.w_moved <- 0;
  w.w_current <- op_id;
  w.w_failure <- None;
  w.w_visits <- 0;
  let chain = on_chain ctx ~target ~home in
  let c = ctx.Ctx.counts in
  c.chain_checks <- c.chain_checks + 1;
  c.chain_nodes <- c.chain_nodes + Iarr.length ctx.Ctx.chain_queue;
  if chain then climb w ~target home
  else begin
    (* Visited set: the context's epoch-stamped scratch table — one
       stamp bump instead of a fresh hash table per walk. *)
    Ctx.walk_begin ctx;
    walk_go w target;
    c.walks <- c.walks + 1;
    c.walk_nodes <- c.walk_nodes + w.w_visits
  end;
  w.w_reached <- Program.home_int p w.w_current = target

(** [replay w ~op_id outcome] — leave [w] as a {!run} of [op_id]
    leaves it when the attempt moves nothing and ends in [outcome] (a
    [Some] failure): how a driver replays a recorded attempt
    ({!Ctx.replay_hit}) without walking. *)
let replay w ~op_id outcome =
  w.w_moved <- 0;
  w.w_current <- op_id;
  w.w_failure <- outcome;
  w.w_visits <- 0;
  w.w_reached <- false

(** Successful one-node hops of the last {!run}. *)
let moved w = w.w_moved

(** Did the last {!run} leave the operation at its target? *)
let reached_target w = w.w_reached

(** The operation's id after the last {!run} (clones may rename it). *)
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
