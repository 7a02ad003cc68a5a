(** The GRiP scheduler (paper Figures 10 and 12).

    Top-down traversal of the program: each node [n] is scheduled by
    attempting to migrate to it, in ranked order, every operation of
    the Moveable-ops set of [n] — all operations on the subgraph
    dominated by [n] — until no further operation can be moved.
    Compaction happens on the whole dominated subgraph as a side effect
    of migration (operations that do not reach [n] stay wherever they
    got to), which is exactly what distinguishes GRiP from the
    Unifiable-ops technique and what lets it avoid maximal travel
    distances.

    With [gap_prevention] on, the Gapless-move test and the three
    scheduling rules of section 3.3 are enforced:

    + an operation may hop only when {!Gapless.ok} holds, else it is
      suspended;
    + after a successful move, all operations are unsuspended and
      migration restarts in ranked order (inside a migration this is
      the "at most one step while suspensions exist" early return);
    + only operations below the lowest suspended operation may move. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Migrate = Vliw_percolation.Migrate
module Move_op = Vliw_percolation.Move_op
module Move_cj = Vliw_percolation.Move_cj
module Provenance = Grip_obs.Provenance

(* Machine FU class -> the observability layer's mirror of it (kept
   separate so grip_obs does not depend on the machine model). *)
let prov_class op =
  match Machine.class_of op with
  | Machine.Alu -> Provenance.Alu
  | Machine.Mem -> Provenance.Mem
  | Machine.Branch -> Provenance.Branch

(** A run's counts: the only record of them while it runs, each event
    one add.  The pipeline publishes them to the run's metrics registry
    once the schedule phase returns (DESIGN.md §31). *)
type stats = {
  mutable nodes_scheduled : int;
  mutable migrations : int;  (** migration attempts, replays included *)
  mutable hops : int;  (** successful one-node moves *)
  mutable reached : int;  (** migrations that reached their target *)
  mutable suspensions : int;  (** gap-prevention suspensions *)
  mutable resource_barrier_events : int;
      (** hops blocked by a full node that was not the target — the
          resource barriers of section 3.2 (measured for the ablation
          bench) *)
  mutable replays : int;
      (** attempts replayed from their op's replay slot, not walked *)
  mutable candidate_visits : int;
      (** candidates choose-op's ranked queue examined *)
  mutable travel : int array;
      (** hops -> the migrations that moved that many, the
          [scheduler.travel_distance] histogram's observations *)
  mutable fuel_exhausted : bool;
      (** the [max_migrations] budget ran out and migration was
          truncated: the schedule is legal but possibly under-compacted,
          and drivers must not present it as a converged pipeline *)
}

let fresh_stats () =
  {
    nodes_scheduled = 0;
    migrations = 0;
    hops = 0;
    reached = 0;
    suspensions = 0;
    resource_barrier_events = 0;
    replays = 0;
    candidate_visits = 0;
    travel = Array.make 16 0;
    fuel_exhausted = false;
  }

(* One more migration that moved [hops] hops. *)
let count_travel stats hops =
  if hops >= Array.length stats.travel then begin
    let a = Array.make (max (hops + 1) (2 * Array.length stats.travel)) 0 in
    Array.blit stats.travel 0 a 0 (Array.length stats.travel);
    stats.travel <- a
  end;
  stats.travel.(hops) <- stats.travel.(hops) + 1

(** Speculative-scheduling policy (section 1): a hop is speculative
    when the operation lands on a conditional path of the target
    instruction (it computes on cycles where its iteration may not
    run).  The paper's GRiP "always allows speculative scheduling";
    [Resource_aware threshold] is the sophistication the paper
    sketches — "when a large number of resources are currently
    available, it would be worthwhile to allow the speculative
    scheduling of operations; on the other hand, with only a few
    resources, it might be better to prohibit it": speculation is
    allowed only while the landing instruction's occupancy is below
    [threshold] of the issue width. *)
type speculation =
  | Always
  | Resource_aware of float

type config = {
  rank : Rank.t;
  gap_prevention : bool;
  speculation : speculation;
  max_migrations : int;  (** fuel against pathological graphs *)
  budget : Grip_robust.Budget.t;
      (** cancellation token polled once per scheduling-loop iteration:
          deadline / fuel / external cancel raise a structured
          [Grip_error] instead of letting a pathological cell hang its
          domain (default {!Grip_robust.Budget.unlimited}) *)
}

let default_config ~rank =
  {
    rank;
    gap_prevention = false;
    speculation = Always;
    max_migrations = 1_000_000;
    budget = Grip_robust.Budget.unlimited;
  }

(* Does moving [op] from [from_] into [to_] make it speculative, and
   does the policy allow that? *)
let speculation_allows (config : config) (ctx : Ctx.t) ~from_ ~to_
    ~(op : Operation.t) =
  match config.speculation with
  | Always -> true
  | Resource_aware threshold -> (
      let p = ctx.Ctx.program in
      let to_node = Program.node p to_ in
      match Ctree.path_to to_node.Node.ctree from_ with
      | Some [] | None -> true (* lands unguarded: not speculative *)
      | Some (_ :: _) ->
          Operation.is_cjump op
          ||
          let m = ctx.Ctx.machine in
          Machine.is_unlimited m
          || float_of_int
               (Machine.slot_demand_packed m (Program.counts_packed p to_))
             < threshold *. float_of_int (Machine.width m))

(** A node's Moveable-ops as a ranked queue, so that choose-op costs
    in proportion to the candidates it can still pick.

    [load] ranks the candidates once, best first, by one sort of their
    rank keys; the positions then form a doubly linked list.
    [pick] walks it from the head and returns the first position its
    verdict callback answers [Take] for, stepping over [Skip],
    unlinking [Retire] (a candidate that can never be picked again in
    this node) and unlinking [Hold] (one that cannot be picked before
    the next [rewind]); [retire] unlinks a position the caller knows is
    spent.  [rewind] puts every held position back in its place.  The
    first [Take] is exactly what a min-scan over the worklist by key
    returns among the same candidates, as long as the key reads only
    fields a move leaves unchanged (DESIGN.md §20) and a held candidate
    would not have been taken before the rewind (§27).  The buffers are
    owned by the run and grow by doubling, so loading allocates nothing
    once they have settled. *)
module Ranked = struct
  type verdict = Take | Skip | Hold | Retire

  type t = {
    mutable ids : int array;
        (** position -> op id, best first; the candidates' keys while
            [load] sorts them *)
    mutable next : int array;  (** position -> next live position or [-1] *)
    mutable prev : int array;  (** position -> previous live position or [-1] *)
    mutable head : int;  (** first live position, [-1] when empty *)
    mutable undo : int array;
        (** positions unlinked since the first hold after the last
            rewind, oldest first; a held [pos] is logged as [-1 - pos] *)
    mutable logged : int;  (** entries of [undo] in use *)
    mutable tmp : int array;  (** merge scratch *)
    mutable visits : int;  (** verdicts asked since the last [load] *)
  }

  let create () =
    { ids = [||]; next = [||]; prev = [||]; head = -1; undo = [||];
      logged = 0; tmp = [||]; visits = 0 }

  (* Merge sort of the distinct ints [a.(lo) .. a.(hi - 1)], ascending.
     The annotations keep every comparison an int compare, not a call
     to the polymorphic one. *)
  let rec sort (a : int array) (tmp : int array) lo hi =
    if hi - lo <= 8 then
      for i = lo + 1 to hi - 1 do
        let x = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= lo && Array.unsafe_get a !j > x do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort a tmp lo mid;
      sort a tmp mid hi;
      if a.(mid - 1) > a.(mid) then begin
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid && !j < hi do
          let x = Array.unsafe_get a !j and y = Array.unsafe_get tmp !i in
          if x < y then begin
            Array.unsafe_set a !k x;
            incr j
          end
          else begin
            Array.unsafe_set a !k y;
            incr i
          end;
          incr k
        done;
        Array.blit tmp !i a !k (mid - !i)
      end
    end

  let id_mask = Rank.id_mask

  (** [load q ~rank ~record ids] — rank the op ids of [ids] best first
      by [rank]'s keys, reading each id's record through [record]; ids
      without one are dropped.  A key that does not carry its op's id
      raises a [Scheduling] error. *)
  let load q ~(rank : Rank.t) ~record ids =
    let len = Vliw_ir.Iarr.length ids in
    if len > Array.length q.ids then begin
      let cap = max 64 (2 * len) in
      q.ids <- Array.make cap 0;
      q.next <- Array.make cap 0;
      q.prev <- Array.make cap 0;
      q.undo <- Array.make cap 0;
      q.tmp <- Array.make cap 0
    end;
    let keys = q.ids and n = ref 0 in
    for i = 0 to len - 1 do
      let id = Vliw_ir.Iarr.unsafe_get ids i in
      match record id with
      | None -> ()
      | Some op ->
          let k = rank.Rank.key op in
          if k land id_mask <> id then
            Grip_robust.Grip_error.(
              raise_ Scheduling
                (Malformed
                   [ Printf.sprintf "rank %s: the key of op %d carries op %d"
                       rank.Rank.name id (k land id_mask) ]));
          Array.unsafe_set keys !n k;
          incr n
    done;
    let n = !n in
    sort keys q.tmp 0 n;
    for i = 0 to n - 1 do
      keys.(i) <- keys.(i) land id_mask;
      q.next.(i) <- (if i + 1 < n then i + 1 else -1);
      q.prev.(i) <- i - 1
    done;
    q.head <- (if n > 0 then 0 else -1);
    q.logged <- 0;
    q.visits <- 0

  (** [id q pos] — the op id at position [pos]. *)
  let id q pos = q.ids.(pos)

  (* Unlinking keeps [pos]'s own links, so that undoing the unlinks
     since a point in reverse order restores the list exactly. *)
  let unlink q pos =
    let a = q.prev.(pos) and b = q.next.(pos) in
    if a < 0 then q.head <- b else q.next.(a) <- b;
    if b >= 0 then q.prev.(b) <- a

  let relink q pos =
    let a = q.prev.(pos) and b = q.next.(pos) in
    if a < 0 then q.head <- pos else q.next.(a) <- pos;
    if b >= 0 then q.prev.(b) <- pos

  (* Each position is unlinked at most once between two rewinds, so
     the log never outgrows the positions. *)
  let push_undo q entry =
    q.undo.(q.logged) <- entry;
    q.logged <- q.logged + 1

  (** [retire q pos] unlinks live position [pos] for good. *)
  let retire q pos =
    unlink q pos;
    if q.logged > 0 then push_undo q pos

  let hold q pos =
    unlink q pos;
    push_undo q (-1 - pos)

  (** [rewind q] — put every position held since the last rewind back
      in its place: undo the logged unlinks newest first, then unlink
      the retired ones again. *)
  let rewind q =
    for i = q.logged - 1 downto 0 do
      let e = q.undo.(i) in
      relink q (if e < 0 then -1 - e else e)
    done;
    for i = 0 to q.logged - 1 do
      let e = q.undo.(i) in
      if e >= 0 then unlink q e
    done;
    q.logged <- 0

  (* The walk from [pos] on: top-level recursion, so a pick builds no
     closure. *)
  let rec pick_from q verdict pos =
    if pos < 0 then -1
    else begin
      q.visits <- q.visits + 1;
      match verdict q.ids.(pos) with
      | Take -> pos
      | Skip -> pick_from q verdict q.next.(pos)
      | Hold ->
          let next = q.next.(pos) in
          hold q pos;
          pick_from q verdict next
      | Retire ->
          let next = q.next.(pos) in
          retire q pos;
          pick_from q verdict next
    end

  (** [pick q verdict] — the first live position whose op id [verdict]
      takes, or [-1]. *)
  let pick q verdict = pick_from q verdict q.head
end

(* Per-run scratch, reused across [schedule_node] calls: op-id
   membership masks (one byte per id — a [bool Itbl.t] costs a word per
   id and was re-allocated per node) and the ranked queue's buffers.
   Growth doubles, so a run settles on one buffer of each kind. *)
type scratch = {
  program : Program.t;
  mutable susp_mask : Bytes.t;
  mutable att_mask : Bytes.t;
  moveable : Vliw_ir.Iarr.t;  (** worklist buffer for node entry *)
  queue : Ranked.t;
  gapless : Gapless.memo;  (** the Gapless test's run-long absence memo *)
}

(** [fresh_scratch p] — the scratch of one run over program [p]. *)
let fresh_scratch p =
  {
    program = p;
    susp_mask = Bytes.make 256 '\000';
    att_mask = Bytes.make 256 '\000';
    moveable = Vliw_ir.Iarr.create ~capacity:256 ();
    queue = Ranked.create ();
    gapless = Gapless.create_memo ();
  }

(** [entry_op_ids scratch n] — node entry's Moveable-ops set of [n]
    in [scratch]'s worklist buffer, by the region pass
    ({!Program.region_op_ids}): every operation on the subtree below
    [n], excluding those already in [n].  (Initialisation per section
    3.2; operations become unmoveable by being scheduled into [n] or by
    failing their migration attempt, both of which the scheduling loop
    tracks dynamically.)  The schedulers take out-trees alone
    (DESIGN.md §36): when a node other than the exit has two leaves
    pointing at it, or the entry has one, node entry raises a
    [Scheduling] error.  That also refuses every cycle but the exit's
    self-loop. *)
let entry_op_ids scratch n =
  let p = scratch.program in
  if not (Program.is_out_tree p) then
    Grip_robust.Grip_error.raise_ Grip_robust.Grip_error.Scheduling
      (Grip_robust.Grip_error.Malformed
         [
           Printf.sprintf
             "not an out-tree at the entry of n%d: a node other than the \
              exit has two leaves pointing at it, or the entry has one"
             n;
         ]);
  Program.region_op_ids p n scratch.moveable;
  scratch.moveable

let mask_get b id = id < Bytes.length b && Bytes.unsafe_get b id <> '\000'

(* Returns the (possibly re-allocated) buffer with bit [id] set. *)
let mask_set b id =
  let b =
    if id < Bytes.length b then b
    else begin
      let n = Bytes.make (max (id + 1) (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 n 0 (Bytes.length b);
      n
    end
  in
  Bytes.unsafe_set b id '\001';
  b

(* The journal entry for why the migration of [oid] stopped where it
   did (top level: a migration builds no closure for it). *)
let reject pv p oid reason =
  Provenance.record_reject pv ~op:oid ~node:(Program.home_int p oid) reason

(* After a real attempt of [oid] that moved nothing: when it stopped
   at its first hop, out of its home into that home's parent, record
   the outcome and the read set of the hop's [allow_hop] answer (empty
   unless the Gapless test was asked). *)
let record_replay (ctx : Ctx.t) scratch r oid =
  match Migrate.last_failure r with
  | None -> ()
  | Some _ as outcome ->
      let p = ctx.Ctx.program in
      let from_ = Program.home_int p oid in
      let to_ = Program.parent p from_ in
      if to_ >= 0 then
        Ctx.replay_store ctx ~op_id:oid ~from_ ~to_ outcome
          ~reads:(Gapless.reads scratch.gapless)

(* The journal reason of a replayed veto of [op]'s hop out of [from_],
   as [allow_hop] gave it: the speculation policy reads only [from_]'s
   parent, which the replay kept. *)
let veto_reason config (ctx : Ctx.t) ~from_ op =
  let to_ = Program.parent ctx.Ctx.program from_ in
  if not (speculation_allows config ctx ~from_ ~to_ ~op) then
    "speculation policy veto"
  else Gapless.explain ~from_ ~op

(** [schedule_node ?on_move ?on_replay config ctx scratch stats n]
    fills node [n].  [on_replay ~op ~target ~outcome ~suspended] is
    told of each replayed attempt, after its suspension if any;
    observing changes nothing. *)
let schedule_node ?on_move ?on_replay (config : config) (ctx : Ctx.t)
    (scratch : scratch) stats n =
  let p = ctx.Ctx.program in
  let pv = ctx.Ctx.obs.Grip_obs.prov in
  let proving = Provenance.enabled pv in
  (* why the most recent allow_hop veto happened; read by on_suspend,
     which Migrate calls synchronously right after the veto *)
  let suspend_reason = ref "gap prevention" in
  let queue = scratch.queue in
  Ranked.load queue ~rank:config.rank ~record:(Program.stored_op p)
    (entry_op_ids scratch n);
  (* Op ids are dense, so the suspended and attempted sets are byte
     masks (consulted for every candidate the queue visits), plus, for
     the suspended set, an explicit id list for the two fold/clear
     sites.  The masks live on the per-run scratch and are wiped (not
     re-allocated) at node entry. *)
  Bytes.fill scratch.susp_mask 0 (Bytes.length scratch.susp_mask) '\000';
  Bytes.fill scratch.att_mask 0 (Bytes.length scratch.att_mask) '\000';
  let suspended_ids = ref [] in
  let suspended_count = ref 0 in
  (* Rule 3: while suspensions exist, a candidate whose home is at or
     above the lowest suspended operation's (in reverse postorder) may
     not move; [-1] = no cut-off.  It is kept between picks: [folded]
     counts the suspended ids (the oldest, at the list's tail) already
     folded in.  No move commits while a suspension persists (a
     migration that moves while suspensions exist is stopped early and
     followed by [unsuspend_all]), so no home and no RPO position
     changes under a cut-off in force (DESIGN.md §22), and the verdict
     reads the same positions from the program's graph-order walk that
     the fold did (§23). *)
  let cutoff = ref (-1) in
  let folded = ref 0 in
  let suspend op_id =
    if not (mask_get scratch.susp_mask op_id) then begin
      scratch.susp_mask <- mask_set scratch.susp_mask op_id;
      suspended_ids := op_id :: !suspended_ids;
      incr suspended_count
    end
  in
  let unsuspend_all () =
    List.iter
      (fun op_id ->
        Bytes.unsafe_set scratch.susp_mask op_id '\000';
        if op_id < Bytes.length scratch.att_mask then
          Bytes.unsafe_set scratch.att_mask op_id '\000')
      !suspended_ids;
    suspended_ids := [];
    suspended_count := 0;
    cutoff := -1;
    folded := 0;
    Ranked.rewind queue
  in
  (* Fold the [k] newest suspended ids into the cut-off. *)
  let rec fold_newest k = function
    | op_id :: tl when k > 0 ->
        let home = Program.home_int p op_id in
        if home >= 0 then cutoff := max !cutoff (Program.rpo_index p home);
        fold_newest (k - 1) tl
    | _ -> ()
  in
  (* Which candidates choose-op may take: alive, not yet in n, not
     suspended, not already attempted since the last progress, rule 3
     respected.  An op in n stays there for the rest of the node (walks
     only pull into nodes at or below n, and unwound programs are
     acyclic), so it leaves the queue for good.  A suspended or
     rule-3-blocked candidate stays so until [unsuspend_all], since no
     move commits while a suspension persists: the queue holds it until
     then (DESIGN.md §27). *)
  let verdict oid =
    let home = Program.home_int p oid in
    if home = n then Ranked.Retire
    else if home < 0 then Ranked.Skip
    else if
      mask_get scratch.susp_mask oid
      || (!cutoff >= 0 && Program.rpo_index p home <= !cutoff)
    then Ranked.Hold
    else if
      mask_get scratch.att_mask oid
      || Option.is_none (Program.stored_op p oid)
    then Ranked.Skip
    else Ranked.Take
  in
  (* The migration hooks are loop-invariant (they close over the
     per-node state above, not over the candidate), so one record and
     three closures serve every attempt instead of being rebuilt per
     loop iteration. *)
  let hooks =
    {
      Migrate.allow_hop =
        (fun ~from_ ~to_ ~op ->
          (* the answer's read set: none beyond [to_] unless Gapless
             is asked *)
          Vliw_ir.Iarr.clear (Gapless.reads scratch.gapless);
          if not (speculation_allows config ctx ~from_ ~to_ ~op) then begin
            suspend_reason := "speculation policy veto";
            false
          end
          else if
            config.gap_prevention
            && not (Gapless.ok ctx scratch.gapless ~from_ ~to_ ~op)
          then begin
            suspend_reason :=
              (if proving then Gapless.explain ~from_ ~op
               else "gap prevention");
            false
          end
          else true);
      Migrate.on_suspend =
        (fun op ->
          stats.suspensions <- stats.suspensions + 1;
          if proving then
            Provenance.record_reject pv ~op:op.Operation.id
              ~node:(Program.home_int p op.Operation.id)
              (Provenance.Suspended !suspend_reason);
          suspend op.Operation.id);
      Migrate.early_stop = (fun ~moved -> moved > 0 && !suspended_count > 0);
    }
  in
  let walker = Migrate.walker ctx hooks in
  let continue_ = ref true in
  while !continue_ do
    (* budget poll: a blown deadline / fuel cap / external cancel
       raises here, at the loop head, so a stuck cell surfaces a
       structured error instead of wedging the domain *)
    Grip_robust.Budget.check config.budget;
    (* rule 3: fold in the suspensions added since the last pick *)
    if !suspended_count > !folded then begin
      fold_newest (!suspended_count - !folded) !suspended_ids;
      folded := !suspended_count
    end;
    (* Best candidate: the first the queue's verdict takes.  The record
       is fetched only for the pick, to feed the hooks and journals. *)
    let pos = Ranked.pick queue verdict in
    if pos < 0 then continue_ := false
    else
      let best = Option.get (Program.stored_op p (Ranked.id queue pos)) in
      if stats.migrations >= config.max_migrations then begin
        stats.fuel_exhausted <- true;
        if proving then
          Provenance.record_reject pv ~op:best.Operation.id
            ~node:(Program.home_int p best.Operation.id)
            Provenance.Fuel;
        continue_ := false
      end
      else begin
        scratch.att_mask <- mask_set scratch.att_mask best.Operation.id;
        stats.migrations <- stats.migrations + 1;
        let r = walker and oid = best.Operation.id in
        if Ctx.replay_hit ctx oid then begin
          (* The recorded attempt provably ends as it did: replay it,
             as the walk would have reported it (DESIGN.md §27). *)
          let outcome = Ctx.replay_outcome ctx oid in
          stats.replays <- stats.replays + 1;
          Migrate.replay r outcome;
          (match outcome with
          | Some Migrate.Suspended ->
              if proving then
                suspend_reason :=
                  veto_reason config ctx ~from_:(Program.home_int p oid) best;
              hooks.Migrate.on_suspend best
          | _ -> ());
          match on_replay with
          | Some f ->
              f ~op:best ~target:n ~outcome:(Migrate.outcome r)
                ~suspended:(mask_get scratch.susp_mask oid)
          | None -> ()
        end
        else begin
          Migrate.run r ~target:n ~op_id:oid;
          if Migrate.moved r = 0 then record_replay ctx scratch r oid
        end;
        (* An attempted op can be picked again only once rule 2 clears
           its attempted bit, which happens to suspended ids alone; and
           only its own walk can suspend it. *)
        if not (mask_get scratch.susp_mask best.Operation.id) then
          Ranked.retire queue pos;
        let moved = Migrate.moved r in
        stats.hops <- stats.hops + moved;
        count_travel stats moved;
        if Migrate.reached_target r then stats.reached <- stats.reached + 1;
        (match Migrate.last_failure r with
        | Some (Migrate.Op Move_op.No_room) ->
            (* blocked by a full node short of the target: a resource
               barrier (section 3.2) *)
            stats.resource_barrier_events <-
              stats.resource_barrier_events + 1;
            if proving then
              reject pv p oid (Provenance.Resource_barrier (prov_class best))
        | Some
            ( Migrate.Op
                ( Move_op.True_dependence o
                | Move_op.Mem_dependence o )
            | Migrate.Cj (Move_cj.True_dependence o) ) ->
            (* the why-not table only charges a dependence when it
               actually kept the op short of its target *)
            if proving && not (Migrate.reached_target r) then
              reject pv p oid (Provenance.Dep o.Operation.id)
        | Some Migrate.Suspended | None ->
            (* suspensions were journalled by on_suspend already *)
            ()
        | Some f ->
            if proving && not (Migrate.reached_target r) then
              reject pv p oid
                (Provenance.Structural
                   (Format.asprintf "%a" Migrate.pp_failure f)));
        (match on_move with
        | Some f when moved > 0 ->
            f ~op:best ~outcome:(Migrate.outcome r)
        | Some _ | None -> ());
        if moved > 0 && !suspended_count > 0 then
          (* rule 2: progress unsuspends everything; unsuspended ops
             re-enter the ranked queue *)
          unsuspend_all ()
      end
  done;
  stats.candidate_visits <- stats.candidate_visits + queue.Ranked.visits

(** [traverse p schedule] — the top-down traversal of both schedulers:
    [schedule n] once for each non-exit node [n] of [p], in reverse
    postorder.  Nodes created during scheduling (conditional-arm
    copies) are offered when the traversal reaches them. *)
let traverse p schedule =
  let scheduled = ref (Bytes.make 256 '\000') in
  (* Worklist cursor: the next reverse-postorder position to offer.
     Consecutive calls resume from it instead of rescanning the full
     order for every scheduled node — the scheduled set only grows, so
     the consumed prefix stays skippable.  Only a shape change (arm
     copies, deletions, a restored snapshot) restarts it at the top of
     the new order, which also re-offers any node created above the
     cursor;
     moves that touch no edge leave the order, and so the cursor,
     valid. *)
  let shape = ref (Program.shape_version p) and cursor = ref 0 in
  let rec next () =
    let v = Program.shape_version p in
    if v <> !shape then begin
      shape := v;
      cursor := 0
    end;
    if !cursor >= Program.n_nodes p then None
    else begin
      let id = Program.rpo_at p !cursor in
      incr cursor;
      if (not (Program.is_exit p id)) && not (mask_get !scheduled id) then
        Some id
      else next ()
    end
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some n ->
        scheduled := mask_set !scheduled n;
        schedule n;
        loop ()
  in
  loop ()

(** [run ?on_move ?on_replay config ctx] schedules the whole program
    top-down ({!traverse}).  A program that is not an out-tree raises
    a [Scheduling] error at the first node entry ({!entry_op_ids}). *)
let run ?on_move ?on_replay (config : config) (ctx : Ctx.t) =
  let p = ctx.Ctx.program in
  Ctx.replay_forget ctx;
  let stats = fresh_stats () in
  let scratch = fresh_scratch p in
  traverse p (fun n ->
      schedule_node ?on_move ?on_replay config ctx scratch stats n;
      stats.nodes_scheduled <- stats.nodes_scheduled + 1);
  stats

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d migrations=%d hops=%d reached=%d suspensions=%d barriers=%d%s"
    s.nodes_scheduled s.migrations s.hops s.reached s.suspensions
    s.resource_barrier_events
    (if s.fuel_exhausted then " (fuel exhausted)" else "")
