(** Shared context for the percolation transformations: the program
    being transformed, the target machine (resource checks happen at
    every hop), the liveness oracle, the renaming policy, and the
    observability handle every transformation emits through. *)

open Vliw_ir

type t = {
  program : Program.t;
  machine : Vliw_machine.Machine.t;
  liveness : Vliw_analysis.Liveness.t;
  rename : bool;  (** repair write-live / move-past-read by renaming *)
  obs : Grip_obs.t;
      (** trace/metrics sink; [Grip_obs.null] (the default) makes every
          emission site a boolean test *)
  mutable dom_cache : (int * Vliw_analysis.Dom.t) option;
      (** dominator tree keyed by [Program.version]; per-context rather
          than global so concurrent or nested scheduler runs cannot
          observe each other's cache *)
  mutable memo_from : int array;
      (** the legality memo, one slot per op id (DESIGN.md §26): the
          [from_] of the move the slot's verdict speaks for, [-1] when
          empty *)
  mutable memo_to : int array;  (** op id -> the slot's [to_] *)
  mutable memo_time : int array;
      (** op id -> the {!Program.version} the verdict was recorded at *)
  mutable memo_verdict : (unit, Legality.failure) result array;
      (** op id -> the verdict *)
  walk_marks : int Itbl.t;
      (** migration-walk visited set, epoch-stamped: a walk bumps
          [walk_stamp] instead of allocating a fresh table *)
  mutable walk_stamp : int;
  cone_marks : int Itbl.t;
      (** migration-cone membership, epoch-stamped like [walk_marks] *)
  mutable cone_stamp : int;
  mutable cone_fresh : int;
      (** {!Program.node_limit} when the cone was marked: nodes created
          since belong to it *)
  cone_queue : Iarr.t;
      (** explicit worklist the cone is marked with; the chain check
          collects the nodes it follows here too *)
  chain_marks : int Itbl.t;
      (** chain memo: [chain_stamp] on every node whose unique live
          predecessors lead to [chain_target] under chain version
          [chain_version] *)
  mutable chain_stamp : int;
  mutable chain_target : int;
  mutable chain_version : int;
  mutable ticks : int;  (** legality checks {!sample_tick} has counted *)
  mutable gc_depth : int;
      (** > 0 inside {!defer_gc}: collections requested by committed
          moves are batched until the region exits *)
  mutable gc_pending : bool;
}

(** [make ?rename ?obs p ~machine ~exit_live] builds a context with a
    fresh liveness oracle observing [exit_live] at the program exit. *)
let make ?(rename = true) ?(obs = Grip_obs.null) program ~machine ~exit_live =
  {
    program;
    machine;
    liveness = Vliw_analysis.Liveness.make program ~exit_live;
    rename;
    obs;
    dom_cache = None;
    memo_from = [||];
    memo_to = [||];
    memo_time = [||];
    memo_verdict = [||];
    walk_marks = Itbl.create 0;
    walk_stamp = 0;
    cone_marks = Itbl.create 0;
    cone_stamp = 0;
    cone_fresh = 0;
    cone_queue = Iarr.create ();
    chain_marks = Itbl.create 0;
    chain_stamp = 0;
    chain_target = -1;
    chain_version = -1;
    ticks = 0;
    gc_depth = 0;
    gc_pending = false;
  }

(** [dominators t] — the dominator tree of the current program version,
    recomputed only when the program has changed since the last call on
    this context. *)
let dominators t =
  let v = Program.version t.program in
  match t.dom_cache with
  | Some (v', dom) when v' = v -> dom
  | Some (_, dom) ->
      (* stale: rebuild in place, reusing the tables — handles to the
         old tree are invalidated, which is exactly what keying the
         cache by version already promised *)
      Vliw_analysis.Dom.recompute dom t.program;
      t.dom_cache <- Some (v, dom);
      dom
  | None ->
      let dom = Vliw_analysis.Dom.compute t.program in
      t.dom_cache <- Some (v, dom);
      dom

let live_in t id = Vliw_analysis.Liveness.live_in t.liveness id

(* -- move-op legality memoization ---------------------------------------- *)

(* A verdict of [Move_op.check] for (from_, to_, op_id) is a function
   of the op's record, [from_]'s ops and tree, [to_]'s ops, tree and
   packed counts, and this context's machine and renaming policy.  The
   record can change only while the op sits in a node, by an edit of
   that node, so while the op's home is still [from_] and neither
   node's {!Program.node_stamp} has passed the slot's time, the check
   would decide as it did.  One slot per op id keeps the latest move
   asked about; lookups and stores hash nothing and allocate nothing
   once the arrays have grown to the op ids in use. *)

let memo_grow t op_id =
  let cap = Array.length t.memo_from in
  if op_id >= cap then begin
    let cap' = max 64 (max (op_id + 1) (2 * cap)) in
    let grow a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.memo_from <- grow t.memo_from (-1);
    t.memo_to <- grow t.memo_to (-1);
    t.memo_time <- grow t.memo_time 0;
    t.memo_verdict <- grow t.memo_verdict (Ok ())
  end

let hits_key = Grip_obs.Metrics.key "legality.cache_hits"
let misses_key = Grip_obs.Metrics.key "legality.cache_misses"

(** [legality_hit t ~from_ ~to_ ~op_id] — does the memo hold a verdict
    for this move that the current program still bears out?  Records a
    [legality.cache_hits] / [legality.cache_misses] metric either way;
    on a hit, {!legality_verdict} is the verdict. *)
let legality_hit t ~from_ ~to_ ~op_id =
  let p = t.program in
  let hit =
    op_id < Array.length t.memo_from
    && Array.unsafe_get t.memo_from op_id = from_
    && Array.unsafe_get t.memo_to op_id = to_
    && Program.home_int p op_id = from_
    &&
    let time = Array.unsafe_get t.memo_time op_id in
    Program.node_stamp p from_ <= time && Program.node_stamp p to_ <= time
  in
  Grip_obs.Metrics.bump t.obs.Grip_obs.metrics
    (if hit then hits_key else misses_key)
    1;
  hit

(** [legality_verdict t op_id] — the verdict of [op_id]'s slot, as
    {!legality_hit} just confirmed it. *)
let legality_verdict t op_id = Array.unsafe_get t.memo_verdict op_id

(** [legality_store t ~from_ ~to_ ~op_id verdict] — record [verdict]
    for this move against the current program. *)
let legality_store t ~from_ ~to_ ~op_id verdict =
  memo_grow t op_id;
  Array.unsafe_set t.memo_from op_id from_;
  Array.unsafe_set t.memo_to op_id to_;
  Array.unsafe_set t.memo_time op_id (Program.version t.program);
  Array.unsafe_set t.memo_verdict op_id verdict

(** [sample_tick t n] — count one legality check and tell whether it
    is the first of a run of [n] ([n] a power of two): the
    [legality.check] timer times one check in [n]. *)
let sample_tick t n =
  let k = t.ticks in
  t.ticks <- k + 1;
  k land (n - 1) = 0

(* -- scratch visit sets -------------------------------------------------- *)

(* Epoch-stamped membership: starting a traversal bumps the stamp;
   membership is "mark equals current stamp".  No per-traversal table
   allocation, no clearing.  The gap-prevention test, which runs
   inside migration walks, keeps its own marks on the scheduling run's
   memo ([Grip.Gapless.memo]). *)

let walk_begin t = t.walk_stamp <- t.walk_stamp + 1
let walk_seen t id = Itbl.get t.walk_marks id = t.walk_stamp
let walk_mark t id = Itbl.set t.walk_marks id t.walk_stamp

(* The migration cone (see {!Migrate}): a stamped set plus every node
   created after [cone_begin]. *)
let cone_begin t =
  t.cone_stamp <- t.cone_stamp + 1;
  t.cone_fresh <- Program.node_limit t.program;
  Iarr.clear t.cone_queue

let in_cone t id = id >= t.cone_fresh || Itbl.get t.cone_marks id = t.cone_stamp

(* Enqueue [id] unless already in the cone; shaped as a
   {!Program.fold_preds} step so marking needs no closure. *)
let cone_add t id =
  if not (in_cone t id) then begin
    Itbl.set t.cone_marks id t.cone_stamp;
    Iarr.push t.cone_queue id
  end;
  t

(* The chain memo (see {!Migrate}) speaks for one (target,
   {!Program.chain_version}) key: a chain check under another key bumps
   the stamp, which forgets every earlier mark.  Node deletion leaves
   the key, and the marks, alone: it cuts no chain. *)
let chain_begin t ~target =
  let v = Program.chain_version t.program in
  if target <> t.chain_target || v <> t.chain_version then begin
    t.chain_stamp <- t.chain_stamp + 1;
    t.chain_target <- target;
    t.chain_version <- v
  end

let chain_known t id = Itbl.get t.chain_marks id = t.chain_stamp
let chain_note t id = Itbl.set t.chain_marks id t.chain_stamp

(* -- deferred garbage collection ----------------------------------------- *)

(* [Program.gc] only removes unreachable nodes, so batching several
   committed moves' collections into one sweep cannot change what any
   traversal of the *live* graph observes — consumers filter dead ids
   with [Program.is_live].  Migration walks wrap themselves in
   [defer_gc]; a commit outside such a region collects eagerly, as the
   transformations always did. *)

let gc_runs_key = Grip_obs.Metrics.key "ir.gc_runs"
let gc_reclaimed_key = Grip_obs.Metrics.key "ir.gc_reclaimed"
let gc_candidates_key = Grip_obs.Metrics.key "ir.gc_candidates"
let gc_deferred_key = Grip_obs.Metrics.key "ir.gc_deferred"

let run_gc t =
  t.gc_pending <- false;
  let examined = Program.gc_candidates t.program in
  let reclaimed = Program.gc t.program in
  let m = t.obs.Grip_obs.metrics in
  Grip_obs.Metrics.bump m gc_runs_key 1;
  Grip_obs.Metrics.bump m gc_reclaimed_key reclaimed;
  Grip_obs.Metrics.bump m gc_candidates_key
    (Program.gc_candidates t.program - examined)

(** [maybe_gc t] — request a collection: immediate outside a
    {!defer_gc} region, batched (and counted as [ir.gc_deferred])
    inside one. *)
let maybe_gc t =
  if t.gc_depth > 0 then begin
    t.gc_pending <- true;
    Grip_obs.Metrics.bump t.obs.Grip_obs.metrics gc_deferred_key 1
  end
  else run_gc t

let gc_leave t =
  t.gc_depth <- t.gc_depth - 1;
  if t.gc_depth = 0 && t.gc_pending then run_gc t

(** [defer_gc t f x] — [f x] with collections batched; any pending
    sweep is flushed when the outermost region exits, also on an
    exception.  [f] and its argument come apart, so a caller that
    passes a top-level function builds no thunk. *)
let defer_gc t f x =
  t.gc_depth <- t.gc_depth + 1;
  match f x with
  | v ->
      gc_leave t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      gc_leave t;
      Printexc.raise_with_backtrace e bt
