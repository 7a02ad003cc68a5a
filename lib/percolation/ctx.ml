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
  mutable legality_version : int;
      (** program version the verdict tables speak for; on mismatch they
          are cleared in place (no fresh table per version).
          [Program.version] is globally monotonic (even
          {!Program.restore} bumps it), so a version match always means
          "same graph". *)
  legality_int : (int, (unit, Legality.failure) result) Hashtbl.t;
      (** move-op verdicts keyed by [(from_, to_, op_id)] packed into
          one immediate int (21 bits per field) — the common case *)
  legality_wide :
    (int * int * int, (unit, Legality.failure) result) Hashtbl.t;
      (** overflow table for ids beyond 21 bits *)
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
  cone_queue : Iarr.t;  (** explicit worklist the cone is marked with *)
  scan_marks : int Itbl.t;
      (** gap-prevention traversal visited set — separate from
          [walk_marks] because the gapless test runs inside a
          migration walk *)
  mutable scan_stamp : int;
  mutable gc_depth : int;
      (** > 0 inside {!defer_gc}: collections requested by committed
          moves are batched until the region exits *)
  mutable gc_pending : bool;
  mutable capture_base : int;
      (** program version the memo-capture hook is armed for
          ([-1] = off): when [legality_sync] is about to clear verdicts
          computed against this version, it snapshots them first (see
          {!memo_snapshot}) *)
  mutable captured : memo_snapshot option;
  mutable capture_nodes : int;
      (** live node count of the armed pristine graph, recorded at
          {!arm_capture} time — by the first [legality_sync] clear the
          program has already mutated, so reading it there would stamp
          the snapshot with the wrong graph shape *)
  mutable seeded_version : int;
      (** program version whose verdict tables were installed from a
          cross-request snapshot; hits at this version are counted as
          [legality.memo_reused] *)
}

(** A portable copy of the versioned [would_move] verdict tables, taken
    against the {e pristine} (pre-scheduling) graph of a run so a later
    run over a byte-identical graph can start with them pre-filled.

    Validity is explicit rather than assumed: [ms_delta] must be [0]
    (the verdicts were computed before any committed move — a bumped
    delta means the graph they speak for no longer exists), [ms_nodes]
    must equal the seeding program's live node count, and [ms_width]
    records the machine the full tables speak for.  Legality is
    machine-dependent ({!Move_op.check} consults
    [Machine.room_for_packed]), so seeding under a {e different} width
    installs only the machine-invariant subset: failures raised by the
    adjacency / guard / dependence steps, which run {e before} the
    resource check and therefore reproduce identically on any machine.
    [Ok], [No_room] and [Write_live] verdicts are never shared across
    widths. *)
and memo_snapshot = {
  ms_width : int;  (** issue width the full verdicts were computed under *)
  ms_nodes : int;  (** live node count of the graph they speak for *)
  ms_delta : int;  (** versions committed since the pristine graph; only
                       [0] is ever valid to seed *)
  ms_int : (int, (unit, Legality.failure) result) Hashtbl.t;
  ms_wide : (int * int * int, (unit, Legality.failure) result) Hashtbl.t;
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
    legality_version = -1;
    legality_int = Hashtbl.create 256;
    legality_wide = Hashtbl.create 16;
    walk_marks = Itbl.create 0;
    walk_stamp = 0;
    cone_marks = Itbl.create 0;
    cone_stamp = 0;
    cone_fresh = 0;
    cone_queue = Iarr.create ();
    scan_marks = Itbl.create 0;
    scan_stamp = 0;
    gc_depth = 0;
    gc_pending = false;
    capture_base = -1;
    captured = None;
    capture_nodes = -1;
    seeded_version = -1;
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

(* The verdict tables are persistent and cleared in place when the
   program version moves on: [Hashtbl.clear] keeps the bucket array,
   so steady-state lookups and stores allocate nothing beyond the
   entries themselves (the old design minted a fresh 64-bucket table
   per program version — a top scheduler allocator). *)
(* Verdicts computed against the armed pristine version are copied out
   just before the clear that would lose them — the only moment the
   delta-0 tables are both complete and about to die. *)
let capture_if_armed t =
  if
    t.capture_base >= 0
    && t.legality_version = t.capture_base
    && t.captured = None
    && Hashtbl.length t.legality_int + Hashtbl.length t.legality_wide > 0
  then begin
    let snap =
      {
        ms_width = Vliw_machine.Machine.width t.machine;
        ms_nodes =
          (if t.capture_nodes >= 0 then t.capture_nodes
           else Program.n_nodes t.program);
        ms_delta = 0;
        ms_int = Hashtbl.copy t.legality_int;
        ms_wide = Hashtbl.copy t.legality_wide;
      }
    in
    t.captured <- Some snap;
    Grip_obs.Metrics.add t.obs.Grip_obs.metrics "legality.memo_captured"
      (Hashtbl.length snap.ms_int + Hashtbl.length snap.ms_wide)
  end

let legality_sync t =
  let v = Program.version t.program in
  if t.legality_version <> v then begin
    capture_if_armed t;
    Hashtbl.clear t.legality_int;
    Hashtbl.clear t.legality_wide;
    t.legality_version <- v
  end

(** [arm_capture t] — snapshot the verdict tables the first time they
    are invalidated (i.e. the verdicts computed against the current,
    pristine program version).  Call before scheduling starts. *)
let arm_capture t =
  t.capture_base <- Program.version t.program;
  t.capture_nodes <- Program.n_nodes t.program

(** [capture t] — the armed snapshot, if any verdicts were taken
    against the pristine version.  A run that never advanced past the
    armed version (no committed move) snapshots its live tables here
    instead. *)
let capture t =
  if t.captured = None then capture_if_armed t;
  t.captured

(** [memo_snapshot_now t] — unconditional snapshot of the live verdict
    tables with their {e real} delta from the armed base (tests use
    this to manufacture stale snapshots; a positive delta is rejected
    by {!seed_memo}). *)
let memo_snapshot_now t =
  {
    ms_width = Vliw_machine.Machine.width t.machine;
    ms_nodes = Program.n_nodes t.program;
    ms_delta =
      (if t.capture_base < 0 then 0 else t.legality_version - t.capture_base);
    ms_int = Hashtbl.copy t.legality_int;
    ms_wide = Hashtbl.copy t.legality_wide;
  }

(* Failures raised by {!Move_op.check} before its resource-room step:
   adjacency, op lookup, guard and dependence tests read only the
   graph, so their verdicts — and the fact that the check never
   reached the machine-dependent steps — hold on any machine. *)
let portable_verdict = function
  | Error
      Legality.(
        ( Not_adjacent | Op_not_found | Guarded | True_dependence _
        | Mem_dependence _ )) ->
      true
  | Error Legality.(Write_live _ | No_room) | Ok () -> false

(** [seed_memo t snap] — install a cross-request verdict snapshot for
    the current program version.  The snapshot must be pristine
    ([ms_delta = 0]) and speak for a graph with the same live node
    count; a same-width seed installs every verdict, a cross-width seed
    only the machine-invariant subset ({!portable_verdict}).  Returns
    the number of verdicts installed, or the reason the snapshot was
    rejected (counted as [legality.memo_invalidated]). *)
let seed_memo t (snap : memo_snapshot) =
  let m = t.obs.Grip_obs.metrics in
  let reject reason =
    Grip_obs.Metrics.incr m "legality.memo_invalidated";
    Error reason
  in
  if snap.ms_delta <> 0 then reject "stale: version delta > 0"
  else if snap.ms_nodes <> Program.n_nodes t.program then
    reject "graph mismatch: node count differs"
  else begin
    let v = Program.version t.program in
    Hashtbl.clear t.legality_int;
    Hashtbl.clear t.legality_wide;
    let n = ref 0 in
    let same_width = snap.ms_width = Vliw_machine.Machine.width t.machine in
    let admit verdict = same_width || portable_verdict verdict in
    Hashtbl.iter
      (fun k verdict ->
        if admit verdict then begin
          Hashtbl.replace t.legality_int k verdict;
          incr n
        end)
      snap.ms_int;
    Hashtbl.iter
      (fun k verdict ->
        if admit verdict then begin
          Hashtbl.replace t.legality_wide k verdict;
          incr n
        end)
      snap.ms_wide;
    t.legality_version <- v;
    t.seeded_version <- v;
    Grip_obs.Metrics.add m "legality.memo_seeded" !n;
    Ok !n
  end

(** [seed_dominators t dom] — adopt a dominator-tree arena from a
    previous run over this graph: recomputed in place against the
    current program (the tables are already sized), then installed in
    the version-keyed cache. *)
let seed_dominators t dom =
  Vliw_analysis.Dom.recompute dom t.program;
  t.dom_cache <- Some (Program.version t.program, dom);
  Grip_obs.Metrics.incr t.obs.Grip_obs.metrics "legality.dom_seeded"

(* 21 bits per field covers node and op ids into the millions; the
   packing is exact (checked) and falls back to a boxed-tuple table
   beyond that. *)
let packable x = x lsr 21 = 0

let pack ~from_ ~to_ ~op_id =
  (from_ lsl 42) lor (to_ lsl 21) lor op_id

(** [legality_find t ~from_ ~to_ ~op_id] — the cached verdict for this
    move against the current program version, if any.  Records a
    [legality.cache_hits] / [legality.cache_misses] metric either
    way. *)
let legality_find t ~from_ ~to_ ~op_id =
  legality_sync t;
  let r =
    if packable from_ && packable to_ && packable op_id then
      Hashtbl.find_opt t.legality_int (pack ~from_ ~to_ ~op_id)
    else Hashtbl.find_opt t.legality_wide (from_, to_, op_id)
  in
  let m = t.obs.Grip_obs.metrics in
  (match r with
  | Some _ ->
      Grip_obs.Metrics.incr m "legality.cache_hits";
      (* a hit against tables installed by a cross-request seed is the
         memo actually paying off *)
      if t.seeded_version = t.legality_version then
        Grip_obs.Metrics.incr m "legality.memo_reused"
  | None -> Grip_obs.Metrics.incr m "legality.cache_misses");
  r

(** [legality_store t ~from_ ~to_ ~op_id verdict] — memoize a verdict
    for the current program version. *)
let legality_store t ~from_ ~to_ ~op_id verdict =
  legality_sync t;
  if packable from_ && packable to_ && packable op_id then
    Hashtbl.replace t.legality_int (pack ~from_ ~to_ ~op_id) verdict
  else Hashtbl.replace t.legality_wide (from_, to_, op_id) verdict

(* -- scratch visit sets -------------------------------------------------- *)

(* Epoch-stamped membership: starting a traversal bumps the stamp;
   membership is "mark equals current stamp".  No per-traversal table
   allocation, no clearing.  The two sets nest: a migration walk
   ([walk_*]) triggers gap-prevention scans ([scan_*]) at every hop. *)

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

let scan_begin t = t.scan_stamp <- t.scan_stamp + 1
let scan_seen t id = Itbl.get t.scan_marks id = t.scan_stamp
let scan_mark t id = Itbl.set t.scan_marks id t.scan_stamp

(* -- deferred garbage collection ----------------------------------------- *)

(* [Program.gc] only removes unreachable nodes, so batching several
   committed moves' collections into one sweep cannot change what any
   traversal of the *live* graph observes — consumers filter dead ids
   with [Program.is_live].  Migration walks wrap themselves in
   [defer_gc]; a commit outside such a region collects eagerly, as the
   transformations always did. *)

let run_gc t =
  t.gc_pending <- false;
  let examined = Program.gc_candidates t.program in
  let reclaimed = Program.gc t.program in
  let m = t.obs.Grip_obs.metrics in
  Grip_obs.Metrics.incr m "ir.gc_runs";
  Grip_obs.Metrics.add m "ir.gc_reclaimed" reclaimed;
  Grip_obs.Metrics.add m "ir.gc_candidates"
    (Program.gc_candidates t.program - examined)

(** [maybe_gc t] — request a collection: immediate outside a
    {!defer_gc} region, batched (and counted as [ir.gc_deferred])
    inside one. *)
let maybe_gc t =
  if t.gc_depth > 0 then begin
    t.gc_pending <- true;
    Grip_obs.Metrics.incr t.obs.Grip_obs.metrics "ir.gc_deferred"
  end
  else run_gc t

(** [defer_gc t f] — run [f] with collections batched; any pending
    sweep is flushed when the outermost region exits (also on
    exceptions). *)
let defer_gc t f =
  t.gc_depth <- t.gc_depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.gc_depth <- t.gc_depth - 1;
      if t.gc_depth = 0 && t.gc_pending then run_gc t)
    f
