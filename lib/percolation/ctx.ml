(** Shared context for the percolation transformations: the program
    being transformed, the target machine (resource checks happen at
    every hop), the observability handle every transformation emits
    through and the work counts of the run; plus the replay slots,
    which migrations reuse instead of allocating. *)

open Vliw_ir

(** The work a context's transformations did, one field per count,
    each event one add: the pipeline publishes them to the run's
    registry once the schedule phase returns ([Grip.Pipeline.drive];
    DESIGN.md §31).  The event counts ([gc_runs], [searches]) also
    decide whether the node counts beside them are published: a node
    count is, when its event happened. *)
type counts = {
  mutable gc_runs : int;  (** graph collections, one per committed move *)
  mutable gc_reclaimed : int;  (** nodes those collections removed *)
  mutable searches : int;  (** the Gapless test's condition-3 searches *)
  mutable scan_nodes : int;  (** nodes those searches expanded *)
}

type t = {
  program : Program.t;
  machine : Vliw_machine.Machine.t;
  obs : Grip_obs.t;
      (** trace/metrics sink; [Grip_obs.null] (the default) makes every
          emission site a boolean test *)
  counts : counts;
  mutable slot_from : int array;
      (** the replay slots, one per op id (DESIGN.md §27): the [from_]
          of the hop the slot's attempt stopped at, [-1] when empty *)
  mutable slot_to : int array;  (** op id -> the slot's [to_] *)
  mutable slot_time : int array;
      (** op id -> the {!Program.version} the slot was recorded at *)
  mutable slot_outcome : Legality.hop option array;
      (** op id -> how the attempt ended at that hop; [None] when the
          slot holds no replay *)
  mutable slot_reads : int array;
      (** op id -> the offset of the slot's read set in [reads] *)
  mutable reads : int array;
      (** the read-set arena: at each entry's offset the op id, the
          node count, then the nodes *)
  mutable reads_len : int;  (** words of [reads] in use *)
  mutable ticks : int;  (** legality checks {!sample_tick} has counted *)
}

(** [make ?obs p ~machine ~exit_live] builds a context with zero
    counts.  [exit_live] is unused: no transformation asks which
    registers are live (legality repairs write-live conflicts by
    renaming), and the label stays only for the callers that pass it. *)
let make ?(obs = Grip_obs.null) program ~machine ~exit_live:_ =
  {
    program;
    machine;
    obs;
    counts =
      {
        gc_runs = 0;
        gc_reclaimed = 0;
        searches = 0;
        scan_nodes = 0;
      };
    slot_from = [||];
    slot_to = [||];
    slot_time = [||];
    slot_outcome = [||];
    slot_reads = [||];
    reads = [||];
    reads_len = 0;
    ticks = 0;
  }

(* -- replay slots ----------------------------------------------------- *)

(* A migration attempt that moves nothing stops at its first hop
   [from_] -> [to_] ([from_] the op's home, [to_] its parent).  Its
   outcome is a function of the op's record, of [from_] and [to_], and
   of the nodes the [allow_hop] answer read (the read set), so while
   the op is still at [from_], [to_] is still [from_]'s parent, and no
   node among [from_], [to_] and the read set has a stamp newer than
   the slot, the attempt would end as it did (DESIGN.md §27).  One slot
   per op id keeps the latest such attempt; its read set lives in one
   arena, entries appended and compacted when the arena fills.  Lookups
   and stores hash nothing and allocate nothing once the arrays have
   grown to the op ids in use. *)

let slots_grow t op_id =
  let cap = Array.length t.slot_from in
  if op_id >= cap then begin
    let cap' = max 64 (max (op_id + 1) (2 * cap)) in
    let grow a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.slot_from <- grow t.slot_from (-1);
    t.slot_to <- grow t.slot_to (-1);
    t.slot_time <- grow t.slot_time 0;
    t.slot_outcome <- grow t.slot_outcome None;
    t.slot_reads <- grow t.slot_reads 0
  end

(* Slide the entries that are still some slot's read set to the front
   of the arena, oldest first; an entry is live when its op's slot
   holds a replay and points at it. *)
let reads_compact t =
  let a = t.reads in
  let r = ref 0 and w = ref 0 in
  while !r < t.reads_len do
    let op = a.(!r) and len = a.(!r + 1) + 2 in
    if t.slot_reads.(op) = !r && t.slot_outcome.(op) != None then begin
      Array.blit a !r a !w len;
      t.slot_reads.(op) <- !w;
      w := !w + len
    end;
    r := !r + len
  done;
  t.reads_len <- !w

(* Append [op_id]'s read set [nodes] to the arena; returns its offset.
   A full arena is compacted first, and grown when live entries fill
   more than half of it. *)
let reads_append t op_id nodes =
  let need = Iarr.length nodes + 2 in
  if t.reads_len + need > Array.length t.reads then begin
    reads_compact t;
    if 2 * (t.reads_len + need) > Array.length t.reads then begin
      let a = Array.make (max 64 (2 * (t.reads_len + need))) 0 in
      Array.blit t.reads 0 a 0 t.reads_len;
      t.reads <- a
    end
  end;
  let at = t.reads_len in
  t.reads.(at) <- op_id;
  t.reads.(at + 1) <- Iarr.length nodes;
  for i = 0 to Iarr.length nodes - 1 do
    t.reads.(at + 2 + i) <- Iarr.unsafe_get nodes i
  done;
  t.reads_len <- at + need;
  at

(** [replay_store t ~op_id ~from_ ~to_ outcome ~reads] — record that
    [op_id]'s attempt ended in [outcome] (the migration's
    [last_failure], never [None]) at its first hop [from_] -> [to_],
    the op's home and that home's parent, with [allow_hop] having read
    [reads] besides the two nodes.  The slot keeps [outcome] itself, so
    recording allocates nothing. *)
let replay_store t ~op_id ~from_ ~to_ outcome ~reads =
  slots_grow t op_id;
  Array.unsafe_set t.slot_from op_id from_;
  Array.unsafe_set t.slot_to op_id to_;
  Array.unsafe_set t.slot_time op_id (Program.version t.program);
  Array.unsafe_set t.slot_outcome op_id outcome;
  Array.unsafe_set t.slot_reads op_id (reads_append t op_id reads)

(* Is every node of the read set at [at] no newer than [time]? *)
let rec reads_fresh p a i stop time =
  i >= stop
  || (Program.node_stamp p (Array.unsafe_get a i) <= time
     && reads_fresh p a (i + 1) stop time)

(** [replay_hit t op_id] — does [op_id]'s replay slot still tell how an
    attempt to migrate it would end?  Its home must be the slot's
    [from_], [from_]'s parent the slot's [to_] (so the climb tries this
    hop first), and no node of the two nor of the read set edited
    since the slot was recorded.  Nothing else drops a slot: these
    checks alone make a replay sound.  Hashes nothing and allocates
    nothing. *)
let replay_hit t op_id =
  op_id < Array.length t.slot_outcome
  && Array.unsafe_get t.slot_outcome op_id != None
  &&
  let p = t.program in
  let from_ = Array.unsafe_get t.slot_from op_id in
  Program.home_int p op_id = from_
  &&
  let to_ = Array.unsafe_get t.slot_to op_id
  and time = Array.unsafe_get t.slot_time op_id in
  Program.node_stamp p from_ <= time
  && Program.node_stamp p to_ <= time
  && (let at = Array.unsafe_get t.slot_reads op_id in
      reads_fresh p t.reads (at + 2) (at + 2 + t.reads.(at + 1)) time)
  && Program.parent p from_ = to_

(** [replay_outcome t op_id] — the outcome of the slot {!replay_hit}
    just confirmed, as the migration reported it. *)
let replay_outcome t op_id = Array.unsafe_get t.slot_outcome op_id

(** [replay_forget t] — drop every replay slot.  A scheduling run calls
    it first: a read set leaves out what the run's Gapless absence
    memo answers, so a slot speaks for one run only. *)
let replay_forget t =
  Array.fill t.slot_outcome 0 (Array.length t.slot_outcome) None;
  t.reads_len <- 0

(** [sample_tick t n] — count one legality check and tell whether it
    is the first of a run of [n] ([n] a power of two): the
    [legality.check] timer times one check in [n]. *)
let sample_tick t n =
  let k = t.ticks in
  t.ticks <- k + 1;
  k land (n - 1) = 0

(* -- garbage collection --------------------------------------------------- *)

(** [gc t] — collect the nodes a committed move left unreachable,
    at once: after every commit the table holds only live nodes.  The
    worklist entries each collection examined are counted by the
    program itself ([Program.gc_candidates]). *)
let gc t =
  let c = t.counts in
  c.gc_runs <- c.gc_runs + 1;
  c.gc_reclaimed <- c.gc_reclaimed + Program.gc t.program
