(** The Gapless-move test (paper section 3.3).

    [ok ctx memo ~from_ ~to_ ~op] decides whether moving [op] up one
    node can be allowed without risking a {e permanent} gap — an empty
    instruction between two instructions holding operations of the same
    iteration, which would prevent Perfect Pipelining from converging.
    The four conditions, verbatim from the paper:

    + [op] is the only operation scheduled at [from_] (the node will be
      deleted, so no gap survives);
    + more than one operation from [op]'s iteration is scheduled at
      [from_];
    + [op] is the last operation of its iteration (nothing of that
      iteration exists below [from_]);
    + some successor [s] of [from_] holds an operation [x] of the same
      iteration that would be moveable into [from_] once [op] has left,
      with [Gapless-move (s, from_, x)] holding recursively (Theorem 1
      guarantees the transient gap can then be filled).

    Condition 4's moveability question is answered by a localized
    approximation of the {!Vliw_percolation.Move_op} legality test that
    pretends [op] has already left [from_]; it errs on the side of
    answering "no", which only suspends the operation until its
    neighbours move — convergence is preserved, never correctness.

    Condition 3 searches the graph below [from_].  Its answers come
    from a {!memo} that one scheduling run owns: a search that finds
    nothing of iteration [i] records every node it expanded as holding
    nothing of [i], down to the exit, and later searches for [i] stop
    there.  Such a fact stays true for the whole run, because
    operations move up one edge at a time and every node a move
    creates copies a node that was already below (DESIGN.md §22).  The
    test is top-level recursion throughout: no closure per call, per
    level or per node.

    Each call also leaves its {e read set} in the memo ({!reads}): the
    nodes besides [from_] whose contents the answer depends on, so that
    a caller can tell when the answer still holds (DESIGN.md §27). *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx

(** Condition 3's absence memo and its search scratch, owned by one
    scheduling run ({!Scheduler.run}) and valid only over the moves of
    that run. *)
type memo = {
  mutable absent : Bytes.t array;
      (** iteration -> bitset over node ids: bit [v] set when [v] and
          every node below it hold no operation of that iteration *)
  marks : int Itbl.t;  (** [stamp] on the nodes the current search expanded *)
  mutable stamp : int;
  expanded : Iarr.t;  (** the nodes the current search expanded *)
  reads : Iarr.t;  (** the last {!ok}'s read set *)
}

let create_memo () =
  { absent = [||]; marks = Itbl.create 0; stamp = 0; expanded = Iarr.create ();
    reads = Iarr.create () }

(** [reads m] — the read set of the last {!ok} on [m]: every successor
    condition 4 examined, at every level of its recursion, and every
    node a condition-3 search expanded when it found an operation of
    the iteration.  A condition-3 search that found none is left out:
    its answer holds for the rest of the run, given its [from_]'s
    successors, and that [from_] is [ok]'s own or one of the examined
    successors.  Nodes may repeat. *)
let reads m = m.reads

let known_absent m id it =
  it < Array.length m.absent
  && id lsr 3 < Bytes.length m.absent.(it)
  && Char.code (Bytes.unsafe_get m.absent.(it) (id lsr 3)) land (1 lsl (id land 7)) <> 0

let note_absent m id it =
  if it >= Array.length m.absent then begin
    let grown = Array.make (max (it + 1) (2 * Array.length m.absent)) Bytes.empty in
    Array.blit m.absent 0 grown 0 (Array.length m.absent);
    m.absent <- grown
  end;
  let row = m.absent.(it) in
  if id lsr 3 >= Bytes.length row then begin
    let r = Bytes.make (max ((id lsr 3) + 1) (2 * Bytes.length row)) '\000' in
    Bytes.blit row 0 r 0 (Bytes.length row);
    m.absent.(it) <- r
  end;
  let row = m.absent.(it) in
  Bytes.unsafe_set row (id lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get row (id lsr 3)) lor (1 lsl (id land 7))))

(* The scans over a node's plain ops below walk its
   {!Program.plain_ids} buffer [b] in place from index [i], reading the
   buffer's fields directly and each record with {!Program.op_of}. *)

(* How many operations of iteration [it] a node holds: plain ops, then
   tree jumps. *)
let rec count_plain p (b : Iarr.t) i it k =
  if i >= b.Iarr.len then k
  else
    let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
    count_plain p b (i + 1) it (if o.Operation.iter = it then k + 1 else k)

let rec count_cjumps it k = function
  | Ctree.Leaf _ -> k
  | Ctree.Branch (cj, a, b) ->
      count_cjumps it
        (count_cjumps it (if cj.Operation.iter = it then k + 1 else k) a)
        b

let count_iter p it id =
  count_cjumps it
    (count_plain p (Program.plain_ids p id) 0 it 0)
    (Program.node p id).Node.ctree

(* Does node [id], or a node below it, hold an operation of iteration
   [it]?  Depth-first; the exit, recorded nodes and nodes this search
   already expanded answer no. *)
let rec holds_below m p it id =
  if
    Program.is_exit p id || known_absent m id it
    || Itbl.get m.marks id = m.stamp
  then false
  else begin
    Itbl.set m.marks id m.stamp;
    Iarr.push m.expanded id;
    count_iter p it id > 0
    || any_below m p it (Program.succs p id)
  end

and any_below m p it = function
  | [] -> false
  | s :: tl -> holds_below m p it s || any_below m p it tl

(** [last_of_iteration ctx memo ~from_ ~iter] — condition 3: no node
    below [from_] holds an operation of iteration [iter].  A search
    that finds none has expanded, or found recorded, everything below
    each node it expanded, cycles or not, so it records them all in
    [memo]; a search that finds one records nothing.  Either way it
    counts the search and the nodes it expanded in the context's
    [searches] and [scan_nodes]. *)
let last_of_iteration (ctx : Ctx.t) m ~from_ ~iter =
  let p = ctx.Ctx.program in
  m.stamp <- m.stamp + 1;
  Iarr.clear m.expanded;
  let found = any_below m p iter (Program.succs p from_) in
  let c = ctx.Ctx.counts in
  c.searches <- c.searches + 1;
  c.scan_nodes <- c.scan_nodes + Iarr.length m.expanded;
  for i = 0 to Iarr.length m.expanded - 1 do
    let id = Iarr.unsafe_get m.expanded i in
    if found then Iarr.push m.reads id else note_absent m id iter
  done;
  not found

(* Does an operation of [b] other than [ignoring] keep [x] out of the
   node: a non-copy whose result [x] reads, or a memory access that
   conflicts with [x]'s? *)
let rec blocks p (b : Iarr.t) i ~(x : Operation.t) ~ignoring =
  i < b.Iarr.len
  && ((let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
       o.Operation.id <> ignoring
       && ((match o.Operation.kind with
           | Operation.Binop (_, d, _, _)
           | Operation.Unop (_, d, _)
           | Operation.Load (d, _) ->
               Operation.reads_reg x d
           | Operation.Copy _ | Operation.Store _ | Operation.Cjump _ -> false)
          || Alias.mem_conflict o x))
     || blocks p b (i + 1) ~x ~ignoring)

(* Would [x] (currently in a successor) be moveable into [from_] if
   [ignoring] were gone?  Localized approximation: unguarded, no
   true/memory dependence on the remaining operations, and room once
   [ignoring]'s slot is free. *)
let movable_ignoring (ctx : Ctx.t) ~from_ ~(x : Operation.t)
    ~(ignoring : Operation.t) =
  let p = ctx.Ctx.program in
  x.Operation.guard = []
  && (not (blocks p (Program.plain_ids p from_) 0 ~x ~ignoring:ignoring.Operation.id))
  &&
  let m = ctx.Ctx.machine in
  Machine.is_unlimited m
  || Machine.slot_demand_packed m (Program.counts_packed p from_) <= Machine.width m

(* The four conditions for [op] at [from_]; [depth] bounds condition
   4's recursion. *)
let rec gapless ctx m ~from_ ~(op : Operation.t) depth =
  let p = ctx.Ctx.program in
  let it = op.Operation.iter in
  (* 1: from_ will disappear (per-node packed counters) *)
  (let c = Program.counts_packed p from_ in
   if Operation.is_cjump op then
     Node.packed_plain c = 0 && Node.packed_cjumps c = 1
   else Node.packed_plain c = 1 && Node.packed_cjumps c = 0)
  (* 2: another op of the same iteration stays at from_ *)
  || count_iter p it from_ >= 2
  (* 3: op is the last operation of its iteration *)
  || last_of_iteration ctx m ~from_ ~iter:it
  (* 4: some successor holds a same-iteration op that can fill the
     transient gap *)
  || (depth < 8 && fillable ctx m ~from_ ~op depth (Program.succs p from_))

and fillable ctx m ~from_ ~op depth = function
  | [] -> false
  | s :: tl ->
      (let p = ctx.Ctx.program in
       (not (Program.is_exit p s))
       &&
       (Iarr.push m.reads s;
        plain_filler ctx m ~from_ ~op ~s depth (Program.plain_ids p s) 0
        ||
        (* only the root conditional of s can move *)
        match (Program.node p s).Node.ctree with
        | Ctree.Branch (root, _, _) -> filler ctx m ~from_ ~op ~s depth root
        | Ctree.Leaf _ -> false))
      || fillable ctx m ~from_ ~op depth tl

and plain_filler ctx m ~from_ ~op ~s depth (b : Iarr.t) i =
  i < b.Iarr.len
  && (filler ctx m ~from_ ~op ~s depth
        (Program.op_of ctx.Ctx.program (Array.unsafe_get b.Iarr.a i))
     || plain_filler ctx m ~from_ ~op ~s depth b (i + 1))

and filler ctx m ~from_ ~(op : Operation.t) ~s depth (x : Operation.t) =
  x.Operation.iter = op.Operation.iter
  && (not (Operation.equal_id x op))
  && movable_ignoring ctx ~from_ ~x ~ignoring:op
  && gapless ctx m ~from_:s ~op:x (depth + 1)

(** [ok ctx memo ~from_ ~to_ ~op] — see module comment; [memo] must
    belong to the scheduling run making the moves.  Operations outside
    any iteration (preamble) are never suspended.  Leaves its read set
    in {!reads}. *)
let ok (ctx : Ctx.t) m ~from_ ~to_ ~(op : Operation.t) =
  ignore to_;
  Iarr.clear m.reads;
  op.Operation.iter = Operation.no_iter || gapless ctx m ~from_ ~op 0

(** [explain ~from_ ~op] — a short human reason for a gap-prevention
    veto, for provenance journals; meaningful only after {!ok} returned
    false (all four section 3.3 conditions failed, i.e. [op] is neither
    alone at [from_], nor sharing it with its iteration, nor last of
    its iteration, nor backed by a gapless filler). *)
let explain ~from_ ~(op : Operation.t) =
  Printf.sprintf
    "gap prevention: hoisting op%d would leave iteration %d with an unfillable \
     gap at n%d"
    op.Operation.id op.Operation.iter from_
