(** Mutable VLIW program graphs.

    A program is a directed graph of {!Node.t} instructions with a
    distinguished [entry] and a distinguished [exit_id] sentinel (an
    empty node whose only successor is itself; execution stops there).

    The graph may hold joins (a rolled loop's header has two
    predecessors), but the schedulers take {e out-trees} alone: no
    leaf points at the entry, and every other node but the exit has
    at most one tree leaf pointing at it, so it has one parent
    ({!parent}, {!is_out_tree}; DESIGN.md §36).

    All structural mutation must go through this module: the functions
    below keep the derived state coherent:
    - [op_home]: operation id -> node id, for O(1) location queries
      during migration;
    - [version]: a counter bumped on every mutation, the clock that
      [node_stamp]s and the replay slots' record times are read on;
    - [shape]: a counter bumped only when an edge or a node appears or
      disappears, for caches that read nothing but successor lists;
    - [node_stamp]: per node, the [version] of the last edit of its
      ops, tree or leaves, for caches of facts about one or two nodes
      ({!node_stamp});
    - the {e flat stores}: a node's plain ops, and the struct-of-arrays
      mirrors derived from its ops and tree (below);
    - fresh-id supplies for nodes, operations and registers.

    Node and operation ids are dense (drawn from the counters here),
    so every id-keyed store is an {!Itbl} flat array rather than a
    hash table — these lookups dominate the scheduler's profile.

    {2 Flat stores}

    Each fact about a node has one home.  Its plain operations are
    [ops_seq] (node id -> {!Iarr.t} of plain op ids in instruction
    order) looked up in [op_store] (op id -> the op's record); its
    conditional jumps live in its {!Ctree.t} alone.  {!ops} lists a
    node's plain ops for cold callers, {!fold_ops} folds over them
    without a list, and the hop path reads {!plain_ids} in place with
    {!op_of}.  Records stay in [op_store] after removal, and a node
    left to die may still list an op that has moved on, so a reader
    that must know where an op is gates on [op_home].  Every mutator
    keeps these mirrors, derived from the two homes, current:
    - [node_counts]: node id -> slot-demand counters packed as {!Node}
      lays them out, which machines answer resource queries from;
    - [in_leaves]/[in_xor]: node id -> the number of tree leaves of the
      table's nodes that point at it, and the XOR of those leaves'
      owners' ids, one term per leaf: when the count is 1 the XOR is
      the one parent.  Leaves are counted, not the deduplicated
      successor lists, so two leaves of one tree at one node make a
      join; [joins] counts the nodes other than the exit with two or
      more, so {!is_out_tree} answers in O(1);
    - [succ_a]/[succ_b]: node id -> the number of distinct successors
      (saturated at 3) packed with the first of them, and the second,
      in monomorphic [int array]s, so the graph-order walk steps
      without chasing the [succs_tbl] list (read only past the second
      successor).

    Freed nodes return their [Iarr] buffers to an arena pool ([spare])
    that [fresh_node] draws from, so migration churn (copy, redirect,
    collect) recycles buffers instead of minting garbage.  Node and
    operation ids are never reused.

    {2 Graph order}

    Reachability and reverse postorder read only successor lists, so
    one depth-first walk per [shape] (not per [version]) answers both:
    moving an operation between existing nodes keeps it.  The walk
    fills reused [int array]s with the postorder of the reachable
    nodes, each node's postorder index, and a per-walk stamp that
    doubles as reachability ({!is_live}, {!rpo_index}, {!rpo_at},
    {!n_nodes}; {!rpo} copies the same order into a new list on each
    call), and node entry's region pass ({!region_op_ids}) reads those
    arrays in place.  Every
    edge edit goes through [link_edges] or [delete_node], and each
    bumps [shape].  {!gc} only removes nodes unreachable from the
    entry — a semantic no-op for every reachable-set-derived analysis
    — so it bumps neither counter: the walk stays valid across
    collections.  It sweeps a worklist rather than the whole node
    table: the nodes that lost an in-edge, were created or were
    restored since the last sweep, cascading into the successors of
    every node it collects (DESIGN.md §19). *)

type t = {
  nodes : Node.t option Itbl.t;
  entry : int;
  exit_id : int;
  op_home : int Itbl.t;  (** op id -> node id; [-1] = not placed *)
  op_store : Operation.t option Itbl.t;
      (** op id -> the op's record (kept after removal; guard reads
          with [op_home]) *)
  ops_seq : Iarr.t Itbl.t;  (** node id -> plain op ids, instruction order *)
  node_counts : int Itbl.t;  (** node id -> packed slot-demand counters *)
  mutable in_leaves : int array;
      (** node id -> tree leaves pointing at it (the exit's self-leaf
          not counted) *)
  mutable in_xor : int array;
      (** node id -> XOR of the owners of those leaves, once per leaf *)
  mutable joins : int;
      (** nodes other than the exit with two or more leaves into them *)
  succs_tbl : int list Itbl.t;
      (** node id -> distinct sorted successor ids — the
          [Ctree.succs] mirror, recomputed on every structural edit so
          graph walks never traverse a tree.  Stored as the list
          itself: queries share it (immutable, zero alloc), and since
          an edit replaces rather than mutates it, a walker's captured
          copy stays a valid pre-edit snapshot. *)
  mutable succ_a : int array;
      (** node id -> first successor [lsl 2] [lor] the number of
          distinct successors, saturated at 3; [0] for an absent node *)
  mutable succ_b : int array;  (** node id -> second successor *)
  mutable spare : Iarr.t list;  (** arena pool of recycled buffers *)
  mutable next_node : int;
  mutable next_reg : int;
  mutable next_op : int;
  mutable version : int;
  node_stamp : int Itbl.t;
      (** node id -> [version] right after the node's last edit of its
          ops, tree or leaves *)
  mutable shape : int;  (** bumped when an edge or a node comes or goes *)
  mutable ord_shape : int;  (** shape the graph-order walk speaks for *)
  mutable ord_stamp : int;  (** bumped per walk *)
  mutable ord_mark : int array;
      (** node id -> [ord_stamp] of the last walk that reached it *)
  mutable ord_post : int array;  (** postorder index -> node id *)
  mutable ord_pos : int array;  (** node id -> postorder index *)
  mutable ord_n : int;  (** reachable nodes in the last walk *)
  mutable ord_stack : int array;  (** walk stack: node ids *)
  mutable ord_next : int array;  (** walk stack: next successor index *)
  mutable ord_walks : int;  (** total walks over the run *)
  mutable ord_visits : int;  (** total nodes those walks reached *)
  mutable reg_mark : int array;
      (** node id -> [reg_stamp] of the last region pass that found it
          dominated ({!region_op_ids}) *)
  mutable reg_stamp : int;  (** bumped per region pass *)
  gc_work : Iarr.t;
      (** sweep candidates since the last {!gc}: nodes that lost an
          in-edge, were created or were restored *)
  gc_marks : int Itbl.t;
      (** node id -> [gc_epoch] while queued, so a node is queued at
          most once per sweep *)
  mutable gc_epoch : int;
  mutable gc_examined : int;  (** total candidates {!gc} has examined *)
}

(* [Itbl.get], expanded in place.  Under [-opaque] (dune's dev
   profile) a call into [Itbl] is an indirect call through its module
   block, so the accessors the hop path asks millions of times per run
   ({!node}, {!home_int}, {!stored_op}, {!op_of}, {!plain_ids},
   {!counts_packed}, {!succs}, {!node_stamp}) read the array here. *)
let[@inline] get (t : 'a Itbl.t) i =
  let a = t.Itbl.arr in
  if i < Array.length a then Array.unsafe_get a i else t.Itbl.default

let touch p = p.version <- p.version + 1
let version p = p.version

(* [touch], recording that node [id]'s ops, tree or leaves changed. *)
let edited p id =
  touch p;
  Itbl.set p.node_stamp id p.version

(** [node_stamp p id] — the {!version} right after the last edit of
    node [id]'s ops, conditional tree or leaves: [add_op], [remove_op],
    [replace_op], [take_ops], [set_ctree], [redirect] (and the
    relinks of {!delete_node}), {!fresh_node}, {!delete_node} of [id]
    itself and {!restore}, which stamps every node.  A fact computed
    from nodes [a] and [b] at version [v] still holds while neither
    stamp exceeds [v], whatever else was edited.  {!gc} stamps
    nothing: it frees only unreachable nodes, and bumps no version.
    [0] for a node never edited since {!create}. *)
let node_stamp p id = get p.node_stamp id

(** [shape_version p] — changes whenever an edge or a node appears or
    disappears, and only then (a conservative superset: relinking a
    node bumps it even if its successors come out the same).  Caches
    of anything derived from successor lists alone — reachability,
    reverse postorder, node order — key on this instead of
    {!version}. *)
let shape_version p = p.shape

let is_exit p id = id = p.exit_id

(* -- flat-store primitives ---------------------------------------------- *)

(* The packed-counts contribution of one operation, in {!Node}'s field
   layout: a conditional jump, or a plain op that may also be a copy
   or a memory access. *)
let count_delta (op : Operation.t) =
  if Operation.is_cjump op then 1 lsl 45
  else
    1
    + (if Operation.is_copy op then 1 lsl 15 else 0)
    + if Operation.is_mem op then 1 lsl 30 else 0

(** [counts_of_ops ops] — the packed slot-demand counters of a
    standalone op list (plain ops and conditional jumps alike), as
    {!counts_packed} keeps them for a node: what a trial instruction
    that is not (yet) in a program would occupy. *)
let counts_of_ops ops = List.fold_left (fun acc op -> acc + count_delta op) 0 ops

let store_op p (op : Operation.t) = Itbl.set p.op_store op.Operation.id (Some op)

(** [op_of p op_id] — the record of operation [op_id]: {!stored_op}
    without the option, for ids read from a node's {!plain_ids} or
    tree.  Raises [Not_found] for an id that never had a record. *)
let op_of p op_id =
  match get p.op_store op_id with Some op -> op | None -> raise Not_found

(* Buffer arena for the op-id sequences: [seq_for] installs a
   (possibly recycled) buffer in place of the shared sentinel;
   [recycle_seq] sends a freed node's buffer back to the pool. *)
let alloc_seq p =
  match p.spare with
  | b :: rest ->
      p.spare <- rest;
      Iarr.clear b;
      b
  | [] -> Iarr.create ()

let seq_for p id =
  let b = Itbl.get p.ops_seq id in
  if b != Iarr.sentinel then b
  else begin
    let b = alloc_seq p in
    Itbl.set p.ops_seq id b;
    b
  end

let recycle_seq p id =
  let b = Itbl.get p.ops_seq id in
  if b != Iarr.sentinel then begin
    Itbl.set p.ops_seq id Iarr.sentinel;
    Iarr.clear b;
    p.spare <- b :: p.spare
  end

let clear_seq p id =
  let b = Itbl.get p.ops_seq id in
  if b != Iarr.sentinel then Iarr.clear b

(* Queue node [id] for the next {!gc} sweep. *)
let gc_note p id =
  if Itbl.get p.gc_marks id <> p.gc_epoch then begin
    Itbl.set p.gc_marks id p.gc_epoch;
    Iarr.push p.gc_work id
  end

(* Make the edge mirrors cover ids below [need], keeping their
   contents. *)
let edges_grow p need =
  let cap = Array.length p.succ_a in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    p.succ_a <- grow p.succ_a;
    p.succ_b <- grow p.succ_b;
    p.in_leaves <- grow p.in_leaves;
    p.in_xor <- grow p.in_xor
  end

(* Refresh node [n]'s successor mirrors from its tree.  Walks consume
   successors far more often than trees change, so they read the
   mirrors instead of recomputing [Ctree.succs] per query. *)
let rebuild_succs p (n : Node.t) =
  let id = n.Node.id in
  let l = Ctree.succs n.Node.ctree in
  Itbl.set p.succs_tbl id l;
  edges_grow p (id + 1);
  match l with
  | [] -> p.succ_a.(id) <- 0
  | [ a ] -> p.succ_a.(id) <- (a lsl 2) lor 1
  | a :: b :: tl ->
      p.succ_a.(id) <- (a lsl 2) lor (match tl with [] -> 2 | _ -> 3);
      p.succ_b.(id) <- b

(* Add [d] (1 or -1) to the in-leaf count of each leaf of [src]'s
   tree [t], keeping [in_xor] and [joins]; the exit's self-leaf is not
   counted.  [note] queues each target for the collector, since a
   removed leaf may have been its last path from the entry. *)
let rec count_leaves p ~note src d = function
  | Ctree.Branch (_, a, b) ->
      count_leaves p ~note src d a;
      count_leaves p ~note src d b
  | Ctree.Leaf dst ->
      if not (src = dst && is_exit p src) then begin
        edges_grow p (dst + 1);
        let c = p.in_leaves.(dst) in
        p.in_leaves.(dst) <- c + d;
        p.in_xor.(dst) <- p.in_xor.(dst) lxor src;
        if not (is_exit p dst) then
          if d > 0 && c = 1 then p.joins <- p.joins + 1
          else if d < 0 && c = 2 then p.joins <- p.joins - 1;
        if note then gc_note p dst
      end

(* The edge half of an edit: the unlink/mutate/link bracket every
   structural edit follows keeps the mirrors current: [unlink_edges]
   reads the node's tree before the edit, [link_edges] after it. *)
let link_edges p (n : Node.t) =
  p.shape <- p.shape + 1;
  rebuild_succs p n;
  count_leaves p ~note:false n.Node.id 1 n.Node.ctree

let unlink_edges p ~note (n : Node.t) =
  count_leaves p ~note n.Node.id (-1) n.Node.ctree

(* -- construction ------------------------------------------------------ *)

(* Keep the fresh-register supply above every register mentioned by any
   operation ever placed in the program, so renaming never collides
   with caller-chosen registers. *)
let note_op_regs p (op : Operation.t) =
  let bump r = if Reg.to_int r >= p.next_reg then p.next_reg <- Reg.to_int r + 1 in
  (match Operation.def op with Some d -> bump d | None -> ());
  List.iter bump (Operation.uses op)

(* operation ids are normally drawn from [fresh_op_id], but kernel
   builders may place pre-numbered ops: keep the supply above them *)
let note_op_id p (op : Operation.t) =
  if op.Operation.id >= p.next_op then p.next_op <- op.Operation.id + 1

(* Place [op] in node [nid]: its home, its record, the fresh-id
   supplies and the node's counts.  A plain op's caller also appends
   its id to the node's sequence; a jump is already in the tree. *)
let place p nid (op : Operation.t) =
  note_op_regs p op;
  note_op_id p op;
  Itbl.set p.op_home op.Operation.id nid;
  store_op p op;
  Itbl.set p.node_counts nid (Itbl.get p.node_counts nid + count_delta op)

(** [create ~first_reg ()] is an empty program: an entry node falling
    through to the exit sentinel.  [first_reg] reserves register ids
    below it for the caller (parameters, named scalars). *)
let create ?(first_reg = 0) () =
  let nodes = Itbl.create None in
  let exit_id = 0 and entry = 1 in
  Itbl.set nodes exit_id
    (Some (Node.make ~id:exit_id ~ctree:(Ctree.leaf exit_id)));
  Itbl.set nodes entry (Some (Node.make ~id:entry ~ctree:(Ctree.leaf exit_id)));
  let p =
    {
      nodes;
      entry;
      exit_id;
      op_home = Itbl.create (-1);
      op_store = Itbl.create None;
      ops_seq = Itbl.create Iarr.sentinel;
      node_counts = Itbl.create 0;
      in_leaves = Array.make 64 0;
      in_xor = Array.make 64 0;
      joins = 0;
      succs_tbl = Itbl.create [];
      succ_a = Array.make 64 0;
      succ_b = Array.make 64 0;
      spare = [];
      next_node = 2;
      next_reg = first_reg;
      next_op = 0;
      version = 0;
      node_stamp = Itbl.create 0;
      shape = 0;
      ord_shape = -1;
      ord_stamp = 0;
      ord_mark = [||];
      ord_post = [||];
      ord_pos = [||];
      ord_n = 0;
      ord_stack = [||];
      ord_next = [||];
      ord_walks = 0;
      ord_visits = 0;
      reg_mark = [||];
      reg_stamp = 0;
      gc_work = Iarr.create ();
      gc_marks = Itbl.create 0;
      gc_epoch = 1;
      gc_examined = 0;
    }
  in
  let seed id =
    match Itbl.get nodes id with Some n -> link_edges p n | None -> assert false
  in
  seed exit_id;
  seed entry;
  p

let fresh_reg p =
  let r = p.next_reg in
  p.next_reg <- r + 1;
  Reg.of_int r

let fresh_op_id p =
  let i = p.next_op in
  p.next_op <- i + 1;
  i

(** [node p id] is the node with id [id].  Raises [Not_found] on a
    dangling id — a well-formedness violation. *)
let node p id =
  match get p.nodes id with Some n -> n | None -> raise Not_found

let node_opt p id = if id < 0 then None else get p.nodes id

(** [fresh_node p ~ops ~ctree] allocates a new node holding the plain
    ops [ops] and the tree [ctree], and places every op of both. *)
let fresh_node p ~ops ~ctree =
  let id = p.next_node in
  p.next_node <- id + 1;
  let n = Node.make ~id ~ctree in
  Itbl.set p.nodes id (Some n);
  let seq = seq_for p id in
  List.iter
    (fun (op : Operation.t) ->
      place p id op;
      Iarr.push seq op.Operation.id)
    ops;
  Ctree.iter_cjumps (place p id) ctree;
  link_edges p n;
  gc_note p id;
  edited p id;
  n

(** [node_limit p] — one past the largest node id allocated so far:
    ids at or above a limit read earlier belong to nodes created
    since. *)
let node_limit p = p.next_node

(* -- operation placement ----------------------------------------------- *)

(** [home p op_id] is the node currently holding operation [op_id], or
    [None] if the operation has been deleted. *)
let home p op_id =
  let h = get p.op_home op_id in
  if h < 0 then None else Some h

(** [home_int p op_id] — {!home} without the option box: the holding
    node id, or [-1].  The scheduler's candidate scan calls this per
    op per iteration. *)
let home_int p op_id = get p.op_home op_id

(** [stored_op p op_id] is the record of operation [op_id] from the
    flat store.  The returned option is the stored box — no allocation
    per query.  Entries survive removal from the graph: callers gate
    on {!home_int} when placement matters. *)
let stored_op p op_id = get p.op_store op_id

(** [plain_ids p nid] — node [nid]'s plain op ids in instruction order,
    the store itself: read it in place (look ids up with {!op_of}) and
    never write it.  Empty for an absent node. *)
let plain_ids p nid = get p.ops_seq nid

(** [ops p nid] — node [nid]'s plain ops in instruction order, as a
    fresh list. *)
let ops p nid =
  let b = plain_ids p nid in
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (op_of p (Array.unsafe_get b.Iarr.a i) :: acc)
  in
  go (b.Iarr.len - 1) []

(** [fold_ops p nid ~init ~f] folds [f] over node [nid]'s plain ops in
    instruction order without building a list; [f] must not edit the
    node's ops.  The simulator steps with it, so it reads the buffer's
    fields directly. *)
let fold_ops p nid ~init ~f =
  let b = plain_ids p nid in
  let acc = ref init in
  for i = 0 to b.Iarr.len - 1 do
    acc := f !acc (op_of p (Array.unsafe_get b.Iarr.a i))
  done;
  !acc

(** [add_op p nid op] appends [op] to node [nid]'s plain ops. *)
let add_op p nid (op : Operation.t) =
  place p nid op;
  Iarr.push (seq_for p nid) op.id;
  edited p nid

(** [mem_plain_op p nid op_id] — is plain op [op_id] currently in node
    [nid]?  Flat-sequence membership; no op-list scan. *)
let mem_plain_op p nid op_id = Iarr.mem (Itbl.get p.ops_seq nid) op_id

let not_in what op_id nid =
  invalid_arg (Printf.sprintf "Program.%s: op %d not in node %d" what op_id nid)

(** [remove_op p nid op_id] removes plain op [op_id] from node [nid].
    Raises [Invalid_argument] if absent. *)
let remove_op p nid op_id =
  if not (Iarr.remove_first (Itbl.get p.ops_seq nid) op_id) then
    not_in "remove_op" op_id nid;
  Itbl.set p.op_home op_id (-1);
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid - count_delta (op_of p op_id));
  edited p nid

(** [replace_op p nid op] substitutes the plain op with [op.id] in node
    [nid] by [op] (in place, preserving order): used by renaming and
    copy forwarding.  The op's shape may change (redundancy elimination
    turns loads into copies), so the node's counts are recomputed. *)
let replace_op p nid (op : Operation.t) =
  if not (mem_plain_op p nid op.id) then not_in "replace_op" op.id nid;
  let old_delta = count_delta (op_of p op.id) in
  store_op p op;
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid - old_delta + count_delta op);
  edited p nid

(** [set_ctree p nid t] replaces node [nid]'s conditional tree,
    re-indexing the jumps it contains. *)
let set_ctree p nid t =
  let n = node p nid in
  unlink_edges p ~note:true n;
  Ctree.iter_cjump_ids (fun id -> Itbl.set p.op_home id (-1)) n.Node.ctree;
  n.Node.ctree <- t;
  link_edges p n;
  Itbl.set p.node_counts nid (Itbl.get p.node_counts nid land lnot (0x7fff lsl 45));
  Ctree.iter_cjumps (place p nid) t;
  edited p nid

(** [take_ops p nid] empties node [nid]'s plain ops and returns them
    (their location entries survive: the caller re-registers them by
    placing them in a fresh node, as POST's entry push-down does). *)
let take_ops p nid =
  let taken = ops p nid in
  clear_seq p nid;
  Itbl.set p.node_counts nid (Itbl.get p.node_counts nid land (0x7fff lsl 45));
  edited p nid;
  taken

(** [is_empty p nid] holds when node [nid] computes nothing and falls
    through unconditionally: such nodes are deleted by
    {!delete_node}. *)
let is_empty p nid =
  Iarr.is_empty (plain_ids p nid)
  && match (node p nid).Node.ctree with Ctree.Leaf _ -> true | Ctree.Branch _ -> false

(** [copy_op p op] is a fresh-id clone of [op] (same kind, iter,
    lineage, src_pos): used when node splitting duplicates code. *)
let copy_op p (op : Operation.t) = { op with Operation.id = fresh_op_id p }

(** [clone_instruction p ~ops ~ctree] deep-copies an instruction's
    contents with fresh operation ids, remapping the path guards of
    [ops] to the cloned conditional-jump ids.  The result is not yet a
    node; pass it to {!fresh_node}. *)
let clone_instruction p ~ops ~ctree =
  let map = Hashtbl.create 8 in
  let rec clone_tree = function
    | Ctree.Leaf n -> Ctree.Leaf n
    | Ctree.Branch (cj, a, b) ->
        let cj' = copy_op p cj in
        Hashtbl.replace map cj.Operation.id cj'.Operation.id;
        Ctree.Branch (cj', clone_tree a, clone_tree b)
  in
  let ctree' = clone_tree ctree in
  let remap (g : Operation.guard) =
    List.map
      (fun (c, b) ->
        ((match Hashtbl.find_opt map c with Some c' -> c' | None -> c), b))
      g
  in
  let ops' =
    List.map
      (fun (op : Operation.t) ->
        { (copy_op p op) with Operation.guard = remap op.Operation.guard })
      ops
  in
  (ops', ctree')

(* -- flat queries -------------------------------------------------------- *)

(** [counts_packed p nid] — node [nid]'s slot-demand counters packed as
    {!Node} lays them out; [0] for an absent node.  Maintained
    incrementally: machines answer [room_for_packed] / [fits_packed]
    from this without scanning the node's ops. *)
let counts_packed p nid = get p.node_counts nid

(** [iter_op_ids p nid f] — [f] over node [nid]'s plain op ids in
    instruction order, then its conditional jumps' ids in tree
    pre-order, without building a list. *)
let iter_op_ids p nid f =
  Iarr.iter f (plain_ids p nid);
  Ctree.iter_cjump_ids f (node p nid).Node.ctree

(* -- graph queries ------------------------------------------------------ *)

(** [succs p id] is the successor ids of node [id]; the exit sentinel
    has none.  Served from the mirror — no tree traversal and no
    allocation per query.  The shared list is still a snapshot:
    migration walkers capture it before hopping, and a hop replaces
    (never mutates) the mirror entry. *)
let succs p id = if is_exit p id then [] else get p.succs_tbl id

(** [iter_nodes p f] applies [f] to every node, exit sentinel included,
    in ascending id order. *)
let iter_nodes p f =
  for id = 0 to p.next_node - 1 do
    match Itbl.get p.nodes id with Some n -> f n | None -> ()
  done

(** [fold_nodes p f acc] folds over every node in ascending id order. *)
let fold_nodes p f acc =
  let acc = ref acc in
  iter_nodes p (fun n -> acc := f n !acc);
  !acc

(* -- graph order ------------------------------------------------------- *)

(* The [i]-th entry of [l], or [-1] past its end. *)
let rec nth_succ l i =
  match l with [] -> -1 | s :: tl -> if i = 0 then s else nth_succ tl (i - 1)

(* Make the walk's arrays cover ids below [need], keeping their
   contents (a grown [ord_mark] reads [0], below every walk's stamp). *)
let order_grow p need =
  let cap = Array.length p.ord_mark in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    p.ord_mark <- grow p.ord_mark;
    p.ord_post <- grow p.ord_post;
    p.ord_pos <- grow p.ord_pos;
    p.ord_stack <- grow p.ord_stack;
    p.ord_next <- grow p.ord_next
  end

(* Node [id]'s [i]-th successor in {!succs} order, or [-1] past the
   last, from the flat mirror.  The exit sentinel's self-edge is
   listed, but a walk reaches the exit marked, so never follows it. *)
let[@inline] succ_at p id i =
  let w = Array.unsafe_get p.succ_a id in
  let n = w land 3 in
  if i >= n && n < 3 then -1
  else if i = 0 then w lsr 2
  else if i = 1 then Array.unsafe_get p.succ_b id
  else nth_succ (Itbl.get p.succs_tbl id) i

(* One depth-first walk from the entry, successors in {!succs} order:
   the postorder a recursive walk that marks a node, recurses into
   its unmarked successors in turn and then emits it would produce.
   Two int stacks (node, next successor index) stand in for the
   recursion, a fresh stamp marks the reached nodes, and nothing is
   cleared. *)
let walk p =
  order_grow p p.next_node;
  let stamp = p.ord_stamp + 1 in
  p.ord_stamp <- stamp;
  let k = ref 0 and sp = ref 1 in
  p.ord_mark.(p.entry) <- stamp;
  p.ord_stack.(0) <- p.entry;
  p.ord_next.(0) <- 0;
  while !sp > 0 do
    let top = !sp - 1 in
    let id = Array.unsafe_get p.ord_stack top in
    let i = Array.unsafe_get p.ord_next top in
    let s = succ_at p id i in
    if s < 0 then begin
      sp := top;
      Array.unsafe_set p.ord_post !k id;
      Array.unsafe_set p.ord_pos id !k;
      incr k
    end
    else begin
      Array.unsafe_set p.ord_next top (i + 1);
      if Array.unsafe_get p.ord_mark s <> stamp then begin
        Array.unsafe_set p.ord_mark s stamp;
        Array.unsafe_set p.ord_stack !sp s;
        Array.unsafe_set p.ord_next !sp 0;
        incr sp
      end
    end
  done;
  p.ord_n <- !k;
  p.ord_shape <- p.shape;
  p.ord_walks <- p.ord_walks + 1;
  p.ord_visits <- p.ord_visits + !k

(* Walk if the shape moved since the last walk, and tell whether the
   walk reached [id].  Both are inlined into the queries below, which
   run millions of times per scheduling run. *)
let[@inline] fresh p = if p.ord_shape <> p.shape then walk p

let[@inline] marked p id =
  id >= 0
  && id < Array.length p.ord_mark
  && Array.unsafe_get p.ord_mark id = p.ord_stamp

(** [n_nodes p] counts the nodes reachable from the entry (exit
    sentinel included): the length of the reverse postorder. *)
let n_nodes p =
  fresh p;
  p.ord_n

(** [is_live p id] — is [id] reachable from the entry?  The table
    holds dead nodes between an edit and the next collection: inside a
    move, until [Ctx.gc] runs {!gc} after its commit, and in the
    programs unwinding and redundancy removal edit, since those never
    collect.  Traversals that must see only reachable nodes filter on
    this; the walk's stamp answers. *)
let is_live p id =
  fresh p;
  marked p id

(** [rpo_index p id] — node [id]'s position in reverse postorder (the
    entry is [0]), or [max_int] when [id] is not reachable.  O(1) once
    the current shape has been walked. *)
let rpo_index p id =
  fresh p;
  if marked p id then p.ord_n - 1 - Array.unsafe_get p.ord_pos id else max_int

(** [rpo_at p k] — the node at reverse-postorder position [k], for [0
    <= k < n_nodes p]. *)
let rpo_at p k =
  fresh p;
  if k < 0 || k >= p.ord_n then invalid_arg "Program.rpo_at";
  Array.unsafe_get p.ord_post (p.ord_n - 1 - k)

(* Append [v] to [acc], writing its buffer in place unless it must
   grow. *)
let[@inline] push acc v =
  let len = acc.Iarr.len in
  if len < Array.length acc.Iarr.a then begin
    Array.unsafe_set acc.Iarr.a len v;
    acc.Iarr.len <- len + 1
  end
  else Iarr.push acc v

(* The ids of a tree's conditional jumps, pre-order. *)
let rec push_cjump_ids acc = function
  | Ctree.Leaf _ -> ()
  | Ctree.Branch (cj, a, b) ->
      push acc cj.Operation.id;
      push_cjump_ids acc a;
      push_cjump_ids acc b

(** [parent p id] — the node whose tree has the one leaf pointing at
    [id], or [-1] when [id] has no leaf or several pointing at it (the
    entry, the exit, a join, or an id no node points at).  Leaves of
    nodes left to die count until {!gc} collects them.  On an out-tree
    whose table holds only live nodes, as after every committed move,
    it is the node above [id] on the one path from the entry.
    Allocation-free, two array reads. *)
let parent p id =
  if id >= 0 && id < Array.length p.in_leaves && Array.unsafe_get p.in_leaves id = 1
  then Array.unsafe_get p.in_xor id
  else -1

(** [is_out_tree p] — does no leaf point at the entry, and no more than
    one at any node but the exit, counting the leaves of every node in
    the table?  Then the reachable graph has no cycle but the exit's
    self-loop: a cycle through the entry gives it a leaf, and any other
    reachable cycle is entered from off the cycle at a node that then
    has two.  O(1). *)
let is_out_tree p = p.joins = 0 && p.in_leaves.(p.entry) = 0

(** [region_op_ids p n acc] — node entry's region pass: fills [acc]
    with the op ids of every node below [n] in the out-tree [p], [n]
    excluded, per node in reverse postorder its plain ops in
    instruction order then its tree's jumps pre-order
    ({!iter_op_ids}).

    One pass over the RPO suffix after [n]: a node is below [n]
    exactly when its parent is [n] or below [n], and a parent comes
    before its children in RPO, so the pass, marking [n] and then each
    node whose parent it marked, has decided the parent when it reaches
    the node.  In an out-tree the nodes below [n] are the nodes it
    dominates.  It reads the walk's arrays and the leaf and op tables
    in place, so no node or op costs a call, only [acc]'s growth does
    (DESIGN.md §33).  On a graph that is not an out-tree the answer is
    meaningless: node entry checks {!is_out_tree} first. *)
let region_op_ids p n acc =
  acc.Iarr.len <- 0;
  fresh p;
  if marked p n then begin
    if Array.length p.reg_mark < p.next_node then begin
      let m = Array.make (max p.next_node (2 * Array.length p.reg_mark)) 0 in
      Array.blit p.reg_mark 0 m 0 (Array.length p.reg_mark);
      p.reg_mark <- m
    end;
    let stamp = p.reg_stamp + 1 in
    p.reg_stamp <- stamp;
    let mark = p.reg_mark and last = p.ord_n - 1 in
    mark.(n) <- stamp;
    for k = last - p.ord_pos.(n) + 1 to last do
      let id = Array.unsafe_get p.ord_post (last - k) in
      let q = parent p id in
      if q >= 0 && Array.unsafe_get mark q = stamp then begin
        Array.unsafe_set mark id stamp;
        if not (is_exit p id) then begin
          let ops = get p.ops_seq id in
          for i = 0 to ops.Iarr.len - 1 do
            push acc (Array.unsafe_get ops.Iarr.a i)
          done;
          match get p.nodes id with
          | Some nd -> push_cjump_ids acc nd.Node.ctree
          | None -> ()
        end
      end
    done
  end

(** [order_walks p] / [order_visits p] — total graph-order walks on
    [p], and the nodes they reached. *)
let order_walks p = p.ord_walks

let order_visits p = p.ord_visits

(** [reachable p] is the set of node ids reachable from the entry
    (treat the returned table as read-only). *)
let reachable p =
  ignore (n_nodes p);
  let seen = Hashtbl.create 64 in
  for id = 0 to Array.length p.ord_mark - 1 do
    if marked p id then Hashtbl.replace seen id ()
  done;
  seen

(** [rpo p] is a reverse-postorder listing of the reachable nodes from
    the entry — the top-down scheduling order — as a fresh list built
    from the graph-order walk, so callers that edit the graph iterate a
    snapshot. *)
let rpo p =
  let order = ref [] in
  for k = 0 to n_nodes p - 1 do
    order := Array.unsafe_get p.ord_post k :: !order
  done;
  !order

(** [all_ops p] lists every operation of every reachable node: per
    node, its plain ops then its tree's jumps. *)
let all_ops p =
  List.concat_map
    (fun id ->
      if is_exit p id then [] else ops p id @ Ctree.cjumps (node p id).Node.ctree)
    (rpo p)

(* -- structural edits --------------------------------------------------- *)

(* Point node [from_]'s leaves at [old_] to [new_]; [note] queues its
   old successors for the collector. *)
let relink p ~note ~from_ ~old_ ~new_ =
  let n = node p from_ in
  unlink_edges p ~note n;
  n.Node.ctree <- Ctree.replace_leaf n.Node.ctree ~old_ ~new_;
  link_edges p n;
  edited p from_

(** [redirect p ~from_ ~old_ ~new_] rewrites node [from_]'s tree leaves
    pointing at [old_] to point at [new_].  The jump records (and so
    the counts) are unchanged — only edges move. *)
let redirect p ~from_ ~old_ ~new_ = relink p ~note:true ~from_ ~old_ ~new_

(* Drop node [id] from the table and its mirrors; its flat buffers go
   back to the arena pool.  Its edges must be unlinked already; its
   in-leaf count falls as the nodes still pointing at it are
   collected. *)
let free_node p id =
  Itbl.set p.succs_tbl id [];
  p.succ_a.(id) <- 0;
  recycle_seq p id;
  Itbl.set p.node_counts id 0;
  Itbl.set p.nodes id None

(** [delete_node p id] removes the empty node [id], pointing its one
    parent (if it has one) at its unique successor.  Raises
    [Invalid_argument] if the node is not empty, is the entry or the
    exit sentinel, or has two or more leaves pointing at it.

    No other node's reachability changes, so the edit queues no
    collector work.  The collector's invariant — every dead node is
    queued or reachable from a queued node — survives: paths through
    [id] now skip it, and if [id] itself was queued its successor is
    queued in its place. *)
let delete_node p id =
  if id = p.entry || is_exit p id then
    invalid_arg "Program.delete_node: entry/exit";
  if not (is_empty p id) then invalid_arg "Program.delete_node: node not empty";
  if p.in_leaves.(id) > 1 then invalid_arg "Program.delete_node: a join";
  let n = node p id in
  let succ = match succs p id with [ s ] -> s | _ -> assert false in
  let q = parent p id in
  if q >= 0 then relink p ~note:false ~from_:q ~old_:id ~new_:succ;
  unlink_edges p ~note:false n;
  if Itbl.get p.gc_marks id = p.gc_epoch then gc_note p succ;
  free_node p id;
  p.shape <- p.shape + 1;
  edited p id

(** [gc p] drops nodes unreachable from the entry and de-indexes their
    operations.  Returns the number of nodes collected.  Removing
    unreachable nodes changes no reachable-set-derived result, so
    neither the version nor the shape version moves and analysis
    caches survive.  The
    dead nodes' flat buffers go back to the arena pool.

    Only the worklist is examined.  After a sweep every node in the
    table is live, so a node dead now was created or restored since
    (and queued then), or had a path from the entry that has since
    lost an edge: the head of the last lost edge was queued and still
    reaches the dead node along edges that exist.  Collecting a node
    unlinks it, which queues its successors, so the sweep cascades
    down those edges and finds every dead node. *)
let gc p =
  let work = p.gc_work in
  let k = ref 0 in
  if not (Iarr.is_empty work) then begin
    ignore (n_nodes p);
    let i = ref 0 in
    while !i < Iarr.length work do
      let id = Iarr.unsafe_get work !i in
      incr i;
      match Itbl.get p.nodes id with
      | Some n when not (marked p id) ->
          let dehome oid =
            if Itbl.get p.op_home oid = id then Itbl.set p.op_home oid (-1)
          in
          iter_op_ids p id dehome;
          unlink_edges p ~note:true n;
          free_node p id;
          incr k
      | Some _ | None -> ()
    done;
    p.gc_examined <- p.gc_examined + Iarr.length work;
    Iarr.clear work;
    p.gc_epoch <- p.gc_epoch + 1
  end;
  !k

(** [gc_candidates p] — total worklist entries {!gc} has examined on
    [p]. *)
let gc_candidates p = p.gc_examined

(** [snapshot p] captures the full graph state; {!restore} brings [p]
    back to it in place.  Used by the Unifiable-ops baseline, whose
    semantics require rolling back migrations that fail to reach the
    node being scheduled (this cost is part of why the paper judges
    that technique impractical — the benchmark measures it). *)
type snapshot = {
  s_nodes : (int * int array * Ctree.t) list;  (** id, plain op ids, tree *)
  s_homes : int array;  (** op id -> home *)
  s_store : Operation.t option array;  (** op id -> record *)
  s_next_node : int;
  s_next_reg : int;
  s_next_op : int;
}

let snapshot p =
  {
    s_nodes =
      fold_nodes p
        (fun (n : Node.t) acc ->
          (n.Node.id, Iarr.to_array (plain_ids p n.Node.id), n.Node.ctree) :: acc)
        [];
    s_homes = Array.init p.next_op (Itbl.get p.op_home);
    s_store = Array.init p.next_op (Itbl.get p.op_store);
    s_next_node = p.next_node;
    s_next_reg = p.next_reg;
    s_next_op = p.next_op;
  }

let restore p s =
  let limit = max p.next_node s.s_next_node in
  Itbl.reset p.nodes;
  Array.fill p.in_leaves 0 (Array.length p.in_leaves) 0;
  Array.fill p.in_xor 0 (Array.length p.in_xor) 0;
  p.joins <- 0;
  Itbl.reset p.succs_tbl;
  Itbl.reset p.ops_seq;
  Itbl.reset p.node_counts;
  Array.fill p.succ_a 0 (Array.length p.succ_a) 0;
  p.spare <- [];
  Itbl.reset p.op_home;
  Array.iteri (Itbl.set p.op_home) s.s_homes;
  Itbl.reset p.op_store;
  Array.iteri (Itbl.set p.op_store) s.s_store;
  (* the restored graph may hold nodes that were dead when it was
     captured: every node is a sweep candidate again *)
  Iarr.clear p.gc_work;
  p.gc_epoch <- p.gc_epoch + 1;
  List.iter
    (fun (id, plain, ctree) ->
      Itbl.set p.nodes id (Some (Node.make ~id ~ctree));
      let seq = seq_for p id in
      Array.iter (Iarr.push seq) plain;
      Itbl.set p.node_counts id
        (Array.fold_left
           (fun c oid -> c + count_delta (op_of p oid))
           (Ctree.n_cjumps ctree lsl 45)
           plain))
    s.s_nodes;
  iter_nodes p (fun n ->
      link_edges p n;
      gc_note p n.Node.id);
  p.next_node <- s.s_next_node;
  p.next_reg <- s.s_next_reg;
  p.next_op <- s.s_next_op;
  touch p;
  (* every node may have changed, and those created since the snapshot
     are gone *)
  for id = 0 to limit - 1 do
    Itbl.set p.node_stamp id p.version
  done

(* Node [id]'s successors as the walk reads them. *)
let flat_succs p id =
  let rec go i = match succ_at p id i with -1 -> [] | s -> s :: go (i + 1) in
  go 0

(** [check_derived_state p] — do the in-leaf counts, the join count
    and the flat stores agree with a from-scratch recomputation?
    [None] when coherent; [Some reason] otherwise.  Test-suite oracle
    for the incremental maintenance in this module. *)
let check_derived_state p =
  let size = max (Array.length p.in_leaves) p.next_node in
  let leaves = Array.make size 0 and owners = Array.make size 0 in
  iter_nodes p (fun (n : Node.t) ->
      let src = n.Node.id in
      let rec go = function
        | Ctree.Branch (_, a, b) ->
            go a;
            go b
        | Ctree.Leaf dst ->
            if not (src = dst && is_exit p src) then begin
              leaves.(dst) <- leaves.(dst) + 1;
              owners.(dst) <- owners.(dst) lxor src
            end
      in
      go n.Node.ctree);
  let stored a id = if id < Array.length a then a.(id) else 0 in
  let rec leaf_problem id joins =
    if id >= size then
      if joins <> p.joins then
        Some (Printf.sprintf "join count %d, recounted %d" p.joins joins)
      else None
    else if stored p.in_leaves id <> leaves.(id) then
      Some
        (Printf.sprintf "in-leaf count %d at n%d, recounted %d"
           (stored p.in_leaves id) id leaves.(id))
    else if stored p.in_xor id <> owners.(id) then
      Some (Printf.sprintf "in-leaf owners mismatch at n%d" id)
    else
      leaf_problem (id + 1)
        (if leaves.(id) >= 2 && not (is_exit p id) then joins + 1 else joins)
  in
  let succ_problem =
    fold_nodes p
      (fun n acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let id = n.Node.id in
            if Itbl.get p.succs_tbl id <> Ctree.succs n.Node.ctree then
              Some (Printf.sprintf "succs_tbl mismatch at n%d" id)
            else if flat_succs p id <> Ctree.succs n.Node.ctree then
              Some (Printf.sprintf "flat successor mismatch at n%d" id)
            else None)
      None
  in
  (* an absent node has no flat successors left behind *)
  let stale_succs () =
    let rec go id =
      if id >= Array.length p.succ_a then None
      else if Itbl.get p.nodes id = None && p.succ_a.(id) <> 0 then
        Some (Printf.sprintf "flat successors left at absent n%d" id)
      else go (id + 1)
    in
    go 0
  in
  (* Per node: every op it lists is placed there and has a record, a
     jump's record is the tree's own, and the packed counts match a
     fresh count. *)
  let node_problem (n : Node.t) =
    let id = n.Node.id in
    let plain = Iarr.to_list (plain_ids p id) and jumps = Ctree.cjumps n.Node.ctree in
    let misplaced oid =
      if Itbl.get p.op_home oid <> id then
        Some (Printf.sprintf "op_home mismatch for op %d at n%d" oid id)
      else if Itbl.get p.op_store oid = None then
        Some (Printf.sprintf "op_store missing op %d" oid)
      else None
    in
    let foreign (cj : Operation.t) =
      match Itbl.get p.op_store cj.Operation.id with
      | Some r when r == cj -> None
      | Some _ | None ->
          Some
            (Printf.sprintf "op_store record for jump %d at n%d is not the tree's"
               cj.Operation.id id)
    in
    match
      List.find_map misplaced
        (plain @ List.map (fun (cj : Operation.t) -> cj.Operation.id) jumps)
    with
    | Some _ as r -> r
    | None -> (
        match List.find_map foreign jumps with
        | Some _ as r -> r
        | None ->
            if
              Itbl.get p.node_counts id
              <> counts_of_ops (List.map (op_of p) plain @ jumps)
            then Some (Printf.sprintf "node_counts mismatch at n%d" id)
            else None)
  in
  let flat_problem () =
    fold_nodes p
      (fun n acc -> match acc with Some _ -> acc | None -> node_problem n)
      None
  in
  match leaf_problem 0 0 with
  | Some _ as r -> r
  | None -> (
      match succ_problem with
      | Some _ as r -> r
      | None -> (
          match stale_succs () with Some _ as r -> r | None -> flat_problem ()))

(* -- rendering ------------------------------------------------------------ *)

(* The schedule text, written straight into a buffer.  Its bytes are
   those of the Format printers it replaced, which the tests keep as
   the oracle: vertical boxes printed from column 0 by [asprintf]'s
   formatter, one line per node header, operation and conditional-tree
   row, a tree's arms five columns right of its box.  A box that would
   open past that formatter's max indent of 68 first breaks the line it
   is on: a tree's boxes sit at multiples of 5, so a subtree that would
   open at column 70 starts the next line at its parent's column 65 and
   leaves the arm's label with its trailing space.  Box columns thus
   never exceed 65. *)

let max_indent = 68

let newline buf indent =
  Buffer.add_char buf '\n';
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

(* A tree whose box sits at column [col]. *)
let rec write_ctree buf col = function
  | Ctree.Leaf n ->
      Buffer.add_string buf "-> n";
      Operation.add_int buf n
  | Ctree.Branch (cj, a, b) ->
      Buffer.add_char buf '[';
      Operation.write buf cj;
      Buffer.add_char buf ']';
      write_arm buf col "  T: " a;
      write_arm buf col "  F: " b

and write_arm buf col label t =
  newline buf col;
  Buffer.add_string buf label;
  match t with
  | Ctree.Branch _ when col + 5 > max_indent ->
      newline buf col;
      write_ctree buf col t
  | Ctree.Leaf _ | Ctree.Branch _ -> write_ctree buf (col + 5) t

let write_node buf p id =
  Buffer.add_char buf 'n';
  Operation.add_int buf id;
  if is_exit p id then Buffer.add_string buf ": (exit)"
  else begin
    let n = node p id in
    Buffer.add_char buf ':';
    newline buf 0;
    let b = plain_ids p id in
    for i = 0 to Iarr.length b - 1 do
      if i > 0 then newline buf 0;
      Buffer.add_string buf "  ";
      Operation.write buf (op_of p (Iarr.unsafe_get b i))
    done;
    newline buf 0;
    write_ctree buf 0 n.Node.ctree
  end

(** [write buf p] appends the schedule text of [p] to [buf]: the entry
    and exit, then every reachable node in reverse postorder with its
    operations and conditional tree.  No final newline. *)
let write buf p =
  Buffer.add_string buf "entry = n";
  Operation.add_int buf p.entry;
  Buffer.add_string buf ", exit = n";
  Operation.add_int buf p.exit_id;
  let len = n_nodes p in
  for k = 0 to len - 1 do
    newline buf 0;
    write_node buf p (Array.unsafe_get p.ord_post (len - 1 - k))
  done

(** [to_string p] — the text {!write} appends. *)
let to_string p =
  let buf = Buffer.create 4096 in
  write buf p;
  Buffer.contents buf

(** [pp] prints {!to_string} as one string, laid out as from column
    0, where every caller prints it. *)
let pp ppf p = Format.pp_print_string ppf (to_string p)
