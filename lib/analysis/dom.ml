(** Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).

    GRiP and Unifiable-ops scheduling both operate on "the subgraph
    dominated by n"; this module provides the dominance test and the
    listing of that subgraph.

    Node ids are dense, so the tree and its intervals live in flat
    {!Itbl}s, and {!recompute} rebuilds a tree in place: callers
    recompute dominators whenever the program version moves on, and
    the per-call [Hashtbl] churn used to be a measurable slice of the
    scheduler's allocation profile.  Node order comes from the
    program's shared graph-order walk ({!Program.rpo_at},
    {!Program.rpo_index}), and a recomputation clears only the entries
    it wrote last time, not the tables' whole capacity.  Predecessors
    are folded straight off the program's flat table — the full
    [Program.preds] map is never materialized.

    Each recomputation also numbers the tree: node [x] gets the
    preorder interval [\[pre x, fin x)] that holds exactly the nodes
    it dominates, so {!dominates} is two comparisons instead of a walk
    up the idom chain (DESIGN.md §22). *)

open Vliw_ir

type t = {
  idom : int Itbl.t;
      (** immediate dominator; entry maps to itself; [-1] = unreachable *)
  pre : int Itbl.t;  (** dominator-tree preorder number; [-1] = unreachable *)
  fin : int Itbl.t;
      (** one past the last preorder number of the node's subtree *)
  numbered : Iarr.t;
      (** the nodes the tables hold entries for: the reachable nodes of
          the last recomputation *)
  mutable entry : int;
}

(* Number the tree whose idoms [t] holds, a parent handing each child a
   block of its own numbers.  RPO ([t.numbered]) lists a dominator
   before every node it dominates, so sizes fold bottom-up in
   postorder (kept in [fin]), and then, top-down in RPO, a node takes
   the next free number of its idom's block — [fin] turning into that
   cursor, which ends one past the node's last descendant. *)
let number t =
  let n = Iarr.length t.numbered in
  for k = n - 1 downto 0 do
    let id = Iarr.unsafe_get t.numbered k in
    let d = Itbl.get t.idom id in
    if d >= 0 then begin
      Itbl.set t.fin id (Itbl.get t.fin id + 1);
      if id <> t.entry then Itbl.set t.fin d (Itbl.get t.fin d + Itbl.get t.fin id)
    end
  done;
  for k = 0 to n - 1 do
    let id = Iarr.unsafe_get t.numbered k in
    let d = Itbl.get t.idom id in
    if d >= 0 then begin
      let size = Itbl.get t.fin id in
      let pre =
        if id = t.entry then 0
        else begin
          let cursor = Itbl.get t.fin d in
          Itbl.set t.fin d (cursor + size);
          cursor
        end
      in
      Itbl.set t.pre id pre;
      Itbl.set t.fin id (pre + 1)
    end
  done

(* The nearest common dominator of [a] and [b], climbing whichever is
   later in RPO. *)
let rec intersect t p a b =
  if a = b then a
  else if Program.rpo_index p a > Program.rpo_index p b then
    intersect t p (Itbl.get t.idom a) b
  else intersect t p a (Itbl.get t.idom b)

(** [recompute t p] rebuilds the dominator tree of the reachable part
    of [p] into [t], reusing its tables.  Any older view of [t] is
    overwritten — callers must not hold a [t] across program
    mutations (the version-keyed cache in [Ctx] enforces this for the
    scheduling pipeline). *)
let recompute t (p : Program.t) =
  Iarr.iter
    (fun id ->
      Itbl.set t.idom id (-1);
      Itbl.set t.pre id (-1);
      Itbl.set t.fin id 0)
    t.numbered;
  Iarr.clear t.numbered;
  let n = Program.n_nodes p in
  for k = 0 to n - 1 do
    Iarr.push t.numbered (Program.rpo_at p k)
  done;
  t.entry <- p.Program.entry;
  Itbl.set t.idom t.entry t.entry;
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      let id = Iarr.unsafe_get t.numbered k in
      if id <> t.entry then begin
        (* fold over the processed live predecessors, newest-first —
           the order the list-based table always presented *)
        let new_idom =
          Program.fold_preds p id ~init:(-1) ~f:(fun acc q ->
              if Program.is_live p q && Itbl.get t.idom q >= 0 then
                if acc < 0 then q else intersect t p acc q
              else acc)
        in
        if new_idom >= 0 && Itbl.get t.idom id <> new_idom then begin
          Itbl.set t.idom id new_idom;
          changed := true
        end
      end
    done
  done;
  number t

(** [compute p] builds the dominator tree of the reachable part of
    [p]. *)
let compute (p : Program.t) =
  let t =
    {
      idom = Itbl.create (-1);
      pre = Itbl.create (-1);
      fin = Itbl.create 0;
      numbered = Iarr.create ();
      entry = p.Program.entry;
    }
  in
  recompute t p;
  t

(** [dominates t a b] holds when every path from the entry to [b]
    passes through [a] (reflexive: [dominates t a a]); false when
    either node is unreachable.  O(1): [b]'s preorder number falls in
    [a]'s interval. *)
let dominates t a b =
  let pa = Itbl.get t.pre a and pb = Itbl.get t.pre b in
  pa >= 0 && pb >= pa && pb < Itbl.get t.fin a

(** [dominated t p n] lists the node ids dominated by [n] (including
    [n] itself), restricted to reachable nodes. *)
let dominated t (p : Program.t) n =
  List.filter (fun id -> dominates t n id) (Program.rpo p)
