(** Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).

    GRiP and Unifiable-ops scheduling both operate on "the subgraph
    dominated by n"; this module provides the dominance test and the
    listing of that subgraph.

    Node ids are dense, so the tree, the RPO index and the tree's
    intervals live in flat {!Itbl}s, and {!recompute} rebuilds a tree
    in place (resetting the tables, no fresh allocation): callers
    recompute dominators whenever the program version moves on, and
    the per-call [Hashtbl] churn used to be a measurable slice of the
    scheduler's allocation profile.  Predecessors are folded straight
    off the program's flat table — the full [Program.preds] map is
    never materialized.

    Each recomputation also numbers the tree: node [x] gets the
    preorder interval [\[pre x, fin x)] that holds exactly the nodes
    it dominates, so {!dominates} is two comparisons instead of a walk
    up the idom chain (DESIGN.md §22). *)

open Vliw_ir

type t = {
  idom : int Itbl.t;
      (** immediate dominator; entry maps to itself; [-1] = unreachable *)
  order : int Itbl.t;  (** RPO index, for intersection *)
  pre : int Itbl.t;  (** dominator-tree preorder number; [-1] = unreachable *)
  fin : int Itbl.t;
      (** one past the last preorder number of the node's subtree *)
  mutable entry : int;
}

(* Number the tree whose idoms [t] holds, a parent handing each child
   a block of its own numbers.  RPO lists a dominator before every
   node it dominates, so sizes fold bottom-up over the list reversed
   (kept in [fin]), and then, top-down, a node takes the next free
   number of its idom's block — [fin] turning into that cursor, which
   ends one past the node's last descendant. *)
let number t rpo =
  let rec sizes = function
    | [] -> ()
    | id :: tl ->
        sizes tl;
        let d = Itbl.get t.idom id in
        if d >= 0 then begin
          Itbl.set t.fin id (Itbl.get t.fin id + 1);
          if id <> t.entry then Itbl.set t.fin d (Itbl.get t.fin d + Itbl.get t.fin id)
        end
  in
  sizes rpo;
  List.iter
    (fun id ->
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
      end)
    rpo

(** [recompute t p] rebuilds the dominator tree of the reachable part
    of [p] into [t], reusing its tables.  Any older view of [t] is
    overwritten — callers must not hold a [t] across program
    mutations (the version-keyed cache in [Ctx] enforces this for the
    scheduling pipeline). *)
let recompute t (p : Program.t) =
  let rpo = Program.rpo p in
  Itbl.reset t.idom;
  Itbl.reset t.order;
  Itbl.reset t.pre;
  Itbl.reset t.fin;
  t.entry <- p.Program.entry;
  List.iteri (fun i id -> Itbl.set t.order id i) rpo;
  Itbl.set t.idom t.entry t.entry;
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let oa = Itbl.get t.order a and ob = Itbl.get t.order b in
        if oa > ob then go (Itbl.get t.idom a) b else go a (Itbl.get t.idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> t.entry then begin
          (* fold over the processed live predecessors, newest-first —
             the order the list-based table always presented *)
          let new_idom =
            Program.fold_preds p id ~init:(-1) ~f:(fun acc q ->
                if Program.is_live p q && Itbl.get t.idom q >= 0 then
                  if acc < 0 then q else intersect acc q
                else acc)
          in
          if new_idom >= 0 && Itbl.get t.idom id <> new_idom then begin
            Itbl.set t.idom id new_idom;
            changed := true
          end
        end)
      rpo
  done;
  number t rpo

(** [compute p] builds the dominator tree of the reachable part of
    [p]. *)
let compute (p : Program.t) =
  let t =
    {
      idom = Itbl.create (-1);
      order = Itbl.create max_int;
      pre = Itbl.create (-1);
      fin = Itbl.create 0;
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
