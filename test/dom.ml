(* Dominators by the Cooper–Harvey–Kennedy iterative algorithm, over
   the reachable part of a program, computed afresh on each call.  Node
   entry's region pass ([Program.region_op_ids]) finds "the
   subgraph dominated by n" as the subtree below n, without a
   dominator tree; this is the oracle it, and the Unifiable-ops set
   drawn from it, are checked against (test_grip.ml, "suffix
   enumeration == full-RPO filter"). *)

open Vliw_ir

type t = {
  entry : int;
  idom : int array;
      (** node id -> immediate dominator; the entry maps to itself;
          [-1] for a node that is unreachable or newer than the tree *)
}

(* [compute p] — the dominator tree of [p]'s reachable nodes, with
   their predecessors taken from the successor lists. *)
let compute (p : Program.t) =
  let order = Program.rpo p in
  let index = Array.make (Program.node_limit p) (-1) in
  List.iteri (fun i id -> index.(id) <- i) order;
  let preds = Array.make (Program.node_limit p) [] in
  List.iter
    (fun q ->
      List.iter
        (fun s -> if s <> q then preds.(s) <- q :: preds.(s))
        (Program.succs p q))
    order;
  let entry = p.Program.entry in
  let idom = Array.make (Program.node_limit p) (-1) in
  idom.(entry) <- entry;
  (* the nearest common dominator of [a] and [b], climbing whichever
     is later in RPO *)
  let rec intersect a b =
    if a = b then a
    else if index.(a) > index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> entry then
          match List.filter (fun q -> idom.(q) >= 0) preds.(id) with
          | [] -> ()
          | q :: rest ->
              let d = List.fold_left intersect q rest in
              if idom.(id) <> d then begin
                idom.(id) <- d;
                changed := true
              end)
      order
  done;
  { entry; idom }

(* [dominates t a b] holds when every path from the entry to [b] passes
   through [a] (reflexive); false when either node is unreachable. *)
let dominates t a b =
  let known x = x < Array.length t.idom && t.idom.(x) >= 0 in
  let rec up b = b = a || (b <> t.entry && up t.idom.(b)) in
  known a && known b && up b

(* [dominated t p n] — the reachable nodes [n] dominates, [n]
   included, in RPO. *)
let dominated t (p : Program.t) n = List.filter (dominates t n) (Program.rpo p)
