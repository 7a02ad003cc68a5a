(** Operation-ordering heuristics (paper section 3.4).

    A rank is a total order on operations: "choose-op" picks the
    minimum.  The paper's heuristic prefers

    + earlier iterations over later ones (mandatory for Perfect
      Pipelining: "all operations from iteration i have higher priority
      than all operations from iteration j > i");
    + longer data-dependence chains rooted at the operation;
    + more dependents in the data-dependence graph;

    with source position as the deterministic tie-break.  The heuristic
    is "completely abstracted away from the actual transformations in
    accordance with the hierarchical nature of Percolation Scheduling"
    — any [t] plugs into the schedulers, and the examples demonstrate a
    custom one. *)

open Vliw_ir

(** [compare] orders best first and must be a total preorder (ties
    allowed: choose-op keeps the candidate that comes first in the
    worklist).  The scheduler sorts each node's candidates with it once,
    at node entry, and picks from that order for the rest of the node,
    so [compare] may read only what a move leaves unchanged on an
    operation — its id, [iter], [lineage], [src_pos] and the constructor
    of its [kind] — and never its guard, destination or operands, which
    moves rewrite (DESIGN.md §20). *)
type t = {
  name : string;
  compare : Operation.t -> Operation.t -> int;  (** best first *)
}

let by_iteration (a : Operation.t) (b : Operation.t) =
  Int.compare a.Operation.iter b.Operation.iter

let tie_break (a : Operation.t) (b : Operation.t) =
  match Int.compare a.Operation.src_pos b.Operation.src_pos with
  | 0 -> Int.compare a.Operation.id b.Operation.id
  | c -> c

(** The section 3.4 heuristic.  [ddg] and [body] describe the original
    loop body; heights and dependent counts are keyed by lineage
    (= body position), so they survive renaming and unwinding. *)
let section_3_4 ~(ddg : Vliw_analysis.Ddg.t) =
  let heights = Vliw_analysis.Ddg.flow_height ddg in
  let deps = Vliw_analysis.Ddg.dependents ddg in
  (* separate accessors, not a pair-returning [info]: the comparator
     runs O(k log k) times per scheduled node (the scheduler's sort of
     its k candidates) and in POST's sorts, where a tuple per call is
     measurable allocation *)
  let height_of (op : Operation.t) =
    let pos = op.Operation.lineage in
    if pos >= 0 && pos < Array.length heights then heights.(pos) else 0
  in
  let deps_of (op : Operation.t) =
    let pos = op.Operation.lineage in
    if pos >= 0 && pos < Array.length deps then deps.(pos) else 0
  in
  {
    name = "section-3.4";
    compare =
      (fun a b ->
        match by_iteration a b with
        | 0 ->
            let ha = height_of a and hb = height_of b in
            if ha <> hb then Int.compare hb ha
            else
              let da = deps_of a and db = deps_of b in
              if da <> db then Int.compare db da else tie_break a b
        | c -> c);
  }

(** Alphabetical / source order within an iteration: the rank used in
    the paper's worked examples (Figures 8 and 11, "scheduling priority
    is alphabetical order"). *)
let source_order =
  {
    name = "source-order";
    compare =
      (fun a b ->
        match by_iteration a b with 0 -> tie_break a b | c -> c);
  }

(** [custom ~name f] wraps a user comparison, still enforcing the
    iteration-major order Perfect Pipelining requires. *)
let custom ~name f =
  {
    name;
    compare =
      (fun a b ->
        match by_iteration a b with
        | 0 -> ( match f a b with 0 -> tie_break a b | c -> c)
        | c -> c);
  }

(** [sort t ops] lists [ops] best-first. *)
let sort t ops = List.stable_sort t.compare ops
