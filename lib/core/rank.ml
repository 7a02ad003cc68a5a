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

(** [key op] places [op] in the order: the smallest key ranks first.
    A key packs, most significant first, the op's [iter], the rank's
    own priority, its [src_pos] and its id into one non-negative int,
    so the op id is the final tie-break and two distinct ops never tie
    (DESIGN.md §33).  Build keys with the constructors below: the
    scheduler reads the op id back out of a key's low bits.  The
    scheduler ranks each node's candidates once, at node entry, and
    picks from that order for the rest of the node, so a key may read
    only what a move leaves unchanged on an operation — its id,
    [iter], [lineage], [src_pos] and the constructor of its [kind] —
    and never its guard, destination or operands, which moves rewrite
    (DESIGN.md §20).  A field outside its range raises a [Scheduling]
    [Grip_error] rather than wrap into a neighbouring field. *)
type t = {
  name : string;
  key : Operation.t -> int;  (** smallest first *)
}

(* Field widths: 12 + 12 + 12 + 26 = 62 bits, every non-negative int. *)
let id_bits = 26
let field_bits = 12

(** [k land id_mask] is the op id that key [k] carries. *)
let id_mask = (1 lsl id_bits) - 1

let out_of_range field v =
  Grip_robust.Grip_error.(
    raise_ Scheduling
      (Malformed [ Printf.sprintf "rank key: %s %d out of range" field v ]))

(* [v + bias] as a [bits]-wide field.  A negative sum has its top bit
   set, so one shift tests both ends of the range. *)
let[@inline] field name v ~bias ~bits =
  let x = v + bias in
  if x lsr bits <> 0 then out_of_range name v;
  x

(* The key of [op] under priority [prio]: [iter] and [src_pos] are
   biased by one, since [Operation.no_iter] and straight-line code's
   [src_pos] are [-1]. *)
let pack ~prio (op : Operation.t) =
  let iter = field "iter" op.Operation.iter ~bias:1 ~bits:field_bits in
  let prio = field "priority" prio ~bias:0 ~bits:field_bits in
  let pos = field "src_pos" op.Operation.src_pos ~bias:1 ~bits:field_bits in
  let id = field "id" op.Operation.id ~bias:0 ~bits:id_bits in
  (((((iter lsl field_bits) lor prio) lsl field_bits) lor pos) lsl id_bits) lor id

(** The section 3.4 heuristic.  [ddg] describes the original loop body;
    heights and dependent counts are keyed by lineage (= body
    position), so they survive renaming and unwinding.  An op's
    priority numbers its (height, dependents) class best first: more
    height, then more dependents.  A lineage outside the body reads
    height 0 and no dependents, behind every body position (whose
    height is at least 1). *)
let section_3_4 ~(ddg : Vliw_analysis.Ddg.t) =
  let heights = Vliw_analysis.Ddg.flow_height ddg in
  let deps = Vliw_analysis.Ddg.dependents ddg in
  let classes =
    List.init (Array.length heights) (fun pos -> (heights.(pos), deps.(pos)))
    |> List.sort_uniq (fun (h, d) (h', d') ->
           match Int.compare h' h with 0 -> Int.compare d' d | c -> c)
    |> Array.of_list
  in
  let class_of hd =
    let rec find i = if classes.(i) = hd then i else find (i + 1) in
    find 0
  in
  let prio =
    Array.init (Array.length heights) (fun pos -> class_of (heights.(pos), deps.(pos)))
  in
  let outside = Array.length classes in
  {
    name = "section-3.4";
    key =
      (fun op ->
        let pos = op.Operation.lineage in
        pack op
          ~prio:(if pos >= 0 && pos < Array.length prio then prio.(pos) else outside));
  }

(** Alphabetical / source order within an iteration: the rank used in
    the paper's worked examples (Figures 8 and 11, "scheduling priority
    is alphabetical order"). *)
let source_order = { name = "source-order"; key = pack ~prio:0 }

(** [custom ~name weight] ranks by a user weight in [0, 4095], the
    smallest first, inside the iteration-major order Perfect Pipelining
    requires and ahead of the source-position tie-break. *)
let custom ~name weight = { name; key = (fun op -> pack ~prio:(weight op) op) }

(** [sort t ops] lists [ops] best-first. *)
let sort t ops =
  List.map (fun op -> (t.key op, op)) ops
  |> List.sort (fun ((a : int), _) (b, _) -> Int.compare a b)
  |> List.map snd
