(** Program-graph nodes (VLIW instructions).

    A node holds a set of unconditionally executed operations [ops]
    (kept in insertion order for deterministic scheduling) and a
    conditional tree [ctree] selecting the successor.  All mutation goes
    through {!Program}, which maintains the operation-location index,
    the flat per-node stores (op sequences, packed slot-demand counts,
    successor and predecessor mirrors) and the graph version
    counter. *)

type counts = {
  plain : int;  (** plain (non-jump) operations *)
  copies : int;  (** plain operations that are register copies *)
  mems : int;  (** plain loads and stores *)
  cjumps : int;  (** conditional jumps of the tree *)
}

type t = {
  id : int;
  mutable ops : Operation.t list;
  mutable ctree : Ctree.t;
}

let make ~id ~ops ~ctree = { id; ops; ctree }

(** [all_ops n] is every operation in [n]: the plain ops then the
    conditional jumps of the tree. *)
let all_ops n = n.ops @ Ctree.cjumps n.ctree

(** [op_count n] is the issue-slot demand of [n] before any machine
    policy (copies may be discounted by the machine model). *)
let op_count n = List.length n.ops + Ctree.n_cjumps n.ctree

(* Packed counts: the four category counters of {!counts} packed into
   one immediate int (15 bits per field), so {!Program} can maintain a
   per-node slot-demand table that machines query without scanning the
   op lists or allocating a record.  15 bits bounds a node at 32767 ops
   per category — far beyond any unwound Livermore body. *)

let pack_counts (c : counts) =
  c.plain lor (c.copies lsl 15) lor (c.mems lsl 30) lor (c.cjumps lsl 45)

let packed_plain x = x land 0x7fff
let packed_copies x = (x lsr 15) land 0x7fff
let packed_mems x = (x lsr 30) land 0x7fff
let packed_cjumps x = (x lsr 45) land 0x7fff

let unpack_counts x =
  {
    plain = packed_plain x;
    copies = packed_copies x;
    mems = packed_mems x;
    cjumps = packed_cjumps x;
  }

(** [defs n] is the set of registers written by [n]'s plain ops. *)
let defs n =
  List.fold_left
    (fun acc op ->
      match Operation.def op with
      | Some d -> Reg.Set.add d acc
      | None -> acc)
    Reg.Set.empty n.ops

(** [is_empty n] holds when [n] computes nothing and falls through
    unconditionally: such nodes are deleted by {!Program.delete_node}. *)
let is_empty n =
  match n.ops, n.ctree with [], Ctree.Leaf _ -> true | _ -> false
