(** Program-graph nodes (VLIW instructions).

    A node is an id and a conditional tree [ctree] selecting the
    successor; the tree holds the instruction's conditional jumps.  Its
    unconditionally executed operations live in {!Program}'s flat
    stores (an op-id sequence per node, a record per op id), which are
    their only record.  All mutation goes through {!Program}, which
    also maintains the operation-location index, the packed slot-demand
    counts, the successor mirrors, the in-leaf counts and the graph
    version counter. *)

type t = { id : int; mutable ctree : Ctree.t }

let make ~id ~ctree = { id; ctree }

(* Packed counts: a node's four slot-demand counters (plain ops, the
   plain ops that are register copies, plain loads and stores, and the
   tree's conditional jumps) packed into one immediate int, 15 bits per
   field, so {!Program} can keep a per-node slot-demand table that
   machines query without scanning the node or allocating a record.
   15 bits bounds a node at 32767 ops per category — far beyond any
   unwound Livermore body. *)

let packed_plain x = x land 0x7fff
let packed_copies x = (x lsr 15) land 0x7fff
let packed_mems x = (x lsr 30) land 0x7fff
let packed_cjumps x = (x lsr 45) land 0x7fff
