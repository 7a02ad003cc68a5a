(** Per-node def/use summaries.

    VLIW instruction semantics read all operands before storing any
    result, so a node's [use] set contains every register read by any
    of its operations — including registers the same node also writes
    (the anti-dependence-within-instruction case the paper calls out as
    legal). *)

open Vliw_ir

let add_uses acc op =
  List.fold_left (fun acc r -> Reg.Set.add r acc) acc (Operation.uses op)

(** [use p id] is the set of registers read by node [id] (plain ops
    and conditional jumps alike). *)
let use p id =
  Ctree.fold_cjumps add_uses
    (Program.fold_ops p id ~init:Reg.Set.empty ~f:add_uses)
    (Program.node p id).Node.ctree

(** [def p id] is the set of registers written by node [id] on {e
    every} path: only unguarded operations kill a register for liveness
    purposes, since a guarded definition commits on some paths only. *)
let def p id =
  Program.fold_ops p id ~init:Reg.Set.empty ~f:(fun acc (op : Operation.t) ->
      match Operation.def op with
      | Some d when op.Operation.guard = [] -> Reg.Set.add d acc
      | Some _ | None -> acc)
