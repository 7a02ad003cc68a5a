(** Why a [move-op] legality check rejects a move.

    Lives below {!Ctx} (which memoizes verdicts, one slot per op,
    checked against the stamps of the move's two nodes) and {!Move_op}
    (which produces them); [Move_op.failure]
    re-exports the constructors, so matches against [Move_op.No_room]
    etc. keep compiling. *)

open Vliw_ir

type failure =
  | Not_adjacent  (** [to_] is not a predecessor of [from_] *)
  | Op_not_found
  | Guarded  (** still under a conditional of [from_]'s tree *)
  | True_dependence of Operation.t
  | Mem_dependence of Operation.t
  | Write_live of Reg.t
  | No_room

let pp_failure ppf = function
  | Not_adjacent -> Format.pp_print_string ppf "nodes not adjacent"
  | Op_not_found -> Format.pp_print_string ppf "operation not in from-node"
  | Guarded ->
      Format.pp_print_string ppf "operation guarded by from-node conditional"
  | True_dependence op ->
      Format.fprintf ppf "true dependence on %a" Operation.pp op
  | Mem_dependence op ->
      Format.fprintf ppf "memory dependence on %a" Operation.pp op
  | Write_live r -> Format.fprintf ppf "write-live conflict on %a" Reg.pp r
  | No_room -> Format.pp_print_string ppf "no free resources in to-node"
