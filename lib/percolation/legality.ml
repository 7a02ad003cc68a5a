(** Why a hop is rejected: the [move-op] legality check, [move-cj], and
    the migration driver's summary of a failed hop.

    Lives below {!Ctx} (whose replay slot keeps how an attempt that
    moved nothing ended) and the transformations (which produce these
    verdicts); [Move_op.failure], [Move_cj.failure] and
    [Migrate.failure] re-export these types, so matches against
    [Move_op.No_room], [Move_cj.True_dependence] or
    [Migrate.Suspended] keep compiling. *)

open Vliw_ir

type failure =
  | Not_adjacent  (** [to_] is not [from_]'s parent *)
  | Op_not_found
  | Guarded  (** still under a conditional of [from_]'s tree *)
  | True_dependence of Operation.t
  | Mem_dependence of Operation.t
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
  | No_room -> Format.pp_print_string ppf "no free resources in to-node"

(** Why [move-cj] rejects a move. *)
module Cj = struct
  type failure =
    | Not_adjacent
    | Not_root_cjump
    | True_dependence of Operation.t
    | No_room

  let pp_failure ppf = function
    | Not_adjacent -> Format.pp_print_string ppf "nodes not adjacent"
    | Not_root_cjump ->
        Format.pp_print_string ppf "operation is not the root conditional"
    | True_dependence op ->
        Format.fprintf ppf "true dependence on %a" Operation.pp op
    | No_room -> Format.pp_print_string ppf "no free branch resources"
end

(** Why the last attempted hop of a migration failed. *)
type hop =
  | Suspended  (** vetoed by the migration's [allow_hop] hook *)
  | Op of failure
  | Cj of Cj.failure

let pp_hop ppf = function
  | Suspended -> Format.pp_print_string ppf "gap prevention"
  | Op f -> pp_failure ppf f
  | Cj f -> Cj.pp_failure ppf f
