(** Virtual registers.

    The VLIW program-graph model of Percolation Scheduling assumes an
    unbounded supply of virtual registers; renaming draws fresh ones from
    {!Program.fresh_reg}.  A register is identified by a non-negative
    integer. *)

type t = int

(** [of_int i] views [i] as a register id.  [i] must be non-negative. *)
let of_int i =
  assert (i >= 0);
  i

(** [to_int r] is the integer id of [r]. *)
let to_int r = r

(* Primitives rather than aliases of [Int.compare] and [Int.equal]: a
   primitive is expanded at every call site, while under [-opaque]
   (dune's dev profile) an alias is an indirect call through this
   module's block. *)
external compare : t -> t -> int = "%compare"
external equal : t -> t -> bool = "%equal"

(** [to_string r] is [r<n>]. *)
let to_string r = "r" ^ Int.to_string r

let pp ppf r = Format.pp_print_string ppf (to_string r)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
