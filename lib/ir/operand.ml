(** Operation sources.

    An operand is a register, an immediate, or a register plus a small
    constant ([Regoff]).  [Regoff] models the address-generation folding a
    realistic front end performs: after loop unwinding, iteration [j]'s
    uses of the induction variable become [Regoff (k, j*step)] instead of
    a chain of per-iteration increments, which is what lets the alias
    analysis disambiguate array accesses across unwound iterations. *)

type t =
  | Reg of Reg.t
  | Imm of Value.t
  | Regoff of Reg.t * int

let equal a b =
  match a, b with
  | Reg r, Reg s -> Reg.equal r s
  | Imm v, Imm w -> Value.equal v w
  | Regoff (r, c), Regoff (s, d) -> Reg.equal r s && c = d
  | (Reg _ | Imm _ | Regoff _), _ -> false

(** [regs o] lists the registers read by [o] (zero or one). *)
let regs = function
  | Reg r -> [ r ]
  | Regoff (r, _) -> [ r ]
  | Imm _ -> []

(** [uses_reg o r] holds when evaluating [o] reads register [r]. *)
let uses_reg o r =
  match o with
  | Reg s | Regoff (s, _) -> Reg.equal r s
  | Imm _ -> false

(** [forward o ~copy_dst ~copy_src] rewrites [o] to bypass the copy
    [copy_dst <- copy_src]: a read of [copy_dst] becomes a read of
    [copy_src] with offsets composed.  Returns [None] when the
    composition is impossible (offset over a float immediate). *)
let forward o ~copy_dst ~copy_src =
  match o with
  | Reg d when Reg.equal d copy_dst -> Some copy_src
  | Regoff (d, c) when Reg.equal d copy_dst -> (
      match copy_src with
      | Reg s -> Some (Regoff (s, c))
      | Regoff (s, k) -> Some (Regoff (s, k + c))
      | Imm (Value.I n) -> Some (Imm (Value.I (n + c)))
      | Imm (Value.F _) -> None)
  | Reg _ | Regoff _ | Imm _ -> Some o

(** [shift_reg o ~reg ~by] adds [by] to any read of [reg], turning
    [Reg reg] into [Regoff (reg, by)].  Used by the loop unwinder to
    express iteration [j]'s view of the induction variable. *)
let shift_reg o ~reg ~by =
  if by = 0 then o
  else
    match o with
    | Reg s when Reg.equal s reg -> Regoff (reg, by)
    | Regoff (s, c) when Reg.equal s reg -> Regoff (reg, c + by)
    | Reg _ | Regoff _ | Imm _ -> o

let to_string = function
  | Reg r -> Reg.to_string r
  | Imm v -> Value.to_string v
  | Regoff (r, c) ->
      if c >= 0 then Reg.to_string r ^ "+" ^ Int.to_string c
      else Reg.to_string r ^ "-" ^ Int.to_string (-c)

let pp ppf o = Format.pp_print_string ppf (to_string o)
