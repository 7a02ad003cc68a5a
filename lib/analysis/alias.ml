(** Memory disambiguation for word-addressed array accesses.

    An address is normalised to (array, base register, total constant
    offset) — folding a [Regoff] base into the offset — so that two
    accesses based on the same register (typically the induction
    variable after unwinding) are compared exactly by their constants.
    Accesses to different arrays never alias (arrays are distinct
    objects).  Addresses with incomparable bases are conservatively
    assumed to alias — which is what makes the gather/scatter Livermore
    kernels (LL13, LL14) expose little ILP, as in the paper. *)

open Vliw_ir

type norm =
  | Based of Reg.t * int  (** register + constant *)
  | Absolute of int  (** fully constant address *)
  | Unknown

(** [normalize a] — [a] as a [norm] (the dependence graph's view). *)
let normalize (a : Operation.addr) =
  match a.Operation.base with
  | Operand.Reg r -> Based (r, a.Operation.offset)
  | Operand.Regoff (r, c) -> Based (r, a.Operation.offset + c)
  | Operand.Imm (Value.I n) -> Absolute (a.Operation.offset + n)
  | Operand.Imm (Value.F _) -> Unknown

(* The tests below read the [norm] off in place rather than build it:
   its constant part is [const_part], and its base is the
   register of a [Reg]/[Regoff] base ("based"), an integer immediate
   ("absolute") or a float immediate (unknown).  The alias tests run per
   memory op of the landing node in every legality check, so they
   allocate nothing. *)

(* The address's constant: the offset plus a [Regoff]'s constant or an
   integer immediate base ([0] for a float immediate, which no test
   below reads). *)
let const_part (a : Operation.addr) =
  match a.Operation.base with
  | Operand.Reg _ | Operand.Imm (Value.F _) -> a.Operation.offset
  | Operand.Regoff (_, c) | Operand.Imm (Value.I c) -> a.Operation.offset + c

(** [may_alias a b] — can the two addresses overlap? *)
let may_alias (a : Operation.addr) (b : Operation.addr) =
  String.equal a.Operation.sym b.Operation.sym
  &&
  match a.Operation.base, b.Operation.base with
  | (Operand.Reg r | Operand.Regoff (r, _)), (Operand.Reg s | Operand.Regoff (s, _))
    when Reg.equal r s ->
      const_part a = const_part b
  | Operand.Imm (Value.I _), Operand.Imm (Value.I _) ->
      const_part a = const_part b
  | (Operand.Reg _ | Operand.Regoff _ | Operand.Imm _), _ -> true

(** [must_alias a b] — do the two addresses certainly coincide?  Used
    by redundant-load elimination and store-to-load forwarding. *)
let must_alias (a : Operation.addr) (b : Operation.addr) =
  String.equal a.Operation.sym b.Operation.sym
  &&
  match a.Operation.base, b.Operation.base with
  | (Operand.Reg r | Operand.Regoff (r, _)), (Operand.Reg s | Operand.Regoff (s, _))
    ->
      Reg.equal r s && const_part a = const_part b
  | Operand.Imm (Value.I _), Operand.Imm (Value.I _) ->
      const_part a = const_part b
  | (Operand.Reg _ | Operand.Regoff _ | Operand.Imm _), _ -> false

(** [mem_conflict op1 op2] — ordering constraint between two memory
    operations: at least one writes and the addresses may alias.
    Matched on the two shapes, with no [mem_access] options. *)
let mem_conflict (op1 : Operation.t) (op2 : Operation.t) =
  match op1.Operation.kind, op2.Operation.kind with
  | Operation.Store (a1, _), (Operation.Load (_, a2) | Operation.Store (a2, _))
  | Operation.Load (_, a1), Operation.Store (a2, _) ->
      may_alias a1 a2
  | _ -> false
