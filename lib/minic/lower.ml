(** Lowering: typed [minic] kernels to {!Grip.Kernel.t}.

    Register convention (shared with the hand-written workloads):
    [r0] loop variable, [r1] the runtime trip bound [n], [r2..] the
    declared scalars in order, temporaries above those.  Affine indexes
    ([k + c]) fold into the load/store addressing mode; gathers compute
    the index into a temporary used as the address base. *)

open Vliw_ir

exception Error = Typecheck.Error

let reg = Reg.of_int
let k_reg = reg 0
let n_reg = reg 1

type state = {
  env : Typecheck.env;
  scalar_regs : (string * Reg.t) list;
  mutable next_tmp : int;
  mutable code : Operation.kind list;  (** reversed *)
}

let emit st kind = st.code <- kind :: st.code

let fresh st =
  let r = reg st.next_tmp in
  st.next_tmp <- st.next_tmp + 1;
  r

let scalar_reg st name = List.assoc name st.scalar_regs

let value_of_lit = function
  | Ast.Lint n -> Value.I n
  | Ast.Lfloat f -> Value.F f

(* Lower an index expression to an address for array [sym]. *)
let rec lower_index st sym i =
  let rec affine = function
    | Ast.Ivar -> Some (Operand.Reg k_reg, 0)
    | Ast.Iconst c -> Some (Operand.Imm (Value.I 0), c)
    | Ast.Iplus (i, c) -> (
        match affine i with
        | Some (base, off) -> Some (base, off + c)
        | None -> None)
    | Ast.Igather _ -> None
  in
  match affine i with
  | Some (base, offset) -> { Operation.sym; base; offset }
  | None ->
      (* gather: compute the index into a temporary *)
      let rec gather = function
        | Ast.Igather (a, inner) ->
            let inner_addr = lower_index st a inner in
            let t = fresh st in
            emit st (Operation.Load (t, inner_addr));
            (Operand.Reg t, 0)
        | Ast.Iplus (i, c) ->
            let base, off = gather i in
            (base, off + c)
        | Ast.Ivar -> (Operand.Reg k_reg, 0)
        | Ast.Iconst c -> (Operand.Imm (Value.I 0), c)
      in
      let base, offset = gather i in
      { Operation.sym; base; offset }

let binop_of ty c =
  match ty, c with
  | Ast.Tfloat, '+' -> Opcode.Fadd
  | Ast.Tfloat, '-' -> Opcode.Fsub
  | Ast.Tfloat, '*' -> Opcode.Fmul
  | Ast.Tfloat, '/' -> Opcode.Fdiv
  | Ast.Tint, '+' -> Opcode.Add
  | Ast.Tint, '-' -> Opcode.Sub
  | Ast.Tint, '*' -> Opcode.Mul
  | Ast.Tint, '/' -> Opcode.Div
  | _, c -> Typecheck.error "unknown operator %C" c

(* Lower [e] to an operand, emitting code as needed. *)
let rec lower_expr st e =
  match e with
  | Ast.Lit l -> Operand.Imm (value_of_lit l)
  | Ast.Scalar s -> Operand.Reg (scalar_reg st s)
  | Ast.Elem (a, i) ->
      let addr = lower_index st a i in
      let t = fresh st in
      emit st (Operation.Load (t, addr));
      Operand.Reg t
  | Ast.Neg e ->
      let ty = Typecheck.type_of st.env e in
      let v = lower_expr st e in
      let t = fresh st in
      emit st
        (Operation.Unop ((if ty = Ast.Tfloat then Opcode.Fneg else Opcode.Neg), t, v));
      Operand.Reg t
  | Ast.Sqrt e ->
      let v = lower_expr st e in
      let t = fresh st in
      emit st (Operation.Unop (Opcode.Fsqrt, t, v));
      Operand.Reg t
  | Ast.Abs e ->
      let v = lower_expr st e in
      let t = fresh st in
      emit st (Operation.Unop (Opcode.Fabs, t, v));
      Operand.Reg t
  | Ast.Bin (_, c, a, b) ->
      let ty = Typecheck.type_of st.env e in
      let va = lower_expr st a in
      let vb = lower_expr st b in
      let t = fresh st in
      emit st (Operation.Binop (binop_of ty c, t, va, vb));
      Operand.Reg t

(* Lower [e] targeting register [dst] (avoids a trailing copy when the
   root is an operator — the accumulator idiom q = q + ...). *)
let lower_into st dst e =
  match e with
  | Ast.Bin (_, c, a, b) ->
      let ty = Typecheck.type_of st.env e in
      let va = lower_expr st a in
      let vb = lower_expr st b in
      emit st (Operation.Binop (binop_of ty c, dst, va, vb))
  | _ ->
      let v = lower_expr st e in
      emit st (Operation.Copy (dst, v))

let lower_stmt st = function
  | Ast.Assign_elem (a, i, e) ->
      let v = lower_expr st e in
      let addr = lower_index st a i in
      emit st (Operation.Store (addr, v))
  | Ast.Assign_scalar (v, e) -> lower_into st (scalar_reg st v) e

(** [lower ast env] — the {!Grip.Kernel.t} of a checked kernel. *)
let lower (ast : Ast.kernel) (env : Typecheck.env) =
  let scalar_regs =
    List.mapi (fun i (name, _) -> (name, reg (2 + i))) env.Typecheck.scalars
  in
  let st =
    {
      env;
      scalar_regs;
      next_tmp = max 10 (2 + List.length scalar_regs);
      code = [];
    }
  in
  (* preamble: loop variable then scalars *)
  let loop = ast.Ast.loop in
  let pre =
    Operation.Copy (k_reg, Operand.Imm (Value.I loop.Ast.from_))
    :: List.map
         (fun (name, info) ->
           Operation.Copy
             ( scalar_reg st name,
               Operand.Imm (value_of_lit info.Typecheck.init) ))
         env.Typecheck.scalars
  in
  List.iter (lower_stmt st) loop.Ast.body;
  let body = List.rev st.code in
  let bound =
    match loop.Ast.bound with
    | `N -> Operand.Reg n_reg
    | `Const c -> Operand.Imm (Value.I c)
  in
  let observable =
    List.filter_map
      (fun (name, info) ->
        if info.Typecheck.observable then Some (scalar_reg st name) else None)
      env.Typecheck.scalars
  in
  Grip.Kernel.make ~name:ast.Ast.name
    ~description:("compiled from minic source: " ^ ast.Ast.name)
    ~pre ~body ~ivar:k_reg ~bound ~observable
    ~arrays:(List.map (fun (name, (size, _)) -> (name, size)) env.Typecheck.arrays)
    ~params:(match loop.Ast.bound with `N -> [ (n_reg, Value.I 16) ] | `Const _ -> [])
    ()

(** [data env] — simulator array contents consistent with the declared
    element types: int arrays get small safe indices, float arrays get
    smooth nonzero values.  [data env sym] looks the type up once, so
    a caller filling a whole array applies it to [sym] first. *)
let data (env : Typecheck.env) sym =
  match List.assoc_opt sym env.Typecheck.arrays with
  | Some (_, Ast.Tint) -> fun i -> Value.I (i * 5 mod 32)
  | Some (_, Ast.Tfloat) | None ->
      fun i -> Value.F (1.0 +. (0.01 *. float_of_int (i mod 89)))
