(** Opcodes: binary, unary and relational operators.

    Evaluation lives here (shared by the simulator and the front end's
    constant folder).  All arithmetic is single-cycle, as the paper
    assumes; multi-cycle latencies are a [Po91] extension that the
    machine model rejects explicitly. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmin
  | Fmax

type unop =
  | Neg
  | Not
  | Fneg
  | Fabs
  | Fsqrt
  | Itof
  | Ftoi

type relop =
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

(** [commutative op] holds for operators where argument order is
    irrelevant; the front end's CSE canonicalises on it. *)
let commutative = function
  | Add | Mul | Min | Max | And | Or | Xor | Fadd | Fmul | Fmin | Fmax -> true
  | Sub | Div | Rem | Shl | Shr | Fsub | Fdiv -> false

(** [eval_binop op a b] evaluates [op]; [None] signals a type error or a
    division by zero, which the interpreter reports as a fault. *)
let eval_binop op a b =
  let open Value in
  match op, a, b with
  | Add, I x, I y -> Some (I (x + y))
  | Sub, I x, I y -> Some (I (x - y))
  | Mul, I x, I y -> Some (I (x * y))
  | Div, I _, I 0 -> None
  | Div, I x, I y -> Some (I (x / y))
  | Rem, I _, I 0 -> None
  | Rem, I x, I y -> Some (I (x mod y))
  | Min, I x, I y -> Some (I (min x y))
  | Max, I x, I y -> Some (I (max x y))
  | And, I x, I y -> Some (I (x land y))
  | Or, I x, I y -> Some (I (x lor y))
  | Xor, I x, I y -> Some (I (x lxor y))
  | Shl, I x, I y -> Some (I (x lsl y))
  | Shr, I x, I y -> Some (I (x asr y))
  | Fadd, F x, F y -> Some (F (x +. y))
  | Fsub, F x, F y -> Some (F (x -. y))
  | Fmul, F x, F y -> Some (F (x *. y))
  | Fdiv, F x, F y -> Some (F (x /. y))
  | Fmin, F x, F y -> Some (F (Float.min x y))
  | Fmax, F x, F y -> Some (F (Float.max x y))
  | ( Add | Sub | Mul | Div | Rem | Min | Max | And | Or | Xor | Shl | Shr
    | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax ),
    _, _ ->
      None

(** [eval_unop op a] evaluates [op]; [None] signals a type error. *)
let eval_unop op a =
  let open Value in
  match op, a with
  | Neg, I x -> Some (I (-x))
  | Not, I x -> Some (I (lnot x))
  | Fneg, F x -> Some (F (-.x))
  | Fabs, F x -> Some (F (Float.abs x))
  | Fsqrt, F x -> Some (F (Float.sqrt x))
  | Itof, I x -> Some (F (float_of_int x))
  | Ftoi, F x -> Some (I (int_of_float x))
  | (Neg | Not | Fneg | Fabs | Fsqrt | Itof | Ftoi), _ -> None

(** [eval_relop op a b] compares two values of like type; mixed
    int/float comparisons widen to float. *)
let eval_relop op a b =
  let open Value in
  let c =
    match a, b with
    | I x, I y -> Int.compare x y
    | _ -> Float.compare (to_float a) (to_float b)
  in
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fmin -> "fmin"
  | Fmax -> "fmax"

let unop_name = function
  | Neg -> "neg"
  | Not -> "not"
  | Fneg -> "fneg"
  | Fabs -> "fabs"
  | Fsqrt -> "fsqrt"
  | Itof -> "itof"
  | Ftoi -> "ftoi"

let relop_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let pp_binop ppf op = Format.pp_print_string ppf (binop_name op)
let pp_unop ppf op = Format.pp_print_string ppf (unop_name op)
let pp_relop ppf op = Format.pp_print_string ppf (relop_name op)
