(** Abstract syntax of [minic] kernels. *)

type ty = Tint | Tfloat

type literal = Lint of int | Lfloat of float

(** Index expressions (always integer-typed): the loop variable plus a
    constant folds into an addressing mode; anything else — in
    particular a gather through an index array — is computed into a
    temporary. *)
type index =
  | Ivar  (** the loop variable *)
  | Iconst of int
  | Iplus of index * int
  | Igather of string * index  (** [a[index]] used as an index *)

type expr =
  | Lit of literal
  | Scalar of string  (** param or var *)
  | Elem of string * index  (** array element *)
  | Neg of expr
  | Sqrt of expr
  | Abs of expr
  | Bin of Vliw_ir.Opcode.binop option * char * expr * expr
      (** operator char '+','-','*','/' resolved during typing *)

type stmt =
  | Assign_elem of string * index * expr  (** a[i] = e *)
  | Assign_scalar of string * expr  (** v = e *)

type decl =
  | Param of string * ty * literal
  | Var of string * ty * literal  (** observable accumulator *)
  | Array_decl of string * int * ty

type loop = {
  var : string;
  from_ : int;
  bound : [ `N | `Const of int ];  (** trip count: runtime [n] or a constant *)
  body : stmt list;
}

type kernel = { name : string; decls : decl list; loop : loop }
