(** Operations — the "conventional operations" of the VLIW model.

    An operation is a three-address statement: an arithmetic op, a copy,
    a memory access, or a conditional jump.  Conditional jumps carry no
    target here; targets live in the instruction's conditional tree
    ({!Ctree}).

    Besides its [kind], an operation carries scheduling metadata:
    - [iter]: the unwound-iteration index it belongs to ([no_iter] for
      straight-line code), used by the ranking heuristic and by the
      Gapless-move test;
    - [lineage]: the id of the original-body operation it descends from
      (stable across renaming, unwinding and node splitting), used for
      convergence signatures and for figure rendering;
    - [src_pos]: the position of its lineage in the original body, the
      final ranking tie-break. *)

(** A word-addressed array access: address = value of [base] + [offset]
    within array [sym].  The front end folds additive index constants
    into [offset], which gives the alias test exact answers on affine
    accesses. *)
type addr = { sym : string; base : Operand.t; offset : int }

(** IBM-VLIW path guard: the sequence of (conditional-jump id, taken?)
    decisions, root first, leading to the operation's position in its
    instruction's conditional tree.  The operation's operands are
    fetched and its result computed unconditionally, but the result is
    {e stored} only when the selected path satisfies the guard — this
    is the "IBM VLIW" store discipline of section 2, and it is what
    makes moving operations (stores included) above conditional jumps
    semantics-preserving without write-live renaming. *)
type guard = (int * bool) list

type kind =
  | Binop of Opcode.binop * Reg.t * Operand.t * Operand.t
  | Unop of Opcode.unop * Reg.t * Operand.t
  | Copy of Reg.t * Operand.t
  | Load of Reg.t * addr
  | Store of addr * Operand.t
  | Cjump of Opcode.relop * Operand.t * Operand.t

type t = {
  id : int;
  kind : kind;
  iter : int;
  lineage : int;
  src_pos : int;
  guard : guard;
}

(** Iteration tag of operations that belong to no unwound iteration. *)
let no_iter = -1

(** [make ~id ?iter ?lineage ?src_pos ?guard kind] builds an operation.
    [lineage] defaults to [id] (the operation is its own ancestor);
    [guard] defaults to the empty (root, always-commit) guard. *)
let make ~id ?(iter = no_iter) ?lineage ?(src_pos = 0) ?(guard = []) kind =
  let lineage = Option.value lineage ~default:id in
  { id; kind; iter; lineage; src_pos; guard }

(* Does [g] hold conditional [c] with the other outcome than [b]? *)
let rec decides_against (c : int) (b : bool) = function
  | [] -> false
  | (c2, b2) :: tl -> (c = c2 && b <> b2) || decides_against c b tl

(** [guard_compatible g1 g2] — can both guards be satisfied by one
    selected path?  (No decision contradicts the other guard.)
    Top-level recursion: the legality check asks this per op of the
    landing node, so it builds no closure. *)
let rec guard_compatible (g1 : guard) (g2 : guard) =
  match g1 with
  | [] -> true
  | (c1, b1) :: tl ->
      (not (decides_against c1 b1 g2)) && guard_compatible tl g2

(** [guard_satisfied g ~decisions] — is [g] a prefix-consistent subset
    of the selected path's [decisions]?  Each conditional appears at
    most once per tree, so set containment suffices. *)
let guard_satisfied (g : guard) ~decisions =
  List.for_all
    (fun (c, b) ->
      List.exists (fun (c', b') -> c = c' && b = b') decisions)
    g

(** [strip_guard_head op ~cj ~taken] removes the leading guard entry
    for conditional [cj] (used when node splitting specialises an
    instruction to one arm of its root conditional). *)
let strip_guard_head op ~cj ~taken =
  match op.guard with
  | (c, b) :: rest when c = cj && b = taken -> Some { op with guard = rest }
  | (c, _) :: _ when c = cj -> None (* on the other arm *)
  | _ -> Some op (* unguarded by cj: executes on both arms *)

let equal_id a b = Int.equal a.id b.id

(** [def op] is the register [op] writes, if any.  Stores and
    conditional jumps define nothing. *)
let def op =
  match op.kind with
  | Binop (_, d, _, _) | Unop (_, d, _) | Copy (d, _) | Load (d, _) -> Some d
  | Store _ | Cjump _ -> None

(** [operands op] lists the source operands of [op], address bases
    included. *)
let operands op =
  match op.kind with
  | Binop (_, _, a, b) -> [ a; b ]
  | Unop (_, _, a) | Copy (_, a) -> [ a ]
  | Load (_, { base; _ }) -> [ base ]
  | Store ({ base; _ }, v) -> [ base; v ]
  | Cjump (_, a, b) -> [ a; b ]

(** [uses op] lists the registers [op] reads (with duplicates removed). *)
let uses op =
  List.concat_map Operand.regs (operands op) |> List.sort_uniq Reg.compare

(** [map_operands f op] rewrites every source operand of [op] with [f],
    leaving the destination untouched. *)
let map_operands f op =
  let kind =
    match op.kind with
    | Binop (o, d, a, b) -> Binop (o, d, f a, f b)
    | Unop (o, d, a) -> Unop (o, d, f a)
    | Copy (d, a) -> Copy (d, f a)
    | Load (d, a) -> Load (d, { a with base = f a.base })
    | Store (a, v) -> Store ({ a with base = f a.base }, f v)
    | Cjump (r, a, b) -> Cjump (r, f a, f b)
  in
  { op with kind }

(** [with_def op r] retargets the destination of [op] to [r].  Raises
    [Invalid_argument] on stores and conditional jumps. *)
let with_def op r =
  let kind =
    match op.kind with
    | Binop (o, _, a, b) -> Binop (o, r, a, b)
    | Unop (o, _, a) -> Unop (o, r, a)
    | Copy (_, a) -> Copy (r, a)
    | Load (_, a) -> Load (r, a)
    | Store _ | Cjump _ -> invalid_arg "Operation.with_def: no destination"
  in
  { op with kind }

let is_cjump op = match op.kind with Cjump _ -> true | _ -> false
let is_copy op = match op.kind with Copy _ -> true | _ -> false
let is_load op = match op.kind with Load _ -> true | _ -> false
let is_store op = match op.kind with Store _ -> true | _ -> false

(** [mem_access op] is the address accessed by a load or store. *)
let mem_access op =
  match op.kind with
  | Load (_, a) -> Some a
  | Store (a, _) -> Some a
  | Binop _ | Unop _ | Copy _ | Cjump _ -> None

(** [is_mem op] — is [op] a load or a store?  [mem_access op <> None]
    without the option. *)
let is_mem op = match op.kind with Load _ | Store _ -> true | _ -> false

(** [reads_reg op r] holds when [op] reads register [r]. *)
let reads_reg op r =
  (* shape-direct (no operand/register list) — this runs per remaining
     op per candidate inside the gap-prevention test *)
  match op.kind with
  | Binop (_, _, a, b) | Cjump (_, a, b) ->
      Operand.uses_reg a r || Operand.uses_reg b r
  | Unop (_, _, a) | Copy (_, a) -> Operand.uses_reg a r
  | Load (_, { base; _ }) -> Operand.uses_reg base r
  | Store ({ base; _ }, v) -> Operand.uses_reg base r || Operand.uses_reg v r

(** [defines_reg op r] holds when [op] writes register [r] — matched
    on the op's shape, with no [def] option. *)
let defines_reg op r =
  match op.kind with
  | Binop (_, d, _, _) | Unop (_, d, _) | Copy (d, _) | Load (d, _) ->
      Reg.equal d r
  | Store _ | Cjump _ -> false

(* -- rendering ------------------------------------------------------------ *)

(* The one writer of an operation's text, [#<id>(i<iter>){<guard>} <kind>],
   straight into a buffer: the schedule digest renders thousands of
   operations per request, and the Format printers below wrap it.
   Integers, register names and integer operands are written digit by
   digit, with no string per token; only a float immediate goes
   through {!Value.to_string}. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(** [add_int buf n] appends [Int.to_string n] to [buf]. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (Int.to_string n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let write_reg buf r =
  Buffer.add_char buf 'r';
  add_int buf (Reg.to_int r)

(* [Operand.to_string o], written in place. *)
let write_operand buf = function
  | Operand.Reg r -> write_reg buf r
  | Operand.Imm (Value.I n) -> add_int buf n
  | Operand.Imm (Value.F _ as v) -> Buffer.add_string buf (Value.to_string v)
  | Operand.Regoff (r, c) ->
      write_reg buf r;
      if c >= 0 then begin
        Buffer.add_char buf '+';
        add_int buf c
      end
      else begin
        Buffer.add_char buf '-';
        add_int buf (-c)
      end

let write_addr buf { sym; base; offset } =
  Buffer.add_string buf sym;
  Buffer.add_char buf '[';
  write_operand buf base;
  if offset > 0 then begin
    Buffer.add_char buf '+';
    add_int buf offset
  end
  else if offset < 0 then begin
    Buffer.add_char buf '-';
    add_int buf (-offset)
  end;
  Buffer.add_char buf ']'

let write_def buf d =
  write_reg buf d;
  Buffer.add_string buf " <- "

(* [a op b], the infix form of binops and conditional jumps *)
let write_infix buf a name b =
  write_operand buf a;
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  write_operand buf b

let write_kind buf = function
  | Binop (o, d, a, b) ->
      write_def buf d;
      write_infix buf a (Opcode.binop_name o) b
  | Unop (o, d, a) ->
      write_def buf d;
      Buffer.add_string buf (Opcode.unop_name o);
      Buffer.add_char buf ' ';
      write_operand buf a
  | Copy (d, a) ->
      write_def buf d;
      write_operand buf a
  | Load (d, a) ->
      write_def buf d;
      write_addr buf a
  | Store (a, v) ->
      write_addr buf a;
      Buffer.add_string buf " <- ";
      write_operand buf v
  | Cjump (r, a, b) ->
      Buffer.add_string buf "if ";
      write_infix buf a (Opcode.relop_name r) b

let rec write_decisions buf = function
  | [] -> ()
  | (c, b) :: rest ->
      Buffer.add_string buf (if b then "+#" else "-#");
      add_int buf c;
      if rest <> [] then Buffer.add_char buf ',';
      write_decisions buf rest

(** [write buf op] appends [op]'s text to [buf]. *)
let write buf op =
  Buffer.add_char buf '#';
  add_int buf op.id;
  if op.iter <> no_iter then begin
    Buffer.add_string buf "(i";
    add_int buf op.iter;
    Buffer.add_char buf ')'
  end;
  if op.guard <> [] then begin
    Buffer.add_char buf '{';
    write_decisions buf op.guard;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf ' ';
  write_kind buf op.kind

let to_string op =
  let buf = Buffer.create 32 in
  write buf op;
  Buffer.contents buf

let pp_kind ppf k =
  let buf = Buffer.create 24 in
  write_kind buf k;
  Format.pp_print_string ppf (Buffer.contents buf)

(* The box keeps the text one unit in any enclosing Format layout. *)
let pp ppf op = Format.fprintf ppf "@[%s@]" (to_string op)
