(** The VLIW interpreter.

    Executes a program graph one instruction (node) per cycle with the
    paper's execution semantics (section 2):

    + operands of all operations are fetched;
    + all results are computed but not stored; conditional jumps select
      a path through the instruction's tree;
    + values are stored;
    + the next instruction is the node reached through the selected
      branches.

    Plain (non-branch) operations commit on every path — the Plain-VLIW
    store discipline, which the percolation legality tests keep safe —
    while path selection follows the IBM tree model.  Because a
    sequential program is just a graph with one operation per node, the
    same interpreter provides the sequential reference semantics. *)

open Vliw_ir

type outcome = { cycles : int }

let eval_operand st = function
  | Operand.Reg r -> State.read_reg st r
  | Operand.Imm v -> v
  | Operand.Regoff (r, c) -> (
      match State.read_reg st r with
      | Value.I n -> Value.I (n + c)
      | Value.F _ ->
          State.fault "Regoff over float register %s" (Reg.to_string r))

let eval_index st (a : Operation.addr) =
  match eval_operand st a.Operation.base with
  | Value.I n -> n + a.Operation.offset
  | Value.F _ -> State.fault "float-valued address base in %s" a.Operation.sym

(* Phase 1+2: the effect of one plain operation, computed without
   committing it, in a slot of the instruction's scratch.  A fault
   during a speculative computation (an out-of-bounds load from an
   iteration beyond the trip count, say) is recorded and only raised
   if the operation actually commits — the non-faulting speculation
   real VLIWs provide.  Slots are reused from cycle to cycle: a step
   allocates no record or list cell per operation. *)
type effect_kind = Reg_write | Mem_write | Faulted

type slot = {
  mutable kind : effect_kind;
  mutable dst : int;  (** register id, or word index *)
  mutable target : Value.t array;  (** the array a store writes *)
  mutable value : Value.t;
  mutable msg : string;  (** a recorded fault *)
  mutable guard : Operation.guard;
}

(* The scratch of a run: the slots, and the (jump id, taken?)
   decisions along the path the current instruction selected. *)
type scratch = {
  mutable slots : slot array;
  mutable dec_id : int array;
  mutable dec_taken : bool array;
  mutable depth : int;
}

let new_slot () =
  { kind = Faulted; dst = 0; target = [||]; value = Value.I 0; msg = ""; guard = [] }

let compute_exn st (op : Operation.t) s =
  match op.Operation.kind with
  | Operation.Binop (o, d, a, b) -> (
      let va = eval_operand st a and vb = eval_operand st b in
      match Opcode.eval_binop o va vb with
      | Some v ->
          s.kind <- Reg_write;
          s.dst <- Reg.to_int d;
          s.value <- v
      | None ->
          State.fault "binop fault in %s" (Operation.to_string op))
  | Operation.Unop (o, d, a) -> (
      let va = eval_operand st a in
      match Opcode.eval_unop o va with
      | Some v ->
          s.kind <- Reg_write;
          s.dst <- Reg.to_int d;
          s.value <- v
      | None -> State.fault "unop fault in %s" (Operation.to_string op))
  | Operation.Copy (d, a) ->
      s.value <- eval_operand st a;
      s.kind <- Reg_write;
      s.dst <- Reg.to_int d
  | Operation.Load (d, a) ->
      let idx = eval_index st a in
      s.value <- State.read_mem st a.Operation.sym idx;
      s.kind <- Reg_write;
      s.dst <- Reg.to_int d
  | Operation.Store (a, v) ->
      let idx = eval_index st a in
      let value = eval_operand st v in
      let target = State.array st a.Operation.sym in
      if idx < 0 || idx >= Array.length target then
        State.fault "out-of-bounds write %s[%d] (length %d)" a.Operation.sym idx
          (Array.length target);
      s.kind <- Mem_write;
      s.dst <- idx;
      s.target <- target;
      s.value <- value
  | Operation.Cjump _ ->
      State.fault "Cjump outside a conditional tree: %s"
        (Operation.to_string op)

let compute st (op : Operation.t) s =
  s.guard <- op.Operation.guard;
  match compute_exn st op s with
  | () -> ()
  | exception State.Fault msg ->
      s.kind <- Faulted;
      s.msg <- msg

(* Select the successor, recording the decision at each branch on the
   selected path. *)
let rec select st sc tree =
  match tree with
  | Ctree.Leaf n -> n
  | Ctree.Branch (cj, t, f) -> (
      match cj.Operation.kind with
      | Operation.Cjump (rel, a, b) ->
          let va = eval_operand st a and vb = eval_operand st b in
          let taken = Opcode.eval_relop rel va vb in
          if sc.depth >= Array.length sc.dec_id then begin
            let n = 2 * Array.length sc.dec_id in
            sc.dec_id <- Array.append sc.dec_id (Array.make n 0);
            sc.dec_taken <- Array.append sc.dec_taken (Array.make n false)
          end;
          sc.dec_id.(sc.depth) <- cj.Operation.id;
          sc.dec_taken.(sc.depth) <- taken;
          sc.depth <- sc.depth + 1;
          select st sc (if taken then t else f)
      | _ -> State.fault "non-jump in conditional tree")

(* Did the selected path take decision [(c, b)] at depth [i] or
   below? *)
let rec on_path sc c b i =
  i < sc.depth && ((sc.dec_id.(i) = c && sc.dec_taken.(i) = b) || on_path sc c b (i + 1))

(* Does the selected path take every decision of [g]?  Each
   conditional appears at most once per tree, so set containment
   suffices ({!Operation.guard_satisfied}). *)
let rec satisfied sc = function
  | [] -> true
  | (c, b) :: tl -> on_path sc c b 0 && satisfied sc tl

let commit st s =
  match s.kind with
  | Reg_write -> State.write_reg st (Reg.of_int s.dst) s.value
  | Mem_write -> s.target.(s.dst) <- s.value
  | Faulted -> State.fault "%s" s.msg

(* [step p st sc node_id] executes one instruction; returns the
   successor node id.  IBM store discipline: every operation is
   fetched and computed, but only those whose guard lies on the
   selected path commit their result, in instruction order. *)
let step (p : Program.t) st sc node_id =
  let ids = Program.plain_ids p node_id in
  let n = ids.Iarr.len in
  if n > Array.length sc.slots then
    sc.slots <-
      Array.init (max n (2 * Array.length sc.slots)) (fun i ->
          if i < Array.length sc.slots then sc.slots.(i) else new_slot ());
  for i = 0 to n - 1 do
    compute st (Program.op_of p (Array.unsafe_get ids.Iarr.a i)) sc.slots.(i)
  done;
  sc.depth <- 0;
  let next = select st sc (Program.node p node_id).Node.ctree in
  for i = 0 to n - 1 do
    let s = sc.slots.(i) in
    if satisfied sc s.guard then commit st s
  done;
  next

(** [run ?fuel p st] executes [p] from its entry until the exit
    sentinel, mutating [st].  [fuel] bounds the number of cycles
    (default [2_000_000]); exhausting it faults, catching accidental
    infinite loops in tests. *)
let run ?(fuel = 2_000_000) (p : Program.t) st =
  let sc =
    { slots = Array.init 8 (fun _ -> new_slot ()); dec_id = Array.make 4 0;
      dec_taken = Array.make 4 false; depth = 0 }
  in
  let rec go id cycles =
    if Program.is_exit p id then cycles
    else if cycles = fuel then State.fault "out of fuel after %d cycles" cycles
    else go (step p st sc id) (cycles + 1)
  in
  { cycles = go p.Program.entry 0 }
