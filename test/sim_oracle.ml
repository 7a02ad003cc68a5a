(* The simulator as it was before its state became arrays: registers
   in a polymorphic [Hashtbl], arrays in a string-keyed one, and one
   (guard, pending effect) tuple and list cell per operation per cycle,
   with the visited path and the executed-op count built on every run.
   Kept as the oracle [Vliw_sim.State] and [Vliw_sim.Exec] are checked
   against (test_sim.ml, "simulator oracle"): the same cycle counts,
   final registers and arrays, and faults. *)

open Vliw_ir

module State = struct
  type t = {
    regs : (Reg.t, Value.t) Hashtbl.t;
    mem : (string, Value.t array) Hashtbl.t;
  }

  (** [init ~regs ~arrays] builds a state.  Arrays are copied so callers
      can reuse initial data across runs. *)
  let init ~regs ~arrays =
    let t = { regs = Hashtbl.create 64; mem = Hashtbl.create 8 } in
    List.iter (fun (r, v) -> Hashtbl.replace t.regs r v) regs;
    List.iter (fun (s, a) -> Hashtbl.replace t.mem s (Array.copy a)) arrays;
    t

  (** [copy t] is a deep copy (used by the equivalence oracle to run two
      programs from identical states). *)
  let copy t =
    {
      regs = Hashtbl.copy t.regs;
      mem =
        (let m = Hashtbl.create 8 in
         Hashtbl.iter (fun s a -> Hashtbl.replace m s (Array.copy a)) t.mem;
         m);
    }

  exception Fault of string

  let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

  (** [read_reg t r] — uninitialised registers fault, which catches
      scheduling bugs that let a use overtake its def. *)
  let read_reg t r =
    match Hashtbl.find_opt t.regs r with
    | Some v -> v
    | None -> fault "read of uninitialised register %s" (Reg.to_string r)

  let write_reg t r v = Hashtbl.replace t.regs r v

  let array t sym =
    match Hashtbl.find_opt t.mem sym with
    | Some a -> a
    | None -> fault "unknown array %s" sym

  let read_mem t sym idx =
    let a = array t sym in
    if idx < 0 || idx >= Array.length a then
      fault "out-of-bounds read %s[%d] (length %d)" sym idx (Array.length a)
    else a.(idx)

  let write_mem t sym idx v =
    let a = array t sym in
    if idx < 0 || idx >= Array.length a then
      fault "out-of-bounds write %s[%d] (length %d)" sym idx (Array.length a)
    else a.(idx) <- v

  (** [reg_opt t r] reads a register without faulting. *)
  let reg_opt t r = Hashtbl.find_opt t.regs r
end

module Exec = struct
  type outcome = {
    cycles : int;
    ops_executed : int;
    path : int list;  (** node ids visited, in order (entry first) *)
  }

  let eval_operand st = function
    | Operand.Reg r -> State.read_reg st r
    | Operand.Imm v -> v
    | Operand.Regoff (r, c) -> (
        match State.read_reg st r with
        | Value.I n -> Value.I (n + c)
        | Value.F _ ->
            State.fault "Regoff over float register %s" (Reg.to_string r))

  let eval_addr st (a : Operation.addr) =
    match eval_operand st a.Operation.base with
    | Value.I n -> (a.Operation.sym, n + a.Operation.offset)
    | Value.F _ -> State.fault "float-valued address base in %s" a.Operation.sym

  (* Phase 1+2: compute the effect of one plain operation without
     committing it.  A fault during a speculative computation (an
     out-of-bounds load from an iteration beyond the trip count, say) is
     recorded and only raised if the operation actually commits — the
     non-faulting speculation real VLIWs provide. *)
  type pending =
    | Preg of Reg.t * Value.t
    | Pmem of string * int * Value.t
    | Pfault of string

  let compute_exn st (op : Operation.t) =
    match op.Operation.kind with
    | Operation.Binop (o, d, a, b) -> (
        let va = eval_operand st a and vb = eval_operand st b in
        match Opcode.eval_binop o va vb with
        | Some v -> Preg (d, v)
        | None ->
            State.fault "binop fault in %s" (Operation.to_string op))
    | Operation.Unop (o, d, a) -> (
        let va = eval_operand st a in
        match Opcode.eval_unop o va with
        | Some v -> Preg (d, v)
        | None -> State.fault "unop fault in %s" (Operation.to_string op))
    | Operation.Copy (d, a) -> Preg (d, eval_operand st a)
    | Operation.Load (d, a) ->
        let sym, idx = eval_addr st a in
        Preg (d, State.read_mem st sym idx)
    | Operation.Store (a, v) ->
        let sym, idx = eval_addr st a in
        Pmem (sym, idx, eval_operand st v)
    | Operation.Cjump _ ->
        State.fault "Cjump outside a conditional tree: %s"
          (Operation.to_string op)

  let compute st op =
    match compute_exn st op with
    | pending -> pending
    | exception State.Fault msg -> Pfault msg

  (* Select the successor, recording the (cjump id, taken?) decision at
     each branch on the selected path. *)
  let select st tree =
    let rec go decisions = function
      | Ctree.Leaf n -> (n, List.rev decisions)
      | Ctree.Branch (cj, t, f) -> (
          match cj.Operation.kind with
          | Operation.Cjump (rel, a, b) ->
              let va = eval_operand st a and vb = eval_operand st b in
              if Opcode.eval_relop rel va vb then
                go ((cj.Operation.id, true) :: decisions) t
              else go ((cj.Operation.id, false) :: decisions) f
          | _ -> State.fault "non-jump in conditional tree")
    in
    go [] tree

  let commit st = function
    | Preg (r, v) -> State.write_reg st r v
    | Pmem (sym, idx, v) -> State.write_mem st sym idx v
    | Pfault msg -> State.fault "%s" msg

  (* Commit, in instruction order, the pending effects whose guard lies
     on the selected path; [pend] lists them newest first. *)
  let rec commit_taken st decisions = function
    | [] -> ()
    | (guard, eff) :: older ->
        commit_taken st decisions older;
        if Operation.guard_satisfied guard ~decisions then commit st eff

  (** [step p st node_id] executes one instruction; returns the successor
      node id.  IBM store discipline: every operation is fetched and
      computed, but only those whose guard lies on the selected path
      commit their result. *)
  let step (p : Program.t) st node_id =
    (* fetch+compute for all ops, then select, then store *)
    let pend =
      Program.fold_ops p node_id ~init:[] ~f:(fun acc (op : Operation.t) ->
          (op.Operation.guard, compute st op) :: acc)
    in
    let next, decisions = select st (Program.node p node_id).Node.ctree in
    commit_taken st decisions pend;
    next

  (** [run ?fuel p st] executes [p] from its entry until the exit
      sentinel, mutating [st].  [fuel] bounds the number of cycles
      (default [2_000_000]); exhausting it faults, catching accidental
      infinite loops in tests. *)
  let run ?(fuel = 2_000_000) (p : Program.t) st =
    let cycles = ref 0 and ops = ref 0 in
    let path = ref [] in
    let rec go id remaining =
      if Program.is_exit p id then ()
      else if remaining = 0 then State.fault "out of fuel after %d cycles" !cycles
      else begin
        path := id :: !path;
        incr cycles;
        ops := !ops + Iarr.length (Program.plain_ids p id)
               + Ctree.n_cjumps (Program.node p id).Node.ctree;
        let next = step p st id in
        go next (remaining - 1)
      end
    in
    go p.Program.entry fuel;
    { cycles = !cycles; ops_executed = !ops; path = List.rev !path }
end
