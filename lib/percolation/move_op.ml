(** The [move-op] core transformation (paper Figure 2), under the IBM
    VLIW store discipline.

    [move ctx ~from_ ~to_ ~op_id] moves the plain operation [op_id] up
    one instruction, from node [from_] to its parent [to_].  The
    operation lands {e on the path} of [to_]'s conditional tree that
    leads to [from_] (its guard becomes that path), so it computes a
    cycle earlier but still commits exactly when control was headed to
    [from_] — which is why no write-live check against [to_]'s other
    paths is needed and why stores may move above conditionals.

    The move fails (leaving the program untouched) on:
    - [Not_adjacent]: [to_] is not [from_]'s parent ({!Program.parent}),
      the one node with a leaf pointing at [from_];
    - [Guarded]: the operation still sits under a conditional of
      [from_]'s own tree; it can only move after that conditional does
      (node splitting then unguards it);
    - a true data dependence on a non-copy operation of [to_] whose
      guard is compatible with the landing path — reads of copies are
      {e forwarded through} the copy, as in the paper's renaming
      discussion;
    - a memory dependence on a path-compatible load/store in [to_];
    - a resource (issue-width) violation at [to_].

    A move-past-read or same-destination conflict does not fail it:
    the operation lands writing a fresh register, and a copy back to
    the old destination stays in [from_].

    The schedulers' programs are out-trees (DESIGN.md §36): the one
    leaf of [to_] that points at [from_] is the only way into it, so
    the operation leaves [from_] on every path and no node is split.
    When [from_] ends up empty it is deleted, as in Figure 2.

    Legality reads the operation from the flat stores
    ({!Program.stored_op}, {!Program.home_int}) and resource room from
    the packed per-node counters ({!Program.counts_packed}), and scans
    [to_]'s plain op ids (at most the issue width) for defining
    operations and memory conflicts and [from_]'s for readers of the
    destination, in place ({!Program.plain_ids}, {!Program.op_of}); no
    per-node hash index is consulted.  The test suite keeps the
    original list-scanning check as the equivalence oracle it checks
    {!check} against.  Every attempt runs the check; verdicts are not
    memoized (DESIGN.md §26).  On the failure paths the check builds
    no closure, no option and no list, and a failure without a payload
    raises a preallocated exception. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Machine = Vliw_machine.Machine
module Metrics = Grip_obs.Metrics

type failure = Legality.failure =
  | Not_adjacent  (** [to_] is not [from_]'s parent *)
  | Op_not_found
  | Guarded  (** still under a conditional of [from_]'s tree *)
  | True_dependence of Operation.t
  | Mem_dependence of Operation.t
  | No_room

type report = {
  op : Operation.t;  (** the operation as it now appears in [to_] *)
  renamed : (Reg.t * Reg.t) option;  (** (old destination, fresh) *)
  deleted_from : bool;  (** [from_] became empty and was removed *)
}

let pp_failure = Legality.pp_failure

exception Fail of failure

(* The failures without a payload, allocated once. *)
let fail_not_adjacent = Fail Not_adjacent
let fail_op_not_found = Fail Op_not_found
let fail_guarded = Fail Guarded
let fail_no_room = Fail No_room

(* Forward [op]'s source operands through copies present in [to_] on a
   compatible path: a read of [d] where [to_] holds [d <- src] becomes
   a read of [src].  Raises [Fail (True_dependence def)] when a source
   is defined by a path-compatible non-copy op of [to_], or when
   forwarding cannot compose.  [def_in_to r] must be the first op of
   [to_] (in instruction order) defining [r] on a compatible path. *)
let forward_sources_with ~def_in_to (op : Operation.t) =
  let step op =
    let changed = ref false in
    let op' =
      Operation.map_operands
        (fun o ->
          List.fold_left
            (fun o r ->
              match def_in_to r with
              | None -> o
              | Some (def : Operation.t) -> (
                  match def.Operation.kind with
                  | Operation.Copy (d, src) -> (
                      match Operand.forward o ~copy_dst:d ~copy_src:src with
                      | Some o' ->
                          if not (Operand.equal o o') then changed := true;
                          o'
                      | None -> raise (Fail (True_dependence def)))
                  | _ -> raise (Fail (True_dependence def))))
            o (Operand.regs o))
        op
    in
    (op', !changed)
  in
  let rec fix op fuel =
    if fuel = 0 then raise (Fail (True_dependence op))
    else
      let op', changed = step op in
      if changed then fix op' (fuel - 1) else op'
  in
  fix op 8

(* The scans below walk a node's plain op ids in place, from index [i]
   of its {!Program.plain_ids} buffer [b], reading the buffer's fields
   directly and each record with {!Program.op_of}: top-level
   recursion, so no closure and no list.  Only [first_def], which
   serves forwarding's slow path, returns an option. *)

(* Does an op of [b] write [r] on a path compatible with [landing]? *)
let rec defined_on p (b : Iarr.t) i landing r =
  i < b.Iarr.len
  &&
  let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
  (Operation.defines_reg o r && Operation.guard_compatible o.Operation.guard landing)
  || defined_on p b (i + 1) landing r

let operand_defined_on p b landing = function
  | Operand.Reg r | Operand.Regoff (r, _) -> defined_on p b 0 landing r
  | Operand.Imm _ -> false

(* Does some source register of [op] have a path-compatible definition
   in [b]? *)
let sources_defined_on p b landing (op : Operation.t) =
  match op.Operation.kind with
  | Operation.Binop (_, _, a, c) | Operation.Cjump (_, a, c) ->
      operand_defined_on p b landing a || operand_defined_on p b landing c
  | Operation.Unop (_, _, a) | Operation.Copy (_, a) ->
      operand_defined_on p b landing a
  | Operation.Load (_, { Operation.base; _ }) ->
      operand_defined_on p b landing base
  | Operation.Store ({ Operation.base; _ }, v) ->
      operand_defined_on p b landing base || operand_defined_on p b landing v

(* The first op of [b] that writes [r] on a path compatible with
   [landing]: the definition [forward_sources_with] forwards through. *)
let rec first_def p (b : Iarr.t) i landing r =
  if i >= b.Iarr.len then None
  else
    let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
    if Operation.defines_reg o r && Operation.guard_compatible o.Operation.guard landing
    then Some o
    else first_def p b (i + 1) landing r

(* [forward_sources p to_ landing op] — [op] with its sources forwarded
   through the copies of node [to_] on a path compatible with
   [landing] (see [forward_sources_with]).  Fast path: when no source
   register of [op] has any path-compatible definition in [to_],
   forwarding is the identity — skip the rebuild loop entirely (the
   common case: most checked moves find nothing to forward, and the
   loop allocates a fresh operation per round). *)
let forward_sources p to_ landing op =
  let b = Program.plain_ids p to_ in
  if not (sources_defined_on p b landing op) then op
  else forward_sources_with op ~def_in_to:(first_def p b 0 landing)

(* Raise the first memory operation of [b] on a path compatible with
   [landing] that [op] conflicts with ([Alias.mem_conflict] needs
   memory accesses on both sides, so only loads and stores can witness
   one). *)
let rec mem_scan p (b : Iarr.t) i landing op =
  if i < b.Iarr.len then begin
    let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
    if
      Operation.is_mem o
      && Operation.guard_compatible o.Operation.guard landing
      && Alias.mem_conflict o op
    then raise_notrace (Fail (Mem_dependence o))
    else mem_scan p b (i + 1) landing op
  end

(* Does an op of [b] other than [op_id] read [d]? *)
let rec read_among p (b : Iarr.t) i op_id d =
  i < b.Iarr.len
  &&
  let o = Program.op_of p (Array.unsafe_get b.Iarr.a i) in
  (o.Operation.id <> op_id && Operation.reads_reg o d) || read_among p b (i + 1) op_id d

(* Does a conditional jump of the tree read [d]? *)
let rec read_by_cjump d = function
  | Ctree.Leaf _ -> false
  | Ctree.Branch (cj, a, b) ->
      Operation.reads_reg cj d || read_by_cjump d a || read_by_cjump d b

let rec defined_among p (b : Iarr.t) i d =
  i < b.Iarr.len
  && (Operation.defines_reg (Program.op_of p (Array.unsafe_get b.Iarr.a i)) d
     || defined_among p b (i + 1) d)

(* Decide legality; returns the op as it will appear in [to_] plus the
   renaming performed, or raises [Fail]. *)
let check (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let p = ctx.Ctx.program in
  if from_ = to_ || Program.parent p from_ <> to_ then
    raise_notrace fail_not_adjacent;
  let to_node = Program.node p to_ and from_node = Program.node p from_ in
  let landing =
    match Ctree.path_to to_node.Node.ctree from_ with
    | Some path -> path
    | None -> raise_notrace fail_not_adjacent
  in
  (* plain ops only, like the node index's by-id table: a conditional
     jump with this id is Move_cj's business *)
  let op =
    match Program.stored_op p op_id with
    | Some op
      when Program.home_int p op_id = from_ && not (Operation.is_cjump op) ->
        op
    | Some _ | None -> raise_notrace fail_op_not_found
  in
  if op.Operation.guard <> [] then raise_notrace fail_guarded;
  (* 1. true dependences, forwarding through copies in to_ *)
  let op = forward_sources p to_ landing op in
  (* 2. memory dependences against path-compatible ops of to_ — only
     when the moved op itself touches memory *)
  let to_ops = Program.plain_ids p to_ in
  if Operation.is_mem op then mem_scan p to_ops 0 landing op;
  (* 3. resource room at to_ (packed per-node counters — no index) *)
  if not (Machine.room_for_packed ctx.Ctx.machine (Program.counts_packed p to_) op)
  then raise_notrace fail_no_room;
  (* 4. move-past-read and same-destination conflicts (one definition
     of a register per instruction, program-wide) *)
  match op.Operation.kind with
  | Operation.Store _ | Operation.Cjump _ ->
      ({ op with Operation.guard = landing }, None)
  | Operation.Binop (_, d, _, _)
  | Operation.Unop (_, d, _)
  | Operation.Copy (d, _)
  | Operation.Load (d, _) ->
      if
        read_among p (Program.plain_ids p from_) 0 op_id d
        || read_by_cjump d from_node.Node.ctree
        || defined_among p to_ops 0 d
      then
        let fresh = Program.fresh_reg p in
        ( Operation.with_def { op with Operation.guard = landing } fresh,
          Some (d, fresh) )
      else ({ op with Operation.guard = landing }, None)

(* Apply a legality-checked move. *)
let commit (ctx : Ctx.t) ~from_ ~to_ ~op_id (moved_op, renamed) =
  let p = ctx.Ctx.program in
  let op = Option.get (Program.stored_op p op_id) in
  (* remove from from_, repairing with a copy if renamed *)
  Program.remove_op p from_ op_id;
  (match renamed with
  | Some (d, fresh) ->
      let copy =
        Operation.make
          ~id:(Program.fresh_op_id p)
          ~iter:op.Operation.iter ~lineage:op.Operation.lineage
          ~src_pos:op.Operation.src_pos
          (Operation.Copy (d, Operand.Reg fresh))
      in
      Program.add_op p from_ copy
  | None -> ());
  (* land in to_ *)
  Program.add_op p to_ moved_op;
  (* delete from_ if now empty *)
  let deleted_from =
    if Program.is_empty p from_ then begin
      Program.delete_node p from_;
      true
    end
    else false
  in
  Ctx.gc ctx;
  { op = moved_op; renamed; deleted_from }

(** One legality check in [check_sample] is timed, and the
    [legality.check] timer gains [check_sample] times its duration: an
    estimate of the time inside checks that spares the other checks
    their clock reads and boxed sums. *)
let check_sample = 64

let timed_check (ctx : Ctx.t) m ~from_ ~to_ ~op_id =
  let t0 = Unix.gettimeofday () in
  let add () =
    Metrics.add_time m "legality.check"
      (float_of_int check_sample *. (Unix.gettimeofday () -. t0))
  in
  match check ctx ~from_ ~to_ ~op_id with
  | decision ->
      add ();
      decision
  | exception (Fail _ as e) ->
      add ();
      raise_notrace e

(** [attempt ctx ~from_ ~to_ ~op_id] — {!move} that raises [Fail] on
    failure, for drivers that record the cause without boxing a
    result. *)
let attempt (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let m = ctx.Ctx.obs.Grip_obs.metrics in
  let decision =
    if Metrics.enabled m && Ctx.sample_tick ctx check_sample then
      timed_check ctx m ~from_ ~to_ ~op_id
    else check ctx ~from_ ~to_ ~op_id
  in
  commit ctx ~from_ ~to_ ~op_id decision

(** [move ctx ~from_ ~to_ ~op_id] attempts the transformation; on
    [Error _] the program is unchanged. *)
let move (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match attempt ctx ~from_ ~to_ ~op_id with
  | exception Fail f -> Error f
  | r -> Ok r

(** [would_move ctx ~from_ ~to_ ~op_id] is the legality test alone —
    the question "could X move?" asked without moving anything. *)
let would_move (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match check ctx ~from_ ~to_ ~op_id with
  | exception Fail f -> Error f
  | _ -> Ok ()
