(* The list-scanning implementations that resource accounting and the
   move-op legality check replaced, kept as the oracles the property
   suites compare the flat, in-place versions against.  Each reads a
   node's ops as lists ({!Program.ops} and the tree's jumps) and is
   otherwise the code it stands in for. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Move_op = Vliw_percolation.Move_op

(* Every op of node [id]: its plain ops, then its tree's jumps. *)
let all_ops p id = Program.ops p id @ Ctree.cjumps (Program.node p id).Node.ctree

(** [slot_demand_scan m ops] — reference implementation of
    {!Machine.slot_demand_packed} over a node's op list [ops]. *)
let slot_demand_scan m ops = List.length (List.filter (Machine.counted m) ops)

(** [room_for_scan m ops op] — reference implementation of
    {!Machine.room_for_packed} over a node's op list [ops]. *)
let room_for_scan m ops (op : Operation.t) =
  if not (Machine.counted m op) then true
  else
    match m.Machine.shape with
    | Machine.Unlimited -> true
    | Machine.Homogeneous k -> slot_demand_scan m ops + 1 <= k
    | Machine.Typed { alu; mem; branch } ->
        let cls = Machine.class_of op in
        let limit =
          match cls with Machine.Alu -> alu | Machine.Mem -> mem | Machine.Branch -> branch
        in
        let used =
          List.length
            (List.filter
               (fun o -> Machine.counted m o && Machine.class_of o = cls)
               ops)
        in
        used + 1 <= limit

(* Reference implementation: scan [to_ops] for defining ops. *)
let forward_sources_scan ?(landing = []) to_ops op =
  Move_op.forward_sources_with op ~def_in_to:(fun r ->
      List.find_opt
        (fun (o : Operation.t) ->
          Operation.defines_reg o r
          && Operation.guard_compatible o.Operation.guard landing)
        to_ops)

(* The original list-scanning legality check, the oracle for
   [Move_op.check].  The two find the op differently: [check] by its
   home ({!Program.home_int}), [check_scan] in [from_]'s op list.  So
   they give the identical decision and failure on every op whose home
   is [from_]; test_index.ml's oracle applies the home rule to the
   other ops. *)
let check_scan (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let p = ctx.Ctx.program in
  if from_ = to_ then raise (Move_op.Fail Move_op.Not_adjacent);
  let to_node = Program.node p to_ and from_node = Program.node p from_ in
  let to_ops = Program.ops p to_ and from_ops = Program.ops p from_ in
  let landing =
    match Ctree.path_to to_node.Node.ctree from_ with
    | Some path -> path
    | None -> raise (Move_op.Fail Move_op.Not_adjacent)
  in
  let op =
    match List.find_opt (fun (o : Operation.t) -> o.Operation.id = op_id) from_ops with
    | Some op -> op
    | None -> raise (Move_op.Fail Move_op.Op_not_found)
  in
  if op.Operation.guard <> [] then raise (Move_op.Fail Move_op.Guarded);
  let op = forward_sources_scan ~landing to_ops op in
  (match
     List.find_opt
       (fun (o : Operation.t) ->
         Operation.guard_compatible o.Operation.guard landing
         && Alias.mem_conflict o op)
       to_ops
   with
  | Some o -> raise (Move_op.Fail (Move_op.Mem_dependence o))
  | None -> ());
  if not (room_for_scan ctx.Ctx.machine (all_ops p to_) op) then
    raise (Move_op.Fail Move_op.No_room);
  let op = { op with Operation.guard = landing } in
  match Operation.def op with
  | None -> (op, None)
  | Some d ->
      let past_read =
        List.exists
          (fun (o : Operation.t) ->
            o.Operation.id <> op_id && Operation.reads_reg o d)
          from_ops
        || List.exists
             (fun (cj : Operation.t) -> Operation.reads_reg cj d)
             (Ctree.cjumps from_node.Node.ctree)
      in
      let output_conflict =
        List.exists (fun (o : Operation.t) -> Operation.defines_reg o d) to_ops
      in
      if past_read || output_conflict then
        let fresh = Program.fresh_reg p in
        (Operation.with_def op fresh, Some (d, fresh))
      else (op, None)

(** [would_move_scan ctx ~from_ ~to_ ~op_id] — the list-scanning
    legality test: the oracle [Move_op.would_move] is compared against
    by the property suite. *)
let would_move_scan (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match check_scan ctx ~from_ ~to_ ~op_id with
  | exception Move_op.Fail f -> Error f
  | _ -> Ok ()
