(* [Wellformed.check] as it was before it became one pass over stamp
   tables: a [Hashtbl] of the reachable node ids iterated in its own
   order, one per node for definitions, and an option per home lookup.
   Kept as the oracle the new check's violation set is checked against
   (test_ir.ml, "wellformed oracle").  The one difference: a leaf to a
   missing node made the old check raise [Not_found] when it reached
   that node, where the new one skips it and reports the leaf. *)

open Vliw_ir

let check (p : Program.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let reachable = Program.reachable p in
  (* exit sentinel shape *)
  (match Program.node_opt p p.Program.exit_id with
  | None -> err "exit node %d missing" p.Program.exit_id
  | Some n ->
      if not (Iarr.is_empty (Program.plain_ids p n.Node.id)) then
        err "exit node has operations";
      (match n.Node.ctree with
      | Ctree.Leaf l when l = p.Program.exit_id -> ()
      | _ -> err "exit node is not a self-loop leaf"));
  (* per-node checks + program-wide op id uniqueness *)
  let seen_ops = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id () ->
      let n = Program.node p id in
      let ops = Program.ops p id in
      let all_ops = ops @ Ctree.cjumps n.Node.ctree in
      (* leaves reference existing nodes *)
      List.iter
        (fun s ->
          if Program.node_opt p s = None then
            err "node %d has dangling successor %d" id s)
        (Ctree.succs n.Node.ctree);
      (* plain ops are not conditional jumps; cjumps live in the tree *)
      List.iter
        (fun (op : Operation.t) ->
          if Operation.is_cjump op then
            err "node %d holds Cjump #%d as a plain op" id op.Operation.id)
        ops;
      List.iter
        (fun (cj : Operation.t) ->
          if not (Operation.is_cjump cj) then
            err "node %d holds non-jump #%d in its ctree" id cj.Operation.id)
        (Ctree.cjumps n.Node.ctree);
      (* guards are valid root-anchored path prefixes of the tree *)
      List.iter
        (fun (op : Operation.t) ->
          if not (Ctree.has_path_prefix n.Node.ctree op.Operation.guard) then
            err "node %d: op #%d has guard not matching the tree" id
              op.Operation.id)
        ops;
      (* at most one def per register per instruction *)
      let defs = Hashtbl.create 8 in
      List.iter
        (fun (op : Operation.t) ->
          match Operation.def op with
          | Some d ->
              if Hashtbl.mem defs d then
                err "node %d defines %s twice" id (Reg.to_string d)
              else Hashtbl.replace defs d ()
          | None -> ())
        ops;
      (* op ids unique program-wide (reachable part) *)
      List.iter
        (fun (op : Operation.t) ->
          if Hashtbl.mem seen_ops op.Operation.id then
            err "op id %d appears in two nodes" op.Operation.id
          else Hashtbl.replace seen_ops op.Operation.id id)
        all_ops;
      (* home index agrees with placement *)
      List.iter
        (fun (op : Operation.t) ->
          match Program.home p op.Operation.id with
          | Some h when h = id -> ()
          | Some h ->
              err "op #%d is in node %d but indexed at %d" op.Operation.id id h
          | None -> err "op #%d is in node %d but unindexed" op.Operation.id id)
        all_ops)
    reachable;
  List.rev !errs
