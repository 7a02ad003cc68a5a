(** Structural invariants of program graphs.

    [check p] returns a list of human-readable violations (empty when
    the program is well formed), visiting the reachable nodes once in
    reverse postorder with flat stamp tables for op ids and
    registers.  The percolation transformations are
    tested to preserve all of these; the schedulers assert them in
    debug builds. *)

let check (p : Program.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* exit sentinel shape *)
  (match Program.node_opt p p.Program.exit_id with
  | None -> err "exit node %d missing" p.Program.exit_id
  | Some n ->
      if not (Iarr.is_empty (Program.plain_ids p n.Node.id)) then
        err "exit node has operations";
      (match n.Node.ctree with
      | Ctree.Leaf l when l = p.Program.exit_id -> ()
      | _ -> err "exit node is not a self-loop leaf"));
  (* op id -> seen in a reachable node; register -> the last node that
     defined it.  Placing an op keeps both supplies above its ids. *)
  let seen = Bytes.make p.Program.next_op '\000' in
  let def_at = Array.make p.Program.next_reg (-1) in
  let seen_before op_id =
    Bytes.get seen op_id <> '\000' || (Bytes.set seen op_id '\001'; false)
  in
  let defined_in id d = def_at.(d) = id || (def_at.(d) <- id; false) in
  for k = 0 to Program.n_nodes p - 1 do
    let id = Program.rpo_at p k in
    match Program.node_opt p id with
    | None -> () (* a dangling leaf: reported at the node holding it *)
    | Some n ->
        let tree = n.Node.ctree in
        (* leaves reference existing nodes; a missing one is reported
           once however many leaves name it *)
        let dangling = ref [] in
        let rec leaves = function
          | Ctree.Leaf s ->
              if Program.node_opt p s = None && not (List.mem s !dangling) then begin
                dangling := s :: !dangling;
                err "node %d has dangling successor %d" id s
              end
          | Ctree.Branch (_, a, b) ->
              leaves a;
              leaves b
        in
        leaves tree;
        (* each op once program-wide, where the home index puts it *)
        let placed (op : Operation.t) =
          if seen_before op.Operation.id then
            err "op id %d appears in two nodes" op.Operation.id;
          let h = Program.home_int p op.Operation.id in
          if h < 0 then err "op #%d is in node %d but unindexed" op.Operation.id id
          else if h <> id then
            err "op #%d is in node %d but indexed at %d" op.Operation.id id h
        in
        Program.fold_ops p id ~init:() ~f:(fun () (op : Operation.t) ->
            (* plain ops are not conditional jumps; cjumps live in the tree *)
            if Operation.is_cjump op then
              err "node %d holds Cjump #%d as a plain op" id op.Operation.id;
            (* guards are valid root-anchored path prefixes of the tree *)
            if not (Ctree.has_path_prefix tree op.Operation.guard) then
              err "node %d: op #%d has guard not matching the tree" id op.Operation.id;
            (* at most one def per register per instruction *)
            (match Operation.def op with
            | Some d when defined_in id (Reg.to_int d) ->
                err "node %d defines %s twice" id (Reg.to_string d)
            | Some _ | None -> ());
            placed op);
        Ctree.iter_cjumps
          (fun (cj : Operation.t) ->
            if not (Operation.is_cjump cj) then
              err "node %d holds non-jump #%d in its ctree" id cj.Operation.id;
            placed cj)
          tree
  done;
  List.rev !errs
