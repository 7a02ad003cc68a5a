(** The [move-cj] core transformation (paper Figure 3).

    Moves the *root* conditional jump of node [from_] up into its
    parent [to_]: the leaf of [to_]'s tree pointing at [from_] is
    replaced by a branch on the jump whose two arms lead to copies of
    [from_] specialised to the true and false sub-trees.

    Specialisation distributes [from_]'s operations by guard: an
    operation guarded by the moved conditional lands only on its arm
    (with that guard entry stripped — reaching the copy now implies
    the outcome), while unguarded operations are duplicated onto both
    arms, the code duplication inherent to Percolation Scheduling.
    [to_] must be [from_]'s parent, the one node with a leaf pointing
    at it (the schedulers' programs are out-trees, DESIGN.md §36), so
    [from_] is left to die and each of its successors keeps one
    parent: the arm copy that now leads to it.

    Only the root of the conditional tree may move: deeper jumps
    execute under their ancestors' outcomes and become roots themselves
    once those ancestors have moved.

    [from_]'s ops are read once, before either arm is built.  The true
    arm takes them over under their ids, and placing them there
    replaces their records in the program's store: read after that,
    [from_]'s ops would come back with the true arm's stripped
    guards. *)

open Vliw_ir
module Machine = Vliw_machine.Machine

type failure = Legality.Cj.failure =
  | Not_adjacent
  | Not_root_cjump
  | True_dependence of Operation.t
  | No_room

type report = {
  cj : Operation.t;  (** the jump as it now appears in [to_] *)
  true_copy : int;  (** node entered when the condition holds *)
  false_copy : int;  (** node entered otherwise *)
}

let pp_failure = Legality.Cj.pp_failure

exception Fail of failure

(* Forwarding of the jump's operands through copies in to_, sharing
   the logic (and failure mode) of Move_op. *)
let forward_cj p ~landing ~to_ (cj : Operation.t) =
  match Move_op.forward_sources p to_ landing cj with
  | cj' -> cj'
  | exception Move_op.Fail (Move_op.True_dependence op) ->
      raise (Fail (True_dependence op))
  | exception Move_op.Fail _ -> raise (Fail Not_adjacent)

let move (ctx : Ctx.t) ~from_ ~to_ ~cj_id =
  let p = ctx.Ctx.program in
  match
    (let to_node = Program.node p to_ and from_node = Program.node p from_ in
     if from_ = to_ || Program.parent p from_ <> to_ then
       raise (Fail Not_adjacent);
     let landing =
       match Ctree.path_to to_node.Node.ctree from_ with
       | Some path -> path
       | None -> raise (Fail Not_adjacent)
     in
     let cj, tt, tf =
       match Ctree.split_root from_node.Node.ctree with
       | Some (cj, tt, tf) when cj.Operation.id = cj_id -> (cj, tt, tf)
       | Some _ | None -> raise (Fail Not_root_cjump)
     in
     let cj = forward_cj p ~landing ~to_ cj in
     if
       not
         (Machine.room_for_packed ctx.Ctx.machine
            (Program.counts_packed p to_) cj)
     then raise (Fail No_room);
     (* Specialise from_ to one arm of [cj]: keep the ops whose guard
        admits the arm (stripping the decided entry), duplicate the
        unguarded ones. *)
     let from_ops = Program.ops p from_ in
     let arm_ops ~taken =
       List.filter_map
         (fun (op : Operation.t) ->
           Operation.strip_guard_head op ~cj:cj_id ~taken)
         from_ops
     in
     let specialise tree ~taken ~fresh_ops =
       let ops = arm_ops ~taken in
       match tree, ops with
       | Ctree.Leaf s, [] -> s
       | _, _ ->
           let ops, tree =
             if fresh_ops then Program.clone_instruction p ~ops ~ctree:tree
             else (ops, tree)
           in
           (Program.fresh_node p ~ops ~ctree:tree).Node.id
     in
     let t_id = specialise tt ~taken:true ~fresh_ops:false in
     let f_id = specialise tf ~taken:false ~fresh_ops:true in
     (* Replace the leaf of to_ pointing at from_ by the branch; ops
        of to_ guarded along that path keep their guards (the new
        branch extends the path below them, decisions above are
        unchanged). *)
     let rec rewrite = function
       | Ctree.Leaf s when s = from_ ->
           Ctree.Branch (cj, Ctree.Leaf t_id, Ctree.Leaf f_id)
       | Ctree.Leaf s -> Ctree.Leaf s
       | Ctree.Branch (j, a, b) ->
           let a = rewrite a in
           Ctree.Branch (j, a, rewrite b)
     in
     let to_node = Program.node p to_ in
     Program.set_ctree p to_ (rewrite to_node.Node.ctree);
     Ctx.gc ctx;
     { cj; true_copy = t_id; false_copy = f_id })
  with
  | r -> Ok r
  | exception Fail f -> Error f
