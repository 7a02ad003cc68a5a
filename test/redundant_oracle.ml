(* The redundancy pre-pass as it was before its passes became one walk
   over indexed arrays: forwarding with [List.filter] over the whole
   available set at every definition, [Operand.regs] lists and
   [Operand.forward] tried on every operand against every copy; and
   dead-code elimination that recomputes [Liveness] for the whole
   program after each round of removals.  Kept as the oracle
   [Redundant.forward_memory], [Redundant.forward_copies] and
   [Redundant.eliminate_dead] are checked against (test_percolation.ml,
   "redundancy oracle").  One change from the old passes: neither
   forwarding pass records an entry that reads the register its op
   defines, the fix both share. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias

(* [eliminate_dead p ~exit_live] removes non-memory, non-jump
   operations whose destination is not live out of their node.
   Iterates to a fixpoint; returns the number removed. *)
let eliminate_dead (p : Program.t) ~exit_live =
  let removed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let live = Liveness.compute p ~exit_live in
    let victims =
      Program.fold_nodes p
        (fun n acc ->
          if Program.is_exit p n.Node.id then acc
          else
            let out = Liveness.live_out live n.Node.id in
            Program.fold_ops p n.Node.id ~init:acc ~f:(fun acc (op : Operation.t) ->
                match Operation.def op with
                | Some d
                  when (not (Operation.is_store op))
                       && not (Reg.Set.mem d out) ->
                    (n.Node.id, op.Operation.id) :: acc
                | _ -> acc))
        []
    in
    List.iter
      (fun (nid, oid) ->
        match Program.node_opt p nid with
        | Some _ when Program.mem_plain_op p nid oid ->
            Program.remove_op p nid oid;
            incr removed;
            continue_ := true
        | _ -> ())
      victims
  done;
  !removed

(* The chain of nodes from the entry following unique successors; the
   shape of an unwound, not-yet-scheduled loop.  Stops at the exit or
   at the first node with several successors beyond its own exit
   test. *)
let main_chain (p : Program.t) =
  let rec go acc id =
    if Program.is_exit p id then List.rev acc
    else
      let nexts =
        List.filter (fun s -> not (Program.is_exit p s)) (Program.succs p id)
      in
      match nexts with
      | [ s ] -> go (id :: acc) s
      | [] -> List.rev (id :: acc)
      | _ -> List.rev (id :: acc)
  in
  go [] p.Program.entry

(* [forward_memory p] — on the main chain, replace a load whose
    address provably holds a known value (stored or loaded earlier,
    with no intervening may-aliasing store and no redefinition of the
    involved registers) by a register copy.  Returns the number of
    loads rewritten. *)
let forward_memory (p : Program.t) =
  let chain = main_chain p in
  let rewritten = ref 0 in
  (* available: (addr, operand holding the value) *)
  let avail : (Operation.addr * Operand.t) list ref = ref [] in
  let kill_reg r =
    avail :=
      List.filter
        (fun ((a : Operation.addr), v) ->
          (not (List.exists (Reg.equal r) (Operand.regs a.Operation.base)))
          && not (List.exists (Reg.equal r) (Operand.regs v)))
        !avail
  in
  let kill_store addr =
    avail := List.filter (fun (a, _) -> not (Alias.may_alias addr a)) !avail
  in
  List.iter
    (fun nid ->
      List.iter
        (fun (op : Operation.t) ->
          (match op.Operation.kind with
          | Operation.Load (d, a) -> (
              match
                List.find_opt (fun (a', _) -> Alias.must_alias a a') !avail
              with
              | Some (_, v) ->
                  Program.replace_op p nid
                    { op with Operation.kind = Operation.Copy (d, v) };
                  incr rewritten;
                  kill_reg d;
                  if not (Operand.uses_reg a.Operation.base d) then
                    avail := (a, Operand.Reg d) :: !avail
              | None ->
                  kill_reg d;
                  if not (Operand.uses_reg a.Operation.base d) then
                    avail := (a, Operand.Reg d) :: !avail)
          | Operation.Store (a, v) ->
              kill_store a;
              avail := (a, v) :: !avail
          | Operation.Binop _ | Operation.Unop _ | Operation.Copy _ -> (
              match Operation.def op with
              | Some d -> kill_reg d
              | None -> ())
          | Operation.Cjump _ -> ()))
        (Program.ops p nid))
    chain;
  !rewritten

(* [forward_copies p] — on the main chain, rewrite every use of a
    copy's destination into a use of its source (when the source is
    not redefined in between), enabling [eliminate_dead] to collect
    the copies.  Returns the number of operand rewrites. *)
let forward_copies (p : Program.t) =
  let chain = main_chain p in
  let rewrites = ref 0 in
  (* copy environment: dst reg -> source operand *)
  let env : (Reg.t * Operand.t) list ref = ref [] in
  let kill_reg r =
    env :=
      List.filter
        (fun (d, v) ->
          (not (Reg.equal d r)) && not (List.exists (Reg.equal r) (Operand.regs v)))
        !env
  in
  List.iter
    (fun nid ->
      List.iter
        (fun (op : Operation.t) ->
          let op' =
            Operation.map_operands
              (fun o ->
                List.fold_left
                  (fun o (d, v) ->
                    match Operand.forward o ~copy_dst:d ~copy_src:v with
                    | Some o' ->
                        if not (Operand.equal o o') then incr rewrites;
                        o'
                    | None -> o)
                  o !env)
              op
          in
          if op'.Operation.kind <> op.Operation.kind then
            Program.replace_op p nid op';
          (match Operation.def op' with Some d -> kill_reg d | None -> ());
          match op'.Operation.kind with
          | Operation.Copy (d, v) when not (Operand.uses_reg v d) ->
              env := (d, v) :: !env
          | _ -> ())
        (Program.ops p nid))
    chain;
  !rewrites

(* The old [Redundant.cleanup]: memory forwarding, copy forwarding,
   dead-code elimination. *)
let cleanup (p : Program.t) ~exit_live =
  let l = forward_memory p in
  let c = forward_copies p in
  let d = eliminate_dead p ~exit_live in
  (l, c, d)
