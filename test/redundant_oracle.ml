(* The redundancy pre-pass's forwarding passes as they were before
   their kills stopped rebuilding lists: [List.filter] over the whole
   available set at every definition, [Operand.regs] lists, and
   [Operand.forward] tried on every operand against every copy.  Kept
   verbatim as the oracle [Redundant.forward_memory] and
   [Redundant.forward_copies] are checked against (test_percolation.ml,
   "redundancy oracle"). *)

open Vliw_ir
module Alias = Vliw_analysis.Alias

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
                  avail := (a, Operand.Reg d) :: !avail
              | None ->
                  kill_reg d;
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
          | Operation.Copy (d, v) -> env := (d, v) :: !env
          | _ -> ())
        (Program.ops p nid))
    chain;
  !rewrites

(* The old [Redundant.cleanup]: memory forwarding, copy forwarding,
   then the library's dead-code elimination. *)
let cleanup (p : Program.t) ~exit_live =
  let l = forward_memory p in
  let c = forward_copies p in
  let d = Vliw_percolation.Redundant.eliminate_dead p ~exit_live in
  (l, c, d)
