(** Redundant-operation removal (paper, end of section 4).

    "As a result of compaction, some operations in the original code
    become redundant and are removed. ... This is the reason that some
    of the speed-ups in Table 1 are larger than the apparent maximum
    indicated by the number of functional units."

    Three passes:
    - [eliminate_dead]: drops operations whose destination is dead
      (typically copies left behind by renaming once every consumer
      has been forwarded past them);
    - [forward_memory]: store-to-load forwarding and redundant-load
      elimination over a single-operation-per-node chain (the shape
      the scheduler receives), turning provably-same-address reloads
      into register copies — the LL11/LL12 effect;
    - [forward_copies]: rewrites uses through copies within the
      straight-line chain so dead-copy elimination can fire. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Liveness = Vliw_analysis.Liveness

(** [eliminate_dead p ~exit_live] removes non-memory, non-jump
    operations whose destination is not live out of their node.
    Iterates to a fixpoint; returns the number removed. *)
let eliminate_dead (p : Program.t) ~exit_live =
  let removed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let live = Liveness.make p ~exit_live in
    let victims =
      Program.fold_nodes p
        (fun n acc ->
          if Program.is_exit p n.Node.id then acc
          else
            let out = Liveness.live_out live n.Node.id in
            Program.fold_ops p n.Node.id ~init:acc ~f:(fun acc (op : Operation.t) ->
                (* VLIW reads-before-writes: same-node readers of [d]
                   see the pre-instruction value, so only live-out
                   matters. *)
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

(* The available sets below are lists, newest first.  A kill returns
   its list itself when no entry dies, and otherwise shares the suffix
   after the last entry that dies: an op that kills nothing — most of
   them — builds nothing. *)

(* [avail] without the entries that read [r] (in the address base or
   the value). *)
let rec kill_mem_reg r avail =
  match avail with
  | [] -> avail
  | (((a : Operation.addr), v) as e) :: tl ->
      let tl' = kill_mem_reg r tl in
      if Operand.uses_reg a.Operation.base r || Operand.uses_reg v r then tl'
      else if tl' == tl then avail
      else e :: tl'

(* [avail] without the entries whose address may alias [addr]. *)
let rec kill_aliases addr avail =
  match avail with
  | [] -> avail
  | ((a, _) as e) :: tl ->
      let tl' = kill_aliases addr tl in
      if Alias.may_alias addr a then tl'
      else if tl' == tl then avail
      else e :: tl'

(* The value of the newest entry at an address that must alias [a]. *)
let rec available a = function
  | [] -> None
  | (a', v) :: tl -> if Alias.must_alias a a' then Some v else available a tl

(** [forward_memory p] — on the main chain, replace a load whose
    address provably holds a known value (stored or loaded earlier,
    with no intervening may-aliasing store and no redefinition of the
    involved registers) by a register copy.  Returns the number of
    loads rewritten. *)
let forward_memory (p : Program.t) =
  let chain = main_chain p in
  let rewritten = ref 0 in
  (* available: (addr, operand holding the value) *)
  let avail : (Operation.addr * Operand.t) list ref = ref [] in
  List.iter
    (fun nid ->
      List.iter
        (fun (op : Operation.t) ->
          match op.Operation.kind with
          | Operation.Load (d, a) ->
              (match available a !avail with
              | Some v ->
                  Program.replace_op p nid
                    { op with Operation.kind = Operation.Copy (d, v) };
                  incr rewritten
              | None -> ());
              avail := (a, Operand.Reg d) :: kill_mem_reg d !avail
          | Operation.Store (a, v) -> avail := (a, v) :: kill_aliases a !avail
          | Operation.Binop (_, d, _, _)
          | Operation.Unop (_, d, _)
          | Operation.Copy (d, _) ->
              avail := kill_mem_reg d !avail
          | Operation.Cjump _ -> ())
        (Program.ops p nid))
    chain;
  !rewritten

(* [env] without the copies of [r] and those whose source reads [r]. *)
let rec kill_copy_reg r env =
  match env with
  | [] -> env
  | ((d, v) as e) :: tl ->
      let tl' = kill_copy_reg r tl in
      if Reg.equal d r || Operand.uses_reg v r then tl'
      else if tl' == tl then env
      else e :: tl'

(* Does [o] read the destination of a copy in [env]? *)
let rec reads_copied env o =
  match env with
  | [] -> false
  | (d, _) :: tl -> Operand.uses_reg o d || reads_copied tl o

(* Does a source operand of [op] read a copy's destination? *)
let sources_read_copied env (op : Operation.t) =
  match op.Operation.kind with
  | Operation.Binop (_, _, a, b) | Operation.Cjump (_, a, b) ->
      reads_copied env a || reads_copied env b
  | Operation.Unop (_, _, a) | Operation.Copy (_, a) -> reads_copied env a
  | Operation.Load (_, { Operation.base; _ }) -> reads_copied env base
  | Operation.Store ({ Operation.base; _ }, v) ->
      reads_copied env base || reads_copied env v

(** [forward_copies p] — on the main chain, rewrite every use of a
    copy's destination into a use of its source (when the source is
    not redefined in between), enabling [eliminate_dead] to collect
    the copies.  Returns the number of operand rewrites.  An op none of
    whose operands reads a copy's destination is left as it is. *)
let forward_copies (p : Program.t) =
  let chain = main_chain p in
  let rewrites = ref 0 in
  (* copy environment, newest first: dst reg -> source operand *)
  let env : (Reg.t * Operand.t) list ref = ref [] in
  (* [o] forwarded through every copy of the environment in turn,
     newest first *)
  let forward o =
    List.fold_left
      (fun o (d, v) ->
        if not (Operand.uses_reg o d) then o
        else
          match Operand.forward o ~copy_dst:d ~copy_src:v with
          | Some o' ->
              if not (Operand.equal o o') then incr rewrites;
              o'
          | None -> o)
      o !env
  in
  List.iter
    (fun nid ->
      List.iter
        (fun (op : Operation.t) ->
          let op' =
            if not (sources_read_copied !env op) then op
            else begin
              let op' = Operation.map_operands forward op in
              if op'.Operation.kind <> op.Operation.kind then
                Program.replace_op p nid op';
              op'
            end
          in
          match op'.Operation.kind with
          | Operation.Copy (d, v) -> env := (d, v) :: kill_copy_reg d !env
          | Operation.Binop (_, d, _, _)
          | Operation.Unop (_, d, _)
          | Operation.Load (d, _) ->
              env := kill_copy_reg d !env
          | Operation.Store _ | Operation.Cjump _ -> ())
        (Program.ops p nid))
    chain;
  !rewrites

(** [cleanup p ~exit_live] — the full redundancy pipeline: memory
    forwarding, copy forwarding, dead-code elimination; returns
    (loads_forwarded, copies_forwarded, dead_removed). *)
let cleanup (p : Program.t) ~exit_live =
  let l = forward_memory p in
  let c = forward_copies p in
  let d = eliminate_dead p ~exit_live in
  (l, c, d)
