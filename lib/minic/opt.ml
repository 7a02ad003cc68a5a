(** Scalar optimizations over a kernel's straight-line body.

    These stand in for the paper's "GNU C compiler front-end that
    produces an optimized (sequential) intermediate language": the
    scheduler should receive code with the easy redundancy already
    gone, so that the speedups it reports are its own.

    All passes are local to the loop body treated as a repeating block:
    a definition is dead only if no operation of the body (at {e any}
    position — the next iteration reads earlier positions) and no
    observable register uses it. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias

type stats = { folded : int; propagated : int; cse : int; dead : int }

let no_stats = { folded = 0; propagated = 0; cse = 0; dead = 0 }

let def_of = function
  | Operation.Binop (_, d, _, _)
  | Operation.Unop (_, d, _)
  | Operation.Copy (d, _)
  | Operation.Load (d, _) ->
      Some d
  | Operation.Store _ | Operation.Cjump _ -> None

let operands_of = function
  | Operation.Binop (_, _, a, b) -> [ a; b ]
  | Operation.Unop (_, _, a) | Operation.Copy (_, a) -> [ a ]
  | Operation.Load (_, a) -> [ a.Operation.base ]
  | Operation.Store (a, v) -> [ a.Operation.base; v ]
  | Operation.Cjump (_, a, b) -> [ a; b ]

let uses_of kind = List.concat_map Operand.regs (operands_of kind)

(* -- constant folding ---------------------------------------------------- *)

let constant_fold kinds =
  let folded = ref 0 in
  let fold kind =
    match kind with
    | Operation.Binop (op, d, Operand.Imm a, Operand.Imm b) -> (
        match Opcode.eval_binop op a b with
        | Some v ->
            incr folded;
            Operation.Copy (d, Operand.Imm v)
        | None -> kind)
    | Operation.Unop (op, d, Operand.Imm a) -> (
        match Opcode.eval_unop op a with
        | Some v ->
            incr folded;
            Operation.Copy (d, Operand.Imm v)
        | None -> kind)
    | _ -> kind
  in
  let kinds = List.map fold kinds in
  (kinds, !folded)

(* -- local copy propagation ---------------------------------------------- *)

let map_operands_kind f kind =
  match kind with
  | Operation.Binop (o, d, a, b) -> Operation.Binop (o, d, f a, f b)
  | Operation.Unop (o, d, a) -> Operation.Unop (o, d, f a)
  | Operation.Copy (d, a) -> Operation.Copy (d, f a)
  | Operation.Load (d, a) ->
      Operation.Load (d, { a with Operation.base = f a.Operation.base })
  | Operation.Store (a, v) ->
      Operation.Store ({ a with Operation.base = f a.Operation.base }, f v)
  | Operation.Cjump (r, a, b) -> Operation.Cjump (r, f a, f b)

let copy_propagate kinds =
  let count = ref 0 in
  let env : (Reg.t * Operand.t) list ref = ref [] in
  let kill r =
    env :=
      List.filter
        (fun (d, v) ->
          (not (Reg.equal d r)) && not (List.exists (Reg.equal r) (Operand.regs v)))
        !env
  in
  let rewrite o =
    List.fold_left
      (fun o (d, v) ->
        match Operand.forward o ~copy_dst:d ~copy_src:v with
        | Some o' ->
            if not (Operand.equal o o') then incr count;
            o'
        | None -> o)
      o !env
  in
  let kinds =
    List.map
      (fun kind ->
        let kind = map_operands_kind rewrite kind in
        (match def_of kind with Some d -> kill d | None -> ());
        (match kind with
        | Operation.Copy (d, v) -> env := (d, v) :: !env
        | _ -> ());
        kind)
      kinds
  in
  (kinds, !count)

(* -- local common-subexpression elimination ------------------------------- *)

type avail =
  | Aexpr of Operation.kind  (** canonicalised pure computation *)
  | Aload of Operation.addr

let canonical kind =
  match kind with
  | Operation.Binop (op, d, a, b) when Opcode.commutative op ->
      let a, b = if compare a b <= 0 then (a, b) else (b, a) in
      Operation.Binop (op, d, a, b)
  | _ -> kind

let strip_def kind =
  (* the availability key ignores the destination *)
  match canonical kind with
  | Operation.Binop (op, _, a, b) -> Some (Aexpr (Operation.Binop (op, Reg.of_int 0, a, b)))
  | Operation.Unop (op, _, a) -> Some (Aexpr (Operation.Unop (op, Reg.of_int 0, a)))
  | Operation.Load (_, a) -> Some (Aload a)
  | Operation.Copy _ | Operation.Store _ | Operation.Cjump _ -> None

let common_subexpression kinds =
  let count = ref 0 in
  (* available: (key, holder register) *)
  let avail : (avail * Reg.t) list ref = ref [] in
  let reads key r =
    match key with
    | Aexpr k -> List.exists (Reg.equal r) (uses_of k)
    | Aload a -> List.exists (Reg.equal r) (Operand.regs a.Operation.base)
  in
  let kill r =
    avail :=
      List.filter
        (fun (key, holder) -> (not (Reg.equal holder r)) && not (reads key r))
        !avail
  in
  let kill_store addr =
    avail :=
      List.filter
        (fun (key, _) ->
          match key with
          | Aload a -> not (Alias.may_alias addr a)
          | Aexpr _ -> true)
        !avail
  in
  let kinds =
    List.map
      (fun kind ->
        let key = strip_def kind in
        let kind =
          match key, def_of kind with
          | Some key, Some d -> (
              match
                List.find_opt (fun (k, _) -> k = key) !avail
              with
              | Some (_, holder) ->
                  incr count;
                  Operation.Copy (d, Operand.Reg holder)
              | None -> kind)
          | _ -> kind
        in
        (match kind with
        | Operation.Store (a, _) -> kill_store a
        | _ -> ());
        (match def_of kind with Some d -> kill d | None -> ());
        (* a key that reads [d] names the value [d] held before this op
           redefined it, which [d] no longer holds: [s = s + 1.0] makes
           [s + 1.0] available nowhere *)
        (match key, def_of kind, kind with
        | Some key, Some d, (Operation.Binop _ | Operation.Unop _ | Operation.Load _)
          when not (reads key d) ->
            avail := (key, d) :: !avail
        | _ -> ());
        kind)
      kinds
  in
  (kinds, !count)

(* -- dead-code elimination ------------------------------------------------ *)

let dead_code ~observable kinds =
  let removed = ref 0 in
  let rec fix kinds =
    let used =
      List.fold_left
        (fun acc kind ->
          List.fold_left (fun acc r -> Reg.Set.add r acc) acc (uses_of kind))
        observable kinds
    in
    let keep kind =
      match kind, def_of kind with
      | (Operation.Store _ | Operation.Cjump _), _ -> true
      | _, Some d -> Reg.Set.mem d used
      | _, None -> true
    in
    let kept = List.filter keep kinds in
    if List.length kept < List.length kinds then begin
      removed := !removed + (List.length kinds - List.length kept);
      fix kept
    end
    else kept
  in
  let kinds = fix kinds in
  (kinds, !removed)

(* -- the pipeline ---------------------------------------------------------- *)

(** [body ~observable kinds] — fold, propagate, CSE, then sweep dead
    code, iterating the whole pipeline to a fixpoint (bounded). *)
let body ~observable kinds =
  let rec go kinds stats fuel =
    if fuel = 0 then (kinds, stats)
    else begin
      let kinds, folded = constant_fold kinds in
      let kinds, propagated = copy_propagate kinds in
      let kinds, cse = common_subexpression kinds in
      let kinds, dead = dead_code ~observable kinds in
      let stats' =
        {
          folded = stats.folded + folded;
          propagated = stats.propagated + propagated;
          cse = stats.cse + cse;
          dead = stats.dead + dead;
        }
      in
      if folded + propagated + cse + dead = 0 then (kinds, stats')
      else go kinds stats' (fuel - 1)
    end
  in
  go kinds no_stats 8

(** [kernel k] optimizes the body of [k].  The loop-carried registers
    (ivar, observables, and every register read before it is defined in
    the body) are treated as observable so cross-iteration dataflow is
    preserved. *)
let kernel (k : Grip.Kernel.t) =
  (* registers live into the body: read before any definition *)
  let live_in =
    let defined = ref Reg.Set.empty and live = ref Reg.Set.empty in
    List.iter
      (fun kind ->
        List.iter
          (fun r -> if not (Reg.Set.mem r !defined) then live := Reg.Set.add r !live)
          (uses_of kind);
        match def_of kind with
        | Some d -> defined := Reg.Set.add d !defined
        | None -> ())
      k.Grip.Kernel.body;
    !live
  in
  let observable =
    Reg.Set.union live_in
      (Reg.Set.add k.Grip.Kernel.ivar
         (Reg.Set.of_list k.Grip.Kernel.observable))
  in
  let kinds, stats = body ~observable k.Grip.Kernel.body in
  ({ k with Grip.Kernel.body = kinds }, stats)
