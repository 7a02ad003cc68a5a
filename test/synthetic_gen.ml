(* Random [Synthetic] kernel specs and unwound random programs, out-trees
   or with joins added, shared by the property suites that drive the
   percolation core, the scheduler and the analyses over them. *)

open Vliw_ir
module Synthetic = Workloads.Synthetic

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_ops = int_range 3 10 in
    let* n_arrays = int_range 1 3 in
    let* p_load = float_range 0.1 0.5 in
    let* p_store = float_range 0.05 0.4 in
    let* p_recurrence = float_range 0.0 0.5 in
    return { Synthetic.seed; n_ops; n_arrays; p_load; p_store; p_recurrence })

let print_spec (s : Synthetic.spec) =
  Printf.sprintf "{seed=%d; n_ops=%d; n_arrays=%d; p=(%.2f,%.2f,%.2f)}"
    s.Synthetic.seed s.Synthetic.n_ops s.Synthetic.n_arrays s.Synthetic.p_load
    s.Synthetic.p_store s.Synthetic.p_recurrence

(* deterministic per-spec rng, as in test_props *)
let make_rng seed =
  let rng = ref seed in
  fun bound ->
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod bound

(* One join edge for [p]: a node's loop-exit leaf and a node two or
   three levels below it, or [None] when there is no such pair. *)
let pick_join p next =
  let exit_ = p.Program.exit_id in
  let below id =
    List.filter (fun s -> not (Program.is_exit p s)) (Program.succs p id)
  in
  let forks =
    List.filter
      (fun id ->
        (not (Program.is_exit p id))
        && List.mem exit_ (Program.succs p id)
        && below id <> [])
      (Program.rpo p)
  in
  if forks = [] then None
  else begin
    let x = List.nth forks (next (List.length forks)) in
    let rec descend id depth =
      match below id with
      | l when l <> [] && depth > 0 ->
          descend (List.nth l (next (List.length l))) (depth - 1)
      | _ -> id
    in
    let c = descend (List.hd (below x)) (1 + next 2) in
    if c <> List.hd (below x) then Some (x, c) else None
  end

(* Point [x]'s loop-exit leaf at [c]: [c] gets a second predecessor. *)
let add_join p (x, c) =
  Program.redirect p ~from_:x ~old_:p.Program.exit_id ~new_:c

(* An unwound random kernel with [joins] extra edges from
   {!pick_join}.  With [~joins:0] it is an out-tree, as every scheduler
   input is; each join gives a node a second parent, which node entry
   refuses. *)
let joined_program spec ~joins =
  let kern = Synthetic.generate spec in
  let p = (Grip.Unwind.build kern ~horizon:4).Grip.Unwind.program in
  let next = make_rng (spec.Synthetic.seed + 5) in
  for _ = 1 to joins do
    Option.iter (add_join p) (pick_join p next)
  done;
  (p, Grip.Kernel.exit_live kern)

(* A random ancestor of node [id] in an out-tree, [id] itself when it
   has none: a target node entry could give an operation at [id]. *)
let pick_ancestor p id next =
  let rec up id acc =
    match Program.parent p id with -1 -> acc | q -> up q (q :: acc)
  in
  match up id [] with
  | [] -> id
  | above -> List.nth above (next (List.length above))

(* Migrate a random operation of [ctx]'s program toward a random
   ancestor of its home ({!pick_ancestor}), as the scheduler's
   migrations do; [None] when no operation is left. *)
let migrate_random ?hooks (ctx : Vliw_percolation.Ctx.t) next =
  let p = ctx.Vliw_percolation.Ctx.program in
  match Program.all_ops p with
  | [] -> None
  | ops ->
      let op = List.nth ops (next (List.length ops)) in
      let target = pick_ancestor p (Program.home_int p op.Operation.id) next in
      Some
        (Vliw_percolation.Migrate.migrate ctx ?hooks ~target
           ~op_id:op.Operation.id ())

(* A live node [delete_emptied] may remove: neither the entry nor the
   exit nor a join (a node that dead nodes still point at counts as
   one until the collector runs), with a bare leaf for a tree; [None]
   when there is none. *)
let pick_deletable p next =
  let ok id =
    id <> p.Program.entry
    && (not (Program.is_exit p id))
    && Program.parent p id >= 0
    &&
    match (Program.node p id).Node.ctree with
    | Ctree.Leaf _ -> true
    | Ctree.Branch _ -> false
  in
  match List.filter ok (Program.rpo p) with
  | [] -> None
  | l -> Some (List.nth l (next (List.length l)))

(* Remove node [id]'s plain operations from the program and then the
   node itself, as [Move_op.commit] deletes a node it emptied. *)
let delete_emptied p id =
  let ops = ref [] in
  Iarr.iter (fun oid -> ops := oid :: !ops) (Program.plain_ids p id);
  List.iter (Program.remove_op p id) !ops;
  Program.delete_node p id
