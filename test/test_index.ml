(* Derived-state oracle: the flat per-node stores, the incrementally
   maintained predecessor table, the counts-based resource accounting
   and the legality check must be observationally identical to the
   retained list-scanning ("naive") implementations — on random
   programs and across random mutation sequences.  A digest spot-check of real schedules rides along (the
   full 126-cell sweep runs under the @schedules / @perf-gate
   aliases). *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Move_op = Vliw_percolation.Move_op
module Move_cj = Vliw_percolation.Move_cj
module Synthetic = Workloads.Synthetic

open Synthetic_gen

let failure_str f = Format.asprintf "%a" Move_op.pp_failure f

let verdicts_agree a b =
  match a, b with
  | Ok (), Ok () -> true
  | Error fa, Error fb -> String.equal (failure_str fa) (failure_str fb)
  | _ -> false

(* A legality decision as a check makes it: the failure, or the op as
   it would land and whether it is renamed (compared up to the fresh
   register, which each check draws anew). *)
let decision check ctx ~from_ ~to_ ~op_id =
  match check ctx ~from_ ~to_ ~op_id with
  | exception Move_op.Fail f -> Error (failure_str f)
  | op, renamed ->
      let op =
        match renamed with Some (d, _) -> Operation.with_def op d | None -> op
      in
      Ok (op, Option.is_some renamed)

(* Every (pred, succ, op) move candidate of the current program. *)
let all_candidates p =
  List.concat_map
    (fun nid ->
      if Program.is_exit p nid then []
      else
        List.concat_map
          (fun s ->
            if Program.is_exit p s then []
            else
              List.map
                (fun (op : Operation.t) -> (s, nid, op.Operation.id))
                (Program.ops p s))
          (Program.succs p nid))
    (Program.rpo p)

let machines =
  [
    Machine.homogeneous 2;
    Machine.homogeneous 4;
    Machine.homogeneous ~copies_free:true 4;
    Machine.typed ~alu:3 ~mem:1 ~branch:1 ();
  ]

(* 1. the in-place check == retained naive implementation, decision
   and renaming alike, across a random mutation sequence; derived
   state stays coherent. *)
let prop_legality_equiv =
  QCheck2.Test.make ~name:"indexed legality == naive legality" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:4 in
      let p = u.Grip.Unwind.program in
      let ctx =
        Ctx.make p ~machine:(Machine.homogeneous 3)
          ~exit_live:(Grip.Kernel.exit_live kern)
      in
      let next = make_rng spec.Synthetic.seed in
      let ok = ref true in
      for _round = 1 to 6 do
        List.iter
          (fun (from_, to_, op_id) ->
            let naive = decision Scan_oracles.check_scan ctx ~from_ ~to_ ~op_id in
            let indexed = decision Move_op.check ctx ~from_ ~to_ ~op_id in
            if naive <> indexed then ok := false)
          (all_candidates p);
        (* mutate: a few random accepted moves, then recheck coherence *)
        for _ = 1 to 8 do
          match all_candidates p with
          | [] -> ()
          | cands ->
              let from_, to_, op_id = List.nth cands (next (List.length cands)) in
              ignore (Move_op.move ctx ~from_ ~to_ ~op_id)
        done;
        (match Program.check_derived_state p with
        | None -> ()
        | Some reason ->
            QCheck2.Test.fail_reportf "derived state incoherent: %s" reason)
      done;
      !ok)

(* 2. counts-based resource accounting == op-list scans, on every node
   of scheduled programs, for every machine shape. *)
let prop_room_for_equiv =
  QCheck2.Test.make ~name:"counts-based room_for == scan" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let o =
        Grip.Pipeline.run kern ~machine:(Machine.homogeneous 2)
          ~method_:Grip.Pipeline.Grip ~horizon:6
      in
      let p = o.Grip.Pipeline.program in
      let probe_ops =
        List.concat_map
          (fun nid ->
            if Program.is_exit p nid then [] else Scan_oracles.all_ops p nid)
          (Program.rpo p)
      in
      List.for_all
        (fun m ->
          List.for_all
            (fun nid ->
              Program.is_exit p nid
              ||
              let n = Scan_oracles.all_ops p nid in
              let c = Program.counts_packed p nid in
              Machine.slot_demand_packed m c = Scan_oracles.slot_demand_scan m n
              && List.for_all
                   (fun op ->
                     Machine.room_for_packed m c op
                     = Scan_oracles.room_for_scan m n op)
                   probe_ops)
            (Program.rpo p))
        machines)

(* 5. the parent and the collector against naive scans.  The parent of
   a node is the owner of the one tree leaf in the table pointing at
   it, by a scan of every node's tree; the worklist collector must
   remove exactly the unreachable nodes, after migrations, after the
   dead nodes an orphaned chain leaves, and after a restored snapshot
   brings dead nodes back. *)
let naive_parent p id =
  let owners =
    Program.fold_nodes p
      (fun (n : Node.t) acc ->
        let self_loop = n.Node.id = id && Program.is_exit p id in
        let rec go acc = function
          | Ctree.Leaf s -> if s = id && not self_loop then n.Node.id :: acc else acc
          | Ctree.Branch (_, a, b) -> go (go acc a) b
        in
        go acc n.Node.ctree)
      []
  in
  match owners with [ q ] -> q | _ -> -1

(* Every (from_, to_, cj) move of a root conditional jump. *)
let cj_candidates p =
  List.concat_map
    (fun nid ->
      if Program.is_exit p nid then []
      else
        List.filter_map
          (fun s ->
            if Program.is_exit p s then None
            else
              match Ctree.split_root (Program.node p s).Node.ctree with
              | Some (cj, _, _) -> Some (s, nid, cj.Operation.id)
              | None -> None)
          (Program.succs p nid))
    (Program.rpo p)

(* Nodes in the table that no path from the entry reaches, by a plain
   traversal of the successor mirror (not [Program.is_live]). *)
let unreachable_nodes p =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Program.succs p id)
    end
  in
  go p.Program.entry;
  Program.fold_nodes p
    (fun (n : Node.t) acc ->
      if Hashtbl.mem seen n.Node.id then acc else n.Node.id :: acc)
    []

(* [Program.is_live] must agree with the plain traversal on every node
   in the table, dead or alive. *)
let live_agrees p =
  let dead = unreachable_nodes p in
  Program.iter_nodes p (fun (n : Node.t) ->
      let id = n.Node.id in
      if Program.is_live p id = List.mem id dead then
        QCheck2.Test.fail_reportf "is_live wrong for n%d" id)

(* [Program.gc] must leave no unreachable node behind and report
   exactly the number of nodes it removed. *)
let gc_exactly p =
  let size () = Program.fold_nodes p (fun _ k -> k + 1) 0 in
  live_agrees p;
  let before = size () in
  let k = Program.gc p in
  live_agrees p;
  if before - size () <> k then
    QCheck2.Test.fail_reportf "gc returned %d but removed %d node(s)" k
      (before - size ());
  (match unreachable_nodes p with
  | [] -> ()
  | id :: _ -> QCheck2.Test.fail_reportf "unreachable n%d survived gc" id);
  k

(* Orphan a short chain: point a predecessor straight past up to three
   single-entry, single-exit nodes, as [Program.delete_node] would, but
   leave them in the table.  Only the first loses an in-edge; the rest
   die through it, so the sweep has to cascade to find them.  Returns
   the first, or [-1] when there was no such chain. *)
let bypass_chain p next =
  let single id =
    id <> p.Program.entry
    && (not (Program.is_exit p id))
    && Program.parent p id >= 0
    && List.length (Program.succs p id) = 1
  in
  match List.filter single (Program.rpo p) with
  | [] -> -1
  | heads ->
      let id = List.nth heads (next (List.length heads)) in
      let rec past id k =
        let s = List.hd (Program.succs p id) in
        if k > 1 && single s then past s (k - 1) else s
      in
      Program.redirect p ~from_:(Program.parent p id) ~old_:id ~new_:(past id 3);
      id

(* Delete an orphaned chain's head, which lost its in-edge and so is
   queued for the sweep: the nodes below it that died with it must be
   found all the same.  Its tree must be a bare leaf. *)
let delete_orphan p id =
  match Program.node_opt p id with
  | Some { Node.ctree = Ctree.Leaf _; _ } -> Synthetic_gen.delete_emptied p id
  | Some _ | None -> ()

(* The collector after deletions.  entry -> a -> b -> c -> d -> exit,
   swept once so that nothing is queued; the entry is then pointed
   straight at d, which leaves a queued and a, b, c dead.  Deleting a
   must queue b in its place, so the sweep still cascades to b and c;
   deleting a live queued node (a fresh one, spliced in) must leave
   nothing to collect.  The flat successors of every removed node are
   cleared. *)
let test_gc_after_deletions () =
  let p =
    Builder.straight
      (List.init 4 (fun i -> Operation.Copy (Reg.of_int i, Operand.Imm (Value.I i))))
  in
  Alcotest.(check int) "nothing dead after building" 0 (Program.gc p);
  let ids =
    List.filter
      (fun id -> id <> p.Program.entry && not (Program.is_exit p id))
      (Program.rpo p)
  in
  let a, d = (List.nth ids 0, List.nth ids 3) in
  Program.redirect p ~from_:p.Program.entry ~old_:a ~new_:d;
  Synthetic_gen.delete_emptied p a;
  let k = Program.gc p in
  Alcotest.(check int) "b and c collected" 2 k;
  Alcotest.(check (list int)) "nothing unreachable left" [] (unreachable_nodes p);
  let f = Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf d) in
  Program.redirect p ~from_:p.Program.entry ~old_:d ~new_:f.Node.id;
  Program.delete_node p f.Node.id;
  Alcotest.(check int) "nothing to collect after a live deletion" 0 (Program.gc p);
  Alcotest.(check (list int)) "still nothing unreachable" [] (unreachable_nodes p);
  Alcotest.(check (option string)) "derived state" None
    (Program.check_derived_state p)

(* -- graph order: the flat walk against the recursive one ---------------- *)

(* The walks [Program] ran before its graph order became one flat walk
   per shape: a recursive reverse postorder (mark, walk the successors
   in [succs] order, then prepend) and a byte-mask reachability pass. *)
let oracle_rpo p =
  let seen = Bytes.make (Program.node_limit p) '\000' in
  let order = ref [] in
  let rec go id =
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      List.iter go (Program.succs p id);
      order := id :: !order
    end
  in
  go p.Program.entry;
  !order

let oracle_live_mask p =
  let m = Bytes.make (Program.node_limit p) '\000' in
  let rec go id =
    if Bytes.get m id = '\000' then begin
      Bytes.set m id '\001';
      List.iter go (Program.succs p id)
    end
  in
  go p.Program.entry;
  m

(* Every graph-order answer of [p] equals the oracles': the list view,
   each position (ids of deleted and never-allocated nodes included),
   reachability, the node count and the reachable set. *)
let order_agrees what p =
  let want = oracle_rpo p and mask = oracle_live_mask p in
  let live id = id >= 0 && id < Bytes.length mask && Bytes.get mask id <> '\000' in
  if Program.rpo p <> want then QCheck2.Test.fail_reportf "%s: rpo differs" what;
  List.iteri
    (fun k id ->
      if Program.rpo_at p k <> id then
        QCheck2.Test.fail_reportf "%s: rpo_at %d = n%d, want n%d" what k
          (Program.rpo_at p k) id)
    want;
  let index = Hashtbl.create 64 in
  List.iteri (fun k id -> Hashtbl.replace index id k) want;
  for id = -1 to Program.node_limit p + 2 do
    let pos = Option.value (Hashtbl.find_opt index id) ~default:max_int in
    if Program.rpo_index p id <> pos then
      QCheck2.Test.fail_reportf "%s: rpo_index n%d = %d, want %d" what id
        (Program.rpo_index p id) pos;
    if Program.is_live p id <> live id then
      QCheck2.Test.fail_reportf "%s: is_live n%d = %b" what id
        (Program.is_live p id)
  done;
  if Program.n_nodes p <> List.length want then
    QCheck2.Test.fail_reportf "%s: n_nodes %d, want %d" what (Program.n_nodes p)
      (List.length want);
  let got =
    List.sort Int.compare
      (Hashtbl.fold (fun id () acc -> id :: acc) (Program.reachable p) [])
  in
  if got <> List.sort Int.compare want then
    QCheck2.Test.fail_reportf "%s: reachable set differs" what

(* On random unwound programs, through random committed migrations
   ([Move_cj] included): after each, with the dead nodes an orphaned
   chain leaves still in the table, after the sweep, and after a
   snapshot is restored over later moves.  Each sweep must remove
   exactly the unreachable nodes, and a snapshot captured with dead
   nodes in the table must give them back to the next sweep. *)
let prop_flat_order =
  QCheck2.Test.make ~name:"flat order == recursive DFS" ~count:100
    ~print:print_spec spec_gen (fun spec ->
      let p, exit_live = joined_program spec ~joins:0 in
      let ctx = Ctx.make p ~machine:(Machine.homogeneous 2) ~exit_live in
      let next = make_rng (spec.Synthetic.seed + 23) in
      let dead_seen = ref false in
      order_agrees "start" p;
      for round = 1 to 6 do
        for _ = 1 to 3 do
          ignore (migrate_random ctx next);
          order_agrees "migrated" p
        done;
        if round mod 2 = 0 then begin
          (* snapshot with dead nodes still in the table, sweep them,
             migrate on, then restore: the restored dead nodes must be
             queued for the next sweep again *)
          delete_orphan p (bypass_chain p next);
          let dead = List.length (unreachable_nodes p) in
          let snap = Program.snapshot p in
          ignore (gc_exactly p);
          ignore (migrate_random ctx next);
          ignore (gc_exactly p);
          Program.restore p snap;
          order_agrees "restored with dead nodes" p;
          let k = gc_exactly p in
          if k <> dead then
            QCheck2.Test.fail_reportf
              "restore re-queued %d dead node(s), %d were captured" k dead;
          ignore (bypass_chain p next)
        end;
        (* a deletion changes no node's reachability *)
        Option.iter (delete_emptied p) (pick_deletable p next);
        order_agrees "after a deletion" p;
        if unreachable_nodes p <> [] then dead_seen := true;
        order_agrees "dead nodes" p;
        ignore (gc_exactly p);
        order_agrees "after gc" p;
        (match Program.check_derived_state p with
        | None -> ()
        | Some reason ->
            QCheck2.Test.fail_reportf "derived state incoherent: %s" reason);
        if round mod 3 = 0 then begin
          let snap = Program.snapshot p in
          ignore (migrate_random ctx next);
          Program.restore p snap;
          order_agrees "restored" p;
          ignore (Program.gc p);
          order_agrees "restored, swept" p
        end
      done;
      if not !dead_seen then QCheck2.assume_fail () else true)

(* 6. flat accessors == naive node scans on migration-heavy schedules.
   A node's plain ops and its jumps each have one home (its op-id
   sequence with the record store, and its tree), so what is checked
   here is what is still derived from them, against a fresh scan after
   real GRiP runs over the Livermore digest subset: the packed counts,
   the op-id enumeration, op homes, the jumps' stored records, the
   successor mirror and the parent. *)
let flat_accessors_agree () =
  List.iter
    (fun (name, fu, method_) ->
      let e = Option.get (Workloads.Livermore.find name) in
      let machine = Machine.homogeneous fu in
      let o = Grip.Pipeline.run e.Workloads.Livermore.kernel ~machine ~method_ in
      let p = o.Grip.Pipeline.program in
      List.iter
        (fun nid ->
          let n = Program.node p nid in
          let ops = Program.ops p nid and jumps = Ctree.cjumps n.Node.ctree in
          let ids = List.map (fun (op : Operation.t) -> op.Operation.id) in
          (* the op-id enumeration: plain ops, then the tree's jumps *)
          let flat = ref [] in
          Program.iter_op_ids p nid (fun oid -> flat := oid :: !flat);
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: op-id enumeration" name fu nid)
            (ids ops @ ids jumps) (List.rev !flat);
          (* packed counts match a fresh count *)
          let c = Program.counts_packed p nid in
          let count f = List.length (List.filter f ops) in
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: packed counts" name fu nid)
            [
              List.length ops;
              count Operation.is_copy;
              count (fun (o : Operation.t) -> Operation.mem_access o <> None);
              List.length jumps;
            ]
            [
              Node.packed_plain c;
              Node.packed_copies c;
              Node.packed_mems c;
              Node.packed_cjumps c;
            ];
          (* every op is homed here, and a jump's stored record is the
             tree's own *)
          List.iter
            (fun (op : Operation.t) ->
              Alcotest.(check int)
                (Printf.sprintf "%s fu%d op%d: home" name fu op.Operation.id)
                nid
                (Program.home_int p op.Operation.id))
            (ops @ jumps);
          List.iter
            (fun (cj : Operation.t) ->
              match Program.stored_op p cj.Operation.id with
              | Some r when r == cj -> ()
              | _ ->
                  Alcotest.failf "%s fu%d op%d: stored jump is not the tree's" name
                    fu cj.Operation.id)
            jumps;
          (* successor mirror serves the tree's view *)
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: succs mirror" name fu nid)
            (if Program.is_exit p nid then [] else Ctree.succs n.Node.ctree)
            (Program.succs p nid);
          (* the parent vs a scan of every tree's leaves *)
          Alcotest.(check int)
            (Printf.sprintf "%s fu%d n%d: parent" name fu nid)
            (naive_parent p nid) (Program.parent p nid))
        (Program.rpo p))
    [
      ("LL1", 2, Grip.Pipeline.Grip);
      ("LL3", 4, Grip.Pipeline.Grip);
      ("LL5", 8, Grip.Pipeline.Grip);
      ("LL7", 4, Grip.Pipeline.Grip_no_gap);
    ]

(* 7. the legality check across edits and inside walks.  The oracle is
   the list-scanning check on the op's home.  For an op placed
   elsewhere it is the home rule: [from_] does not hold it, so the
   answer is [Not_adjacent] or [Op_not_found]. *)
let oracle_verdict (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let p = ctx.Ctx.program in
  if Program.home_int p op_id = from_ then
    Scan_oracles.would_move_scan ctx ~from_ ~to_ ~op_id
  else if
    from_ = to_ || Ctree.path_to (Program.node p to_).Node.ctree from_ = None
  then Error Move_op.Not_adjacent
  else Error Move_op.Op_not_found

let show_verdict = function Ok () -> "ok" | Error f -> failure_str f

(* Run over the whole property, so that a later case can check the
   sweep reached what it must. *)
let sweep_queries = ref 0
let sweep_moved_home = ref 0
let sweep_splits = ref 0
let sweep_cj_moves = ref 0

(* [would_move] against the oracle, on a query whose two nodes still
   exist; while the op is at home in [from_], [check] against
   [check_scan] too, whole decisions: the op as it would land and
   whether it is renamed. *)
let check_agrees what (ctx : Ctx.t) (from_, to_, op_id) =
  let p = ctx.Ctx.program in
  if Program.node_opt p from_ <> None && Program.node_opt p to_ <> None then begin
    incr sweep_queries;
    if Program.home_int p op_id <> from_ then incr sweep_moved_home
    else if
      decision Move_op.check ctx ~from_ ~to_ ~op_id
      <> decision Scan_oracles.check_scan ctx ~from_ ~to_ ~op_id
    then
      QCheck2.Test.fail_reportf
        "%s: check (n%d -> n%d, op %d) decides otherwise than check_scan" what
        from_ to_ op_id;
    let want = oracle_verdict ctx ~from_ ~to_ ~op_id in
    let got = Move_op.would_move ctx ~from_ ~to_ ~op_id in
    if not (verdicts_agree want got) then
      QCheck2.Test.fail_reportf
        "%s: would_move (n%d -> n%d, op %d) = %s, check_scan %s" what from_
        to_ op_id (show_verdict got) (show_verdict want)
  end

(* After a committed move the collector has run: no node the entry
   no longer reaches stays in the table. *)
let collected what p =
  match unreachable_nodes p with
  | [] -> ()
  | id :: _ ->
      QCheck2.Test.fail_reportf "%s: unreachable n%d left in the table" what id

(* [Move_op.move] against the oracle asked just before it. *)
let move_agrees (ctx : Ctx.t) (from_, to_, op_id) =
  let want = oracle_verdict ctx ~from_ ~to_ ~op_id in
  let got =
    match Move_op.move ctx ~from_ ~to_ ~op_id with
    | Ok _ ->
        collected "after a move" ctx.Ctx.program;
        Ok ()
    | Error f -> Error f
  in
  if not (verdicts_agree want got) then
    QCheck2.Test.fail_reportf "move (n%d -> n%d, op %d) = %s, check_scan %s"
      from_ to_ op_id (show_verdict got) (show_verdict want)

(* Every (node, predecessor, op) triple in the table. *)
let table_candidates p =
  Program.fold_nodes p
    (fun (n : Node.t) acc ->
      if Program.is_exit p n.Node.id then acc
      else
        List.fold_left
          (fun acc s ->
            match Program.node_opt p s with
            | Some _ when not (Program.is_exit p s) ->
                Iarr.fold_left
                  (fun acc oid -> (s, n.Node.id, oid) :: acc)
                  acc (Program.plain_ids p s)
            | Some _ | None -> acc)
          acc
          (Ctree.succs n.Node.ctree))
    []

(* A committed [Move_cj] move, the table checked after it; a move
   that split [from_] into a copy per arm counts as a split. *)
let cj_move (ctx : Ctx.t) (from_, to_, cj_id) =
  let limit = Program.node_limit ctx.Ctx.program in
  let moved = Result.is_ok (Move_cj.move ctx ~from_ ~to_ ~cj_id) in
  if moved then begin
    incr sweep_cj_moves;
    if Program.node_limit ctx.Ctx.program = limit + 2 then incr sweep_splits;
    collected "after Move_cj" ctx.Ctx.program
  end;
  moved

(* Two [Move_cj] moves: a node's root jump, then, when that left the
   node to die, the root jump of one of its old successors, whose ops
   move to the successor's true arm under their ids.  Every triple in
   the table is asked after the pair. *)
let cj_pair (ctx : Ctx.t) pick =
  let p = ctx.Ctx.program in
  match cj_candidates p with
  | [] -> ()
  | l ->
      let ((from_, _, _) as first) = pick l in
      let below = Ctree.succs (Program.node p from_).Node.ctree in
      if cj_move ctx first && not (Program.is_live p from_) then begin
        match
          List.filter (fun (s, _, _) -> List.mem s below) (cj_candidates p)
        with
        | [] -> ()
        | l -> ignore (cj_move ctx (pick l))
      end;
      List.iter (check_agrees "table" ctx) (table_candidates p)

(* Unwound programs, edited by migrations ([Move_cj] moves among their
   hops), direct moves and direct [Move_cj] moves.
   Each round asks every live candidate and every candidate of the
   round before (whose op may have left, or whose nodes may have been
   edited since), and the migrations ask the hop at hand plus the old
   candidates from inside their walks.  After every committed move,
   inside a walk too, the table holds no unreachable node. *)
let prop_check_sweep =
  QCheck2.Test.make ~name:"check == check_scan across edits" ~count:40
    ~print:print_spec spec_gen (fun spec ->
      let p, exit_live = joined_program spec ~joins:0 in
      let ctx = Ctx.make p ~machine:(Machine.homogeneous 3) ~exit_live in
      let next = make_rng (spec.Synthetic.seed + 41) in
      let old = ref [] in
      let hooks =
        {
          Vliw_percolation.Migrate.no_hooks with
          allow_hop =
            (fun ~from_ ~to_ ~op ->
              collected "inside a walk" p;
              check_agrees "inside a walk" ctx (from_, to_, op.Operation.id);
              List.iteri
                (fun i q -> if i land 7 = 0 then check_agrees "stale, in a walk" ctx q)
                !old;
              true);
        }
      in
      let pick l = List.nth l (next (List.length l)) in
      for _round = 1 to 6 do
        let cands = all_candidates p in
        List.iter (check_agrees "stale" ctx) !old;
        List.iter (check_agrees "live" ctx) cands;
        old := cands;
        cj_pair ctx pick;
        for _ = 1 to 3 do
          ignore (migrate_random ~hooks ctx next);
          collected "after a migration" p
        done;
        for _ = 1 to 3 do
          match all_candidates p with
          | [] -> ()
          | l -> move_agrees ctx (pick l)
        done;
        (match cj_candidates p with
        | [] -> ()
        | l -> ignore (cj_move ctx (pick l)));
        List.iter (check_agrees "after edits" ctx) !old
      done;
      true)

(* The sweep above must have asked about ops that left [from_], and
   its edits must have moved conditional jumps, splitting a node into
   a copy per arm. *)
let test_sweep_reach () =
  Alcotest.(check bool) "queries asked" true (!sweep_queries > 0);
  Alcotest.(check bool) "ops asked about after leaving from_" true
    (!sweep_moved_home > 0);
  Alcotest.(check bool) "Move_cj split a node" true (!sweep_splits > 0);
  Alcotest.(check bool) "Move_cj moves" true (!sweep_cj_moves > 0)

(* 8. allocation pins: the Gapless test, the alias test, the
   destination test and a replayed attempt allocate nothing. *)
let test_hop_path_no_alloc () =
  let kern = (Option.get (Workloads.Livermore.find "LL1")).Workloads.Livermore.kernel in
  let p = (Grip.Unwind.build kern ~horizon:6).Grip.Unwind.program in
  let ctx =
    Ctx.make p ~machine:(Machine.homogeneous 2)
      ~exit_live:(Grip.Kernel.exit_live kern)
  in
  (* a hop whose op belongs to an iteration, so the Gapless test runs
     its searches, and a store and a load for the alias test *)
  let from_, to_, op_id =
    List.find
      (fun (s, _, oid) ->
        (Option.get (Program.stored_op p oid)).Operation.iter <> Operation.no_iter
        && Iarr.length (Program.plain_ids p s) = 1)
      (all_candidates p)
  in
  let op = Option.get (Program.stored_op p op_id) in
  let all = Program.all_ops p in
  let store = List.find Operation.is_store all and load = List.find Operation.is_load all in
  let memo = Grip.Gapless.create_memo () in
  let d = Reg.of_int 3 in
  let count what f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Alcotest.(check (float 0.0)) (what ^ ": minor words over 10,000 calls") 0.0
      (Gc.minor_words () -. w0)
  in
  count "Gapless.ok" (fun () ->
      ignore (Grip.Gapless.ok ctx memo ~from_ ~to_ ~op));
  count "Alias.mem_conflict" (fun () ->
      ignore (Vliw_analysis.Alias.mem_conflict store load));
  count "Operation.defines_reg" (fun () -> ignore (Operation.defines_reg op d));
  (* a replayed attempt: an attempt that moved nothing, at a hop out of
     its op's home into the home's only live predecessor that the
     legality check refuses, recorded as the scheduler records it with
     its Gapless read set, then confirmed and replayed *)
  let module Migrate = Vliw_percolation.Migrate in
  let w =
    Migrate.walker ctx
      {
        Migrate.no_hooks with
        Migrate.allow_hop =
          (fun ~from_ ~to_ ~op -> Grip.Gapless.ok ctx memo ~from_ ~to_ ~op);
      }
  in
  let _, to_, rid =
    List.find
      (fun (s, q, oid) ->
        Program.parent p s = q
        && Result.is_error (Move_op.would_move ctx ~from_:s ~to_:q ~op_id:oid))
      (all_candidates p)
  in
  Migrate.run w ~target:to_ ~op_id:rid;
  Alcotest.(check int) "the attempt moved nothing" 0 (Migrate.moved w);
  Ctx.replay_store ctx ~op_id:rid ~from_:(Program.home_int p rid) ~to_
    (Migrate.last_failure w) ~reads:(Grip.Gapless.reads memo);
  count "replayed attempt" (fun () ->
      if not (Ctx.replay_hit ctx rid) then Alcotest.fail "slot not replayed";
      Migrate.replay w (Ctx.replay_outcome ctx rid))

(* 4. full pipelines leave every maintained structure coherent *)
let prop_pipeline_coherent =
  QCheck2.Test.make ~name:"derived state coherent after pipelines" ~count:15
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      List.for_all
        (fun method_ ->
          let o =
            Grip.Pipeline.run kern ~machine:(Machine.homogeneous 2) ~method_
              ~horizon:6
          in
          Program.check_derived_state o.Grip.Pipeline.program = None)
        [ Grip.Pipeline.Grip; Grip.Pipeline.Grip_no_gap; Grip.Pipeline.Post ])

(* -- digest spot-check: real kernels, byte-identical schedules -------- *)

let method_tag = function
  | Grip.Pipeline.Grip -> "grip"
  | Grip.Pipeline.Grip_no_gap -> "no-gap"
  | Grip.Pipeline.Post -> "post"
  | Grip.Pipeline.Unifiable -> "unifiable"

let cell_digest kernel ~fu ~method_ =
  let machine = Machine.homogeneous fu in
  let o = Grip.Pipeline.run kernel ~machine ~method_ in
  let rendered =
    Format.asprintf "%a@.cpi=%s converged=%b@." Program.pp
      o.Grip.Pipeline.program
      (match o.Grip.Pipeline.static_cpi with
      | Some c -> Printf.sprintf "%.4f" c
      | None -> "-")
      (o.Grip.Pipeline.pattern <> None)
  in
  Digest.to_hex (Digest.string rendered)

let digest_subset () =
  let expected =
    let file =
      if Sys.file_exists "schedule_digests.expected" then
        "schedule_digests.expected"
      else
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "schedule_digests.expected"
    in
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  List.iter
    (fun (name, fu, m) ->
      let e = Option.get (Workloads.Livermore.find name) in
      let line =
        Printf.sprintf "%s %s fu%d %s" name (method_tag m) fu
          (cell_digest e.Workloads.Livermore.kernel ~fu ~method_:m)
      in
      if not (List.mem line expected) then
        Alcotest.failf "schedule drifted from expected digest: %s" line)
    [
      ("LL1", 2, Grip.Pipeline.Grip);
      ("LL1", 2, Grip.Pipeline.Post);
      ("LL3", 4, Grip.Pipeline.Grip);
      ("LL5", 2, Grip.Pipeline.Grip_no_gap);
    ]

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260704";
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_legality_equiv;
        prop_room_for_equiv;
        prop_flat_order;
        prop_pipeline_coherent;
      ]
  in
  let memo_suite =
    [
      QCheck_alcotest.to_alcotest prop_check_sweep;
      Alcotest.test_case "sweep hit moved homes, splits, Move_cj" `Quick
        test_sweep_reach;
    ]
  in
  Alcotest.run "index"
    [
      ("qcheck", qsuite);
      ( "flat",
        [ Alcotest.test_case "flat accessors == naive scans" `Quick
            flat_accessors_agree;
          Alcotest.test_case "collector after deletions" `Quick
            test_gc_after_deletions ] );
      ( "digests",
        [ Alcotest.test_case "Livermore subset byte-identical" `Quick
            digest_subset ] );
      ("memo", memo_suite);
      ( "alloc",
        [ Alcotest.test_case "no allocation on the hop path" `Quick
            test_hop_path_no_alloc ] );
    ]
