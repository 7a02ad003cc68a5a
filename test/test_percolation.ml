(* Percolation core transformations: move-op, move-cj, renaming,
   migrate, redundancy removal — including semantic preservation
   through the oracle. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module State = Vliw_sim.State
module Oracle = Vliw_sim.Oracle
module Ctx = Vliw_percolation.Ctx
module Move_op = Vliw_percolation.Move_op
module Move_cj = Vliw_percolation.Move_cj
module Migrate = Vliw_percolation.Migrate
module Redundant = Vliw_percolation.Redundant
module Synthetic = Workloads.Synthetic

let reg = Reg.of_int
let imm n = Operand.Imm (Value.I n)
let addr ?(sym = "x") base offset = { Operation.sym; base; offset }

let check_wf p = Alcotest.(check (list string)) "well-formed" [] (Wellformed.check p)

let mk_ctx ?(machine = Machine.unlimited) ?(exit_live = []) p =
  Ctx.make p ~machine ~exit_live:(Reg.Set.of_list exit_live)

(* nth real node on the entry chain *)
let nth_node p i = List.nth (Program.rpo p) i
let op_of p nid = List.hd (Program.ops p nid)

let snapshot_oracle ~observable ~init before k =
  (* run [k] on a program, then check equivalence against [before] *)
  let got = k () in
  (match
     Oracle.equivalent ~observable ~init before got
   with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "semantics broken: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms)))

let indep_program () =
  Builder.straight
    [
      Operation.Copy (reg 0, imm 1);
      Operation.Copy (reg 1, imm 2);
      Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 0), Operand.Reg (reg 1));
    ]

let test_move_independent_op () =
  let p = indep_program () in
  let ctx = mk_ctx ~exit_live:[ reg 2 ] p in
  let n1 = nth_node p 1 and n2 = nth_node p 2 in
  let op2 = op_of p n2 in
  (match Move_op.move ctx ~from_:n2 ~to_:n1 ~op_id:op2.Operation.id with
  | Ok r ->
      Alcotest.(check bool) "no rename" true (r.Move_op.renamed = None);
      Alcotest.(check bool) "from deleted" true r.Move_op.deleted_from
  | Error f -> Alcotest.failf "move failed: %a" Move_op.pp_failure f);
  check_wf p;
  Alcotest.(check int) "one node fewer" 4 (Program.n_nodes p);
  Alcotest.(check int) "n1 now has 2 ops" 2 (List.length (Program.ops p n1))

let test_move_true_dependence_fails () =
  (* non-copy def: forwarding cannot bypass a computation *)
  let p =
    Builder.straight
      [
        Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 9), imm 1);
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1);
      ]
  in
  let ctx = mk_ctx ~exit_live:[ reg 2 ] p in
  let n1 = nth_node p 1 and n2 = nth_node p 2 in
  let op2 = op_of p n2 in
  match Move_op.move ctx ~from_:n2 ~to_:n1 ~op_id:op2.Operation.id with
  | Error (Move_op.True_dependence _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Move_op.pp_failure f
  | Ok _ -> Alcotest.fail "true dependence must block"

let test_move_forwards_through_copy () =
  (* n1: r1 <- r0 (copy); n2: r2 <- r1 + 1 — the add can move up by
     reading r0 directly *)
  let p =
    Builder.straight
      [
        Operation.Copy (reg 1, Operand.Reg (reg 0));
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1);
      ]
  in
  let ctx = mk_ctx ~exit_live:[ reg 2 ] p in
  let n1 = nth_node p 1 and n2 = nth_node p 2 in
  let op2 = op_of p n2 in
  (match Move_op.move ctx ~from_:n2 ~to_:n1 ~op_id:op2.Operation.id with
  | Ok r -> (
      match r.Move_op.op.Operation.kind with
      | Operation.Binop (_, _, Operand.Reg r0, _) when Reg.equal r0 (reg 0) -> ()
      | k -> Alcotest.failf "not forwarded: %a" Operation.pp_kind k)
  | Error f -> Alcotest.failf "move failed: %a" Move_op.pp_failure f);
  check_wf p

let test_read_in_to_is_safe () =
  (* n1: r1 <- r0 + 1 (reads r0); n2: r0 <- 9.  VLIW fetch-before-store
     lets the write of r0 join the reading instruction with no rename;
     semantics must be preserved. *)
  let mk () =
    Builder.straight
      [
        Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 0), imm 1);
        Operation.Copy (reg 0, imm 9);
      ]
  in
  let p = mk () and reference = mk () in
  let init = State.init ~regs:[ (reg 0, Value.I 5) ] ~arrays:[] in
  let ctx = mk_ctx ~exit_live:[ reg 0; reg 1 ] p in
  let n1 = nth_node p 1 and n2 = nth_node p 2 in
  let op2 = op_of p n2 in
  (match Move_op.move ctx ~from_:n2 ~to_:n1 ~op_id:op2.Operation.id with
  | Ok r -> Alcotest.(check bool) "no rename needed" true (r.Move_op.renamed = None)
  | Error f -> Alcotest.failf "move failed: %a" Move_op.pp_failure f);
  check_wf p;
  snapshot_oracle ~observable:[ reg 0; reg 1 ] ~init reference (fun () -> p)

let test_move_past_read_renames () =
  (* from-node holds both a reader of r0 and (below it in program
     order, same instruction later) we hoist the writer of r0 out:
     n1: r9 <- 0;  n2: { r1 <- r0 + 1; r0 <- 9 }.  Moving [r0 <- 9] up
     to n1 must rename and leave a copy, because n2's reader expects
     the old r0. *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let reader =
    Operation.make ~id:(Program.fresh_op_id p)
      (Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 0), imm 1))
  in
  let writer =
    Operation.make ~id:(Program.fresh_op_id p) (Operation.Copy (reg 0, imm 9))
  in
  let n2 = Program.fresh_node p ~ops:[ reader; writer ] ~ctree:(Ctree.leaf exit_) in
  let n1 =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:(Program.fresh_op_id p) (Operation.Copy (reg 9, imm 0)) ]
      ~ctree:(Ctree.leaf n2.Node.id)
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:n1.Node.id;
  check_wf p;
  let ctx = mk_ctx ~exit_live:[ reg 0; reg 1 ] p in
  (match Move_op.move ctx ~from_:n2.Node.id ~to_:n1.Node.id ~op_id:writer.Operation.id with
  | Ok r -> Alcotest.(check bool) "renamed" true (r.Move_op.renamed <> None)
  | Error f -> Alcotest.failf "move failed: %a" Move_op.pp_failure f);
  check_wf p;
  (* semantics: r1 = old r0 + 1, r0 = 9 afterwards *)
  let st = State.init ~regs:[ (reg 0, Value.I 5) ] ~arrays:[] in
  ignore (Vliw_sim.Exec.run p st);
  (match State.reg_opt st (reg 1) with
  | Some (Value.I 6) -> ()
  | v ->
      Alcotest.failf "r1 = %s, want 6"
        (match v with Some v -> Value.to_string v | None -> "unset"));
  match State.reg_opt st (reg 0) with
  | Some (Value.I 9) -> ()
  | _ -> Alcotest.fail "r0 = 9"

let test_store_moves_above_branch_guarded () =
  (* pre: r0 <- 0; loop-ish shape: n_cj branches; store sits below on
     the taken side; the store can hoist above the cj (guarded) *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let store_op =
    Operation.make ~id:100
      (Operation.Store (addr (imm 0) 0, imm 42))
  in
  let below = Program.fresh_node p ~ops:[ store_op ] ~ctree:(Ctree.leaf exit_) in
  let cj =
    Operation.make ~id:101 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10))
  in
  let branch =
    Program.fresh_node p ~ops:[]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf below.Node.id, Ctree.Leaf exit_))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:branch.Node.id;
  let p_ref_state () =
    State.init ~regs:[ (reg 0, Value.I 1) ] ~arrays:[ ("x", Array.make 2 (Value.I 0)) ]
  in
  (* reference: run the unmodified shape *)
  let ctx = mk_ctx ~exit_live:[] p in
  (match Move_op.move ctx ~from_:below.Node.id ~to_:branch.Node.id ~op_id:100 with
  | Ok r ->
      Alcotest.(check bool) "guarded" true (r.Move_op.op.Operation.guard = [ (101, true) ])
  | Error f -> Alcotest.failf "store hoist failed: %a" Move_op.pp_failure f);
  check_wf p;
  (* taken path commits the store *)
  let st = p_ref_state () in
  ignore (Vliw_sim.Exec.run p st);
  (match State.read_mem st "x" 0 with
  | Value.I 42 -> ()
  | v -> Alcotest.failf "taken: x[0] = %s" (Value.to_string v));
  (* not-taken path must not *)
  let st2 =
    State.init ~regs:[ (reg 0, Value.I 99) ] ~arrays:[ ("x", Array.make 2 (Value.I 0)) ]
  in
  ignore (Vliw_sim.Exec.run p st2);
  match State.read_mem st2 "x" 0 with
  | Value.I 0 -> ()
  | v -> Alcotest.failf "not taken: x[0] = %s" (Value.to_string v)

let test_resource_limit_blocks () =
  let p = indep_program () in
  let ctx = mk_ctx ~machine:(Machine.homogeneous 1) ~exit_live:[ reg 2 ] p in
  let n1 = nth_node p 1 and n2 = nth_node p 2 in
  let op2 = op_of p n2 in
  match Move_op.move ctx ~from_:n2 ~to_:n1 ~op_id:op2.Operation.id with
  | Error Move_op.No_room -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Move_op.pp_failure f
  | Ok _ -> Alcotest.fail "1-wide machine must refuse"

let test_move_cj_up () =
  (* n1: r0 <- 5 ; n2: ops r1<-1 + root cj -> exit/exit *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let cj = Operation.make ~id:50 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10)) in
  let t_node =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:51 (Operation.Copy (reg 2, imm 7)) ]
      ~ctree:(Ctree.leaf exit_)
  in
  let n2 =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:52 (Operation.Copy (reg 1, imm 1)) ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf t_node.Node.id, Ctree.Leaf exit_))
  in
  let n1 =
    Program.fresh_node p
      ~ops:
        [
          Operation.make ~id:53
            (Operation.Binop (Opcode.Add, reg 0, Operand.Reg (reg 9), imm 5));
        ]
      ~ctree:(Ctree.leaf n2.Node.id)
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:n1.Node.id;
  check_wf p;
  let ctx = mk_ctx ~exit_live:[ reg 0; reg 1; reg 2 ] p in
  (match Move_cj.move ctx ~from_:n2.Node.id ~to_:n1.Node.id ~cj_id:50 with
  | Error (Move_cj.True_dependence _) -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Move_cj.pp_failure f
  | Ok _ -> Alcotest.fail "cj reads r0 defined in n1: must fail")

let test_move_cj_up_independent () =
  (* same, but cj reads r9 which n1 does not define: succeeds and
     duplicates n2's op onto both arms *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let cj = Operation.make ~id:50 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 10)) in
  let t_node =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:51 (Operation.Copy (reg 2, imm 7)) ]
      ~ctree:(Ctree.leaf exit_)
  in
  let n2 =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:52 (Operation.Copy (reg 1, imm 1)) ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf t_node.Node.id, Ctree.Leaf exit_))
  in
  let n1 =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:53 (Operation.Copy (reg 0, imm 5)) ]
      ~ctree:(Ctree.leaf n2.Node.id)
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:n1.Node.id;
  let init = State.init ~regs:[ (reg 9, Value.I 3) ] ~arrays:[] in
  let before_state = State.copy init in
  ignore (Vliw_sim.Exec.run p before_state);
  let ctx = mk_ctx ~exit_live:[ reg 0; reg 1; reg 2 ] p in
  (match Move_cj.move ctx ~from_:n2.Node.id ~to_:n1.Node.id ~cj_id:50 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "cj move failed: %a" Move_cj.pp_failure f);
  check_wf p;
  (* n1 now branches *)
  Alcotest.(check int) "n1 has a cjump" 1 (Ctree.n_cjumps (Program.node p n1.Node.id).Node.ctree);
  let after_state = State.copy init in
  ignore (Vliw_sim.Exec.run p after_state);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "r%d agrees" (Reg.to_int r))
        true
        (State.reg_opt before_state r = State.reg_opt after_state r))
    [ reg 0; reg 1; reg 2 ]

let test_migrate_full_chain () =
  (* three independent ops percolate into the entry in one migrate each *)
  let p = indep_program () in
  let ctx = mk_ctx ~exit_live:[ reg 2 ] p in
  let entry = p.Program.entry in
  let ops = Program.all_ops p in
  List.iter
    (fun (op : Operation.t) ->
      ignore (Migrate.migrate ctx ~target:entry ~op_id:op.Operation.id ()))
    (List.sort (fun (a : Operation.t) b -> compare a.Operation.src_pos b.Operation.src_pos) ops);
  check_wf p;
  (* the add depends on both copies, all three land in entry *)
  Alcotest.(check int) "entry holds all" 3
    (List.length (Program.ops p entry));
  Alcotest.(check int) "only entry and exit remain" 2 (Program.n_nodes p)

let test_migrate_respects_dependence () =
  (* chain of non-copy defs: only the first op reaches the entry; the
     others stack behind it one node apart *)
  let p =
    Builder.straight
      [
        Operation.Binop (Opcode.Add, reg 0, Operand.Reg (reg 9), imm 1);
        Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 0), imm 1);
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1);
      ]
  in
  let ctx = mk_ctx ~exit_live:[ reg 2 ] p in
  let entry = p.Program.entry in
  List.iter
    (fun (op : Operation.t) ->
      ignore (Migrate.migrate ctx ~target:entry ~op_id:op.Operation.id ()))
    (List.sort
       (fun (a : Operation.t) b -> compare a.Operation.src_pos b.Operation.src_pos)
       (Program.all_ops p));
  check_wf p;
  (* entry: r0=1; next: r1; next: r2 *)
  Alcotest.(check int) "nodes" 4 (Program.n_nodes p);
  Alcotest.(check int) "entry has one op" 1 (List.length (Program.ops p entry))

let test_move_cj_distributes_guarded_ops () =
  (* from_ holds ops guarded on each arm of its root cj; hoisting the
     cj must send each to its own arm copy with the guard stripped *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let cj =
    Operation.make ~id:70 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 10))
  in
  let on_true =
    Operation.make ~id:71 ~guard:[ (70, true) ] (Operation.Copy (reg 1, imm 1))
  in
  let on_false =
    Operation.make ~id:72 ~guard:[ (70, false) ] (Operation.Copy (reg 2, imm 2))
  in
  let always = Operation.make ~id:73 (Operation.Copy (reg 3, imm 3)) in
  let t_target =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:74 (Operation.Copy (reg 4, imm 4)) ]
      ~ctree:(Ctree.leaf exit_)
  in
  let from_ =
    Program.fresh_node p
      ~ops:[ on_true; on_false; always ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf t_target.Node.id, Ctree.Leaf exit_))
  in
  let top =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:75 (Operation.Copy (reg 5, imm 5)) ]
      ~ctree:(Ctree.leaf from_.Node.id)
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:top.Node.id;
  check_wf p;
  let ctx = mk_ctx ~exit_live:[ reg 1; reg 2; reg 3; reg 4; reg 5 ] p in
  (match Move_cj.move ctx ~from_:from_.Node.id ~to_:top.Node.id ~cj_id:70 with
  | Ok r ->
      let arm id expected_regs =
        let ops = Program.ops p id in
        let regs =
          List.filter_map Operation.def ops
          |> List.map Reg.to_int |> List.sort compare
        in
        Alcotest.(check (list int)) "arm contents" expected_regs regs;
        List.iter
          (fun (o : Operation.t) ->
            Alcotest.(check bool) "guard stripped" true (o.Operation.guard = []))
          ops
      in
      (* true arm: on_true + always; false arm: on_false + always *)
      arm r.Move_cj.true_copy [ 1; 3 ];
      arm r.Move_cj.false_copy [ 2; 3 ]
  | Error f -> Alcotest.failf "cj move failed: %a" Move_cj.pp_failure f);
  check_wf p;
  (* semantics on both arms *)
  let run r9 =
    let st = State.init ~regs:[ (reg 9, Value.I r9) ] ~arrays:[] in
    ignore (Vliw_sim.Exec.run p st);
    (State.reg_opt st (reg 1), State.reg_opt st (reg 2), State.reg_opt st (reg 3))
  in
  (match run 0 with
  | Some (Value.I 1), None, Some (Value.I 3) -> ()
  | _ -> Alcotest.fail "true path commits on_true + always only");
  match run 50 with
  | None, Some (Value.I 2), Some (Value.I 3) -> ()
  | _ -> Alcotest.fail "false path commits on_false + always only"

(* [shared] has two parents, so the graph is not an out-tree there:
   moving its op up along one of them would leave the other path
   without it, and the move is refused with the program untouched. *)
let test_refuses_join () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let shared =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:80 (Operation.Copy (reg 1, imm 7)) ]
      ~ctree:(Ctree.leaf exit_)
  in
  let left =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:81 (Operation.Copy (reg 2, imm 1)) ]
      ~ctree:(Ctree.leaf shared.Node.id)
  in
  let right =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:82 (Operation.Copy (reg 3, imm 2)) ]
      ~ctree:(Ctree.leaf shared.Node.id)
  in
  let cj = Operation.make ~id:83 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 5)) in
  let top =
    Program.fresh_node p ~ops:[]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf left.Node.id, Ctree.Leaf right.Node.id))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:top.Node.id;
  check_wf p;
  Alcotest.(check bool) "not an out-tree" false (Program.is_out_tree p);
  Alcotest.(check int) "no parent" (-1) (Program.parent p shared.Node.id);
  let before = Format.asprintf "%a" Program.pp p in
  let ctx = mk_ctx ~exit_live:[ reg 1; reg 2; reg 3 ] p in
  (match Move_op.move ctx ~from_:shared.Node.id ~to_:left.Node.id ~op_id:80 with
  | Ok _ -> Alcotest.fail "moved out of a join"
  | Error Move_op.Not_adjacent -> ()
  | Error f -> Alcotest.failf "refused as %a" Move_op.pp_failure f);
  Alcotest.(check string) "program untouched" before
    (Format.asprintf "%a" Program.pp p)

let test_redundant_dead_copy () =
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Copy (reg 1, Operand.Reg (reg 0));
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1);
      ]
  in
  (* forward r1 -> r0 then kill the copy *)
  let fwd = Redundant.forward_copies p in
  Alcotest.(check bool) "some forwarding" true (fwd >= 1);
  let dead = Redundant.eliminate_dead p ~exit_live:(Reg.Set.singleton (reg 2)) in
  Alcotest.(check bool) "copy removed" true (dead >= 1);
  check_wf p

let test_redundant_store_load_forward () =
  let k = Operand.Reg (reg 0) in
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Copy (reg 1, imm 42);
        Operation.Store (addr k 0, Operand.Reg (reg 1));
        Operation.Load (reg 2, addr k 0);
        Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 2), imm 1);
      ]
  in
  let init = State.init ~regs:[] ~arrays:[ ("x", Array.make 8 (Value.I 0)) ] in
  let reference =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Copy (reg 1, imm 42);
        Operation.Store (addr k 0, Operand.Reg (reg 1));
        Operation.Load (reg 2, addr k 0);
        Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 2), imm 1);
      ]
  in
  let n = Redundant.forward_memory p in
  Alcotest.(check int) "one load forwarded" 1 n;
  check_wf p;
  snapshot_oracle ~observable:[ reg 2; reg 3 ] ~init reference (fun () -> p)

let test_redundant_load_load () =
  let k = Operand.Reg (reg 0) in
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Load (reg 1, addr k 0);
        Operation.Load (reg 2, addr k 0);
      ]
  in
  let n = Redundant.forward_memory p in
  Alcotest.(check int) "second load forwarded" 1 n;
  check_wf p

(* -- redundancy oracle: the sharing kills against the old passes ------ *)

(* [Redundant.cleanup] and the old passes (redundant_oracle.ml) on two
   builds of one unwound kernel: the same (loads, copies, dead) triple
   and the same schedule text. *)
let cleanup_pair kern ~horizon =
  let build () = (Grip.Unwind.build kern ~horizon).Grip.Unwind.program in
  let exit_live = Grip.Kernel.exit_live kern in
  let p = build () and q = build () in
  let got = Redundant.cleanup p ~exit_live in
  let want = Redundant_oracle.cleanup q ~exit_live in
  (got, want, Program.to_string p, Program.to_string q)

let triple = Alcotest.(triple int int int)

let test_redundancy_oracle_livermore () =
  let loads = ref 0 and copies = ref 0 in
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let kern = e.Workloads.Livermore.kernel in
      for horizon = 6 to 22 do
        let got, want, pt, qt = cleanup_pair kern ~horizon in
        let what = Printf.sprintf "%s horizon %d" kern.Grip.Kernel.name horizon in
        Alcotest.check triple (what ^ " counts") want got;
        Alcotest.(check string) (what ^ " program") qt pt;
        let l, c, _ = got in
        loads := !loads + l;
        copies := !copies + c
      done)
    Workloads.Livermore.all;
  (* the sweep must exercise both forwarding passes *)
  Alcotest.(check bool) "loads forwarded" true (!loads > 0);
  Alcotest.(check bool) "copies forwarded" true (!copies > 0)

let prop_redundancy_oracle =
  QCheck2.Test.make ~name:"cleanup == old passes on Synthetic" ~count:60
    ~print:QCheck2.Print.(pair Synthetic_gen.print_spec int)
    QCheck2.Gen.(pair Synthetic_gen.spec_gen (int_range 4 12))
    (fun (spec, horizon) ->
      let got, want, pt, qt = cleanup_pair (Synthetic.generate spec) ~horizon in
      got = want && String.equal pt qt)

(* Straight-line code over four registers and two three-word arrays,
   so that a stored or copied value's register is often redefined
   before its address or copy is read again: the kills the passes must
   get right. *)
let straight_kind_gen =
  QCheck2.Gen.(
    let r = map Reg.of_int (int_range 0 3) in
    let operand =
      oneof
        [ map (fun x -> Operand.Reg x) r; map imm (int_range 0 2);
          map2 (fun x c -> Operand.Regoff (x, c)) r (int_range (-1) 1) ]
    in
    let address =
      map3
        (fun sym base offset -> { Operation.sym; base; offset })
        (oneofl [ "x"; "y" ]) operand (int_range 0 2)
    in
    oneof
      [
        map2 (fun d a -> Operation.Copy (d, a)) r operand;
        map3 (fun d a b -> Operation.Binop (Opcode.Add, d, a, b)) r operand operand;
        map2 (fun d a -> Operation.Load (d, a)) r address;
        map2 (fun a v -> Operation.Store (a, v)) address operand;
      ])

(* Registers [r0..r3] hold 0..3 and both arrays small integers, so
   loaded values often make in-bounds addresses again. *)
let straight_init () =
  State.init
    ~regs:(List.init 4 (fun i -> (reg i, Value.I i)))
    ~arrays:
      [
        ("x", Array.init 16 (fun i -> Value.I ((3 + (2 * i)) mod 16)));
        ("y", Array.init 16 (fun i -> Value.I ((5 + (3 * i)) mod 16)));
      ]

(* Does the cleaned [p] compute what [kinds] compute, in [r0], [r1] and
   both arrays?  Vacuous when the source itself faults (an address out
   of bounds): dead-code elimination may drop the faulting load. *)
let cleanup_preserves_semantics kinds p =
  let init = straight_init () in
  match Vliw_sim.Exec.run (Builder.straight kinds) (State.copy init) with
  | exception State.Fault _ -> true
  | _ -> (
      match
        Oracle.equivalent ~observable:[ reg 0; reg 1 ] ~init
          (Builder.straight kinds) p
      with
      | Ok _ -> true
      | Error ms ->
          QCheck2.Test.fail_reportf "cleanup changed the result: %s"
            (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms)))

let prop_redundancy_oracle_straight =
  QCheck2.Test.make ~name:"cleanup == old passes on straight-line code"
    ~count:300
    ~print:(fun kinds ->
      String.concat "; " (List.map (Format.asprintf "%a" Operation.pp_kind) kinds))
    QCheck2.Gen.(list_size (int_range 1 24) straight_kind_gen)
    (fun kinds ->
      let exit_live = Reg.Set.of_list [ reg 0; reg 1 ] in
      let p = Builder.straight kinds and q = Builder.straight kinds in
      let got = Redundant.cleanup p ~exit_live in
      let want = Redundant_oracle.cleanup q ~exit_live in
      got = want
      && String.equal (Program.to_string p) (Program.to_string q)
      && cleanup_preserves_semantics kinds p)

(* Every caller passes an acyclic program; a loop is refused, not
   iterated forever or half-cleaned. *)
let test_redundant_refuses_cycles () =
  let rolled () = (Grip.Kernel.rolled Workloads.Paper_examples.abc).Builder.program in
  let exit_live = Grip.Kernel.exit_live Workloads.Paper_examples.abc in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: a cyclic program was accepted" what
  in
  refused "eliminate_dead" (fun () -> ignore (Redundant.eliminate_dead (rolled ()) ~exit_live));
  refused "cleanup" (fun () -> ignore (Redundant.cleanup (rolled ()) ~exit_live))

(* The two miscompiles the forwarding passes had, each a source whose
   op defines a register its recorded entry reads. *)
let test_redundant_self_reads () =
  let x = [| 3; 5; 7; 9 |] in
  let init = State.init ~regs:[] ~arrays:[ ("x", Array.map (fun v -> Value.I v) x) ] in
  let check name kinds =
    let p = Builder.straight kinds in
    ignore (Redundant.cleanup p ~exit_live:(Reg.Set.of_list [ reg 2 ]));
    match Oracle.equivalent ~observable:[ reg 2 ] ~init (Builder.straight kinds) p with
    | Ok _ -> ()
    | Error ms ->
        Alcotest.failf "%s: %s" name
          (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms))
  in
  (* r1 <- x[r1] must not make x[r1] available in r1 *)
  check "load through its own destination"
    [
      Operation.Copy (reg 1, imm 0);
      Operation.Load (reg 1, addr (Operand.Reg (reg 1)) 0);
      Operation.Load (reg 2, addr (Operand.Reg (reg 1)) 0);
    ];
  (* r1 <- r1+1 must not make later reads of r1 read r1+1 *)
  check "copy from its own destination"
    [
      Operation.Load (reg 1, addr (imm 0) 0);
      Operation.Copy (reg 1, Operand.Regoff (reg 1, 1));
      Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 0);
    ]

(* -- walk exactness: the climb against Figure 4's full walk ------------ *)

(* The migration walk of Figure 4, on the public [Migrate.hop]: a
   post-order descent over every live node below the target, pulling
   the operation across each level on the way back up.  It is defined
   on any graph; {!Migrate.run} is the climb it becomes on an
   out-tree. *)
type full_walk = {
  f_ctx : Ctx.t;
  f_hooks : Migrate.hooks;
  f_seen : (int, unit) Hashtbl.t;
  f_op : int;
  mutable f_moved : int;
  mutable f_failure : Migrate.failure option;
}

let full_dead p nid =
  match Program.node_opt p nid with
  | None -> true
  | Some _ -> not (Program.is_live p nid)

let rec full_go w nid =
  let p = w.f_ctx.Ctx.program in
  if w.f_hooks.Migrate.early_stop ~moved:w.f_moved || Hashtbl.mem w.f_seen nid
  then ()
  else begin
    Hashtbl.replace w.f_seen nid ();
    if not (full_dead p nid) then begin
      full_descend w (Program.succs p nid);
      if w.f_hooks.Migrate.early_stop ~moved:w.f_moved then ()
      else if full_dead p nid then ()
      else full_pull w nid (Program.succs p nid)
    end
  end

and full_descend w = function
  | [] -> ()
  | s :: tl ->
      if not (Program.is_exit w.f_ctx.Ctx.program s) then full_go w s;
      full_descend w tl

and full_pull w nid = function
  | [] -> ()
  | s :: tl ->
      let p = w.f_ctx.Ctx.program in
      (if (not (Program.is_exit p s)) && Program.home_int p w.f_op = s then
         match Migrate.hop w.f_ctx w.f_hooks ~from_:s ~to_:nid ~op_id:w.f_op with
         | Ok () -> w.f_moved <- w.f_moved + 1
         | Error f -> w.f_failure <- Some f);
      full_pull w nid tl

let full_migrate (ctx : Ctx.t) hooks ~target ~op_id =
  let p = ctx.Ctx.program in
  let w =
    { f_ctx = ctx; f_hooks = hooks; f_seen = Hashtbl.create 16; f_op = op_id;
      f_moved = 0; f_failure = None }
  in
  full_go w target;
  {
    Migrate.moved = w.f_moved;
    reached_target = Program.home_int p op_id = target;
    last_failure = w.f_failure;
  }

(* A deterministic veto: suspends a fixed subset of hops, journals
   every query, and stops early like the scheduler (something moved
   while something is suspended). *)
let veto_hooks () =
  let journal = ref [] and suspended = ref 0 in
  let hooks =
    {
      Migrate.allow_hop =
        (fun ~from_ ~to_ ~op ->
          journal := (from_, to_, op.Operation.id) :: !journal;
          ((from_ * 7) + (to_ * 13) + op.Operation.id) mod 5 <> 0);
      on_suspend =
        (fun op ->
          incr suspended;
          journal := (-1, -1, op.Operation.id) :: !journal);
      early_stop = (fun ~moved -> moved > 0 && !suspended > 0);
    }
  in
  (hooks, journal, suspended)

let render p = Format.asprintf "%a" Program.pp p

(* Hops and [Move_cj] hops the walk properties made, over a run. *)
let hops_seen = ref 0
let cj_hops_seen = ref 0

(* Two copies of one out-tree (an unwound random program, branching
   once [Move_cj] moves its latches up), one migrated by
   [Migrate.migrate] and one by the full walk, step by step over random
   (op, target) pairs drawn from the identical graphs, each target an
   ancestor of the op's home as node entry's are: outcomes, hook
   journals and renderings must agree, and the program must stay an
   out-tree. *)
let walks_agree ~veto spec =
  let pa, exit_live = Synthetic_gen.joined_program spec ~joins:0 in
  let pb, _ = Synthetic_gen.joined_program spec ~joins:0 in
  let width = if spec.Synthetic.seed mod 2 = 0 then 2 else 4 in
  let machine = Machine.homogeneous width in
  let ca = Ctx.make pa ~machine ~exit_live in
  let cb = Ctx.make pb ~machine ~exit_live in
  let (ha, ja, sa), (hb, jb, sb) =
    if veto then (veto_hooks (), veto_hooks ())
    else
      ( (Migrate.no_hooks, ref [], ref 0),
        (Migrate.no_hooks, ref [], ref 0) )
  in
  let next = Synthetic_gen.make_rng spec.Synthetic.seed in
  if render pa <> render pb then
    QCheck2.Test.fail_report "copies differ before migrating";
  for step = 1 to 24 do
    let ops = Program.all_ops pa in
    if ops <> [] then begin
      let op = List.nth ops (next (List.length ops)) in
      let op_id = op.Operation.id in
      let target =
        Synthetic_gen.pick_ancestor pa (Program.home_int pa op_id) next
      in
      let ra = Migrate.migrate ca ~hooks:ha ~target ~op_id () in
      let rb = full_migrate cb hb ~target ~op_id in
      if ra <> rb then
        QCheck2.Test.fail_reportf
          "step %d (op %d -> n%d): outcomes differ (moved %d vs %d)" step op_id
          target ra.Migrate.moved rb.Migrate.moved;
      if !ja <> !jb then
        QCheck2.Test.fail_reportf "step %d: hook journals differ" step;
      if render pa <> render pb then
        QCheck2.Test.fail_reportf "step %d (op %d -> n%d): programs differ" step
          op_id target;
      (match Program.check_derived_state pa with
      | None -> ()
      | Some reason -> QCheck2.Test.fail_reportf "step %d: %s" step reason);
      if not (Program.is_out_tree pa) then
        QCheck2.Test.fail_reportf "step %d: no longer an out-tree" step;
      hops_seen := !hops_seen + ra.Migrate.moved;
      if ra.Migrate.moved > 0 && Operation.is_cjump op then incr cj_hops_seen;
      (* progress lifts every suspension, as in the scheduler *)
      if ra.Migrate.moved > 0 then begin
        sa := 0;
        sb := 0
      end
    end
  done;
  true

(* Run a walk property and require that its migrations hopped, and
   moved conditional jumps among them, so that the full walk met
   branching trees. *)
let walk_prop ~veto =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:
           (if veto then "cone walk == full walk (veto hooks)"
            else "cone walk == full walk (no hooks)")
         ~count:40 ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen
         (walks_agree ~veto))
  in
  ( name,
    speed,
    fun () ->
      hops_seen := 0;
      cj_hops_seen := 0;
      run ();
      if !hops_seen = 0 || !cj_hops_seen = 0 then
        Alcotest.failf "%s: %d hops, %d of conditional jumps" name !hops_seen
          !cj_hops_seen )

(* Hooks that record every call they get, with a fixed [early_stop]
   answer. *)
let journal_hooks ~stop =
  let journal = ref [] in
  ( {
      Migrate.allow_hop =
        (fun ~from_ ~to_ ~op ->
          journal :=
            Printf.sprintf "allow %d->%d op%d" from_ to_ op.Operation.id
            :: !journal;
          true);
      on_suspend =
        (fun op ->
          journal := Printf.sprintf "suspend op%d" op.Operation.id :: !journal);
      early_stop = (fun ~moved:_ -> stop);
    },
    journal )

(* On a straight chain, an [early_stop] already true before anything
   moved stops the climb before its first attempt: no hook is called,
   as the full walk calls none, and nothing moves. *)
let test_climb_early_stop () =
  let pa = indep_program () and pb = indep_program () in
  let op_id = (op_of pa (nth_node pa 3)).Operation.id in
  let target = pa.Program.entry in
  let ca = mk_ctx ~exit_live:[ reg 1 ] pa and cb = mk_ctx ~exit_live:[ reg 1 ] pb in
  let ha, ja = journal_hooks ~stop:true and hb, jb = journal_hooks ~stop:true in
  let ra = Migrate.migrate ca ~hooks:ha ~target ~op_id () in
  let rb = full_migrate cb hb ~target ~op_id in
  Alcotest.(check (list string)) "no hook called" [] !ja;
  Alcotest.(check (list string)) "full walk calls none either" [] !jb;
  Alcotest.(check int) "nothing moved" 0 ra.Migrate.moved;
  Alcotest.(check bool) "same outcome as the full walk" true (ra = rb);
  Alcotest.(check string) "program untouched" (render pb) (render pa)

(* On the Livermore loops a GRiP schedule climbs out-trees: after every
   committed move the program is still one, with its leaf counts as a
   recount finds them. *)
let test_livermore_climbs () =
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let kern = e.Workloads.Livermore.kernel in
      let name = kern.Grip.Kernel.name in
      let machine = Machine.homogeneous 4 in
      let horizon = Grip.Pipeline.default_horizon machine in
      let p = (Grip.Unwind.build kern ~horizon).Grip.Unwind.program in
      let ctx = Ctx.make p ~machine ~exit_live:(Grip.Kernel.exit_live kern) in
      let moves = ref 0 in
      let on_move ~op:_ ~outcome:_ =
        incr moves;
        if not (Program.is_out_tree p) then
          Alcotest.failf "%s: not an out-tree after move %d" name !moves;
        match Program.check_derived_state p with
        | None -> ()
        | Some reason -> Alcotest.failf "%s, move %d: %s" name !moves reason
      in
      ignore
        (Grip.Scheduler.run ~on_move
           { (Grip.Scheduler.default_config
                ~rank:(Grip.Pipeline.default_rank kern)) with
             Grip.Scheduler.gap_prevention = true }
           ctx);
      Alcotest.(check bool) (name ^ " moved") true (!moves > 0))
    Workloads.Livermore.all

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261017";
  Alcotest.run "vliw_percolation"
    [
      ( "move-op",
        [
          Alcotest.test_case "independent" `Quick test_move_independent_op;
          Alcotest.test_case "true dependence" `Quick test_move_true_dependence_fails;
          Alcotest.test_case "copy forwarding" `Quick test_move_forwards_through_copy;
          Alcotest.test_case "read-in-to safe" `Quick test_read_in_to_is_safe;
          Alcotest.test_case "move-past-read renames" `Quick test_move_past_read_renames;
          Alcotest.test_case "guarded store hoist" `Quick
            test_store_moves_above_branch_guarded;
          Alcotest.test_case "resource limit" `Quick test_resource_limit_blocks;
          Alcotest.test_case "refuses a join" `Quick test_refuses_join;
        ] );
      ( "move-cj",
        [
          Alcotest.test_case "true dependence" `Quick test_move_cj_up;
          Alcotest.test_case "independent" `Quick test_move_cj_up_independent;
          Alcotest.test_case "guard distribution" `Quick
            test_move_cj_distributes_guarded_ops;
        ] );
      ( "migrate",
        [
          Alcotest.test_case "full chain" `Quick test_migrate_full_chain;
          Alcotest.test_case "respects dependence" `Quick test_migrate_respects_dependence;
        ] );
      ( "walk",
        [
          walk_prop ~veto:false;
          walk_prop ~veto:true;
          Alcotest.test_case "climb honours early_stop" `Quick
            test_climb_early_stop;
          Alcotest.test_case "Livermore GRiP climbs chains" `Quick
            test_livermore_climbs;
        ] );
      ( "redundant",
        [
          Alcotest.test_case "dead copy" `Quick test_redundant_dead_copy;
          Alcotest.test_case "store-load forward" `Quick test_redundant_store_load_forward;
          Alcotest.test_case "load-load" `Quick test_redundant_load_load;
          Alcotest.test_case "no entry reads its own destination" `Quick
            test_redundant_self_reads;
          Alcotest.test_case "cyclic programs refused" `Quick
            test_redundant_refuses_cycles;
          Alcotest.test_case "oracle on Livermore" `Quick
            test_redundancy_oracle_livermore;
          QCheck_alcotest.to_alcotest prop_redundancy_oracle;
          QCheck_alcotest.to_alcotest prop_redundancy_oracle_straight;
        ] );
    ]
