(* Percolation core transformations: move-op, move-cj, renaming,
   splitting, migrate, redundancy removal — including semantic
   preservation through the oracle. *)

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

let test_split_on_second_predecessor () =
  (* from_ has two predecessors; moving an op up along one path must
     leave a clone for the other *)
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
  let ctx = mk_ctx ~exit_live:[ reg 1; reg 2; reg 3 ] p in
  (match Move_op.move ctx ~from_:shared.Node.id ~to_:left.Node.id ~op_id:80 with
  | Ok r -> Alcotest.(check bool) "split happened" true (r.Move_op.split <> None)
  | Error f -> Alcotest.failf "move failed: %a" Move_op.pp_failure f);
  check_wf p;
  (* both paths still set r1 = 7 *)
  List.iter
    (fun r9 ->
      let st = State.init ~regs:[ (reg 9, Value.I r9) ] ~arrays:[] in
      ignore (Vliw_sim.Exec.run p st);
      match State.reg_opt st (reg 1) with
      | Some (Value.I 7) -> ()
      | _ -> Alcotest.failf "r1 lost on r9=%d" r9)
    [ 0; 50 ]

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

(* -- walk exactness: the chain climb and the walk against a full walk -- *)

(* The migration walk of Figure 4, on the public [Migrate.hop]: a
   post-order descent over every live node below the target, pulling
   the operation across each level on the way back up. *)
type full_walk = {
  f_ctx : Ctx.t;
  f_hooks : Migrate.hooks;
  mutable f_moved : int;
  mutable f_current : int;
  mutable f_failure : Migrate.failure option;
  mutable f_visits : int;
}

let full_dead p nid =
  match Program.node_opt p nid with
  | None -> true
  | Some _ -> not (Program.is_live p nid)

let rec full_go w nid =
  let p = w.f_ctx.Ctx.program in
  if w.f_hooks.Migrate.early_stop ~moved:w.f_moved || Ctx.walk_seen w.f_ctx nid
  then ()
  else begin
    Ctx.walk_mark w.f_ctx nid;
    w.f_visits <- w.f_visits + 1;
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
      (if (not (Program.is_exit p s)) && Program.home_int p w.f_current = s then
         match
           Migrate.hop w.f_ctx w.f_hooks ~from_:s ~to_:nid ~op_id:w.f_current
         with
         | Ok id' ->
             w.f_moved <- w.f_moved + 1;
             w.f_current <- id'
         | Error f -> w.f_failure <- Some f);
      full_pull w nid tl

let full_migrate (ctx : Ctx.t) hooks ~target ~op_id =
  let p = ctx.Ctx.program in
  Ctx.walk_begin ctx;
  let w =
    { f_ctx = ctx; f_hooks = hooks; f_moved = 0; f_current = op_id;
      f_failure = None; f_visits = 0 }
  in
  full_go w target;
  ( {
      Migrate.moved = w.f_moved;
      reached_target = Program.home_int p w.f_current = target;
      final_id = w.f_current;
      last_failure = w.f_failure;
    },
    w.f_visits )

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

(* Migrations the walk properties sent down each path, told apart by
   the metrics deltas: a plain walk counts the nodes it expands, a
   climb counts none. *)
let chain_walks = ref 0
let plain_walks = ref 0

(* Every node the chain memo knows, while its key is current for
   [target], still reaches [target] by unique live predecessors, by a
   follow that consults no memo.  Returns how many nodes it checked. *)
let memo_sound what (ctx : Ctx.t) ~target =
  let p = ctx.Ctx.program in
  let rec follow id fuel =
    id = target
    || (fuel > 0
       &&
       let q = Program.unique_live_pred p id in
       q >= 0 && follow q (fuel - 1))
  in
  let checked = ref 0 in
  if
    ctx.Ctx.chain_target = target
    && ctx.Ctx.chain_version = Program.chain_version p
  then
    Program.iter_nodes p (fun (n : Node.t) ->
        let id = n.Node.id in
        if Ctx.chain_known ctx id && Program.is_live p id then begin
          incr checked;
          if not (follow id (Program.node_limit p)) then
            QCheck2.Test.fail_reportf
              "%s: memo knows n%d, which no longer chains to n%d" what id
              target
        end);
  !checked

(* Memo entries [memo_sound] checked right after an explicit deletion,
   over a property run. *)
let kept_across_deletion = ref 0

(* Two copies of one program, one migrated by [Migrate.migrate] and one
   by the full walk, step by step over random (target, op) pairs drawn
   from the identical graphs: outcomes, hook journals and renderings
   must agree, and a plain walk must visit what the full walk does.  With
   [fixed_target] every step migrates toward the entry and every third
   step adds the same join to both copies, so the chain memo is reused
   across migrations while joins appear under it.  With [deletions]
   every step also empties and deletes the same random node in both
   copies, and the memo must stay sound across each deletion. *)
let walks_agree ?(fixed_target = false) ?(deletions = false) ~veto spec =
  let joins = if fixed_target then 0 else spec.Synthetic.n_ops mod 4 in
  let pa, exit_live = Synthetic_gen.joined_program spec ~joins in
  let pb, _ = Synthetic_gen.joined_program spec ~joins in
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
  let next_join = Synthetic_gen.make_rng (spec.Synthetic.seed + 7) in
  if render pa <> render pb then
    QCheck2.Test.fail_report "copies differ before migrating";
  for step = 1 to 24 do
    if fixed_target && step mod 3 = 0 then
      Option.iter
        (fun j ->
          Synthetic_gen.add_join pa j;
          Synthetic_gen.add_join pb j)
        (Synthetic_gen.pick_join pa next_join);
    if deletions then
      Option.iter
        (fun id ->
          Synthetic_gen.delete_emptied pa id;
          Synthetic_gen.delete_emptied pb id;
          kept_across_deletion :=
            !kept_across_deletion
            + memo_sound (Printf.sprintf "step %d, n%d deleted" step id) ca
                ~target:pa.Program.entry)
        (Synthetic_gen.pick_deletable pa next_join);
    let ops = Program.all_ops pa in
    if ops <> [] then begin
      let op = List.nth ops (next (List.length ops)) in
      let target =
        if fixed_target then pa.Program.entry
        else begin
          let order = Program.rpo pa in
          let home = Program.home_int pa op.Operation.id in
          let rec index i = function
            | [] -> 0
            | id :: tl -> if id = home then i else index (i + 1) tl
          in
          let above = index 0 order in
          if above = 0 then home else List.nth order (next above)
        end
      in
      let op_id = op.Operation.id in
      let counts = ca.Ctx.counts in
      let walked0 = counts.Ctx.walk_nodes in
      let chain0 = counts.Ctx.chain_nodes in
      let ra = Migrate.migrate ca ~hooks:ha ~target ~op_id () in
      let rb, full_visits = full_migrate cb hb ~target ~op_id in
      let walked = counts.Ctx.walk_nodes - walked0 in
      if walked > 0 then incr plain_walks
      else if counts.Ctx.chain_nodes > chain0 then incr chain_walks;
      if ra <> rb then
        QCheck2.Test.fail_reportf
          "step %d (op %d -> n%d): outcomes differ (moved %d vs %d)" step op_id
          target ra.Migrate.moved rb.Migrate.moved;
      if !ja <> !jb then
        QCheck2.Test.fail_reportf "step %d: hook journals differ" step;
      if render pa <> render pb then
        QCheck2.Test.fail_reportf "step %d (op %d -> n%d): programs differ" step
          op_id target;
      if walked > 0 && walked <> full_visits then
        QCheck2.Test.fail_reportf "step %d: plain walk visited %d, full walk %d"
          step walked full_visits;
      (match Program.check_derived_state pa with
      | None -> ()
      | Some reason -> QCheck2.Test.fail_reportf "step %d: %s" step reason);
      if fixed_target then
        ignore
          (memo_sound (Printf.sprintf "step %d" step) ca
             ~target:pa.Program.entry);
      (* progress lifts every suspension, as in the scheduler *)
      if ra.Migrate.moved > 0 then begin
        sa := 0;
        sb := 0
      end
    end
  done;
  true

(* Run a walk property and require that its cases took both paths: a
   run where every migration climbed (or every one walked) would leave
   the other path unchecked. *)
let both_paths prop =
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  ( name,
    speed,
    fun () ->
      chain_walks := 0;
      plain_walks := 0;
      run ();
      if !chain_walks = 0 || !plain_walks = 0 then
        Alcotest.failf "%s: %d chain climbs, %d plain walks" name !chain_walks
          !plain_walks )

let prop_walk_exact ~veto =
  QCheck2.Test.make
    ~name:
      (if veto then "cone walk == full walk (veto hooks)"
       else "cone walk == full walk (no hooks)")
    ~count:40 ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen
    (walks_agree ~veto)

let prop_fixed_target =
  QCheck2.Test.make ~name:"chain memo == full walk (fixed target, new joins)"
    ~count:200 ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen
    (walks_agree ~fixed_target:true ~veto:true)

(* Node deletion keeps the chain memo: deleted nodes are explicit here
   as well as those the migrations empty.  The run fails unless the
   memo held entries across some deletion.  Built by the suite list,
   after the [QCHECK_SEED] default is in place: qcheck-alcotest reads
   the seed once, at its first test. *)
let prop_fixed_target_deletions () =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"chain memo == full walk (deletions, fixed target)" ~count:200
         ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen
         (walks_agree ~fixed_target:true ~deletions:true ~veto:true))
  in
  ( name,
    speed,
    fun () ->
      kept_across_deletion := 0;
      run ();
      if !kept_across_deletion = 0 then
        Alcotest.fail "no memo entry survived a deletion" )

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

(* Migrate [op_id] toward [target] in [build ()] with [Migrate.migrate]
   and, in a second copy, with the full walk; both must agree and call
   no hook.  Returns the (chain_nodes, walk_nodes) the first spent. *)
let migrate_quietly ~stop build ~target ~op_id =
  let pa = build () and pb = build () in
  let ca =
    Ctx.make pa ~machine:Machine.unlimited
      ~exit_live:(Reg.Set.of_list [ reg 1 ])
  in
  let cb = mk_ctx ~exit_live:[ reg 1 ] pb in
  let ha, ja = journal_hooks ~stop and hb, jb = journal_hooks ~stop in
  let ra = Migrate.migrate ca ~hooks:ha ~target ~op_id () in
  let rb, _ = full_migrate cb hb ~target ~op_id in
  Alcotest.(check (list string)) "no hook called" [] !ja;
  Alcotest.(check (list string)) "full walk calls none either" [] !jb;
  Alcotest.(check int) "nothing moved" 0 ra.Migrate.moved;
  Alcotest.(check bool) "same outcome as the full walk" true (ra = rb);
  Alcotest.(check string) "program untouched" (render pb) (render pa);
  (ca.Ctx.counts.Ctx.chain_nodes, ca.Ctx.counts.Ctx.walk_nodes)

(* entry -> f; f forks to a (-> h, the home of op 90) and to b.
   Returns the program and b. *)
let fork_program () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let h =
    Program.fresh_node p
      ~ops:[ Operation.make ~id:90 (Operation.Copy (reg 1, imm 7)) ]
      ~ctree:(Ctree.leaf exit_)
  in
  let a = Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf h.Node.id) in
  let b = Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf exit_) in
  let cj =
    Operation.make ~id:91 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 5))
  in
  let f =
    Program.fresh_node p ~ops:[]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf a.Node.id, Ctree.Leaf b.Node.id))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:f.Node.id;
  (p, b.Node.id)

(* Toward b, unique live predecessors lead from h to the entry without
   meeting it: the check must reject the chain, and the plain walk,
   which never reaches h's side, tries nothing. *)
let test_chain_misses_target () =
  let _, b = fork_program () in
  let chain, walked =
    migrate_quietly ~stop:false
      (fun () -> fst (fork_program ()))
      ~target:b ~op_id:90
  in
  Alcotest.(check int) "chain check followed h, a, f and the entry" 4 chain;
  Alcotest.(check bool) "fell back to the plain walk" true (walked > 0)

(* A tree rewrite can make a join under a chain the memo knows:
   [set_ctree] must move [chain_version], so the next check toward the
   same target forgets the chain.  In fork_program, a check from h
   toward f confirms h, a, f (an [early_stop] already true keeps the op
   in h); then b is pointed at h as well.  The memo must not vouch for
   h any more, and the next migration must try what the full walk
   tries. *)
let test_memo_forgets_set_ctree_join () =
  let edit p =
    let f = List.hd (Program.succs p p.Program.entry) in
    let b = List.nth (Program.succs p f) 1 in
    Program.set_ctree p b (Ctree.leaf (Program.home_int p 90));
    f
  in
  let pa, _ = fork_program () and pb, _ = fork_program () in
  let ca = mk_ctx ~exit_live:[ reg 1 ] pa and cb = mk_ctx ~exit_live:[ reg 1 ] pb in
  let f = List.hd (Program.succs pa pa.Program.entry) in
  let stopped, _ = journal_hooks ~stop:true in
  ignore (Migrate.migrate ca ~hooks:stopped ~target:f ~op_id:90 ());
  Alcotest.(check bool) "the check confirmed h" true
    (Ctx.chain_known ca (Program.home_int pa 90));
  ignore (edit pa);
  ignore (edit pb);
  Alcotest.(check int) "nothing vouched for after the join" 0
    (memo_sound "after set_ctree" ca ~target:f);
  let ha, ja = journal_hooks ~stop:false and hb, jb = journal_hooks ~stop:false in
  let ra = Migrate.migrate ca ~hooks:ha ~target:f ~op_id:90 () in
  let rb, _ = full_migrate cb hb ~target:f ~op_id:90 in
  Alcotest.(check (list string)) "same attempts as the full walk" !jb !ja;
  Alcotest.(check bool) "same outcome as the full walk" true (ra = rb);
  Alcotest.(check bool) "the op moved" true (ra.Migrate.moved > 0)

(* On a straight chain, an [early_stop] already true before anything
   moved stops the climb before its first attempt. *)
let test_climb_early_stop () =
  let p = indep_program () in
  let op_id = (op_of p (nth_node p 3)).Operation.id in
  let chain, walked =
    migrate_quietly ~stop:true indep_program ~target:p.Program.entry ~op_id
  in
  Alcotest.(check bool) "took the chain path" true (chain > 0 && walked = 0)

(* On the Livermore loops every migration finds a chain, so a GRiP
   schedule must never fall back to the plain walk.  The fall-back
   would still be correct, only slower: no schedule digest would notice
   it. *)
let test_livermore_climbs () =
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let metrics = Grip_obs.Metrics.create () in
      let obs = Grip_obs.make ~metrics () in
      let kern = e.Workloads.Livermore.kernel in
      ignore
        (Grip.Pipeline.run ~obs kern ~machine:(Machine.homogeneous 4)
           ~method_:Grip.Pipeline.Grip);
      let name = kern.Grip.Kernel.name in
      let c = Grip_obs.Metrics.counter metrics in
      Alcotest.(check int) (name ^ " walk_nodes") 0 (c "migrate.walk_nodes");
      Alcotest.(check bool) (name ^ " chain_nodes > 0") true
        (c "migrate.chain_nodes" > 0))
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
        ] );
      ( "move-cj",
        [
          Alcotest.test_case "true dependence" `Quick test_move_cj_up;
          Alcotest.test_case "independent" `Quick test_move_cj_up_independent;
          Alcotest.test_case "guard distribution" `Quick
            test_move_cj_distributes_guarded_ops;
          Alcotest.test_case "splits second pred" `Quick
            test_split_on_second_predecessor;
        ] );
      ( "migrate",
        [
          Alcotest.test_case "full chain" `Quick test_migrate_full_chain;
          Alcotest.test_case "respects dependence" `Quick test_migrate_respects_dependence;
        ] );
      ( "walk",
        List.map both_paths
          [ prop_walk_exact ~veto:false; prop_walk_exact ~veto:true ]
        @ [
            QCheck_alcotest.to_alcotest prop_fixed_target;
            prop_fixed_target_deletions ();
            Alcotest.test_case "chain misses the target" `Quick
              test_chain_misses_target;
            Alcotest.test_case "memo forgets a join set_ctree makes" `Quick
              test_memo_forgets_set_ctree_join;
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
