(* VLIW interpreter: sequential execution, guarded commits, faults,
   fuel, and the equivalence oracle. *)

open Vliw_ir
module State = Vliw_sim.State
module Exec = Vliw_sim.Exec
module Oracle = Vliw_sim.Oracle

let reg = Reg.of_int
let imm n = Operand.Imm (Value.I n)
let fimm x = Operand.Imm (Value.F x)

let test_straight_arith () =
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 4);
        Operation.Binop (Opcode.Mul, reg 1, Operand.Reg (reg 0), imm 3);
        Operation.Binop (Opcode.Sub, reg 2, Operand.Reg (reg 1), imm 5);
      ]
  in
  let st = State.init ~regs:[] ~arrays:[] in
  let o = Exec.run p st in
  Alcotest.(check int) "cycles" 4 o.Exec.cycles;
  (* entry node + 3 *)
  (match State.reg_opt st (reg 2) with
  | Some (Value.I 7) -> ()
  | _ -> Alcotest.fail "r2 = 7")

let test_memory_roundtrip () =
  let addr off = { Operation.sym = "a"; base = imm 0; offset = off } in
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, fimm 2.5);
        Operation.Store (addr 3, Operand.Reg (reg 0));
        Operation.Load (reg 1, addr 3);
        Operation.Binop (Opcode.Fadd, reg 2, Operand.Reg (reg 1), fimm 1.0);
      ]
  in
  let st = State.init ~regs:[] ~arrays:[ ("a", Array.make 8 (Value.F 0.0)) ] in
  ignore (Exec.run p st);
  match State.reg_opt st (reg 2) with
  | Some (Value.F x) when Float.abs (x -. 3.5) < 1e-12 -> ()
  | _ -> Alcotest.fail "r2 = 3.5"

let test_loop_sum () =
  (* sum 0..9 into r1, k in r0 *)
  let shape =
    Builder.loop
      ~pre:[ Operation.Copy (reg 0, imm 0); Operation.Copy (reg 1, imm 0) ]
      ~body:
        [
          Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 1), Operand.Reg (reg 0));
          Operation.Binop (Opcode.Add, reg 0, Operand.Reg (reg 0), imm 1);
          Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10);
        ]
      ()
  in
  let st = State.init ~regs:[] ~arrays:[] in
  let o = Exec.run shape.Builder.program st in
  (match State.reg_opt st (reg 1) with
  | Some (Value.I 45) -> ()
  | Some v -> Alcotest.failf "r1 = %s, want 45" (Value.to_string v)
  | None -> Alcotest.fail "r1 unset");
  (* entry + 2 pre + 10 * (2 body + latch) *)
  Alcotest.(check int) "cycles" (1 + 2 + (10 * 3)) o.Exec.cycles

let test_guarded_commit () =
  (* one instruction: store of r1 guarded on the taken arm, store of r2
     guarded on the fall-through arm; only the selected one commits *)
  let p = Program.create () in
  let cj =
    Operation.make ~id:(Program.fresh_op_id p)
      (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10))
  in
  let addr = { Operation.sym = "a"; base = imm 0; offset = 0 } in
  let op_t =
    Operation.make ~id:(Program.fresh_op_id p)
      ~guard:[ (cj.Operation.id, true) ]
      (Operation.Store (addr, imm 111))
  in
  let op_f =
    Operation.make ~id:(Program.fresh_op_id p)
      ~guard:[ (cj.Operation.id, false) ]
      (Operation.Store (addr, imm 222))
  in
  let exit_ = p.Program.exit_id in
  let n =
    Program.fresh_node p ~ops:[ op_t; op_f ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf exit_, Ctree.Leaf exit_))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:n.Node.id;
  Alcotest.(check (list string)) "wf" [] (Wellformed.check p);
  let run r0 =
    let st = State.init ~regs:[ (reg 0, Value.I r0) ]
        ~arrays:[ ("a", Array.make 1 (Value.I 0)) ]
    in
    ignore (Exec.run p st);
    State.read_mem st "a" 0
  in
  (match run 5 with
  | Value.I 111 -> ()
  | v -> Alcotest.failf "taken arm: got %s" (Value.to_string v));
  match run 50 with
  | Value.I 222 -> ()
  | v -> Alcotest.failf "other arm: got %s" (Value.to_string v)

let test_speculative_fault_suppressed () =
  (* guarded OOB load on the not-taken arm must not fault *)
  let p = Program.create () in
  let cj =
    Operation.make ~id:(Program.fresh_op_id p)
      (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10))
  in
  let oob =
    Operation.make ~id:(Program.fresh_op_id p)
      ~guard:[ (cj.Operation.id, false) ]
      (Operation.Load (reg 1, { Operation.sym = "a"; base = imm 999; offset = 0 }))
  in
  let exit_ = p.Program.exit_id in
  let n =
    Program.fresh_node p ~ops:[ oob ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf exit_, Ctree.Leaf exit_))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:n.Node.id;
  let st =
    State.init ~regs:[ (reg 0, Value.I 1) ] ~arrays:[ ("a", Array.make 4 (Value.I 0)) ]
  in
  (* taken arm selected; the OOB load computes speculatively but never
     commits: no fault *)
  ignore (Exec.run p st);
  (* now force the faulting arm *)
  let st2 =
    State.init ~regs:[ (reg 0, Value.I 50) ] ~arrays:[ ("a", Array.make 4 (Value.I 0)) ]
  in
  match Exec.run p st2 with
  | exception State.Fault _ -> ()
  | _ -> Alcotest.fail "committed OOB load must fault"

let test_fuel_guard () =
  (* infinite loop: k never reaches bound *)
  let shape =
    Builder.loop ~pre:[ Operation.Copy (reg 0, imm 0) ]
      ~body:
        [
          Operation.Copy (reg 1, Operand.Reg (reg 0));
          Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10);
        ]
      ()
  in
  let st = State.init ~regs:[] ~arrays:[] in
  match Exec.run ~fuel:100 shape.Builder.program st with
  | exception State.Fault _ -> ()
  | _ -> Alcotest.fail "must run out of fuel"

let test_uninitialised_read_faults () =
  let p = Builder.straight [ Operation.Copy (reg 1, Operand.Reg (reg 0)) ] in
  let st = State.init ~regs:[] ~arrays:[] in
  match Exec.run p st with
  | exception State.Fault _ -> ()
  | _ -> Alcotest.fail "must fault on uninitialised read"

let test_regoff_operand () =
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 7);
        Operation.Copy (reg 1, Operand.Regoff (reg 0, 5));
      ]
  in
  let st = State.init ~regs:[] ~arrays:[] in
  ignore (Exec.run p st);
  match State.reg_opt st (reg 1) with
  | Some (Value.I 12) -> ()
  | _ -> Alcotest.fail "r1 = 12"

let test_oracle_detects_difference () =
  let mk v =
    Builder.straight
      [ Operation.Store ({ Operation.sym = "a"; base = imm 0; offset = 0 }, imm v) ]
  in
  let init = State.init ~regs:[] ~arrays:[ ("a", Array.make 1 (Value.I 0)) ] in
  (match Oracle.equivalent ~observable:[] ~init (mk 1) (mk 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "identical programs must agree");
  match Oracle.equivalent ~observable:[] ~init (mk 1) (mk 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "different stores must disagree"

let test_oracle_non_finite () =
  let f x = Value.F x in
  let close a b = Oracle.value_close (f a) (f b) in
  Alcotest.(check bool) "nan = nan" true (close Float.nan Float.nan);
  Alcotest.(check bool) "inf = inf" true (close Float.infinity Float.infinity);
  Alcotest.(check bool) "-inf = -inf" true (close Float.neg_infinity Float.neg_infinity);
  Alcotest.(check bool) "inf <> -inf" false (close Float.infinity Float.neg_infinity);
  Alcotest.(check bool) "nan <> inf" false (close Float.nan Float.infinity);
  Alcotest.(check bool) "inf <> max_float" false (close Float.infinity Float.max_float);
  Alcotest.(check bool) "1 <> nan" false (close 1.0 Float.nan);
  Alcotest.(check bool) "finite within tolerance" true (close 1.0 (1.0 +. 1e-12))

(* -- simulator oracle: the array state against the hash-table one ------ *)

module Old = Sim_oracle

(* Both simulators' initial states for kernel [k] at trip count [n], as
   [Kernel.initial_state] builds them. *)
let both_states (k : Grip.Kernel.t) ~n ~data =
  let regs =
    match k.Grip.Kernel.bound with
    | Operand.Reg r -> (r, Value.I n) :: List.remove_assoc r k.Grip.Kernel.params
    | _ -> k.Grip.Kernel.params
  in
  let arrays =
    List.map
      (fun (sym, size) -> (sym, Array.init size (fun i -> data sym i)))
      k.Grip.Kernel.arrays
  in
  (State.init ~regs ~arrays, Old.State.init ~regs ~arrays)

(* One program on both simulators: the same cycle count or fault
   message, the same registers set to equal values, and equal arrays. *)
let same_run what p (st, ost) =
  let got =
    match Exec.run p st with
    | o -> Ok o.Exec.cycles
    | exception State.Fault m -> Error m
  in
  let want =
    match Old.Exec.run p ost with
    | o -> Ok o.Old.Exec.cycles
    | exception Old.State.Fault m -> Error m
  in
  Alcotest.(check (result int string)) (what ^ ": cycles") want got;
  let top = Hashtbl.fold (fun r _ m -> max m (Reg.to_int r + 1)) ost.Old.State.regs 0 in
  for r = 0 to max top (Array.length st.State.regs) - 1 do
    let same =
      match State.reg_opt st (reg r), Hashtbl.find_opt ost.Old.State.regs (reg r) with
      | Some v, Some w -> Value.equal v w
      | None, None -> true
      | _ -> false
    in
    if not same then Alcotest.failf "%s: register r%d differs" what r
  done;
  let names = ref [] in
  State.iter_arrays st (fun sym a ->
      names := sym :: !names;
      match Hashtbl.find_opt ost.Old.State.mem sym with
      | Some b when Array.length a = Array.length b && Array.for_all2 Value.equal a b -> ()
      | _ -> Alcotest.failf "%s: array %s differs" what sym);
  Alcotest.(check int) (what ^ ": arrays") (Hashtbl.length ost.Old.State.mem)
    (List.length !names)

(* The rolled loop and [methods]' schedules of [k], each run inside
   its horizon, at a short trip count, and past its horizon (where a
   schedule may fault or diverge from the loop, identically on both
   simulators). *)
let check_kernel ?(methods = [ Grip.Pipeline.Grip; Grip.Pipeline.Post ]) ~data
    (k : Grip.Kernel.t) ~fus =
  let machine = Vliw_machine.Machine.homogeneous fus in
  let rolled = (Grip.Kernel.rolled k).Builder.program in
  List.iter
    (fun method_ ->
      let o = Grip.Pipeline.run k ~machine ~method_ in
      let h = o.Grip.Pipeline.horizon in
      List.iter
        (fun n ->
          let what =
            Printf.sprintf "%s %dFU %s n=%d" k.Grip.Kernel.name fus
              (Grip.Pipeline.method_name method_) n
          in
          same_run (what ^ " rolled") rolled (both_states k ~n ~data);
          same_run what o.Grip.Pipeline.program (both_states k ~n ~data))
        [ 3; h - 2; h + 3 ])
    methods

let test_sim_oracle_livermore () =
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      List.iter
        (fun fus ->
          check_kernel ~data:e.Workloads.Livermore.data e.Workloads.Livermore.kernel ~fus)
        [ 2; 4; 8 ])
    Workloads.Livermore.all

(* 64-op seeds 15838 and 39595 drive values non-finite.  POST raises
   on some of these kernels (ROADMAP item 3), so GRiP and its no-gap
   ablation make the schedules. *)
let test_sim_oracle_synthetic () =
  List.iter
    (fun (n_ops, seed) ->
      check_kernel
        ~methods:[ Grip.Pipeline.Grip; Grip.Pipeline.Grip_no_gap ]
        ~data:Workloads.Synthetic.data
        (Workloads.Synthetic.generate
           { Workloads.Synthetic.default_spec with n_ops; seed })
        ~fus:4)
    [ (16, 7919); (24, 23757); (32, 15838); (64, 15838); (64, 39595) ]

let () =
  Alcotest.run "vliw_sim"
    [
      ( "exec",
        [
          Alcotest.test_case "straight arith" `Quick test_straight_arith;
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "guarded commit" `Quick test_guarded_commit;
          Alcotest.test_case "speculative fault suppressed" `Quick
            test_speculative_fault_suppressed;
          Alcotest.test_case "fuel guard" `Quick test_fuel_guard;
          Alcotest.test_case "uninitialised read" `Quick
            test_uninitialised_read_faults;
          Alcotest.test_case "regoff operand" `Quick test_regoff_operand;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "detects difference" `Quick test_oracle_detects_difference;
          Alcotest.test_case "identical non-finite values" `Quick test_oracle_non_finite;
        ] );
      ( "simulator oracle",
        [
          Alcotest.test_case "Livermore == old simulator" `Quick
            test_sim_oracle_livermore;
          Alcotest.test_case "Synthetic == old simulator" `Quick
            test_sim_oracle_synthetic;
        ] );
    ]
