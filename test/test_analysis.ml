(* Analysis substrate: alias and DDG, and the liveness and dominator
   oracles (test/liveness.ml, test/dom.ml). *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Ddg = Vliw_analysis.Ddg

(* A fixed QCheck seed unless QCHECK_SEED is set: qcheck-alcotest reads
   it once, at the first property built, and one is built at module
   top level below. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019"

let reg = Reg.of_int
let imm n = Operand.Imm (Value.I n)

let mk_op ?(id = 0) ?iter ?src_pos kind = Operation.make ~id ?iter ?src_pos kind

(* -- liveness ----------------------------------------------------------- *)

let test_liveness_straight () =
  (* r0 <- 1; r1 <- r0+1; r2 <- r1+1, observe r2 *)
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 0), imm 1);
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1);
      ]
  in
  let live = Liveness.compute p ~exit_live:(Reg.Set.singleton (reg 2)) in
  let ids = Program.rpo p in
  let n1 = List.nth ids 1 and n2 = List.nth ids 2 and n3 = List.nth ids 3 in
  Alcotest.(check bool) "r0 dead before def" false
    (Reg.Set.mem (reg 0) (Liveness.live_in live n1));
  Alcotest.(check bool) "r0 live at n2" true
    (Reg.Set.mem (reg 0) (Liveness.live_in live n2));
  Alcotest.(check bool) "r0 dead at n3" false
    (Reg.Set.mem (reg 0) (Liveness.live_in live n3));
  Alcotest.(check bool) "r2 live at exit edge" true
    (Reg.Set.mem (reg 2) (Liveness.live_out live n3))

let test_liveness_loop () =
  (* accumulator r1 is live around the back edge *)
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
  let p = shape.Builder.program in
  let live = Liveness.compute p ~exit_live:(Reg.Set.singleton (reg 1)) in
  Alcotest.(check bool) "acc live at header" true
    (Reg.Set.mem (reg 1) (Liveness.live_in live shape.Builder.header));
  Alcotest.(check bool) "ivar live at header" true
    (Reg.Set.mem (reg 0) (Liveness.live_in live shape.Builder.header))

(* Liveness computed again after an edit answers for the edited
   program. *)
let test_liveness_cache_invalidation () =
  let p = Builder.straight [ Operation.Copy (reg 0, imm 1) ] in
  let n1 = List.nth (Program.rpo p) 1 in
  Alcotest.(check bool) "nothing live" true
    (Reg.Set.is_empty
       (Liveness.live_in (Liveness.compute p ~exit_live:Reg.Set.empty) n1));
  (* add a reader below: r0 becomes live *)
  let n =
    Program.fresh_node p
      ~ops:[ mk_op ~id:1000 (Operation.Copy (reg 9, Operand.Reg (reg 0))) ]
      ~ctree:(Ctree.leaf p.Program.exit_id)
  in
  Program.redirect p ~from_:n1 ~old_:p.Program.exit_id ~new_:n.Node.id;
  let live = Liveness.compute p ~exit_live:Reg.Set.empty in
  Alcotest.(check bool) "r0 live after mutation" true
    (Reg.Set.mem (reg 0) (Liveness.live_in live n.Node.id));
  Alcotest.(check bool) "r0 dead above its def" false
    (Reg.Set.mem (reg 0) (Liveness.live_in live p.Program.entry))

(* -- dominators ---------------------------------------------------------- *)

let test_dominators_diamond () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ops ctree = (Program.fresh_node p ~ops ~ctree).Node.id in
  let join = mk [ mk_op ~id:10 (Operation.Copy (reg 3, imm 0)) ] (Ctree.leaf exit_) in
  let a = mk [ mk_op ~id:11 (Operation.Copy (reg 1, imm 1)) ] (Ctree.leaf join) in
  let b = mk [ mk_op ~id:12 (Operation.Copy (reg 2, imm 2)) ] (Ctree.leaf join) in
  let cj = mk_op ~id:13 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 5)) in
  let top =
    mk
      [ mk_op ~id:14 (Operation.Copy (reg 0, imm 3)) ]
      (Ctree.Branch (cj, Ctree.Leaf a, Ctree.Leaf b))
  in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:top;
  let dom = Dom.compute p in
  Alcotest.(check bool) "top dominates join" true (Dom.dominates dom top join);
  Alcotest.(check bool) "a does not dominate join" false (Dom.dominates dom a join);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom a a);
  let sub = Dom.dominated dom p top in
  Alcotest.(check bool) "subgraph has all" true
    (List.for_all (fun x -> List.mem x sub) [ top; a; b; join ])

(* -- alias --------------------------------------------------------------- *)

let addr ?(sym = "x") base offset = { Operation.sym; base; offset }

let test_alias () =
  let k = Operand.Reg (reg 0) in
  Alcotest.(check bool) "same sym same off" true
    (Alias.may_alias (addr k 3) (addr k 3));
  Alcotest.(check bool) "same sym diff off" false
    (Alias.may_alias (addr k 3) (addr k 4));
  Alcotest.(check bool) "diff sym" false
    (Alias.may_alias (addr ~sym:"x" k 3) (addr ~sym:"y" k 3));
  Alcotest.(check bool) "incomparable bases" true
    (Alias.may_alias (addr k 3) (addr (Operand.Reg (reg 1)) 9));
  Alcotest.(check bool) "must" true (Alias.must_alias (addr k 3) (addr k 3));
  Alcotest.(check bool) "regoff base" false
    (Alias.may_alias (addr (Operand.Regoff (reg 0, 2)) 0) (addr (Operand.Regoff (reg 0, 2)) 1))

let test_mem_conflict () =
  let k = Operand.Reg (reg 0) in
  let ld = mk_op ~id:1 (Operation.Load (reg 1, addr k 0)) in
  let st = mk_op ~id:2 (Operation.Store (addr k 0, imm 5)) in
  let ld2 = mk_op ~id:3 (Operation.Load (reg 2, addr k 0)) in
  Alcotest.(check bool) "load/store conflict" true (Alias.mem_conflict ld st);
  Alcotest.(check bool) "load/load fine" false (Alias.mem_conflict ld ld2);
  Alcotest.(check bool) "store/store conflict" true (Alias.mem_conflict st st)

(* -- ddg ------------------------------------------------------------------ *)

(* the paper's Fig. 5 loop: a -> b -> c with a LCD on a *)
let abc_body =
  [
    mk_op ~id:0 ~src_pos:0
      (Operation.Binop (Opcode.Add, reg 1, Operand.Reg (reg 1), imm 1));
    (* a: r1 <- r1 + 1, LCD on itself *)
    mk_op ~id:1 ~src_pos:1
      (Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 1), imm 1));
    (* b depends on a *)
    mk_op ~id:2 ~src_pos:2
      (Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 2), imm 1));
    (* c depends on b *)
  ]

let test_ddg_chain_and_lcd () =
  let g = Ddg.build abc_body in
  let has k src dst dist =
    List.exists
      (fun (a : Ddg.arc) ->
        a.Ddg.src = src && a.Ddg.dst = dst && a.Ddg.kind = k && a.Ddg.dist = dist)
      g.Ddg.arcs
  in
  Alcotest.(check bool) "a->b flow" true (has Ddg.Flow 0 1 0);
  Alcotest.(check bool) "b->c flow" true (has Ddg.Flow 1 2 0);
  Alcotest.(check bool) "a->a lcd" true (has Ddg.Flow 0 0 1);
  let h = Ddg.flow_height g in
  Alcotest.(check (list int)) "heights" [ 3; 2; 1 ] (Array.to_list h);
  let d = Ddg.dependents g in
  (* a has dependents b (intra) and a (carried) *)
  Alcotest.(check bool) "a has >= 2 dependents" true (d.(0) >= 2)

let test_ddg_instances () =
  let g = Ddg.build abc_body in
  (* a@0 reaches c@0 and, through the LCD, c@2 *)
  Alcotest.(check bool) "a0 -> c0" true (Ddg.reaches_flow g ~horizon:4 (0, 0) (2, 0));
  Alcotest.(check bool) "a0 -> c2" true (Ddg.reaches_flow g ~horizon:4 (0, 0) (2, 2));
  Alcotest.(check bool) "c0 -/-> a0" false (Ddg.reaches_flow g ~horizon:4 (2, 0) (0, 0));
  Alcotest.(check bool) "b1 unrelated to c0" false
    (Ddg.chain_related g ~horizon:4 (1, 1) (2, 0))

let test_ddg_memory_distance () =
  (* store x[k]; load x[k-1]  =>  distance-1 loop-carried mem dep
     (LL11-style first sum) *)
  let k = reg 0 in
  let body =
    [
      mk_op ~id:0 ~src_pos:0
        (Operation.Load (reg 1, addr (Operand.Reg k) (-1)));
      mk_op ~id:1 ~src_pos:1
        (Operation.Store (addr (Operand.Reg k) 0, Operand.Reg (reg 1)));
    ]
  in
  let g = Ddg.build ~ivar:(k, 1) body in
  let has_mem src dst dist =
    List.exists
      (fun (a : Ddg.arc) ->
        a.Ddg.src = src && a.Ddg.dst = dst && a.Ddg.kind = Ddg.Mem && a.Ddg.dist = dist)
      g.Ddg.arcs
  in
  Alcotest.(check bool) "store@t -> load@t+1" true (has_mem 1 0 1);
  Alcotest.(check bool) "no same-iteration conflict" false (has_mem 0 1 0)

(* The chain memo against the direct search, on the DDGs of the
   Livermore kernels and of random synthetic ones: random instance
   pairs, positions and iterations one past either end of their range
   included, each asked twice so the memo answers from its table. *)
let prop_chain_memo =
  let livermore =
    Array.of_list
      (List.map
         (fun (e : Workloads.Livermore.entry) -> e.Workloads.Livermore.kernel)
         Workloads.Livermore.all)
  in
  QCheck2.Test.make ~count:200 ~name:"chain memo == direct search"
    ~print:(fun (spec, li, h, seed) ->
      Printf.sprintf "%s, LL%d, horizon %d, seed %d" (Synthetic_gen.print_spec spec)
        (li + 1) h seed)
    QCheck2.Gen.(
      quad Synthetic_gen.spec_gen
        (int_bound (Array.length livermore - 1))
        (int_range 0 8) (int_bound 1_000_000))
    (fun (spec, li, horizon, seed) ->
      let rng = Random.State.make [| seed |] in
      let rand b = Random.State.int rng b in
      List.for_all
        (fun kern ->
          let ddg = Grip.Pipeline.ddg_of kern in
          let n = Array.length ddg.Ddg.ops in
          let memo = Ddg.chains ddg ~horizon in
          let instance () = (rand (n + 2) - 1, rand (horizon + 3) - 1) in
          List.for_all
            (fun _ ->
              let a = instance () and b = instance () in
              let want = Ddg.reaches_flow ddg ~horizon a b in
              Ddg.reaches memo a b = want
              && Ddg.reaches memo a b = want
              && Ddg.related memo a b = Ddg.chain_related ddg ~horizon a b)
            (List.init 100 Fun.id))
        [ livermore.(li); Workloads.Synthetic.generate spec ])

let () =
  Alcotest.run "vliw_analysis"
    [
      ( "liveness",
        [
          Alcotest.test_case "straight" `Quick test_liveness_straight;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
          Alcotest.test_case "cache invalidation" `Quick test_liveness_cache_invalidation;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
        ] );
      ( "alias",
        [
          Alcotest.test_case "addresses" `Quick test_alias;
          Alcotest.test_case "mem conflicts" `Quick test_mem_conflict;
        ] );
      ( "ddg",
        [
          Alcotest.test_case "chain + lcd" `Quick test_ddg_chain_and_lcd;
          Alcotest.test_case "instances" `Quick test_ddg_instances;
          Alcotest.test_case "memory distance" `Quick test_ddg_memory_distance;
          QCheck_alcotest.to_alcotest prop_chain_memo;
        ] );
    ]
