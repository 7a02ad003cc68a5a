(* IR substrate: registers, operands, trees, nodes, programs,
   builders, well-formedness. *)

open Vliw_ir

let reg n = Reg.of_int n
let imm n = Operand.Imm (Value.I n)

let check_wf p = Alcotest.(check (list string)) "well-formed" [] (Wellformed.check p)

(* -- operands ---------------------------------------------------------- *)

let test_operand_forward () =
  (* r5 used as r5+3, forwarded through copy r5 <- r2+4 => r2+7 *)
  let o = Operand.Regoff (reg 5, 3) in
  match Operand.forward o ~copy_dst:(reg 5) ~copy_src:(Operand.Regoff (reg 2, 4)) with
  | Some (Operand.Regoff (r, 7)) when Reg.equal r (reg 2) -> ()
  | _ -> Alcotest.fail "offset composition"

let test_operand_forward_imm () =
  let o = Operand.Regoff (reg 5, 3) in
  (match Operand.forward o ~copy_dst:(reg 5) ~copy_src:(imm 10) with
  | Some (Operand.Imm (Value.I 13)) -> ()
  | _ -> Alcotest.fail "imm composition");
  match Operand.forward o ~copy_dst:(reg 5) ~copy_src:(Operand.Imm (Value.F 1.0)) with
  | None -> ()
  | Some _ -> Alcotest.fail "float imm must not compose"

let test_operand_shift () =
  let o = Operand.Reg (reg 1) in
  (match Operand.shift_reg o ~reg:(reg 1) ~by:4 with
  | Operand.Regoff (r, 4) when Reg.equal r (reg 1) -> ()
  | _ -> Alcotest.fail "shift");
  match Operand.shift_reg (Operand.Regoff (reg 1, 2)) ~reg:(reg 1) ~by:4 with
  | Operand.Regoff (_, 6) -> ()
  | _ -> Alcotest.fail "shift compose"

(* -- operations -------------------------------------------------------- *)

let test_operation_defuse () =
  let op =
    Operation.make ~id:0
      (Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 1), Operand.Regoff (reg 2, 5)))
  in
  Alcotest.(check (option int)) "def" (Some 3) (Option.map Reg.to_int (Operation.def op));
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (List.map Reg.to_int (Operation.uses op))

let test_operation_store_no_def () =
  let st =
    Operation.make ~id:1
      (Operation.Store
         ({ Operation.sym = "x"; base = Operand.Reg (reg 0); offset = 2 },
          Operand.Reg (reg 4)))
  in
  Alcotest.(check (option int)) "no def" None (Option.map Reg.to_int (Operation.def st));
  Alcotest.(check (list int)) "uses base+val" [ 0; 4 ]
    (List.map Reg.to_int (Operation.uses st))

let test_guard_compat () =
  let g1 = [ (1, true); (2, false) ] and g2 = [ (1, true) ] in
  Alcotest.(check bool) "compatible" true (Operation.guard_compatible g1 g2);
  Alcotest.(check bool) "incompatible" false
    (Operation.guard_compatible g1 [ (2, true) ]);
  Alcotest.(check bool) "satisfied" true
    (Operation.guard_satisfied g2 ~decisions:[ (1, true); (2, false) ]);
  Alcotest.(check bool) "unsatisfied" false
    (Operation.guard_satisfied g1 ~decisions:[ (1, true) ])

let test_strip_guard () =
  let op = Operation.make ~id:7 ~guard:[ (9, true); (4, false) ]
      (Operation.Copy (reg 1, imm 0))
  in
  (match Operation.strip_guard_head op ~cj:9 ~taken:true with
  | Some o -> Alcotest.(check bool) "stripped" true (o.Operation.guard = [ (4, false) ])
  | None -> Alcotest.fail "should survive");
  (match Operation.strip_guard_head op ~cj:9 ~taken:false with
  | None -> ()
  | Some _ -> Alcotest.fail "wrong arm must drop");
  match Operation.strip_guard_head op ~cj:5 ~taken:true with
  | Some o -> Alcotest.(check bool) "unrelated" true (o.Operation.guard = op.Operation.guard)
  | None -> Alcotest.fail "unrelated cj must keep"

(* -- ctree ------------------------------------------------------------- *)

let mk_cj id = Operation.make ~id (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 10))

let test_ctree_paths () =
  let t =
    Ctree.Branch (mk_cj 1, Ctree.Leaf 100, Ctree.Branch (mk_cj 2, Ctree.Leaf 101, Ctree.Leaf 100))
  in
  Alcotest.(check (list int)) "succs" [ 100; 101 ] (Ctree.succs t);
  Alcotest.(check int) "n_cjumps" 2 (Ctree.n_cjumps t);
  (match Ctree.path_to t 101 with
  | Some [ (1, false); (2, true) ] -> ()
  | _ -> Alcotest.fail "path to 101");
  (match Ctree.path_to t 100 with
  | Some [ (1, true) ] -> ()
  | _ -> Alcotest.fail "first path to 100");
  Alcotest.(check int) "two ways to 100" 2 (Ctree.all_paths_to t 100);
  Alcotest.(check bool) "prefix ok" true
    (Ctree.has_path_prefix t [ (1, false) ]);
  Alcotest.(check bool) "prefix bad" false (Ctree.has_path_prefix t [ (2, true) ])

(* [Ctree.path_to] as it was written before a [Leaf] answered with a
   shared [Some []]: a local closure consing the path in reverse. *)
let path_to_oracle t n =
  let rec go acc = function
    | Ctree.Leaf m -> if m = n then Some (List.rev acc) else None
    | Ctree.Branch (cj, a, b) -> (
        match go ((cj.Operation.id, true) :: acc) a with
        | Some p -> Some p
        | None -> go ((cj.Operation.id, false) :: acc) b)
  in
  go [] t

let test_ctree_path_leaf () =
  let hit = Ctree.path_to (Ctree.Leaf 7) 7 in
  Alcotest.(check (option (list (pair int bool)))) "leaf hit" (Some []) hit;
  Alcotest.(check bool) "leaf hits share one answer" true
    (hit == Ctree.path_to (Ctree.Leaf 3) 3);
  Alcotest.(check (option (list (pair int bool)))) "leaf miss" None
    (Ctree.path_to (Ctree.Leaf 7) 8);
  let leaf = Ctree.Leaf 7 in
  let words = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Ctree.path_to leaf 7))
  done;
  Alcotest.(check bool) "leaf hits allocate nothing" true
    (Gc.minor_words () -. words < 100.0)

(* Random trees over a few leaf targets and distinct jump ids. *)
let ctree_gen =
  QCheck2.Gen.(
    let next = ref 0 in
    sized_size (int_range 0 6)
    @@ fix (fun self depth ->
           if depth = 0 then map (fun m -> Ctree.Leaf m) (int_range 0 4)
           else
             frequency
               [
                 (1, map (fun m -> Ctree.Leaf m) (int_range 0 4));
                 ( 3,
                   let* a = self (depth - 1) in
                   let* b = self (depth - 1) in
                   incr next;
                   return (Ctree.Branch (mk_cj !next, a, b)) );
               ]))

let prop_path_to_oracle =
  QCheck2.Test.make ~name:"path_to == list-consing oracle" ~count:500
    ~print:(fun t -> Format.asprintf "%a" Ctree.pp t)
    ctree_gen
    (fun t ->
      List.for_all (fun n -> Ctree.path_to t n = path_to_oracle t n) [ 0; 1; 2; 3; 4; 5 ])

let test_ctree_replace_leaf () =
  let t = Ctree.Branch (mk_cj 1, Ctree.Leaf 5, Ctree.Leaf 6) in
  let t' = Ctree.replace_leaf t ~old_:5 ~new_:7 in
  Alcotest.(check (list int)) "replaced" [ 6; 7 ] (Ctree.succs t')

(* -- builder + program ------------------------------------------------- *)

let test_builder_straight () =
  let p =
    Builder.straight
      [
        Operation.Copy (reg 0, imm 1);
        Operation.Copy (reg 1, imm 2);
        Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 0), Operand.Reg (reg 1));
      ]
  in
  check_wf p;
  (* entry + 3 ops + exit *)
  Alcotest.(check int) "nodes" 5 (Program.n_nodes p);
  Alcotest.(check int) "ops" 3 (List.length (Program.all_ops p))

let test_builder_loop () =
  let k = reg 0 in
  let shape =
    Builder.loop
      ~pre:[ Operation.Copy (k, imm 0) ]
      ~body:
        [
          Operation.Binop (Opcode.Add, reg 1, Operand.Reg k, imm 100);
          Operation.Binop (Opcode.Add, k, Operand.Reg k, imm 1);
          Operation.Cjump (Opcode.Lt, Operand.Reg k, imm 10);
        ]
      ()
  in
  let p = shape.Builder.program in
  check_wf p;
  (* entry, pre, 2 body nodes, latch, exit *)
  Alcotest.(check int) "nodes" 6 (Program.n_nodes p);
  Alcotest.(check (list int)) "latch succs"
    (List.sort Int.compare [ shape.Builder.header; p.Program.exit_id ])
    (Program.succs p shape.Builder.latch)

let test_program_delete_node () =
  let p = Builder.straight [ Operation.Copy (reg 0, imm 1); Operation.Copy (reg 1, imm 2) ] in
  let ids = Program.rpo p in
  (* second real node *)
  let nid = List.nth ids 1 in
  let n = Program.node p nid in
  let op = List.hd n.Node.ops in
  Program.remove_op p nid op.Operation.id;
  Program.delete_node p nid;
  check_wf p;
  Alcotest.(check int) "nodes after delete" 3 (Program.n_nodes p)

let test_program_home_tracking () =
  let p = Builder.straight [ Operation.Copy (reg 0, imm 1) ] in
  let nid = List.nth (Program.rpo p) 1 in
  let op = List.hd (Program.node p nid).Node.ops in
  Alcotest.(check (option int)) "home" (Some nid) (Program.home p op.Operation.id);
  Program.remove_op p nid op.Operation.id;
  Alcotest.(check (option int)) "gone" None (Program.home p op.Operation.id)

(* Reverse postorder reads only successor lists, so it is memoized per
   shape version: op edits hand back the very same list, and every edit
   that adds or drops an edge or a node replaces it. *)
let test_program_rpo_keyed_on_shape () =
  let p =
    Builder.straight [ Operation.Copy (reg 0, imm 1); Operation.Copy (reg 1, imm 2) ]
  in
  let check what ~same f =
    let before = Program.rpo p in
    f ();
    Alcotest.(check bool) what same (Program.rpo p == before)
  in
  let nid = List.nth (Program.rpo p) 1 in
  let op = List.hd (Program.node p nid).Node.ops in
  check "remove_op keeps rpo" ~same:true (fun () ->
      Program.remove_op p nid op.Operation.id);
  check "add_op keeps rpo" ~same:true (fun () -> Program.add_op p nid op);
  check "replace_op keeps rpo" ~same:true (fun () ->
      Program.replace_op p nid
        { op with Operation.kind = Operation.Copy (reg 0, imm 5) });
  let snap = Program.snapshot p in
  let m = ref (-1) in
  check "fresh_node replaces rpo" ~same:false (fun () ->
      m := (Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf nid)).Node.id);
  check "redirect replaces rpo" ~same:false (fun () ->
      Program.redirect p ~from_:p.Program.entry ~old_:nid ~new_:!m);
  check "set_ctree replaces rpo" ~same:false (fun () ->
      Program.set_ctree p !m (Ctree.leaf nid));
  check "delete_node replaces rpo" ~same:false (fun () ->
      Program.delete_node p !m);
  check "restore replaces rpo" ~same:false (fun () -> Program.restore p snap);
  check_wf p

(* [chain_version] moves with every edge edit but [delete_node]'s, and
   with nothing else: op edits, deletion and collection keep it. *)
let test_program_chain_version () =
  let p =
    Builder.straight [ Operation.Copy (reg 0, imm 1); Operation.Copy (reg 1, imm 2) ]
  in
  let check what ~moves f =
    let before = Program.chain_version p in
    f ();
    Alcotest.(check bool) what moves (Program.chain_version p <> before)
  in
  let nid = List.nth (Program.rpo p) 1 in
  let op = List.hd (Program.node p nid).Node.ops in
  check "remove_op keeps it" ~moves:false (fun () ->
      Program.remove_op p nid op.Operation.id);
  check "add_op keeps it" ~moves:false (fun () -> Program.add_op p nid op);
  let snap = Program.snapshot p in
  let m = ref (-1) in
  check "fresh_node moves it" ~moves:true (fun () ->
      m := (Program.fresh_node p ~ops:[] ~ctree:(Ctree.leaf nid)).Node.id);
  check "redirect moves it" ~moves:true (fun () ->
      Program.redirect p ~from_:p.Program.entry ~old_:nid ~new_:!m);
  check "set_ctree moves it" ~moves:true (fun () ->
      Program.set_ctree p !m (Ctree.leaf nid));
  let shape = Program.shape_version p in
  check "delete_node keeps it" ~moves:false (fun () -> Program.delete_node p !m);
  Alcotest.(check bool) "delete_node moves the shape" true
    (Program.shape_version p <> shape);
  check "gc keeps it" ~moves:false (fun () -> ignore (Program.gc p));
  check "restore moves it" ~moves:true (fun () -> Program.restore p snap);
  check_wf p

let test_clone_instruction_guard_remap () =
  let p = Program.create () in
  let cj = Operation.make ~id:(Program.fresh_op_id p) (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 0), imm 3)) in
  let guarded =
    Operation.make ~id:(Program.fresh_op_id p)
      ~guard:[ (cj.Operation.id, true) ]
      (Operation.Copy (reg 1, imm 0))
  in
  let tree = Ctree.Branch (cj, Ctree.Leaf p.Program.exit_id, Ctree.Leaf p.Program.exit_id) in
  let ops', tree' = Program.clone_instruction p ~ops:[ guarded ] ~ctree:tree in
  let cj' = List.hd (Ctree.cjumps tree') in
  (match ops' with
  | [ o ] ->
      Alcotest.(check bool) "guard remapped" true
        (o.Operation.guard = [ (cj'.Operation.id, true) ]);
      Alcotest.(check bool) "fresh id" true (o.Operation.id <> guarded.Operation.id);
      Alcotest.(check int) "lineage kept" guarded.Operation.lineage o.Operation.lineage
  | _ -> Alcotest.fail "one op expected")

let test_wellformed_catches_double_def () =
  let p = Program.create () in
  let n =
    Program.fresh_node p
      ~ops:
        [
          Operation.make ~id:(Program.fresh_op_id p) (Operation.Copy (reg 1, imm 0));
          Operation.make ~id:(Program.fresh_op_id p) (Operation.Copy (reg 1, imm 2));
        ]
      ~ctree:(Ctree.leaf p.Program.exit_id)
  in
  Program.redirect p ~from_:p.Program.entry ~old_:p.Program.exit_id ~new_:n.Node.id;
  Alcotest.(check bool) "violation reported" true (Wellformed.check p <> [])

let () =
  Alcotest.run "vliw_ir"
    [
      ( "operand",
        [
          Alcotest.test_case "forward compose" `Quick test_operand_forward;
          Alcotest.test_case "forward imm" `Quick test_operand_forward_imm;
          Alcotest.test_case "shift ivar" `Quick test_operand_shift;
        ] );
      ( "operation",
        [
          Alcotest.test_case "def/use" `Quick test_operation_defuse;
          Alcotest.test_case "store def" `Quick test_operation_store_no_def;
          Alcotest.test_case "guard compat" `Quick test_guard_compat;
          Alcotest.test_case "strip guard" `Quick test_strip_guard;
        ] );
      ( "ctree",
        [
          Alcotest.test_case "paths" `Quick test_ctree_paths;
          Alcotest.test_case "path to a leaf" `Quick test_ctree_path_leaf;
          QCheck_alcotest.to_alcotest prop_path_to_oracle;
          Alcotest.test_case "replace leaf" `Quick test_ctree_replace_leaf;
        ] );
      ( "program",
        [
          Alcotest.test_case "straight builder" `Quick test_builder_straight;
          Alcotest.test_case "loop builder" `Quick test_builder_loop;
          Alcotest.test_case "delete node" `Quick test_program_delete_node;
          Alcotest.test_case "home tracking" `Quick test_program_home_tracking;
          Alcotest.test_case "rpo keyed on shape" `Quick
            test_program_rpo_keyed_on_shape;
          Alcotest.test_case "chain version" `Quick test_program_chain_version;
          Alcotest.test_case "clone remaps guards" `Quick test_clone_instruction_guard_remap;
          Alcotest.test_case "double def caught" `Quick test_wellformed_catches_double_def;
        ] );
    ]
