(* IR substrate: registers, operands, trees, nodes, programs,
   builders, well-formedness. *)

open Vliw_ir

(* A fixed QCheck seed unless QCHECK_SEED is set: qcheck-alcotest reads
   it once, at the first property built, and one is built at module
   top level below. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019"

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

(* -- schedule text oracle ------------------------------------------------ *)

(* The Format printers that rendered schedules before [Program.write]:
   the test oracle for its bytes, down to Format's layout of boxes
   that open deep in a conditional tree. *)
module Oracle = struct
  let reg ppf r = Format.fprintf ppf "r%d" r

  let value ppf = function
    | Value.I n -> Format.fprintf ppf "%d" n
    | Value.F f -> Format.fprintf ppf "%g" f

  let operand ppf = function
    | Operand.Reg r -> reg ppf r
    | Operand.Imm v -> value ppf v
    | Operand.Regoff (r, c) ->
        if c >= 0 then Format.fprintf ppf "%a+%d" reg r c
        else Format.fprintf ppf "%a-%d" reg r (-c)

  let addr ppf { Operation.sym; base; offset } =
    if offset = 0 then Format.fprintf ppf "%s[%a]" sym operand base
    else if offset > 0 then Format.fprintf ppf "%s[%a+%d]" sym operand base offset
    else Format.fprintf ppf "%s[%a-%d]" sym operand base (-offset)

  let kind ppf = function
    | Operation.Binop (o, d, a, b) ->
        Format.fprintf ppf "%a <- %a %a %a" reg d operand a Opcode.pp_binop o
          operand b
    | Operation.Unop (o, d, a) ->
        Format.fprintf ppf "%a <- %a %a" reg d Opcode.pp_unop o operand a
    | Operation.Copy (d, a) -> Format.fprintf ppf "%a <- %a" reg d operand a
    | Operation.Load (d, a) -> Format.fprintf ppf "%a <- %a" reg d addr a
    | Operation.Store (a, v) -> Format.fprintf ppf "%a <- %a" addr a operand v
    | Operation.Cjump (r, a, b) ->
        Format.fprintf ppf "if %a %a %a" operand a Opcode.pp_relop r operand b

  let guard ppf (g : Operation.guard) =
    if g <> [] then
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf (c, b) ->
             Format.fprintf ppf "%s#%d" (if b then "+" else "-") c))
        g

  let op ppf (op : Operation.t) =
    Format.fprintf ppf "@[#%d%t%a %a@]" op.Operation.id
      (fun ppf ->
        if op.Operation.iter <> Operation.no_iter then
          Format.fprintf ppf "(i%d)" op.Operation.iter)
      guard op.Operation.guard kind op.Operation.kind

  let rec ctree ppf = function
    | Ctree.Leaf n -> Format.fprintf ppf "-> n%d" n
    | Ctree.Branch (cj, a, b) ->
        Format.fprintf ppf "@[<v>[%a]@,  T: %a@,  F: %a@]" op cj ctree a ctree b

  let node p ppf id =
    Format.fprintf ppf "@[<v>n%d:@,%a@,%a@]" id
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf o ->
           Format.fprintf ppf "  %a" op o))
      (Program.ops p id) ctree (Program.node p id).Node.ctree

  let program ppf p =
    Format.fprintf ppf "@[<v>entry = n%d, exit = n%d@,%a@]" p.Program.entry
      p.Program.exit_id
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf id ->
           if Program.is_exit p id then Format.fprintf ppf "n%d: (exit)" id
           else node p ppf id))
      (Program.rpo p)
end

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
  Alcotest.(check (list int)) "both ways to 100 redirected" [ 101; 102 ]
    (Ctree.succs (Ctree.replace_leaf t ~old_:100 ~new_:102));
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
    ~print:(fun t -> Format.asprintf "%a" Oracle.ctree t)
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
  let op = List.hd (Program.ops p nid) in
  Program.remove_op p nid op.Operation.id;
  Program.delete_node p nid;
  check_wf p;
  Alcotest.(check int) "nodes after delete" 3 (Program.n_nodes p)

let test_program_home_tracking () =
  let p = Builder.straight [ Operation.Copy (reg 0, imm 1) ] in
  let nid = List.nth (Program.rpo p) 1 in
  let op = List.hd (Program.ops p nid) in
  Alcotest.(check (option int)) "home" (Some nid) (Program.home p op.Operation.id);
  Program.remove_op p nid op.Operation.id;
  Alcotest.(check (option int)) "gone" None (Program.home p op.Operation.id)

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

(* -- wellformed oracle: the stamp tables against the hash tables -------- *)

(* One mutation per violation [Wellformed.check] reports, applied to a
   scheduled program around its legality checks: in node [a] holding
   plain op [x], with [b] another node. *)
let mutations =
  let fresh p kind = Operation.make ~id:(Program.fresh_op_id p) kind in
  let fresh_def p = Operation.Copy (Program.fresh_reg p, imm 1) in
  let cj p = fresh p (Operation.Cjump (Opcode.Lt, imm 0, imm 1)) in
  [
    ("double def", fun p ~a ~b:_ (x : Operation.t) ->
        Program.add_op p a { x with Operation.id = Program.fresh_op_id p });
    ("plain jump", fun p ~a ~b:_ _ -> Program.add_op p a (cj p));
    ("non-jump in the tree", fun p ~a ~b:_ _ ->
        let t = (Program.node p a).Node.ctree in
        Program.set_ctree p a (Ctree.Branch (fresh p (fresh_def p), t, t)));
    ("guard off the tree", fun p ~a ~b:_ _ ->
        Program.add_op p a
          { (fresh p (fresh_def p)) with Operation.guard = [ (1_000_000, true) ] });
    ("op in two nodes", fun p ~a:_ ~b x -> Program.add_op p b x);
    ("home elsewhere", fun p ~a:_ ~b (x : Operation.t) ->
        Itbl.set p.Program.op_home x.Operation.id b);
    ("unindexed", fun p ~a:_ ~b:_ (x : Operation.t) ->
        Itbl.set p.Program.op_home x.Operation.id (-1));
    ("exit holds an op", fun p ~a:_ ~b:_ _ ->
        Program.add_op p p.Program.exit_id (fresh p (fresh_def p)));
    ("exit not a self-loop", fun p ~a ~b:_ _ ->
        Program.set_ctree p p.Program.exit_id (Ctree.Leaf a));
  ]

(* A leaf to a node that does not exist: reported once, where the old
   check raised [Not_found] on reaching the missing node. *)
let test_wellformed_dangling_leaf () =
  let p = Builder.straight [ Operation.Copy (reg 1, imm 0) ] in
  let a = List.hd (List.filter (fun id -> Program.ops p id <> []) (Program.rpo p)) in
  let missing = Program.node_limit p + 3 in
  Program.set_ctree p a
    (Ctree.Branch
       ( Operation.make ~id:(Program.fresh_op_id p)
           (Operation.Cjump (Opcode.Lt, imm 0, imm 1)),
         Ctree.Leaf missing,
         Ctree.Leaf missing ));
  Alcotest.(check (list string)) "reported once"
    [ Printf.sprintf "node %d has dangling successor %d" a missing ]
    (Wellformed.check p)

let test_wellformed_oracle () =
  let sorted p = List.sort compare (Wellformed.check p) in
  let want p = List.sort compare (Wellformed_oracle.check p) in
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.iter
        (fun method_ ->
          let p =
            (Grip.Pipeline.run k ~machine:(Vliw_machine.Machine.homogeneous 4) ~method_)
              .Grip.Pipeline.program
          in
          let name = k.Grip.Kernel.name ^ " " ^ Grip.Pipeline.method_name method_ in
          Alcotest.(check (list string)) (name ^ " clean") [] (sorted p);
          Alcotest.(check (list string)) (name ^ " clean, oracle") [] (want p);
          let with_ops =
            List.filter (fun id -> Program.ops p id <> []) (Program.rpo p)
          in
          match with_ops with
          | a :: b :: _ ->
              let x = List.hd (Program.ops p a) in
              let snap = Program.snapshot p in
              List.iter
                (fun (what, mutate) ->
                  Program.restore p snap;
                  mutate p ~a ~b x;
                  let got = sorted p in
                  Alcotest.(check (list string)) (name ^ ", " ^ what) (want p) got;
                  Alcotest.(check bool) (name ^ ", " ^ what ^ " caught") true (got <> []))
                mutations;
              (* all at once *)
              Program.restore p snap;
              List.iter (fun (_, mutate) -> mutate p ~a ~b x) mutations;
              Alcotest.(check (list string)) (name ^ ", every mutation") (want p) (sorted p)
          | _ -> Alcotest.failf "%s: fewer than two nodes hold ops" name)
        [ Grip.Pipeline.Grip; Grip.Pipeline.Post ])
    Workloads.Livermore.all

(* -- schedule text ------------------------------------------------------- *)

(* The digest's contract: the writer's text plus a newline is exactly
   what [Format.asprintf "%a@."] of the oracle prints. *)
let texts p = (Program.to_string p ^ "\n", Format.asprintf "%a@." Oracle.program p)

let text_matches p =
  let got, want = texts p in
  got = want

let check_text what p =
  let got, want = texts p in
  if got <> want then Alcotest.failf "%s: writer\n%s\noracle\n%s" what got want

(* A program whose one instruction holds [ops] and the tree [mk p]. *)
let one_instruction ?(ops = fun _ -> []) mk =
  let p = Program.create () in
  let n = Program.fresh_node p ~ops:(ops p) ~ctree:(mk p) in
  Program.redirect p ~from_:p.Program.entry ~old_:p.Program.exit_id
    ~new_:n.Node.id;
  p

(* Conditional trees [depth] jumps deep, in four shapes: the depth on
   the taken arms, on the fall-through arms, alternating, and on both
   arms of the root.  [cj p] makes each jump. *)
let deep_tree ~shape ~depth cj p =
  let leaf () = Ctree.Leaf p.Program.exit_id in
  let rec spine ~taken d =
    if d = 0 then leaf ()
    else
      let sub = spine ~taken:(if shape = `Zigzag then not taken else taken) (d - 1) in
      if taken then Ctree.Branch (cj p, sub, leaf ())
      else Ctree.Branch (cj p, leaf (), sub)
  in
  match shape with
  | `Taken | `Zigzag -> spine ~taken:true depth
  | `Fall -> spine ~taken:false depth
  | `Both ->
      if depth = 0 then leaf ()
      else
        Ctree.Branch
          (cj p, spine ~taken:true (depth - 1), spine ~taken:false (depth - 1))

let plain_cj p =
  Operation.make ~id:(Program.fresh_op_id p)
    (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 1), imm 10))

(* A jump with a long guard and wide operands. *)
let long_cj p =
  let id = Program.fresh_op_id p in
  Operation.make ~id ~iter:(id mod 7)
    ~guard:(List.init 24 (fun i -> (1000 + i, i mod 3 = 0)))
    (Operation.Cjump
       ( Opcode.Ne,
         Operand.Regoff (reg 123456, -98765),
         Operand.Imm (Value.F 3.0517578125e-05) ))

let test_text_deep_trees () =
  List.iter
    (fun (shape, name) ->
      List.iter
        (fun cj ->
          for depth = 0 to 20 do
            check_text
              (Printf.sprintf "%s tree, %d deep" name depth)
              (one_instruction (deep_tree ~shape ~depth cj))
          done)
        [ plain_cj; long_cj ])
    [ (`Taken, "taken-arm"); (`Fall, "fall-through"); (`Zigzag, "zigzag");
      (`Both, "two-spine") ]

(* Past column 68 the next box opens on a fresh line: the arm's label
   keeps its trailing space and the subtree starts at its parent's
   column, 65. *)
let test_text_forced_break () =
  let text =
    Program.to_string (one_instruction (deep_tree ~shape:`Taken ~depth:16 plain_cj))
  in
  let lines = String.split_on_char '\n' text in
  let label = String.make 65 ' ' ^ "  T: " in
  Alcotest.(check bool) "a line ends in the bare label" true
    (List.mem label lines);
  Alcotest.(check bool) "the subtree starts at column 65" true
    (List.exists
       (fun l -> String.length l > 66 && String.sub l 0 66 = String.make 65 ' ' ^ "[")
       lines)

let test_text_long_operands () =
  let ops p =
    let op ?guard kind =
      Operation.make ~id:(Program.fresh_op_id p) ~iter:3 ?guard kind
    in
    let long_guard = List.init 40 (fun i -> (i * 37, i mod 2 = 0)) in
    let a sym offset = { Operation.sym; base = Operand.Regoff (reg 77777, -5); offset } in
    [
      op ~guard:long_guard
        (Operation.Binop
           ( Opcode.Fmax,
             reg 999999,
             Operand.Imm (Value.F (-1.5e300)),
             Operand.Regoff (reg 424242, 131072) ));
      op (Operation.Unop (Opcode.Fsqrt, reg 1, Operand.Imm (Value.F 0.1)));
      op ~guard:long_guard (Operation.Load (reg 2, a "a_rather_long_array_name" (-12)));
      op (Operation.Store (a "b" 0, Operand.Imm (Value.I (-42))));
      op (Operation.Store (a "c" 9, Operand.Imm (Value.F Float.nan)));
      op (Operation.Copy (reg 3, Operand.Imm (Value.F Float.neg_infinity)));
      (* integers at the ends of their range and at digit boundaries,
         which the writer prints digit by digit *)
      op (Operation.Copy (reg 0, Operand.Imm (Value.I max_int)));
      op (Operation.Copy (reg 10, Operand.Imm (Value.I min_int)));
      op (Operation.Copy (reg 100, Operand.Imm (Value.I 0)));
      op (Operation.Copy (reg 9, Operand.Regoff (reg 1000, min_int)));
      op (Operation.Copy (reg 99, Operand.Regoff (reg 19, 0)));
      op
        (Operation.Binop
           (Opcode.Add, reg 8, Operand.Regoff (reg 7, -10), Operand.Imm (Value.I (-1))));
    ]
  in
  List.iter
    (fun depth ->
      check_text
        (Printf.sprintf "long operands under a %d-deep tree" depth)
        (one_instruction ~ops (deep_tree ~shape:`Zigzag ~depth long_cj)))
    [ 0; 3; 14; 18 ]

(* Random unwound kernels, migrated step by step as the scheduler
   migrates (conditional-jump moves, which copy a node into its arms,
   among the steps): the text must match the oracle after every
   step. *)
let plain_moves = ref 0
let cj_moves = ref 0

let prop_text_random_migrations =
  QCheck2.Test.make ~name:"schedule text == Format oracle (random migrations)"
    ~count:60 ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen
    (fun spec ->
      let p, exit_live =
        Synthetic_gen.joined_program spec ~joins:0
      in
      let machine =
        Vliw_machine.Machine.homogeneous
          (if spec.Workloads.Synthetic.seed mod 2 = 0 then 2 else 4)
      in
      let ctx = Vliw_percolation.Ctx.make p ~machine ~exit_live in
      let next = Synthetic_gen.make_rng spec.Workloads.Synthetic.seed in
      let cj_hop = ref false in
      let hooks =
        {
          Vliw_percolation.Migrate.no_hooks with
          allow_hop =
            (fun ~from_:_ ~to_:_ ~op ->
              if Operation.is_cjump op then cj_hop := true;
              true);
        }
      in
      let ok = ref (text_matches p) in
      for _ = 1 to 24 do
        cj_hop := false;
        match Synthetic_gen.migrate_random ~hooks ctx next with
        | Some r when r.Vliw_percolation.Migrate.moved > 0 ->
            if !cj_hop then incr cj_moves else incr plain_moves;
            ok := !ok && text_matches p
        | Some _ | None -> ()
      done;
      !ok)

(* The property, failing also when its cases made no plain move or no
   conditional-jump move. *)
let text_random_migrations =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_text_random_migrations in
  ( name,
    speed,
    fun () ->
      plain_moves := 0;
      cj_moves := 0;
      run ();
      if !plain_moves = 0 || !cj_moves = 0 then
        Alcotest.failf "%d plain moves, %d conditional-jump moves" !plain_moves
          !cj_moves )

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
          Alcotest.test_case "clone remaps guards" `Quick test_clone_instruction_guard_remap;
          Alcotest.test_case "double def caught" `Quick test_wellformed_catches_double_def;
          Alcotest.test_case "wellformed == old check on mutants" `Quick
            test_wellformed_oracle;
          Alcotest.test_case "dangling leaf reported once" `Quick
            test_wellformed_dangling_leaf;
        ] );
      ( "schedule text",
        [
          Alcotest.test_case "deep trees == oracle" `Quick test_text_deep_trees;
          Alcotest.test_case "forced break past column 68" `Quick
            test_text_forced_break;
          Alcotest.test_case "long guards and operands" `Quick
            test_text_long_operands;
          text_random_migrations;
        ] );
    ]
