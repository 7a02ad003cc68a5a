(* The minic front end: lexing, parsing, typing, lowering, scalar
   optimization, and end-to-end compilation into the scheduler. *)

open Vliw_ir
module Machine = Vliw_machine.Machine

(* A fixed QCheck seed unless QCHECK_SEED is set: qcheck-alcotest reads
   it once, when the first property is turned into a test case. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019"

let ll1_src =
  {|
kernel hydro {
  param q : float = 0.5;
  param r : float = 0.25;
  param t : float = 0.125;
  array x[128];
  array y[128];
  array z[160];
  for k = 0 to n {
    x[k] = q + y[k] * (r * z[k+10] + t * z[k+11]);
  }
}
|}

let inner_product_src =
  {|
kernel dot {
  var q : float = 0.0;
  array x[96];
  array z[96];
  for k = 0 to n {
    q = q + z[k] * x[k];
  }
}
|}

let gather_src =
  {|
kernel pic {
  param one : float = 1.0;
  array ix[96] : int;
  array grid[96];
  for k = 0 to n {
    grid[ix[k]] = grid[ix[k]] + one;
  }
}
|}

(* -- lexer --------------------------------------------------------------- *)

let test_lexer_basics () =
  let toks = Minic.Lexer.tokenize "kernel f { for k = 0 to n { } }" in
  Alcotest.(check int) "token count" 13 (List.length toks);
  match (List.hd toks).Minic.Token.token with
  | Minic.Token.KERNEL -> ()
  | _ -> Alcotest.fail "first token"

let test_lexer_comments_and_floats () =
  let toks = Minic.Lexer.tokenize "// comment\n1.5 x42" in
  match List.map (fun t -> t.Minic.Token.token) toks with
  | [ Minic.Token.FLOAT f; Minic.Token.IDENT "x42"; Minic.Token.EOF ] when f = 1.5 -> ()
  | _ -> Alcotest.fail "comment skipped, float lexed"

let test_lexer_rejects_if () =
  match Minic.Lexer.tokenize "if" with
  | exception Minic.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "'if' must be rejected with a scope message"

let test_lexer_bad_char () =
  match Minic.Lexer.tokenize "a $ b" with
  | exception Minic.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "bad character"

(* -- parser -------------------------------------------------------------- *)

let test_parse_ll1 () =
  let ast = Minic.Parser.parse ll1_src in
  Alcotest.(check string) "name" "hydro" ast.Minic.Ast.name;
  Alcotest.(check int) "decls" 6 (List.length ast.Minic.Ast.decls);
  Alcotest.(check int) "stmts" 1 (List.length ast.Minic.Ast.loop.Minic.Ast.body)

let test_parse_precedence () =
  let ast = Minic.Parser.parse
      "kernel p { var a : float = 0.0; array u[8]; for k = 0 to 4 { a = a + u[k] * a; } }"
  in
  match ast.Minic.Ast.loop.Minic.Ast.body with
  | [ Minic.Ast.Assign_scalar ("a", Minic.Ast.Bin (_, '+', Minic.Ast.Scalar "a", Minic.Ast.Bin (_, '*', _, _))) ] -> ()
  | _ -> Alcotest.fail "* binds tighter than +"

let test_parse_errors () =
  let bad = [
    "kernel { }";                                      (* missing name *)
    "kernel f { for k = 0 to n { x[k] = ; } }";        (* missing expr *)
    "kernel f { for k = 0 to m { } }";                 (* bad bound *)
  ] in
  List.iter
    (fun src ->
      match Minic.Parser.parse src with
      | exception Minic.Parser.Error _ -> ()
      | exception Minic.Lexer.Error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" src)
    bad

(* -- typecheck ----------------------------------------------------------- *)

let test_type_errors () =
  let bad =
    [
      (* assigning to a param *)
      "kernel f { param p : float = 1.0; array u[8]; for k = 0 to 4 { p = p + u[k]; } }";
      (* int/float mix *)
      "kernel f { var v : float = 0.0; for k = 0 to 4 { v = v + 1; } }";
      (* gather through a float array *)
      "kernel f { array a[8]; array b[8]; for k = 0 to 4 { b[a[k]] = 1.0; } }";
      (* unknown array *)
      "kernel f { for k = 0 to 4 { zz[k] = 1.0; } }";
      (* duplicate decl *)
      "kernel f { array a[8]; array a[8]; for k = 0 to 4 { a[k] = 1.0; } }";
    ]
  in
  List.iter
    (fun src ->
      match Minic.Compile.kernel_of_string src with
      | Error { Grip_robust.Grip_error.stage = Frontend "type"; _ } -> ()
      | Error e ->
          Alcotest.failf "wrong stage %s for: %s"
            (Grip_robust.Grip_error.stage_name e.Grip_robust.Grip_error.stage)
            src
      | Ok _ -> Alcotest.failf "should not typecheck: %s" src)
    bad

(* -- lowering ------------------------------------------------------------ *)

let test_lower_ll1_shape () =
  let out = Minic.Compile.kernel_of_string_exn ~optimize:false ll1_src in
  let k = out.Minic.Compile.kernel in
  (* 3 loads + 4 muls/adds of the expression tree + 1 add + 1 store *)
  Alcotest.(check int) "body ops" 9 (List.length k.Grip.Kernel.body);
  Alcotest.(check int) "pre ops (ivar + 3 params)" 4 (List.length k.Grip.Kernel.pre);
  Alcotest.(check int) "arrays" 3 (List.length k.Grip.Kernel.arrays)

let test_lower_affine_addressing () =
  let out = Minic.Compile.kernel_of_string_exn ll1_src in
  let k = out.Minic.Compile.kernel in
  (* z[k+10] must become offset-10 addressing, not an add *)
  let offsets =
    List.filter_map
      (fun kind ->
        match kind with
        | Operation.Load (_, { Operation.sym = "z"; offset; _ }) -> Some offset
        | _ -> None)
      k.Grip.Kernel.body
  in
  Alcotest.(check (list int)) "folded offsets" [ 10; 11 ] (List.sort compare offsets)

let test_lower_accumulator_in_place () =
  let out = Minic.Compile.kernel_of_string_exn inner_product_src in
  let k = out.Minic.Compile.kernel in
  (* q = q + ... lowers to a single Binop targeting q *)
  let acc_defs =
    List.filter
      (fun kind ->
        match kind with
        | Operation.Binop (Opcode.Fadd, d, _, _) -> Reg.to_int d = 2
        | _ -> false)
      k.Grip.Kernel.body
  in
  Alcotest.(check int) "one in-place accumulate" 1 (List.length acc_defs);
  Alcotest.(check (list int)) "q observable" [ 2 ]
    (List.map Reg.to_int k.Grip.Kernel.observable)

let test_lower_gather () =
  let out = Minic.Compile.kernel_of_string_exn gather_src in
  let k = out.Minic.Compile.kernel in
  let has_reg_base =
    List.exists
      (fun kind ->
        match kind with
        | Operation.Store ({ Operation.sym = "grid"; base = Operand.Reg r; _ }, _) ->
            Reg.to_int r >= 10
        | _ -> false)
      k.Grip.Kernel.body
  in
  Alcotest.(check bool) "scatter through a temp base" true has_reg_base

(* -- optimizer ----------------------------------------------------------- *)

let ops body = body

let test_opt_constant_fold () =
  let kinds =
    [
      Operation.Binop (Opcode.Add, Reg.of_int 10, Operand.Imm (Value.I 2), Operand.Imm (Value.I 3));
      Operation.Store
        ({ Operation.sym = "a"; base = Operand.Reg (Reg.of_int 10); offset = 0 },
         Operand.Imm (Value.I 0));
    ]
  in
  let kinds', n = Minic.Opt.constant_fold kinds in
  Alcotest.(check int) "folded one" 1 n;
  match List.hd kinds' with
  | Operation.Copy (_, Operand.Imm (Value.I 5)) -> ()
  | _ -> Alcotest.fail "2+3 -> 5"

let test_opt_cse () =
  let a = Operand.Reg (Reg.of_int 2) and b = Operand.Reg (Reg.of_int 3) in
  let kinds =
    [
      Operation.Binop (Opcode.Fadd, Reg.of_int 10, a, b);
      Operation.Binop (Opcode.Fadd, Reg.of_int 11, b, a);
      (* commutative duplicate *)
    ]
  in
  let kinds', n = Minic.Opt.common_subexpression kinds in
  Alcotest.(check int) "one CSE" 1 n;
  match List.nth kinds' 1 with
  | Operation.Copy (d, Operand.Reg h) ->
      Alcotest.(check int) "copy from first" 10 (Reg.to_int h);
      Alcotest.(check int) "into second" 11 (Reg.to_int d)
  | _ -> Alcotest.fail "second becomes a copy"

let test_opt_cse_respects_stores () =
  let addr = { Operation.sym = "a"; base = Operand.Reg (Reg.of_int 0); offset = 0 } in
  let kinds =
    [
      Operation.Load (Reg.of_int 10, addr);
      Operation.Store (addr, Operand.Imm (Value.F 1.0));
      Operation.Load (Reg.of_int 11, addr);
    ]
  in
  let _, n = Minic.Opt.common_subexpression kinds in
  Alcotest.(check int) "store kills availability" 0 n

let test_opt_dce_keeps_cross_iteration () =
  (* def at the end of the body read at the beginning (next iteration)
     must survive *)
  let r2 = Reg.of_int 2 and r10 = Reg.of_int 10 in
  let kinds =
    [
      Operation.Binop (Opcode.Fadd, r10, Operand.Reg r2, Operand.Imm (Value.F 1.0));
      Operation.Binop (Opcode.Fadd, r2, Operand.Reg r10, Operand.Imm (Value.F 1.0));
    ]
  in
  let kinds', removed = Minic.Opt.dead_code ~observable:(Reg.Set.singleton r2) kinds in
  Alcotest.(check int) "nothing removed" 0 removed;
  Alcotest.(check int) "both kept" 2 (List.length (ops kinds'))

let test_opt_pipeline_end_to_end () =
  (* unoptimized vs optimized compile of the same source must agree
     semantically and the optimized body must not be larger *)
  let src =
    "kernel f { var s : float = 0.0; array u[64]; for k = 0 to n { s = s + u[k] * (2.0 * 3.0); } }"
  in
  let o1 = Minic.Compile.kernel_of_string_exn ~optimize:false src in
  let o2 = Minic.Compile.kernel_of_string_exn ~optimize:true src in
  Alcotest.(check bool) "optimized body smaller" true
    (List.length o2.Minic.Compile.kernel.Grip.Kernel.body
    < List.length o1.Minic.Compile.kernel.Grip.Kernel.body);
  (* both run to the same observable state *)
  let run (out : Minic.Compile.output) =
    let k = out.Minic.Compile.kernel in
    let p = (Grip.Kernel.rolled k).Builder.program in
    let st = Grip.Kernel.initial_state ~n:6 k ~data:out.Minic.Compile.data in
    ignore (Vliw_sim.Exec.run p st);
    Vliw_sim.State.reg_opt st (Reg.of_int 2)
  in
  match run o1, run o2 with
  | Some (Value.F a), Some (Value.F b) when Float.abs (a -. b) < 1e-9 -> ()
  | _ -> Alcotest.fail "optimized disagrees"

(* A statement that redefines a scalar from itself, then the same
   expression again: CSE must not take the second for the first's
   result, which reads the scalar's old value.  Both compiles store the
   same [u] over 6 trips ([s] starts at 1.0, so a product moves it). *)
let cse_self_redefinition body () =
  let src =
    Printf.sprintf
      "kernel f { var s : float = 1.0; var t : float = 0.0; array u[64]; for \
       k = 0 to n { %s } }"
      body
  in
  let stored optimize =
    let out = Minic.Compile.kernel_of_string_exn ~optimize src in
    let k = out.Minic.Compile.kernel in
    let p = (Grip.Kernel.rolled k).Builder.program in
    let st = Grip.Kernel.initial_state ~n:6 k ~data:out.Minic.Compile.data in
    ignore (Vliw_sim.Exec.run p st);
    List.init 6 (fun i ->
        match Vliw_sim.State.read_mem st "u" i with
        | Value.F x -> x
        | v -> Alcotest.failf "u[%d] holds %s" i (Value.to_string v))
  in
  Alcotest.(check (list (float 0.0))) body (stored false) (stored true)

(* -- end to end ----------------------------------------------------------- *)

let test_compiled_ll1_schedules_like_handwritten () =
  let out = Minic.Compile.kernel_of_string_exn ll1_src in
  let o =
    Grip.Pipeline.run out.Minic.Compile.kernel ~machine:(Machine.homogeneous 4)
      ~method_:Grip.Pipeline.Grip ~horizon:16
  in
  (match Grip.Pipeline.check ~data:out.Minic.Compile.data o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "compiled kernel oracle");
  let m = Grip.Pipeline.measure ~data:out.Minic.Compile.data o in
  let e = Option.get (Workloads.Livermore.find "LL1") in
  let o_ref =
    Grip.Pipeline.run e.Workloads.Livermore.kernel ~machine:(Machine.homogeneous 4)
      ~method_:Grip.Pipeline.Grip ~horizon:16
  in
  let m_ref = Grip.Pipeline.measure ~data:e.Workloads.Livermore.data o_ref in
  Alcotest.(check bool)
    (Printf.sprintf "compiled %.2f vs handwritten %.2f" m.Grip.Speedup.speedup
       m_ref.Grip.Speedup.speedup)
    true
    (Float.abs (m.Grip.Speedup.speedup -. m_ref.Grip.Speedup.speedup) < 0.75)

let test_compiled_gather_limited () =
  let out = Minic.Compile.kernel_of_string_exn gather_src in
  let o =
    Grip.Pipeline.run out.Minic.Compile.kernel ~machine:(Machine.homogeneous 8)
      ~method_:Grip.Pipeline.Grip ~horizon:10
  in
  match Grip.Pipeline.check ~data:out.Minic.Compile.data o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "gather oracle: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Vliw_sim.Oracle.pp_mismatch) ms))

(* -- what a cold request is served ------------------------------------- *)

let test_cold_request_pins () =
  List.iter
    (fun (name, params, stmts, pins) ->
      match Minic.Compile.kernel_of_string (Cold_sources.generated ~name params stmts) with
      | Error e -> Alcotest.failf "%s: %s" name (Grip_robust.Grip_error.to_string e)
      | Ok out ->
          let k = out.Minic.Compile.kernel and data = out.Minic.Compile.data in
          List.iter
            (fun (fus, rung, digest, speedup) ->
              let what = Printf.sprintf "%s at %d FU" name fus in
              match
                Grip.Pipeline.run_robust ~data k
                  ~machine:(Vliw_machine.Machine.homogeneous fus)
              with
              | Error e -> Alcotest.failf "%s: %s" what (Grip_robust.Grip_error.to_string e)
              | Ok r ->
                  Alcotest.(check string) (what ^ ": rung") rung
                    (Grip.Pipeline.rung_name r.Grip.Pipeline.rung);
                  Alcotest.(check string) (what ^ ": digest") digest
                    (Grip_serve.Cache.schedule_digest r.Grip.Pipeline.program);
                  Alcotest.(check string) (what ^ ": speedup") speedup
                    (Printf.sprintf "%.17g"
                       (Grip.Pipeline.measure_robust ~data r).Grip.Speedup.speedup))
            pins)
    Cold_sources.cold_pins

(* -- malformed sources ----------------------------------------------------- *)

(* One edit of a source at a position (taken modulo its length): a
   character inserted, deleted or replaced, or the source cut there. *)
type edit = Insert of int * char | Delete of int | Replace of int * char | Cut of int

let apply_edit s edit =
  let n = String.length s in
  let at i = i mod max n 1 in
  match edit with
  | Insert (i, c) ->
      let i = i mod (n + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | Delete i when n > 0 -> String.sub s 0 (at i) ^ String.sub s (at i + 1) (n - at i - 1)
  | Replace (i, c) when n > 0 -> String.mapi (fun j d -> if j = at i then c else d) s
  | Delete _ | Replace _ -> s
  | Cut i -> String.sub s 0 (i mod (n + 1))

(* A valid source of this suite with one to three edits, of any byte. *)
let mutant_gen =
  let valid =
    [ ll1_src; inner_product_src; gather_src ]
    @ List.map
        (fun (name, params, stmts, _) -> Cold_sources.generated ~name params stmts)
        Cold_sources.cold_pins
  in
  QCheck2.Gen.(
    let edit =
      let* i = int_bound 4096 and* c = oneof [ printable; char ] in
      oneofl [ Insert (i, c); Delete i; Replace (i, c); Cut i ]
    in
    let* src = oneofl valid and* edits = list_size (int_range 1 3) edit in
    return (List.fold_left apply_edit src edits))

(* The front end answers a malformed source with a structured error:
   [kernel_of_string] returns [Ok] or [Error] and raises nothing. *)
let prop_mutated_sources =
  QCheck2.Test.make ~name:"mutated sources: Ok or Error" ~count:20_000
    ~print:String.escaped mutant_gen (fun src ->
      match Minic.Compile.kernel_of_string src with Ok _ | Error _ -> true)

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments/floats" `Quick test_lexer_comments_and_floats;
          Alcotest.test_case "rejects if" `Quick test_lexer_rejects_if;
          Alcotest.test_case "bad char" `Quick test_lexer_bad_char;
        ] );
      ( "parser",
        [
          Alcotest.test_case "LL1" `Quick test_parse_ll1;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ("typecheck", [ Alcotest.test_case "errors" `Quick test_type_errors ]);
      ( "lowering",
        [
          Alcotest.test_case "LL1 shape" `Quick test_lower_ll1_shape;
          Alcotest.test_case "affine addressing" `Quick test_lower_affine_addressing;
          Alcotest.test_case "accumulator" `Quick test_lower_accumulator_in_place;
          Alcotest.test_case "gather" `Quick test_lower_gather;
        ] );
      ( "opt",
        [
          Alcotest.test_case "constant fold" `Quick test_opt_constant_fold;
          Alcotest.test_case "cse" `Quick test_opt_cse;
          Alcotest.test_case "cse stores" `Quick test_opt_cse_respects_stores;
          Alcotest.test_case "dce cross-iteration" `Quick test_opt_dce_keeps_cross_iteration;
          Alcotest.test_case "pipeline" `Quick test_opt_pipeline_end_to_end;
          Alcotest.test_case "cse after s = s + e" `Quick
            (cse_self_redefinition "s = s + 1.0; t = s + 1.0; u[k] = t;");
          Alcotest.test_case "cse after s = s * e" `Quick
            (cse_self_redefinition "s = s * 2.0; t = s * 2.0; u[k] = t;");
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "compiled LL1" `Slow test_compiled_ll1_schedules_like_handwritten;
          Alcotest.test_case "compiled gather" `Slow test_compiled_gather_limited;
        ] );
      ( "cold requests",
        [ Alcotest.test_case "generated sources served as pinned" `Quick test_cold_request_pins ] );
      ("front end", [ QCheck_alcotest.to_alcotest prop_mutated_sources ]);
    ]
