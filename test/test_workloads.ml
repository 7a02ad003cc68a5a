(* The Livermore kernels and paper examples: every kernel must build a
   well-formed rolled program, unwind equivalently, and survive GRiP
   scheduling at a narrow machine with semantics intact. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Oracle = Vliw_sim.Oracle
module Livermore = Workloads.Livermore

let check_wf p = Alcotest.(check (list string)) "well-formed" [] (Wellformed.check p)

let fits_everywhere machine p =
  Program.fold_nodes p
    (fun n acc ->
      let id = n.Node.id in
      acc
      && (Program.is_exit p id
         || Machine.fits_packed machine (Program.counts_packed p id)))
    true

let test_rolled_runs (e : Livermore.entry) () =
  let kern = e.Livermore.kernel in
  let p = (Grip.Kernel.rolled kern).Builder.program in
  check_wf p;
  let st = Grip.Kernel.initial_state ~n:6 kern ~data:e.Livermore.data in
  let o = Vliw_sim.Exec.run p st in
  Alcotest.(check bool) "some cycles" true (o.Vliw_sim.Exec.cycles > 0)

let test_unwound_equivalent (e : Livermore.entry) () =
  let kern = e.Livermore.kernel in
  let rolled = (Grip.Kernel.rolled kern).Builder.program in
  let u = Grip.Unwind.build kern ~horizon:7 in
  let init = Grip.Kernel.initial_state ~n:5 kern ~data:e.Livermore.data in
  match
    Oracle.equivalent ~observable:kern.Grip.Kernel.observable ~init rolled
      u.Grip.Unwind.program
  with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "%s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms))

let test_grip_scheduled (e : Livermore.entry) () =
  let kern = e.Livermore.kernel in
  let machine = Machine.homogeneous 2 in
  let o = Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Grip ~horizon:8 in
  check_wf o.Grip.Pipeline.program;
  Alcotest.(check bool) "fits 2 FUs" true
    (fits_everywhere machine o.Grip.Pipeline.program);
  match Grip.Pipeline.check ~data:e.Livermore.data o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "oracle: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms))

let test_recurrence_kernels_are_limited () =
  (* LL5/LL6 carry distance-1 recurrences: 8 FUs must not give 8x *)
  List.iter
    (fun name ->
      let e = Option.get (Livermore.find name) in
      let o =
        Grip.Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous 8)
          ~method_:Grip.Pipeline.Grip ~horizon:16
      in
      let m = Grip.Pipeline.measure ~data:e.Livermore.data o in
      Alcotest.(check bool)
        (Printf.sprintf "%s capped (%.2f < 6)" name m.Grip.Speedup.speedup)
        true
        (m.Grip.Speedup.speedup < 6.0))
    [ "LL5"; "LL6" ]

let test_parallel_kernel_scales () =
  let e = Option.get (Livermore.find "LL7") in
  let sp fu =
    let o =
      Grip.Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous fu)
        ~method_:Grip.Pipeline.Grip ~horizon:10
    in
    (Grip.Pipeline.measure ~data:e.Livermore.data o).Grip.Speedup.speedup
  in
  let s2 = sp 2 and s8 = sp 8 in
  Alcotest.(check bool)
    (Printf.sprintf "LL7 scales: %.2f @2 -> %.2f @8" s2 s8)
    true
    (s8 > 2.0 *. s2 *. 0.8)

let test_superlinear_via_redundancy () =
  (* LL11's reload of x[k-1] is forwarded away: speedup at 2 FUs
     exceeds 2 (the Table 1 "larger than the apparent maximum") *)
  let e = Option.get (Livermore.find "LL11") in
  let o =
    Grip.Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous 2)
      ~method_:Grip.Pipeline.Grip ~horizon:16
  in
  let m = Grip.Pipeline.measure ~data:e.Livermore.data o in
  Alcotest.(check bool)
    (Printf.sprintf "LL11 superlinear at 2 FUs (%.2f)" m.Grip.Speedup.speedup)
    true
    (m.Grip.Speedup.speedup > 2.0)

let test_synthetic_generator_wellformed () =
  List.iter
    (fun seed ->
      let spec = { Workloads.Synthetic.default_spec with Workloads.Synthetic.seed } in
      let kern = Workloads.Synthetic.generate spec in
      let p = (Grip.Kernel.rolled kern).Builder.program in
      check_wf p)
    [ 1; 7; 123; 9999 ]

let test_synthetic_deterministic () =
  let k1 = Workloads.Synthetic.generate Workloads.Synthetic.default_spec in
  let k2 = Workloads.Synthetic.generate Workloads.Synthetic.default_spec in
  Alcotest.(check int) "same body size"
    (List.length k1.Grip.Kernel.body)
    (List.length k2.Grip.Kernel.body)

let kernel_cases =
  List.concat_map
    (fun (e : Livermore.entry) ->
      let name = e.Livermore.kernel.Grip.Kernel.name in
      [
        Alcotest.test_case (name ^ " rolled runs") `Quick (test_rolled_runs e);
        Alcotest.test_case (name ^ " unwound equivalent") `Quick
          (test_unwound_equivalent e);
        Alcotest.test_case (name ^ " GRiP scheduled") `Slow (test_grip_scheduled e);
      ])
    Livermore.all

let () =
  Alcotest.run "workloads"
    [
      ("livermore", kernel_cases);
      ( "shapes",
        [
          Alcotest.test_case "recurrences limited" `Slow
            test_recurrence_kernels_are_limited;
          Alcotest.test_case "LL7 scales" `Slow test_parallel_kernel_scales;
          Alcotest.test_case "LL11 superlinear" `Slow test_superlinear_via_redundancy;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "well-formed" `Quick test_synthetic_generator_wellformed;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        ] );
    ]
