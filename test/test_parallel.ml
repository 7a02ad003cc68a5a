(* The domain pool (lib/parallel): deterministic ordering, inline
   jobs=1 equivalence, structured exception propagation, batch reuse —
   and the property the evaluation harness rests on: Table-1 cells
   computed through the pool are identical whatever the job count. *)

module Pool = Grip_parallel.Pool
module Grip_error = Grip_robust.Grip_error
module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore

(* -- ordering and reuse --------------------------------------------------- *)

let test_map_ordered_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = List.init 16 Fun.id in
      (* stagger the work so completion order differs from input order *)
      let out =
        Pool.map_ordered pool
          ~f:(fun i ->
            Unix.sleepf (0.002 *. float_of_int ((16 - i) mod 5));
            i * i)
          items
      in
      Alcotest.(check (list int)) "ordered" (List.map (fun i -> i * i) items) out)

let test_jobs1_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "no workers spawned" 1 (Pool.jobs pool);
      let out = Pool.map_ordered pool ~f:(fun i -> i + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "inline results" [ 2; 3; 4 ] out)

let test_empty_and_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int))
        "empty batch" []
        (Pool.map_ordered pool ~f:(fun i -> i) []);
      (* the pool survives consecutive batches *)
      List.iter
        (fun n ->
          let items = List.init n Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "batch of %d" n)
            items
            (Pool.map_ordered pool ~f:Fun.id items))
        [ 1; 7; 32 ])

let test_workers_participate () =
  (* tasks long enough that the submitting domain cannot drain the
     batch alone before the workers wake *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let domains =
        Pool.map_ordered pool
          ~f:(fun _ ->
            Unix.sleepf 0.005;
            (Domain.self () :> int))
          (List.init 20 Fun.id)
      in
      let distinct = List.sort_uniq compare domains in
      Alcotest.(check bool)
        "more than one domain ran tasks" true
        (List.length distinct > 1))

(* -- exception propagation ------------------------------------------------ *)

let test_exn_wrapped () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map_ordered pool
          ~f:(fun i ->
            Unix.sleepf 0.002;
            if i = 2 then failwith "boom" else i)
          (List.init 8 Fun.id)
      with
      | _ -> Alcotest.fail "expected a raise"
      | exception Grip_error.Error e ->
          Alcotest.(check bool)
            "parallel stage" true
            (e.Grip_error.stage = Grip_error.Parallel);
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          let msg = Grip_error.to_string e in
          Alcotest.(check bool) "names the task" true (contains msg "task 2");
          Alcotest.(check bool) "carries the payload" true (contains msg "boom"))

let test_exn_passthrough_and_lowest_index () =
  (* tasks 1 and 5 both fail with distinct structured errors; the pool
     must surface task 1's, whatever order the workers ran them in *)
  let err name =
    Grip_error.Error
      (Grip_error.make ~kernel:name Grip_error.Scheduling
         (Grip_error.Message "injected"))
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.map_ordered pool
              ~f:(fun i ->
                Unix.sleepf 0.002;
                if i = 5 then raise (err "late") else
                if i = 1 then raise (err "early") else i)
              (List.init 8 Fun.id)
          with
          | _ -> Alcotest.fail "expected a raise"
          | exception Grip_error.Error e ->
              Alcotest.(check (option string))
                (Printf.sprintf "lowest index wins (jobs=%d)" jobs)
                (Some "early") e.Grip_error.kernel;
              Alcotest.(check bool)
                "structured error passes through untouched" true
                (e.Grip_error.stage = Grip_error.Scheduling)))
    [ 1; 4 ]

(* -- determinism of parallel Table-1 cells -------------------------------- *)

(* A cell rendered to comparable data: schedule table text, measured
   speedup, and the scheduler's own counters. *)
let cell (name, method_, fu) =
  let e = Option.get (Livermore.find name) in
  let o =
    Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous fu) ~method_
      ~horizon:6
  in
  let m = Pipeline.measure ~data:e.Livermore.data o in
  ( Grip.Schedule_table.render o.Pipeline.program,
    m.Grip.Speedup.speedup,
    o.Pipeline.stats )

let test_cells_deterministic () =
  let tasks =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun fu -> [ (name, Pipeline.Grip, fu); (name, Pipeline.Post, fu) ])
          [ 2; 4 ])
      [ "LL1"; "LL3" ]
  in
  let run jobs =
    Pool.with_pool ~jobs (fun pool -> Pool.map_ordered pool ~f:cell tasks)
  in
  let sequential = run 1 and parallel = run 4 in
  List.iter2
    (fun (t1, s1, j1) (t4, s4, j4) ->
      Alcotest.(check string) "same schedule table" t1 t4;
      Alcotest.(check (float 0.0)) "same speedup" s1 s4;
      Alcotest.(check bool) "same stats" true (j1 = j4))
    sequential parallel

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_ordered preserves order" `Quick
            test_map_ordered_order;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_inline;
          Alcotest.test_case "empty batch and pool reuse" `Quick
            test_empty_and_reuse;
          Alcotest.test_case "workers participate" `Quick
            test_workers_participate;
        ] );
      ( "errors",
        [
          Alcotest.test_case "foreign exception wrapped" `Quick
            test_exn_wrapped;
          Alcotest.test_case "structured error passthrough, lowest index"
            `Quick test_exn_passthrough_and_lowest_index;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cells identical at jobs 1 and 4" `Slow
            test_cells_deterministic;
        ] );
    ]
