(* The scheduling heuristic is a first-class value, "completely
   abstracted away from the actual transformations in accordance with
   the hierarchical nature of Percolation Scheduling" (section 1).

   This example plugs in a speculation-averse rank: within each
   iteration, stores rank ahead of every other operation.  A rank's
   weight is the hook where the paper's future-work branch-probability
   weighting would go.

     dune exec examples/custom_heuristic.exe *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Pipeline = Grip.Pipeline

(* A weight reads only what a move leaves unchanged on an operation:
   here the constructor of its kind.  The smaller weight ranks first. *)
let store_first =
  Grip.Rank.custom ~name:"store-first" (fun op ->
      if Operation.is_store op then 0 else 1)

let () =
  let e = Option.get (Workloads.Livermore.find "LL8") in
  let kern = e.Workloads.Livermore.kernel in
  List.iter
    (fun (rank, name) ->
      let o =
        Pipeline.run kern ~machine:(Machine.homogeneous 4)
          ~method_:Pipeline.Grip ~rank
      in
      let m = Pipeline.measure ~data:e.Workloads.Livermore.data o in
      let ok =
        match Pipeline.check ~data:e.Workloads.Livermore.data o with
        | Ok _ -> "ok"
        | Error _ -> "MISMATCH"
      in
      Format.printf "%-22s speedup %5.2f (%.2f cyc/iter, oracle %s)@." name
        m.Grip.Speedup.speedup m.Grip.Speedup.sched_per_iter ok)
    [
      (Pipeline.default_rank kern, "section-3.4 heuristic");
      (store_first, "store-first (custom)");
      (Grip.Rank.source_order, "source order");
    ];
  Format.printf
    "@.Any [Grip.Rank.t] slots in; correctness never depends on the rank@.\
     (the transformations are semantics-preserving regardless), only@.\
     schedule quality does.@."
