(* Property-based tests (qcheck): the schedulers and transformations
   must preserve semantics, respect machine limits and keep the program
   well-formed over randomly generated loop kernels. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Oracle = Vliw_sim.Oracle
module Synthetic = Workloads.Synthetic

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_ops = int_range 3 10 in
    let* n_arrays = int_range 1 3 in
    let* p_load = float_range 0.1 0.5 in
    let* p_store = float_range 0.05 0.4 in
    let* p_recurrence = float_range 0.0 0.5 in
    return { Synthetic.seed; n_ops; n_arrays; p_load; p_store; p_recurrence })

let print_spec (s : Synthetic.spec) =
  Printf.sprintf "{seed=%d; n_ops=%d; n_arrays=%d; p=(%.2f,%.2f,%.2f)}"
    s.Synthetic.seed s.Synthetic.n_ops s.Synthetic.n_arrays s.Synthetic.p_load
    s.Synthetic.p_store s.Synthetic.p_recurrence

let fits_everywhere machine p =
  Program.fold_nodes p
    (fun n acc ->
      let id = n.Node.id in
      acc
      && (Program.is_exit p id
         || Machine.fits_packed machine (Program.counts_packed p id)))
    true

let oracle_agrees kern prog ~n =
  let rolled = (Grip.Kernel.rolled kern).Builder.program in
  let init = Grip.Kernel.initial_state ~n kern ~data:Synthetic.data in
  match
    Oracle.equivalent ~observable:kern.Grip.Kernel.observable ~init rolled prog
  with
  | Ok _ -> true
  | Error _ -> false

(* 1. unwinding is semantics-preserving *)
let prop_unwind_sound =
  QCheck2.Test.make ~name:"unwind preserves semantics" ~count:40 ~print:print_spec
    spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:6 in
      Wellformed.check u.Grip.Unwind.program = []
      && oracle_agrees kern u.Grip.Unwind.program ~n:4)

(* 2. the redundancy pre-pass is semantics-preserving *)
let prop_redundancy_sound =
  QCheck2.Test.make ~name:"redundancy removal preserves semantics" ~count:40
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:6 in
      let p = u.Grip.Unwind.program in
      ignore
        (Vliw_percolation.Redundant.cleanup p
           ~exit_live:(Grip.Kernel.exit_live kern));
      Wellformed.check p = [] && oracle_agrees kern p ~n:4)

(* 3. GRiP scheduling: well-formed, machine-respecting, equivalent *)
let prop_grip_sound =
  QCheck2.Test.make ~name:"GRiP schedule sound on random kernels" ~count:25
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let machine = Machine.homogeneous 2 in
      let o =
        Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Grip ~horizon:6
      in
      Wellformed.check o.Grip.Pipeline.program = []
      && fits_everywhere machine o.Grip.Pipeline.program
      && oracle_agrees kern o.Grip.Pipeline.program ~n:4)

(* 4. the no-gap ablation stays sound (convergence may fail, semantics
   must not) *)
let prop_no_gap_sound =
  QCheck2.Test.make ~name:"no-gap schedule still sound" ~count:15
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let machine = Machine.homogeneous 3 in
      let o =
        Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Grip_no_gap
          ~horizon:6
      in
      Wellformed.check o.Grip.Pipeline.program = []
      && fits_everywhere machine o.Grip.Pipeline.program
      && oracle_agrees kern o.Grip.Pipeline.program ~n:4)

(* 5. POST: resource constraints must hold after breaking *)
let prop_post_sound =
  QCheck2.Test.make ~name:"POST schedule sound on random kernels" ~count:15
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let machine = Machine.homogeneous 2 in
      let o =
        Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Post ~horizon:6
      in
      Wellformed.check o.Grip.Pipeline.program = []
      && fits_everywhere machine o.Grip.Pipeline.program
      && oracle_agrees kern o.Grip.Pipeline.program ~n:4)

(* 6. a random sequence of raw move-ops never breaks the program *)
let prop_random_moves_sound =
  QCheck2.Test.make ~name:"random move-op sequences sound" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:4 in
      let p = u.Grip.Unwind.program in
      let ctx =
        Vliw_percolation.Ctx.make p ~machine:(Machine.homogeneous 3)
          ~exit_live:(Grip.Kernel.exit_live kern)
      in
      let rng = ref spec.Synthetic.seed in
      let next bound =
        rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
        !rng mod bound
      in
      for _ = 1 to 25 do
        let ids = Program.rpo p in
        let nid = List.nth ids (next (List.length ids)) in
        if not (Program.is_exit p nid) then
          List.iter
            (fun s ->
              if (not (Program.is_exit p s)) && next 2 = 0 then
                match Program.ops p s with
                | op :: _ ->
                    ignore
                      (Vliw_percolation.Move_op.move ctx ~from_:s ~to_:nid
                         ~op_id:op.Operation.id)
                | [] -> ())
            (Program.succs p nid)
      done;
      Wellformed.check p = [] && oracle_agrees kern p ~n:3)

(* 7. modulo scheduling: II within bounds and schedule legal *)
let prop_modulo_legal =
  QCheck2.Test.make ~name:"modulo schedule legal on random kernels" ~count:40
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let machine = Machine.homogeneous 2 in
      let m = Grip.Modulo.schedule kern ~machine in
      let kinds =
        kern.Grip.Kernel.body @ [ List.nth (Grip.Kernel.control kern) 1 ]
      in
      let ops =
        List.mapi (fun i k -> Operation.make ~id:i ~src_pos:i k) kinds
      in
      let ddg =
        Vliw_analysis.Ddg.build ~ivar:(kern.Grip.Kernel.ivar, 1) ops
      in
      let time = Array.make (List.length kinds) 0 in
      List.iter (fun (pos, t) -> time.(pos) <- t) m.Grip.Modulo.schedule;
      m.Grip.Modulo.ii >= m.Grip.Modulo.mii_resource
      && m.Grip.Modulo.ii >= m.Grip.Modulo.mii_recurrence
      && List.for_all
           (fun (a : Vliw_analysis.Ddg.arc) ->
             match a.Vliw_analysis.Ddg.kind with
             | Vliw_analysis.Ddg.Flow | Vliw_analysis.Ddg.Mem ->
                 time.(a.Vliw_analysis.Ddg.dst)
                 + (m.Grip.Modulo.ii * a.Vliw_analysis.Ddg.dist)
                 - time.(a.Vliw_analysis.Ddg.src)
                 >= 1
             | _ -> true)
           ddg.Vliw_analysis.Ddg.arcs)

(* 7b. Modulo's recurrence bound (the critical-chain DP over the rate
   arcs) == the cycle search it replaced: a bounded DFS over every
   elementary flow or memory cycle C, max ceil(|C| / distance(C)), at
   least 1. *)
let cycle_dfs_mii (ddg : Vliw_analysis.Ddg.t) =
  let module Ddg = Vliw_analysis.Ddg in
  let n = Array.length ddg.Ddg.ops in
  let best = ref 1 in
  let rec dfs start pos len dist visited =
    List.iter
      (fun (a : Ddg.arc) ->
        if a.Ddg.kind = Ddg.Flow || a.Ddg.kind = Ddg.Mem then begin
          let len' = len + 1 and dist' = dist + a.Ddg.dist in
          if a.Ddg.dst = start && dist' > 0 then
            best := max !best ((len' + dist' - 1) / dist')
          else if (not (List.mem a.Ddg.dst visited)) && List.length visited < n
          then dfs start a.Ddg.dst len' dist' (a.Ddg.dst :: visited)
        end)
      ddg.Ddg.succs.(pos)
  in
  for s = 0 to n - 1 do
    dfs s s 0 0 [ s ]
  done;
  !best

let prop_modulo_rec_mii =
  QCheck2.Test.make ~name:"modulo recMII == cycle search" ~count:300
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let ddg = Grip.Pipeline.ddg_of kern in
      Grip.Modulo.recurrence_mii ddg = cycle_dfs_mii ddg)

(* 8. scheduling is deterministic *)
let prop_deterministic =
  QCheck2.Test.make ~name:"scheduling is deterministic" ~count:10
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let run () =
        let o =
          Grip.Pipeline.run kern ~machine:(Machine.homogeneous 2)
            ~method_:Grip.Pipeline.Grip ~horizon:6
        in
        Format.asprintf "%a" Program.pp o.Grip.Pipeline.program
      in
      String.equal (run ()) (run ()))

let () =
  (* deterministic property runs: qcheck reseeds from the clock
     otherwise, and rare seeds can drive the schedulers into very slow
     corner cases *)
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260704";
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_unwind_sound;
        prop_redundancy_sound;
        prop_grip_sound;
        prop_no_gap_sound;
        prop_post_sound;
        prop_random_moves_sound;
        prop_modulo_legal;
        prop_modulo_rec_mii;
        prop_deterministic;
      ]
  in
  Alcotest.run "properties" [ ("qcheck", suite) ]
