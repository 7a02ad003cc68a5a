(* Benchmark / experiment harness: regenerates every table and figure
   of the paper's evaluation.

     dune exec bench/main.exe           -- everything, in paper order
     dune exec bench/main.exe table1    -- just Table 1
     ... fig5 fig6 fig8 fig9 fig11 fig13 micro ablation
     dune exec bench/main.exe overhead  -- metrics-on/off CPU ratio

   Table 1 prints measured speedups next to the paper's, figures print
   the paper-style iteration/instruction tables, [micro] runs Bechamel
   over the schedulers (the section 3 efficiency claim), and
   [ablation] exercises the design knobs DESIGN.md calls out. *)

module Machine = Vliw_machine.Machine
module Pipeline = Grip.Pipeline
module Speedup = Grip.Speedup
module Convergence = Grip.Convergence
module Livermore = Workloads.Livermore
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor

let printf = Format.printf

let section title =
  printf "@.==================================================================@.";
  printf "%s@." title;
  printf "==================================================================@."

(* ---------------------------------------------------------------- *)
(* Table 1                                                           *)
(* ---------------------------------------------------------------- *)

let fus = [ 2; 4; 8 ]

type cell = { speedup : float; converged : bool; ok : bool }

let run_cell (e : Livermore.entry) method_ fu =
  let machine = Machine.homogeneous fu in
  let o = Pipeline.run e.Livermore.kernel ~machine ~method_ in
  let m = Pipeline.measure ~data:e.Livermore.data o in
  let ok =
    match Pipeline.check ~data:e.Livermore.data o with
    | Ok _ -> true
    | Error _ -> false
  in
  { speedup = m.Speedup.speedup; converged = o.Pipeline.pattern <> None; ok }

(* Every (loop, technique, width) cell builds its own [Program.t], so
   cells are embarrassingly parallel: fan them across the pool — under
   the supervisor, so a crashing or stalling cell is retried rather
   than tearing down the whole sweep — then render strictly in input
   order: stdout is byte-identical whatever [--jobs] is (worker
   progress goes to stderr and may interleave).  Returns the cells and
   the supervisor's resilience stats (all zeros on a healthy run). *)
let table1_tasks =
  List.concat_map
    (fun (e : Livermore.entry) ->
      List.concat_map
        (fun fu -> [ (e, Pipeline.Grip, fu); (e, Pipeline.Post, fu) ])
        fus)
    Livermore.all

let table1_cells ?config ~pool ~tag ~cell () =
  let results, rstats =
    Supervisor.supervise_or_raise ?config pool
      ~f:(fun ~budget:_ ((e : Livermore.entry), m, fu) ->
        Printf.eprintf "[%s] %s %s %dFU...\n%!" tag
          e.Livermore.kernel.Grip.Kernel.name (Pipeline.method_name m) fu;
        cell e m fu)
      table1_tasks
  in
  (Array.of_list results, rstats)

(* cells.(i) layout of [table1_cells]: loop-major, then FU width, then
   grip before post. *)
let cell_index ~entry ~fu_i ~post =
  (entry * 2 * List.length fus) + (2 * fu_i) + if post then 1 else 0

let table1 ~pool () =
  section "Table 1: observed speed-up (GRiP vs POST, 2/4/8 FUs)";
  printf "%-6s" "Loop";
  List.iter (fun fu -> printf "| %13s " (Printf.sprintf "%d FU's" fu)) fus;
  printf "|   paper GRiP/POST@.";
  printf "%-6s" "";
  List.iter (fun _ -> printf "| %6s %6s " "GRiP" "POST") fus;
  printf "|@.";
  let cells, _rstats = table1_cells ~pool ~tag:"table1" ~cell:run_cell () in
  let grip_cols = Array.make 3 [] and post_cols = Array.make 3 [] in
  let seq_w = ref [] in
  List.iteri
    (fun entry (e : Livermore.entry) ->
      let name = e.Livermore.kernel.Grip.Kernel.name in
      printf "%-6s" name;
      List.iteri
        (fun i _fu ->
          let g = cells.(cell_index ~entry ~fu_i:i ~post:false) in
          let p = cells.(cell_index ~entry ~fu_i:i ~post:true) in
          grip_cols.(i) <- g.speedup :: grip_cols.(i);
          post_cols.(i) <- p.speedup :: post_cols.(i);
          let mark c = if not c.ok then "!" else if not c.converged then "~" else " " in
          printf "| %5.1f%s %5.1f%s " g.speedup (mark g) p.speedup (mark p))
        fus;
      let g2, g4, g8 = e.Livermore.paper_grip
      and p2, p4, p8 = e.Livermore.paper_post in
      printf "|  %.1f/%.1f %.1f/%.1f %.1f/%.1f@." g2 p2 g4 p4 g8 p8;
      seq_w := Grip.Kernel.ops_per_iteration e.Livermore.kernel :: !seq_w)
    Livermore.all;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let whm weights l =
    let sw = List.fold_left ( +. ) 0.0 weights in
    let s = List.fold_left2 (fun acc w x -> acc +. (w /. x)) 0.0 weights l in
    sw /. s
  in
  let weights = List.map float_of_int (List.rev !seq_w) in
  printf "%-6s" "Mean";
  List.iteri
    (fun i _ ->
      printf "| %5.1f  %5.1f  "
        (mean (List.rev grip_cols.(i)))
        (mean (List.rev post_cols.(i))))
    fus;
  printf "|  2.0/2.0 3.9/3.4 6.6/5.5@.";
  printf "%-6s" "WHM";
  List.iteri
    (fun i _ ->
      printf "| %5.1f  %5.1f  "
        (whm weights (List.rev grip_cols.(i)))
        (whm weights (List.rev post_cols.(i))))
    fus;
  printf "|  2.0/1.9 3.9/3.3 5.6/4.8@.";
  printf "@.(~ marks a non-convergent schedule, measured by total execution;@.";
  printf " ! would mark an oracle failure — none expected.)@."

(* ---------------------------------------------------------------- *)
(* Figures 5 and 6: the A,B,C loop                                   *)
(* ---------------------------------------------------------------- *)

let fig5_6 () =
  section "Figure 5: overlapping loop iterations (a,b,c with recurrent a)";
  let e = Workloads.Paper_examples.abc in
  let o =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:4
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:3 o.Pipeline.program);
  printf "(paper: a_i, b_(i-1), c_(i-2) share a row — the same diagonal)@.";

  section "Figure 6: simple pipelining vs Perfect Pipelining";
  (* simple pipelining: compact 4 unwound iterations and keep the back
     edge: the whole block repeats, so pipeline fill/drain is paid on
     every pass *)
  let body_rows prog =
    List.length
      (List.filter
         (fun (r : Grip.Schedule_table.row) -> r.Grip.Schedule_table.cells <> [])
         (Grip.Schedule_table.rows prog))
  in
  let body_ops = 3.0 in
  let o4 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:4
  in
  let simple_rows = body_rows o4.Pipeline.program in
  let simple = body_ops /. (float_of_int simple_rows /. 4.0) in
  let o_perfect =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:12
  in
  let perfect =
    match o_perfect.Pipeline.static_cpi with
    | Some cpi -> body_ops /. cpi
    | None -> nan
  in
  printf
    "simple pipelining (4 unwound iterations, %d rows): speedup = %.1f (paper: 2)@."
    simple_rows simple;
  printf "Perfect Pipelining (converged): speedup = %.1f (paper: 3)@." perfect;
  match o_perfect.Pipeline.pattern with
  | Some p ->
      printf "converged pattern: rows %d..%d repeat, %d iteration(s) per period@."
        (p.Convergence.start + 1)
        (p.Convergence.start + p.Convergence.period)
        p.Convergence.delta
  | None -> printf "no convergence (unexpected)@."

(* ---------------------------------------------------------------- *)
(* Figures 8 and 11: scheduling traces with their sets               *)
(* ---------------------------------------------------------------- *)

let letter_of (op : Vliw_ir.Operation.t) =
  let pos = op.Vliw_ir.Operation.src_pos in
  if pos < 0 then "pre"
  else
    let base =
      if pos < 7 then String.make 1 (Char.chr (Char.code 'a' + pos))
      else if pos = 7 then "j"
      else "?"
    in
    Printf.sprintf "%s%d" base op.Vliw_ir.Operation.iter

let pp_ops ops =
  "{"
  ^ String.concat ","
      (List.map letter_of (Grip.Rank.sort Grip.Rank.source_order ops))
  ^ "}"

let fig8 () =
  section "Figure 8: scheduling with the Unifiable-ops technique (trace)";
  let e = Workloads.Paper_examples.abcdefg in
  let u = Grip.Unwind.build e ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx =
    Vliw_percolation.Ctx.make p ~machine:Machine.unlimited
      ~exit_live:(Grip.Kernel.exit_live e)
  in
  let ddg = Pipeline.ddg_of e in
  let config =
    Grip.Unifiable.default_config ~rank:Grip.Rank.source_order ~ddg ~horizon:3
  in
  let steps = ref 0 in
  let scratch = Grip.Scheduler.fresh_scratch p in
  let chains = Vliw_analysis.Ddg.chains ddg ~horizon:3 in
  let on_sched ~op ~node =
    incr steps;
    if !steps <= 10 then
      printf "move %2d: %-3s -> n%-3d  Unifiable(n%d) = %s@." !steps
        (letter_of op) node node
        (pp_ops (Grip.Unifiable.set ctx scratch chains node))
  in
  let stats = Grip.Unifiable.run ~on_sched config ctx in
  printf "(%d moves total)@." stats.Grip.Unifiable.reached;
  printf "stats: %a@." Grip.Unifiable.pp_stats stats;
  printf "final schedule:@.%s@." (Grip.Schedule_table.render ~jump_pos:7 p)

let fig11 () =
  section "Figure 11: GRiP scheduling (trace with Moveable-ops sets)";
  let e = Workloads.Paper_examples.abcdefg in
  let u = Grip.Unwind.build e ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx =
    Vliw_percolation.Ctx.make p ~machine:Machine.unlimited
      ~exit_live:(Grip.Kernel.exit_live e)
  in
  let config =
    {
      (Grip.Scheduler.default_config ~rank:Grip.Rank.source_order) with
      Grip.Scheduler.gap_prevention = true;
    }
  in
  let steps = ref 0 in
  let scratch = Grip.Scheduler.fresh_scratch p in
  let on_move ~op ~outcome =
    incr steps;
    if !steps <= 10 then begin
      let target =
        match Vliw_ir.Program.home p op.Vliw_ir.Operation.id with
        | Some h -> h
        | None -> -1
      in
      printf "move %2d: %-3s (%d hop%s) now in n%-3d  Moveable(n%d) = %s@." !steps
        (letter_of op) outcome.Vliw_percolation.Migrate.moved
        (if outcome.Vliw_percolation.Migrate.moved = 1 then "" else "s")
        target target
        (if target >= 0 then
           Grip.Scheduler.entry_op_ids scratch target
           |> Vliw_ir.Iarr.to_list
           |> List.filter_map (Vliw_ir.Program.stored_op p)
           |> pp_ops
         else "-")
    end
  in
  let stats = Grip.Scheduler.run ~on_move config ctx in
  printf "(%d migrations total)@." stats.Grip.Scheduler.migrations;
  printf "stats: %a@." Grip.Scheduler.pp_stats stats;
  printf "final schedule:@.%s@." (Grip.Schedule_table.render ~jump_pos:7 p)

(* ---------------------------------------------------------------- *)
(* Figures 9 and 13: gaps vs gapless convergence                     *)
(* ---------------------------------------------------------------- *)

let fig9_13 () =
  let e = Workloads.Paper_examples.abcdefg in
  section "Figure 9: pipelined schedule WITHOUT gap prevention";
  let o9 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip_no_gap
      ~horizon:10
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:7 o9.Pipeline.program);
  (match o9.Pipeline.pattern with
  | None ->
      printf
        "no repeating window: same-iteration operations spread further@.\
         apart every iteration, so Perfect Pipelining does not converge@.\
         (the paper's growing gaps).@."
  | Some p ->
      printf "unexpectedly converged: period %d delta %d@." p.Convergence.period
        p.Convergence.delta);

  section "Figure 13: final gapless schedule (GRiP with Gapless-moves)";
  let o13 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:10
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:7 o13.Pipeline.program);
  (match o13.Pipeline.pattern with
  | Some p ->
      printf
        "converged: rows %d..%d become the new loop body (%d rows /@.\
         %d iteration(s), %.2f cycles per iteration) — the paper's@.\
         'making nodes 4 and 5 the new loop body'.@."
        (p.Convergence.start + 1)
        (p.Convergence.start + p.Convergence.period)
        p.Convergence.period p.Convergence.delta
        (Convergence.cycles_per_iteration p)
  | None -> printf "no convergence (unexpected)@.");
  let m13 = Pipeline.measure o13 in
  printf "gapless steady state: %.2f cycles per iteration (oracle %s)@."
    m13.Speedup.sched_per_iter
    (match Pipeline.check o13 with Ok _ -> "OK" | Error _ -> "FAILED")

(* ---------------------------------------------------------------- *)
(* Micro: scheduler cost (Bechamel)                                  *)
(* ---------------------------------------------------------------- *)

let scheduler_cost_once method_ =
  let e = Workloads.Paper_examples.abcdefg in
  let o = Pipeline.run e ~machine:(Machine.homogeneous 4) ~method_ ~horizon:8 in
  ignore o.Pipeline.program

let micro () =
  section "Micro: scheduling cost, GRiP vs Unifiable-ops vs POST (Bechamel)";
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"scheduler"
      [
        Test.make ~name:"grip"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Grip));
        Test.make ~name:"unifiable"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Unifiable));
        Test.make ~name:"post"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Post));
      ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let v = Hashtbl.find results name in
      let est =
        match Analyze.OLS.estimates v with Some (x :: _) -> x | _ -> nan
      in
      printf "%-28s %12.3f ms/run@." name (est /. 1e6))
    (List.sort String.compare names);
  (* direct wall-clock on a Livermore kernel for scale *)
  let e = Option.get (Livermore.find "LL1") in
  List.iter
    (fun (m, name) ->
      let o =
        Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous 4)
          ~method_:m ~horizon:12
      in
      printf "LL1/4FU/horizon-12 %-12s %.3f s@." name o.Pipeline.wall_seconds)
    [
      (Pipeline.Grip, "GRiP");
      (Pipeline.Unifiable, "Unifiable");
      (Pipeline.Post, "POST");
    ]

(* ---------------------------------------------------------------- *)
(* Locality comparison: list / modulo / GRiP (section 1)             *)
(* ---------------------------------------------------------------- *)

let locality () =
  section
    "Locality of view: list scheduling (1 iter) vs modulo scheduling vs GRiP";
  printf "%-6s %8s %18s %10s   (speedups at 4 FUs)@." "Loop" "list" "modulo (II)" "GRiP";
  List.iter
    (fun (e : Livermore.entry) ->
      let kern = e.Livermore.kernel in
      let machine = Machine.homogeneous 4 in
      let ls = Grip.List_scheduler.schedule kern ~machine in
      let mo = Grip.Modulo.schedule kern ~machine in
      let o = Pipeline.run kern ~machine ~method_:Pipeline.Grip in
      let m = Pipeline.measure ~data:e.Livermore.data o in
      printf "%-6s %8.2f %11.2f (II=%d) %10.2f@." kern.Grip.Kernel.name
        (Grip.List_scheduler.speedup kern ls)
        (Grip.Modulo.speedup kern mo)
        mo.Grip.Modulo.ii m.Speedup.speedup)
    Livermore.all;
  printf
    "@.List scheduling never overlaps iterations; modulo scheduling@.\
     overlaps but keeps a one-iteration view (no renaming, no motion@.\
     across the exit test, conservative memory); GRiP fills globally.@."

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

let ablation ~pool () =
  section "Ablation: gap prevention, copy cost, typed units, redundancy";
  let e = Option.get (Livermore.find "LL1") in
  let kern = e.Livermore.kernel in
  let data = e.Livermore.data in
  let m8 = Machine.homogeneous 8 in
  (* every knob configuration is an independent scheduling run: fan
     them across the pool and print in input order *)
  let configs : (string * (unit -> Pipeline.outcome)) list =
    [
      ( "LL1/8FU gap prevention ON",
        fun () -> Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip );
      ( "LL1/8FU gap prevention OFF",
        fun () -> Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip_no_gap );
      ( "LL1/8FU free copies",
        fun () ->
          Pipeline.run kern
            ~machine:(Machine.homogeneous ~copies_free:true 8)
            ~method_:Pipeline.Grip );
      ( "LL1/8FU typed 5 ALU + 2 MEM + 1 BR",
        fun () ->
          Pipeline.run kern
            ~machine:(Machine.typed ~alu:5 ~mem:2 ~branch:1 ())
            ~method_:Pipeline.Grip );
      ( "LL1/8FU no redundancy removal",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~redundancy:false );
      ( "LL1/8FU source-order rank",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~rank:Grip.Rank.source_order );
      ( "LL1/8FU resource-aware speculation 0.75",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~speculation:(Grip.Scheduler.Resource_aware 0.75) );
      ( "LL1/8FU resource-aware speculation 0.25",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~speculation:(Grip.Scheduler.Resource_aware 0.25) );
    ]
  in
  let shown =
    Pool.map_ordered pool
      ~f:(fun (name, run) ->
        let o = run () in
        (name, Pipeline.measure ~data o, o.Pipeline.static_cpi,
         o.Pipeline.pattern <> None))
      configs
  in
  List.iter
    (fun (name, m, cpi, converged) ->
      printf "%-38s speedup=%5.2f cpi=%-6s converged=%b@." name
        m.Speedup.speedup
        (match cpi with Some c -> Printf.sprintf "%.2f" c | None -> "-")
        converged)
    shown;
  (* resource barriers measured across the Livermore set *)
  printf "@.resource-barrier events during GRiP scheduling (section 3.2):@.";
  let barrier_stats =
    Pool.map_ordered pool
      ~f:(fun (e : Livermore.entry) ->
        let kern = e.Livermore.kernel in
        let u = Grip.Unwind.build kern ~horizon:12 in
        let p = u.Grip.Unwind.program in
        ignore
          (Vliw_percolation.Redundant.cleanup p
             ~exit_live:(Grip.Kernel.exit_live kern));
        let ctx =
          Vliw_percolation.Ctx.make p ~machine:(Machine.homogeneous 4)
            ~exit_live:(Grip.Kernel.exit_live kern)
        in
        let st =
          Grip.Scheduler.run
            {
              (Grip.Scheduler.default_config ~rank:(Pipeline.default_rank kern)) with
              Grip.Scheduler.gap_prevention = true;
            }
            ctx
        in
        (kern.Grip.Kernel.name, st))
      Livermore.all
  in
  List.iter
    (fun (name, (st : Grip.Scheduler.stats)) ->
      printf "  %-5s barriers=%d suspensions=%d hops=%d@." name
        st.Grip.Scheduler.resource_barrier_events st.Grip.Scheduler.suspensions
        st.Grip.Scheduler.hops)
    barrier_stats

(* ---------------------------------------------------------------- *)
(* Machine-readable Table 1 artifact                                 *)
(* ---------------------------------------------------------------- *)

module Artifact = Grip.Bench_artifact
module Obs = Grip_obs

let table1_json ~pool ~jobs ~out ~horizon () =
  let t_start = Unix.gettimeofday () in
  (* each cell carries its own wall seconds so the harness block can
     report work time (cell_seconds) next to elapsed time
     (wall_seconds): their ratio is the measured parallel speedup *)
  let cells, resilience =
    table1_cells ~pool ~tag:"json"
      ~cell:(fun (e : Livermore.entry) m fu ->
        let t0 = Unix.gettimeofday () in
        let j =
          Artifact.run_cell ?horizon ~data:e.Livermore.data e.Livermore.kernel
            m fu
        in
        (j, Unix.gettimeofday () -. t0))
      ()
  in
  let loops =
    List.mapi
      (fun entry (e : Livermore.entry) ->
        let cell fu_i post = fst cells.(cell_index ~entry ~fu_i ~post) in
        {
          Artifact.kernel = e.Livermore.kernel;
          paper = (e.Livermore.paper_grip, e.Livermore.paper_post);
          cells =
            List.mapi (fun fu_i _ -> (cell fu_i false, cell fu_i true)) fus;
        })
      Livermore.all
  in
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let cell_seconds =
    Array.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 cells
  in
  let doc =
    Artifact.to_json
      { Artifact.fus; horizon; jobs; wall_seconds; cell_seconds;
        resilience; loops }
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Format.eprintf
    "[json] wrote %s (%d loops x %d FU configs; %d jobs, %.2fs wall, %.2fs \
     cells)@."
    out (List.length loops) (List.length fus) jobs wall_seconds cell_seconds

(* Check a Table 1 artifact against its declaration: one entry per
   Livermore loop, in order, with a GRiP and a POST cell at every FU
   width.  Exits non-zero on the first defect. *)
let json_validate file =
  let loops =
    List.map (fun (e : Livermore.entry) -> e.Livermore.kernel.Grip.Kernel.name)
      Livermore.all
  in
  match
    Result.bind
      (try Ok (In_channel.with_open_bin file In_channel.input_all)
       with Sys_error e -> Error e)
      (Artifact.validate ~loops ~fus)
  with
  | Ok () ->
      Format.printf "%s: OK (%d loops x %d FU configs)@." file
        (List.length loops) (List.length fus)
  | Error e ->
      Format.eprintf "%s: %s@." file e;
      exit 1

(* ---------------------------------------------------------------- *)
(* Metrics overhead                                                  *)
(* ---------------------------------------------------------------- *)

(* CPU seconds of [Pipeline.run] over the 84 Table 1 cells on this
   domain, with metrics off or on (a fresh registry per cell, as a
   served request gets). *)
let overhead_sweep ~metrics_on =
  Gc.compact ();
  let t0 = Sys.time () in
  List.iter
    (fun ((e : Livermore.entry), method_, fu) ->
      let obs =
        if metrics_on then Obs.make ~metrics:(Obs.Metrics.create ()) ()
        else Obs.null
      in
      ignore
        (Sys.opaque_identity
           (Pipeline.run ~obs e.Livermore.kernel
              ~machine:(Machine.homogeneous fu) ~method_)))
    table1_tasks;
  Sys.time () -. t0

let overhead_rounds = 8

(* [overhead ()] — [overhead_rounds] rounds of one sweep with metrics
   off and one with them on, alternating which goes first so that host
   drift falls on both sides; prints each round's on/off CPU ratio,
   their median, and their spread: the quartiles and the extremes. *)
let overhead () =
  (* the [q]-quantile of [l], interpolated between order statistics *)
  let quantile q l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let x = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  let median = quantile 0.5 in
  let rows =
    List.init overhead_rounds (fun r ->
        let off, on =
          if r mod 2 = 0 then
            let off = overhead_sweep ~metrics_on:false in
            (off, overhead_sweep ~metrics_on:true)
          else
            let on = overhead_sweep ~metrics_on:true in
            (overhead_sweep ~metrics_on:false, on)
        in
        printf "round %d: off %.3f s, on %.3f s, on/off %.3f@." (r + 1) off on
          (on /. off);
        (off, on))
  in
  let ratios = List.map (fun (off, on) -> on /. off) rows in
  printf
    "metrics overhead: median on/off CPU ratio %.3f over %d rounds (median \
     off %.3f s, on %.3f s)@."
    (median ratios) overhead_rounds
    (median (List.map fst rows))
    (median (List.map snd rows));
  printf "  on/off spread: quartiles %.3f-%.3f, min-max %.3f-%.3f@."
    (quantile 0.25 ratios) (quantile 0.75 ratios) (quantile 0.0 ratios)
    (quantile 1.0 ratios)

(* ---------------------------------------------------------------- *)

let all ~pool () =
  table1 ~pool ();
  fig5_6 ();
  fig8 ();
  fig9_13 ();
  fig11 ();
  micro ();
  locality ();
  ablation ~pool ()

(* [json] option parsing: --out FILE (default BENCH_table1.json) and
   --horizon N (cap the unwinding so smoke runs stay cheap). *)
let rec parse_json_opts ~out ~horizon = function
  | [] -> (out, horizon)
  | "--out" :: f :: rest -> parse_json_opts ~out:f ~horizon rest
  | "--horizon" :: h :: rest ->
      let h =
        match int_of_string_opt h with
        | Some h when h > 0 -> h
        | _ ->
            Format.eprintf "json: --horizon expects a positive integer@.";
            exit 2
      in
      parse_json_opts ~out ~horizon:(Some h) rest
  | other :: _ ->
      Format.eprintf "json: unknown option %S@." other;
      exit 2

(* [--jobs N] is global: strip it from argv wherever it appears.
   Default: one domain per recommended core. *)
let rec extract_jobs acc jobs = function
  | [] -> (List.rev acc, jobs)
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> extract_jobs acc (Some j) rest
      | _ ->
          Format.eprintf "--jobs expects a positive integer@.";
          exit 2)
  | [ "--jobs" ] ->
      Format.eprintf "--jobs expects a positive integer@.";
      exit 2
  | arg :: rest -> extract_jobs (arg :: acc) jobs rest

let () =
  let args, jobs_opt = extract_jobs [] None (List.tl (Array.to_list Sys.argv)) in
  let jobs =
    match jobs_opt with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()
  in
  match args with
  | "json" :: rest ->
      let out, horizon =
        parse_json_opts ~out:"BENCH_table1.json" ~horizon:None rest
      in
      Pool.with_pool ~jobs (fun pool -> table1_json ~pool ~jobs ~out ~horizon ())
  | "json-validate" :: file :: _ -> json_validate file
  | "json-validate" :: [] ->
      Format.eprintf "json-validate: expected a file argument@.";
      exit 2
  | "overhead" :: [] -> overhead ()
  | "overhead" :: other :: _ ->
      Format.eprintf "overhead: unknown option %S@." other;
      exit 2
  | argv ->
      let sections = match argv with [] -> [ "all" ] | rest -> rest in
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun job ->
              match job with
              | "all" -> all ~pool ()
              | "table1" -> table1 ~pool ()
              | "fig5" | "fig6" -> fig5_6 ()
              | "fig8" -> fig8 ()
              | "fig9" | "fig13" -> fig9_13 ()
              | "fig11" -> fig11 ()
              | "micro" -> micro ()
              | "locality" -> locality ()
              | "ablation" -> ablation ~pool ()
              | other -> Format.eprintf "unknown job %S@." other)
            sections)
