(* The GRiP core: unwinding, ranking, gap prevention, the scheduler,
   baselines, convergence detection and speedup measurement. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module State = Vliw_sim.State
module Exec = Vliw_sim.Exec
module Oracle = Vliw_sim.Oracle

(* A fixed QCheck seed unless QCHECK_SEED is set: qcheck-alcotest reads
   it once, at the first property built, and one is built at module
   top level below. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019"

let reg = Reg.of_int
let imm n = Operand.Imm (Value.I n)

let abc = Workloads.Paper_examples.abc
let abcdefg = Workloads.Paper_examples.abcdefg

let check_wf p = Alcotest.(check (list string)) "well-formed" [] (Wellformed.check p)

let fits_everywhere machine p =
  Program.fold_nodes p
    (fun n acc ->
      let id = n.Node.id in
      acc
      && (Program.is_exit p id
         || Machine.fits_packed machine (Program.counts_packed p id)))
    true

(* -- unwinding ---------------------------------------------------------- *)

let test_unwind_shape () =
  let u = Grip.Unwind.build abc ~horizon:4 in
  let p = u.Grip.Unwind.program in
  check_wf p;
  (* entry + 2 pre + 4 * (3 body + latch) + exit *)
  Alcotest.(check int) "nodes" (1 + 2 + (4 * 4) + 1) (Program.n_nodes p);
  Alcotest.(check int) "ops/iter" 4 (Grip.Unwind.ops_per_iteration u)

let test_unwind_equivalent_to_rolled () =
  (* executing the unwound program with n < horizon matches the rolled
     loop *)
  let rolled = (Grip.Kernel.rolled abc).Builder.program in
  let u = Grip.Unwind.build abc ~horizon:8 in
  List.iter
    (fun n ->
      let init = Grip.Kernel.initial_state ~n abc ~data:Grip.Kernel.default_data in
      match
        Oracle.equivalent ~observable:abc.Grip.Kernel.observable ~init rolled
          u.Grip.Unwind.program
      with
      | Ok _ -> ()
      | Error ms ->
          Alcotest.failf "n=%d: %s" n
            (String.concat "; "
               (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms)))
    [ 1; 3; 7 ]

let test_unwind_folds_induction () =
  (* no induction increments inside the unwound copies: uses become
     Regoff and the only adds are the kernel's own *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let incr_ops =
    List.filter
      (fun (op : Operation.t) ->
        match op.Operation.kind with
        | Operation.Binop (Opcode.Add, d, _, _) ->
            Reg.equal d abc.Grip.Kernel.ivar
        | _ -> false)
      (Program.all_ops p)
  in
  Alcotest.(check int) "no ivar increments" 0 (List.length incr_ops)

let test_unwind_renames_body_locals () =
  (* abc's reg 3 (b's destination, read by c) is body-local: each copy
     must write a distinct register *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let b_defs =
    List.filter_map
      (fun (op : Operation.t) ->
        if op.Operation.src_pos = 1 && op.Operation.iter >= 0 then
          Operation.def op
        else None)
      (Program.all_ops p)
  in
  Alcotest.(check int) "three copies of b" 3 (List.length b_defs);
  Alcotest.(check int) "three distinct destinations" 3
    (List.length (List.sort_uniq Reg.compare b_defs))

let test_unwind_keeps_recurrence_regs () =
  (* the accumulator (reg 2, a's destination and source) must stay the
     same register in every copy *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let a_defs =
    List.filter_map
      (fun (op : Operation.t) ->
        if op.Operation.src_pos = 0 && op.Operation.iter >= 0 then
          Operation.def op
        else None)
      (Program.all_ops p)
  in
  Alcotest.(check int) "one shared accumulator" 1
    (List.length (List.sort_uniq Reg.compare a_defs))

(* -- ranking ------------------------------------------------------------ *)

let test_rank_iteration_major () =
  let mk iter pos =
    Operation.make ~id:(iter * 100 + pos) ~iter ~lineage:pos ~src_pos:pos
      (Operation.Copy (reg (50 + pos), imm 0))
  in
  let rank = Grip.Pipeline.default_rank abc in
  let sorted = Grip.Rank.sort rank [ mk 1 0; mk 0 2; mk 0 0; mk 1 2 ] in
  let keys = List.map (fun (o : Operation.t) -> (o.Operation.iter, o.Operation.src_pos)) sorted in
  Alcotest.(check bool) "iteration-major" true
    (keys = [ (0, 0); (0, 2); (1, 0); (1, 2) ])

let test_rank_prefers_long_chains () =
  (* in abcdefg, a roots a 3-op chain, d a 2-op chain: a ranks first *)
  let rank = Grip.Pipeline.default_rank abcdefg in
  let mk pos =
    Operation.make ~id:pos ~iter:0 ~lineage:pos ~src_pos:pos
      (Operation.Copy (reg (50 + pos), imm 0))
  in
  match Grip.Rank.sort rank [ mk 3 (* d *); mk 0 (* a *) ] with
  | first :: _ -> Alcotest.(check int) "a first" 0 first.Operation.src_pos
  | [] -> Alcotest.fail "empty"

(* The store-first rank of examples/custom_heuristic.ml. *)
let store_first =
  Grip.Rank.custom ~name:"store-first" (fun op ->
      if Operation.is_store op then 0 else 1)

(* Random ops for the key property: few values per field, so most
   pairs tie in every field but the id.  Ids are distinct, spread up
   to the key's id range; [iter] and [src_pos] take [-1], and
   [lineage] runs one past the DDG's positions. *)
let random_ops rng ~positions k =
  let rand b = Random.State.int rng b in
  let ids = Hashtbl.create k in
  let rec fresh_id () =
    let id = rand (1 lsl 26) in
    if Hashtbl.mem ids id then fresh_id ()
    else begin
      Hashtbl.add ids id ();
      id
    end
  in
  List.init k (fun _ ->
      let kind =
        match rand 4 with
        | 0 -> Operation.Copy (reg 1, imm 0)
        | 1 ->
            Operation.Store
              ({ Operation.sym = "x"; base = imm 0; offset = 0 }, Operand.Reg (reg 1))
        | 2 -> Operation.Load (reg 2, { Operation.sym = "x"; base = imm 0; offset = 0 })
        | _ -> Operation.Cjump (Opcode.Lt, Operand.Reg (reg 1), imm 0)
      in
      Operation.make ~id:(fresh_id ()) ~iter:(rand 4 - 1)
        ~lineage:(rand (positions + 2) - 1)
        ~src_pos:(rand 4 - 1) kind)

(* Each rank's key order against the comparator it replaced: sorting
   by key, and the ranked queue's order after [load], both equal a
   stable sort by the oracle. *)
let prop_key_order_is_oracle =
  let kernels =
    Array.of_list
      (abcdefg
      :: List.map
           (fun (e : Workloads.Livermore.entry) -> e.Workloads.Livermore.kernel)
           Workloads.Livermore.all)
  in
  QCheck2.Test.make ~count:300 ~name:"key order == oracle comparator order"
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_bound (Array.length kernels - 1)) (int_range 0 60) (int_bound 1_000_000))
    (fun (ki, k, seed) ->
      let kern = kernels.(ki) in
      let ddg = Grip.Pipeline.ddg_of kern in
      let rng = Random.State.make [| seed |] in
      let ops = random_ops rng ~positions:(Array.length ddg.Vliw_analysis.Ddg.ops) k in
      let ids l = List.map (fun (o : Operation.t) -> o.Operation.id) l in
      let by_id = Hashtbl.create k in
      List.iter (fun (o : Operation.t) -> Hashtbl.replace by_id o.Operation.id o) ops;
      let queue_order rank =
        let q = Grip.Scheduler.Ranked.create () in
        let worklist = Iarr.create () in
        List.iter (fun (o : Operation.t) -> Iarr.push worklist o.Operation.id) ops;
        Grip.Scheduler.Ranked.load q ~rank ~record:(Hashtbl.find_opt by_id) worklist;
        List.init k (Grip.Scheduler.Ranked.id q)
      in
      List.for_all
        (fun (rank, oracle) ->
          let want = ids (List.stable_sort oracle ops) in
          ids (Grip.Rank.sort rank ops) = want && queue_order rank = want)
        [
          (Grip.Rank.section_3_4 ~ddg, Rank_oracle.section_3_4 ~ddg);
          (Grip.Rank.source_order, Rank_oracle.source_order);
          (store_first, Rank_oracle.store_first);
        ])

(* A key field out of range is a structured [Scheduling] error, never
   a key wrapped into its neighbour; the ends of each range pack and
   give their id back. *)
let test_key_range () =
  let op ?(iter = 0) ?(src_pos = 0) id =
    Operation.make ~id ~iter ~src_pos (Operation.Copy (reg 1, imm 0))
  in
  let weight w = Grip.Rank.custom ~name:"weight" (fun _ -> w) in
  let scheduling_error what f =
    match f () with
    | _ -> Alcotest.failf "%s: no error" what
    | exception Grip_robust.Grip_error.Error e ->
        Alcotest.(check string)
          (what ^ ": stage") "scheduling"
          (Grip_robust.Grip_error.stage_name e.Grip_robust.Grip_error.stage)
  in
  let key rank o () = rank.Grip.Rank.key o in
  let src = Grip.Rank.source_order in
  scheduling_error "iter 4095" (key src (op ~iter:4095 1));
  scheduling_error "iter -2" (key src (op ~iter:(-2) 1));
  scheduling_error "src_pos 4095" (key src (op ~src_pos:4095 1));
  scheduling_error "src_pos -2" (key src (op ~src_pos:(-2) 1));
  scheduling_error "id 2^26" (key src (op (1 lsl 26)));
  scheduling_error "id -1" (key src (op (-1)));
  scheduling_error "weight 4096" (key (weight 4096) (op 1));
  scheduling_error "weight -1" (key (weight (-1)) (op 1));
  let last = (1 lsl 26) - 1 in
  let high = (weight 4095).Grip.Rank.key (op ~iter:4094 ~src_pos:4094 last) in
  Alcotest.(check int) "largest fields give their id back" last
    (high land Grip.Rank.id_mask);
  Alcotest.(check bool) "largest fields stay non-negative" true (high > 0);
  Alcotest.(check bool) "no_iter ranks first" true
    (src.Grip.Rank.key (op ~iter:(-1) ~src_pos:(-1) last)
    < src.Grip.Rank.key (op ~iter:0 0));
  (* a hand-built rank whose key drops the id is refused at load *)
  let bare = { Grip.Rank.name = "bare"; key = (fun _ -> 0) } in
  let worklist = Iarr.create () in
  Iarr.push worklist 1;
  scheduling_error "key without its id" (fun () ->
      Grip.Scheduler.Ranked.load (Grip.Scheduler.Ranked.create ()) ~rank:bare
        ~record:(fun id -> Some (op id))
        worklist)

(* [Cache.schedule_digest] of every Livermore kernel at 4 FUs under two
   non-default ranks, recorded when choose-op still min-scanned every
   candidate on every pick: (kernel, (source-order GRiP, POST),
   (store-first GRiP, POST)).  The ranked queue must pick the same ops
   under any rank, not just the default one. *)
let rank_pins =
  [
    ( "LL1",
      ( "da0787f4d415ecd170bbd4596784c6d7", "bbeca9660867dc9e8bbf3144143b7865" ),
      ( "ee4c1b67ad927dd601f69e823b48d7a9", "e2e4a83c06398e59b671fef4be683259" ) );
    ( "LL2",
      ( "397dd406d9d6506b64ee2bc223807bd2", "308d28d95a8a596331c843b12f2a6736" ),
      ( "830469573cff691973eeb7fe041fd3b0", "7a2bc29786ad6f4bfae6430ed0b29901" ) );
    ( "LL3",
      ( "2ad37999283ea17434f548085e8b0c93", "a2b4974bb37a6ac646043ceb7c02d221" ),
      ( "2ad37999283ea17434f548085e8b0c93", "a2b4974bb37a6ac646043ceb7c02d221" ) );
    ( "LL4",
      ( "8a1cf1f70bab7e8610970d64853274f0", "04ed0e57a9def0657e833a4b869c2241" ),
      ( "f54eef45cbd77126a85914c789fd2019", "12e7ab6139a7d8da857bc333276110f4" ) );
    ( "LL5",
      ( "e4f8986178fee768855e2d8e7aa4fb11", "18149091bc321906f04a3697d2b43216" ),
      ( "e4f8986178fee768855e2d8e7aa4fb11", "18149091bc321906f04a3697d2b43216" ) );
    ( "LL6",
      ( "8b82945867d1ceb3827df64db25c7c0c", "a302bb2dfc6adae257f8c4ef4424c8ad" ),
      ( "8b82945867d1ceb3827df64db25c7c0c", "a302bb2dfc6adae257f8c4ef4424c8ad" ) );
    ( "LL7",
      ( "305055fa7fc50b51a87418570adb8dac", "be4514925c93e4581b085f2c60bc6f83" ),
      ( "586f992dfda5ea07981ea4cade4a6601", "3067bcefe4cdf6e2ed47b22730a204d1" ) );
    ( "LL8",
      ( "44f0b3f9402b210a627950041369e0a7", "d025ffbac0b8711268fc0a886fc82d20" ),
      ( "672b1ca66ac57acd2b3d6c1c5f24e3a0", "4a0ebb816d3d9d1e05b045348b58f4f4" ) );
    ( "LL9",
      ( "15cf189990d86fe4ac8714793231831d", "5ec91efe53f6efc0dcf69810e3e42dfb" ),
      ( "8755578c690a9561d3f768e326524235", "58b2f5676bcb6ebfaa871423281685b9" ) );
    ( "LL10",
      ( "582c70377616a96e4e31417d75e45e6f", "2f15e102741e564cc858fd9f87bdb22a" ),
      ( "11d9e76a9459e95250af5b586ecee129", "4e0fa63ddc5e29e3d648ebb290cbb86c" ) );
    ( "LL11",
      ( "3e1b454fe7441d1224d4fd65ea025548", "3e1b454fe7441d1224d4fd65ea025548" ),
      ( "3e1b454fe7441d1224d4fd65ea025548", "3e1b454fe7441d1224d4fd65ea025548" ) );
    ( "LL12",
      ( "8e50e516adf460497858c797ad7e13ed", "b46c5c5c3bde9811f03410932745fb87" ),
      ( "c0695b980af46550584dd0313971b6fe", "1b706d4789bf2b72a27cd5d8d5a93e90" ) );
    ( "LL13",
      ( "0eb2f24f5d4f5393eed57c67b4668fc1", "1092eb97643e2f2c5f28110c737f6ea7" ),
      ( "6dad7d9a169971bf0d291572770b126d", "3820ef3a9cc4c3e9511e5435cdd907e5" ) );
    ( "LL14",
      ( "972011e3380e7addc96152ae22f7e9ba", "40f9c4b2e4757cacdc7b9cdf9d54bb54" ),
      ( "00b6b836ec53f48bc140dc17cc5b1f5b", "6dbb31110b409f1aaf306d933bf70d23" ) );
  ]

let test_non_default_ranks_pinned () =
  let machine = Machine.homogeneous 4 in
  List.iter
    (fun (name, (src_grip, src_post), (store_grip, store_post)) ->
      let k =
        (Option.get (Workloads.Livermore.find name)).Workloads.Livermore.kernel
      in
      List.iter
        (fun (rank, method_, want) ->
          let o = Grip.Pipeline.run k ~machine ~method_ ~rank in
          Alcotest.(check string)
            (Printf.sprintf "%s %s %s" name rank.Grip.Rank.name
               (Grip.Pipeline.method_name method_))
            want
            (Grip_serve.Cache.schedule_digest o.Grip.Pipeline.program))
        [
          (Grip.Rank.source_order, Grip.Pipeline.Grip, src_grip);
          (Grip.Rank.source_order, Grip.Pipeline.Post, src_post);
          (store_first, Grip.Pipeline.Grip, store_grip);
          (store_first, Grip.Pipeline.Post, store_post);
        ])
    rank_pins

(* The ranked queue against the choose-op it replaced: a min-scan over
   the worklist, ties broken by op id as the keys break them. *)
let min_scan cmp (recs : Operation.t option array) worklist eligible =
  Array.fold_left
    (fun best id ->
      match recs.(id) with
      | Some op when eligible id -> (
          match best with
          | Some (b : Operation.t) when cmp op b >= 0 -> best
          | Some _ | None -> Some op)
      | Some _ | None -> best)
    None worklist
  |> Option.map (fun (op : Operation.t) -> op.Operation.id)

(* Random runs of one node's scheduling loop, driven the way the
   scheduler drives the queue: between picks the rest of the graph
   moves (arrivals into n, deaths, revivals, hops, node re-orderings
   that shift the rule-3 cut-off); each pick is attempted, may reach n,
   stop short, vanish or be suspended; a pick that is not suspended is
   retired; progress unsuspends everything (rule 2) and rewinds the
   queue.  The verdict holds suspended ids, which stay suspended until
   rule 2.  The rank has three iteration classes, so most candidates
   tie up to their id.  Invariants kept, as in the scheduler: an op in
   n never leaves it, only the picked op is marked attempted or
   suspended, and only suspended ops lose their attempted mark.  The queue must also never
   revisit a retired position, nor a held one before the next
   rewind. *)
let prop_ranked_queue_is_min_scan =
  let module R = Grip.Scheduler.Ranked in
  QCheck2.Test.make ~count:500 ~name:"ranked queue picks == min-scan"
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 0 40) (int_bound 1_000_000))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let rand b = Random.State.int rng b in
      let n = 0 and nodes = 6 in
      let recs =
        Array.init k (fun id ->
            if rand 20 = 0 then None
            else
              Some (Operation.make ~id ~iter:(rand 3) (Operation.Copy (reg id, imm 0))))
      in
      let cmp (a : Operation.t) (b : Operation.t) =
        match Int.compare a.Operation.iter b.Operation.iter with
        | 0 -> Int.compare a.Operation.id b.Operation.id
        | c -> c
      in
      let worklist = Array.init k Fun.id in
      for i = k - 1 downto 1 do
        let j = rand (i + 1) in
        let t = worklist.(i) in
        worklist.(i) <- worklist.(j);
        worklist.(j) <- t
      done;
      let home = Array.init k (fun _ -> 1 + rand (nodes - 1)) in
      let order = Array.init nodes (fun _ -> rand nodes) in
      let att = Array.make k false and susp = Array.make k false in
      let suspended = ref [] in
      let cutoff = ref (-1) in
      let eligible id =
        (not att.(id)) && (not susp.(id))
        && home.(id) >= 0 && home.(id) <> n
        && not (!cutoff >= 0 && order.(home.(id)) <= !cutoff)
      in
      (* a retired position must never be visited again, a held one
         not before the next rewind *)
      let retired = Array.make k false and revisited = ref false in
      let held = Array.make k false in
      let verdict id =
        if retired.(id) || held.(id) then revisited := true;
        if home.(id) = n then begin
          retired.(id) <- true;
          R.Retire
        end
        else if susp.(id) then begin
          held.(id) <- true;
          R.Hold
        end
        else if eligible id && recs.(id) <> None then R.Take
        else R.Skip
      in
      let q = R.create () in
      let ids = Iarr.create () in
      Array.iter (Iarr.push ids) worklist;
      R.load q ~rank:Grip.Rank.source_order ~record:(fun id -> recs.(id)) ids;
      let agree = ref true and picking = ref true and steps = ref 0 in
      while !agree && !picking && !steps < 200 do
        incr steps;
        if k > 0 then
          for _ = 1 to rand 3 do
            let id = rand k in
            match rand 4 with
            | 0 -> if home.(id) <> n then home.(id) <- n
            | 1 -> if home.(id) <> n then home.(id) <- -1
            | 2 -> if home.(id) <> n then home.(id) <- 1 + rand (nodes - 1)
            | _ -> order.(rand nodes) <- rand nodes
          done;
        cutoff :=
          List.fold_left
            (fun acc s -> if home.(s) >= 0 then max acc order.(home.(s)) else acc)
            (-1) !suspended;
        let want = min_scan cmp recs worklist eligible in
        let pos = R.pick q verdict in
        let got = if pos < 0 then None else Some (R.id q pos) in
        if got <> want then agree := false
        else
          match got with
          | None -> picking := false
          | Some id ->
              att.(id) <- true;
              let moved =
                match rand 5 with
                | 0 ->
                    home.(id) <- n;
                    1 + rand 3
                | 1 ->
                    home.(id) <- 1 + rand (nodes - 1);
                    1 + rand 3
                | 2 ->
                    home.(id) <- -1;
                    1
                | 3 ->
                    susp.(id) <- true;
                    suspended := id :: !suspended;
                    rand 2
                | _ -> 0
              in
              if not susp.(id) then begin
                retired.(id) <- true;
                R.retire q pos
              end;
              if moved > 0 && !suspended <> [] then begin
                List.iter
                  (fun s ->
                    susp.(s) <- false;
                    att.(s) <- false)
                  !suspended;
                suspended := [];
                Array.fill held 0 k false;
                R.rewind q
              end
      done;
      !agree && not !revisited)

(* -- scheduling --------------------------------------------------------- *)

let run_grip ?(machine = Machine.unlimited) ?(gap = true) kern ~horizon =
  Grip.Pipeline.run kern ~machine ~horizon
    ~method_:(if gap then Grip.Pipeline.Grip else Grip.Pipeline.Grip_no_gap)

let test_grip_abc_converges () =
  let o = run_grip abc ~horizon:10 in
  check_wf o.Grip.Pipeline.program;
  match o.Grip.Pipeline.pattern with
  | Some p ->
      Alcotest.(check int) "period 1" 1 p.Grip.Convergence.period;
      Alcotest.(check int) "delta 1" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "abc must converge"

let test_grip_preserves_semantics () =
  let o = run_grip abc ~horizon:10 in
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "%s"
        (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms))

let test_grip_respects_machine () =
  List.iter
    (fun fu ->
      let machine = Machine.homogeneous fu in
      let o = run_grip abcdefg ~machine ~horizon:8 in
      check_wf o.Grip.Pipeline.program;
      Alcotest.(check bool)
        (Printf.sprintf "all nodes fit %d FUs" fu)
        true
        (fits_everywhere machine o.Grip.Pipeline.program))
    [ 1; 2; 3 ]

let test_grip_mixed_period_gapless () =
  (* abcdefg has a 2-row recurrence: gapless scheduling converges at 2
     cycles/iteration *)
  let o = run_grip abcdefg ~horizon:10 in
  match o.Grip.Pipeline.static_cpi with
  | Some cpi -> Alcotest.(check (float 0.01)) "cpi 2" 2.0 cpi
  | None -> Alcotest.fail "must converge"

let test_no_gap_diverges_on_mixed_period () =
  let o = run_grip ~gap:false abcdefg ~horizon:10 in
  Alcotest.(check bool) "no repeating window" true (o.Grip.Pipeline.pattern = None)

let test_no_gap_still_sound () =
  let o = run_grip ~gap:false abcdefg ~horizon:10 in
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "gap-less ablation must stay semantics-preserving"

let test_scheduler_stats_sane () =
  let u = Grip.Unwind.build abc ~horizon:6 in
  let ctx =
    Ctx.make u.Grip.Unwind.program ~machine:(Machine.homogeneous 4)
      ~exit_live:(Grip.Kernel.exit_live abc)
  in
  let st =
    Grip.Scheduler.run
      {
        (Grip.Scheduler.default_config ~rank:(Grip.Pipeline.default_rank abc)) with
        Grip.Scheduler.gap_prevention = true;
      }
      ctx
  in
  Alcotest.(check bool) "made progress" true (st.Grip.Scheduler.hops > 0);
  Alcotest.(check bool) "scheduled nodes" true (st.Grip.Scheduler.nodes_scheduled > 0)

(* -- gapless test conditions -------------------------------------------- *)

let test_gapless_cond1_only_op () =
  (* single-op node: always moveable (node gets deleted) *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:(Grip.Kernel.exit_live abc) in
  let memo = Grip.Gapless.create_memo () in
  (* first body node of iteration 0 holds only a0 *)
  let a0_home = u.Grip.Unwind.heads.(0) in
  let a0 = List.hd (Program.ops p a0_home) in
  let pred = Program.parent p a0_home in
  Alcotest.(check bool) "cond 1 allows" true
    (Grip.Gapless.ok ctx memo ~from_:a0_home ~to_:pred ~op:a0)

let test_gapless_blocks_abandoning_iteration () =
  (* craft: node holds {x_of_iter1, y_of_iter0}; below: z of iter 1
     that cannot fill the hole because it depends on y, which stays.
     Moving x out must be vetoed. *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ~id ~iter ~pos kind = Operation.make ~id ~iter ~lineage:pos ~src_pos:pos kind in
  let x = mk ~id:1 ~iter:1 ~pos:0 (Operation.Binop (Opcode.Add, reg 10, Operand.Reg (reg 20), imm 1)) in
  let y = mk ~id:2 ~iter:0 ~pos:1 (Operation.Binop (Opcode.Add, reg 11, Operand.Reg (reg 21), imm 5)) in
  let z = mk ~id:3 ~iter:1 ~pos:2 (Operation.Binop (Opcode.Add, reg 12, Operand.Reg (reg 11), imm 1)) in
  let below = Program.fresh_node p ~ops:[ z ] ~ctree:(Ctree.leaf exit_) in
  let mid = Program.fresh_node p ~ops:[ x; y ] ~ctree:(Ctree.leaf below.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:mid.Node.id;
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty in
  let memo = Grip.Gapless.create_memo () in
  Alcotest.(check bool) "moving x would orphan iteration 1" false
    (Grip.Gapless.ok ctx memo ~from_:mid.Node.id ~to_:p.Program.entry ~op:x);
  (* y, by contrast, is the last op of iteration 0: cond 3 allows *)
  Alcotest.(check bool) "y allowed by cond 3" true
    (Grip.Gapless.ok ctx memo ~from_:mid.Node.id ~to_:p.Program.entry ~op:y)

let test_gapless_cond4_filler () =
  (* moving x of iter 0 out of mid is fine when below holds w of iter 0
     that can move up to fill *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ~id ~iter ~pos kind = Operation.make ~id ~iter ~lineage:pos ~src_pos:pos kind in
  let x = mk ~id:1 ~iter:0 ~pos:0 (Operation.Copy (reg 10, imm 1)) in
  let other = mk ~id:2 ~iter:1 ~pos:1 (Operation.Copy (reg 11, imm 2)) in
  let w = mk ~id:3 ~iter:0 ~pos:2 (Operation.Copy (reg 12, imm 3)) in
  let last = mk ~id:4 ~iter:0 ~pos:3 (Operation.Copy (reg 13, imm 4)) in
  let deep = Program.fresh_node p ~ops:[ last ] ~ctree:(Ctree.leaf exit_) in
  let below = Program.fresh_node p ~ops:[ w ] ~ctree:(Ctree.leaf deep.Node.id) in
  let mid = Program.fresh_node p ~ops:[ x; other ] ~ctree:(Ctree.leaf below.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:mid.Node.id;
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty in
  let memo = Grip.Gapless.create_memo () in
  Alcotest.(check bool) "cond 4 filler found" true
    (Grip.Gapless.ok ctx memo ~from_:mid.Node.id ~to_:p.Program.entry ~op:x)

(* -- condition-3 memo ------------------------------------------------------ *)

(* Nodes the plain searches below expanded, against the memo's
   [gapless.scan_nodes] over the same queries: the memo property
   requires that the memo spared some. *)
let plain_expanded = ref 0
let memo_expanded = ref 0

(* Condition 3 as a plain depth-first search, with no memo. *)
let plain_last p ~from_ ~iter =
  let seen = Hashtbl.create 16 in
  let same (o : Operation.t) = o.Operation.iter = iter in
  let rec below id =
    if Hashtbl.mem seen id || Program.is_exit p id then false
    else begin
      Hashtbl.replace seen id ();
      incr plain_expanded;
      List.exists same (Program.ops p id)
      || Ctree.exists_cjump same (Program.node p id).Node.ctree
      || List.exists below (Program.succs p id)
    end
  in
  not (List.exists below (Program.succs p from_))

(* The Gapless test as it stood before the memo — the oracle for
   [Gapless.ok]: the four conditions, condition 3 by {!plain_last}. *)
let plain_movable (ctx : Ctx.t) ~from_ ~(x : Operation.t)
    ~(ignoring : Operation.t) =
  let remaining =
    List.filter
      (fun (o : Operation.t) -> o.Operation.id <> ignoring.Operation.id)
      (Program.ops ctx.Ctx.program from_)
  in
  x.Operation.guard = []
  && (not
        (List.exists
           (fun o ->
             match Operation.def o with
             | Some d -> Operation.reads_reg x d && not (Operation.is_copy o)
             | None -> false)
           remaining))
  && (not (List.exists (fun o -> Vliw_analysis.Alias.mem_conflict o x) remaining))
  &&
  let m = ctx.Ctx.machine in
  Machine.is_unlimited m
  || Machine.slot_demand_packed m (Program.counts_packed ctx.Ctx.program from_)
     <= Machine.width m

(* Conditions 1 to 3 for [op] at [from_]. *)
let plain_first_three (ctx : Ctx.t) ~from_ ~(op : Operation.t) =
  let p = ctx.Ctx.program in
  let same (o : Operation.t) = o.Operation.iter = op.Operation.iter in
  (let c = Program.counts_packed p from_ in
   if Operation.is_cjump op then
     Node.packed_plain c = 0 && Node.packed_cjumps c = 1
   else Node.packed_plain c = 1 && Node.packed_cjumps c = 0)
  || List.length (List.filter same (Scan_oracles.all_ops p from_)) >= 2
  || plain_last p ~from_ ~iter:op.Operation.iter

let rec plain_gapless (ctx : Ctx.t) ~from_ ~(op : Operation.t) depth =
  let p = ctx.Ctx.program in
  let same (o : Operation.t) = o.Operation.iter = op.Operation.iter in
  let cond4 () =
    depth < 8
    && List.exists
         (fun s ->
           (not (Program.is_exit p s))
           &&
           let candidate (x : Operation.t) =
             same x
             && (not (Operation.equal_id x op))
             && plain_movable ctx ~from_ ~x ~ignoring:op
             && plain_gapless ctx ~from_:s ~op:x (depth + 1)
           in
           List.exists candidate (Program.ops p s)
           ||
           match Ctree.root_cjump (Program.node p s).Node.ctree with
           | Some root -> candidate root
           | None -> false)
         (Program.succs p from_)
  in
  plain_first_three ctx ~from_ ~op || cond4 ()

let plain_ok ctx ~from_ ~(op : Operation.t) =
  op.Operation.iter = Operation.no_iter || plain_gapless ctx ~from_ ~op 0

(* One memo kept across a run of random migrations over an unwound
   random program — [Move_cj] moves included — the Gapless test
   suspending hops as in the scheduler.  Every hop's verdict, and after
   each migration the verdict for random operations at their homes,
   must match the oracle's. *)
let memo_agrees spec =
  let p, exit_live = Synthetic_gen.joined_program spec ~joins:0 in
  let width = if spec.Workloads.Synthetic.seed mod 2 = 0 then 2 else 4 in
  let ctx = Ctx.make p ~machine:(Machine.homogeneous width) ~exit_live in
  let memo = Grip.Gapless.create_memo () in
  let scanned () = ctx.Ctx.counts.Ctx.scan_nodes in
  let check what ~from_ ~op =
    let s0 = scanned () in
    let got = Grip.Gapless.ok ctx memo ~from_ ~to_:(-1) ~op in
    memo_expanded := !memo_expanded + scanned () - s0;
    if got <> plain_ok ctx ~from_ ~op then
      QCheck2.Test.fail_reportf "%s: op%d at n%d: memo says %b" what
        op.Operation.id from_ got;
    got
  in
  let suspended = ref 0 in
  let hooks =
    {
      Vliw_percolation.Migrate.allow_hop =
        (fun ~from_ ~to_:_ ~op -> check "hop" ~from_ ~op);
      on_suspend = (fun _ -> incr suspended);
      early_stop = (fun ~moved -> moved > 0 && !suspended > 0);
    }
  in
  let next = Synthetic_gen.make_rng spec.Workloads.Synthetic.seed in
  for step = 1 to 24 do
    (match Synthetic_gen.migrate_random ~hooks ctx next with
    | Some r when r.Vliw_percolation.Migrate.moved > 0 -> suspended := 0
    | Some _ | None -> ());
    let nodes = List.filter (fun id -> not (Program.is_exit p id)) (Program.rpo p) in
    for _ = 1 to 4 do
      let n = List.nth nodes (next (List.length nodes)) in
      match Scan_oracles.all_ops p n with
      | [] -> ()
      | ops ->
          let op = List.nth ops (next (List.length ops)) in
          ignore (check (Printf.sprintf "step %d" step) ~from_:n ~op)
    done
  done;
  true

let prop_memo_exact =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"condition-3 memo == plain DFS" ~count:150
         ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen memo_agrees)
  in
  ( name,
    speed,
    fun () ->
      plain_expanded := 0;
      memo_expanded := 0;
      run ();
      if !memo_expanded >= !plain_expanded then
        Alcotest.failf "memo expanded %d nodes, plain searches %d"
          !memo_expanded !plain_expanded )

(* A cyclic graph: entry -> a; a -> b, c; b -> a (back edge); g -> b.
   Iteration 0 lives only in c, which b reaches only through the back
   edge; iteration 2 lives nowhere.  A memo that trusted a node that
   answered "none" because its successor was still on the search stack
   would record b as free of iteration 0 and then misjudge the search
   from g; every answer here must match the plain search, whatever was
   recorded before. *)
let test_memo_cyclic () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ~id ~iter = Operation.make ~id ~iter (Operation.Copy (reg id, imm id)) in
  let b = Program.fresh_node p ~ops:[ mk ~id:1 ~iter:1 ] ~ctree:(Ctree.leaf exit_) in
  let c = Program.fresh_node p ~ops:[ mk ~id:2 ~iter:0 ] ~ctree:(Ctree.leaf exit_) in
  let cj = Operation.make ~id:3 ~iter:1 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 0)) in
  let a =
    Program.fresh_node p ~ops:[ mk ~id:4 ~iter:1 ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf b.Node.id, Ctree.Leaf c.Node.id))
  in
  let g = Program.fresh_node p ~ops:[ mk ~id:5 ~iter:1 ] ~ctree:(Ctree.leaf b.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:a.Node.id;
  Program.redirect p ~from_:b.Node.id ~old_:exit_ ~new_:a.Node.id;
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty in
  let memo = Grip.Gapless.create_memo () in
  let queries =
    [ (p.Program.entry, 0); (g.Node.id, 0); (a.Node.id, 0); (b.Node.id, 0);
      (p.Program.entry, 2); (g.Node.id, 2); (b.Node.id, 2); (g.Node.id, 0);
      (c.Node.id, 0); (g.Node.id, 1); (c.Node.id, 1) ]
  in
  List.iter
    (fun (from_, iter) ->
      Alcotest.(check bool)
        (Printf.sprintf "last of iteration %d below n%d" iter from_)
        (plain_last p ~from_ ~iter)
        (Grip.Gapless.last_of_iteration ctx memo ~from_ ~iter))
    queries;
  Alcotest.(check bool) "g is not last of iteration 0" false
    (Grip.Gapless.last_of_iteration ctx memo ~from_:g.Node.id ~iter:0)

(* -- replayed attempts ---------------------------------------------------- *)

(* Every replay against the attempt it stands for.  The scheduler runs
   on unwound Synthetic programs under GRiP and GRiP(no-gap) at 2, 4
   and 8 FU, and as POST's phase 1 (gap prevention on the unlimited
   machine).  At each replay the observer makes the attempt for real,
   toward the same target, on a fresh context and a fresh Gapless
   memo, with the scheduler's [allow_hop] test.  The
   two must agree on zero moves, on the failure, and on whether the op
   is suspended.  A failed attempt commits nothing, so the run goes on
   as it would have. *)
let replayed_failures = ref 0
let replayed_vetoes = ref 0
let replayed_fills = ref 0

let replays_agree spec =
  let kern = Workloads.Synthetic.generate spec in
  let rank = Grip.Pipeline.default_rank kern in
  let run (machine, gap) =
    let p, exit_live = Synthetic_gen.joined_program spec ~joins:0 in
    let config =
      { (Grip.Scheduler.default_config ~rank) with
        Grip.Scheduler.gap_prevention = gap }
    in
    let real ~(op : Operation.t) ~target =
      let ctx = Ctx.make p ~machine ~exit_live in
      let memo = Grip.Gapless.create_memo () in
      let vetoed = ref false in
      let hooks =
        {
          Vliw_percolation.Migrate.allow_hop =
            (fun ~from_ ~to_ ~op ->
              Grip.Scheduler.speculation_allows config ctx ~from_ ~to_ ~op
              && ((not gap) || Grip.Gapless.ok ctx memo ~from_ ~to_ ~op));
          on_suspend = (fun _ -> vetoed := true);
          early_stop = (fun ~moved -> moved > 0);
        }
      in
      (* the Gapless answer reaches condition 4 when 1 to 3 fail *)
      let filled =
        gap
        && op.Operation.iter <> Operation.no_iter
        && not
             (plain_first_three ctx
                ~from_:(Program.home_int p op.Operation.id)
                ~op)
      in
      let r =
        Vliw_percolation.Migrate.migrate ctx ~hooks ~target
          ~op_id:op.Operation.id ()
      in
      (r, !vetoed, filled)
    in
    let on_replay ~(op : Operation.t) ~target
        ~(outcome : Vliw_percolation.Migrate.outcome) ~suspended =
      let r, vetoed, filled = real ~op ~target in
      let show = function
        | None -> "none"
        | Some f -> Format.asprintf "%a" Vliw_percolation.Migrate.pp_failure f
      in
      if
        r.Vliw_percolation.Migrate.moved <> 0
        || outcome.Vliw_percolation.Migrate.moved <> 0
        || r.Vliw_percolation.Migrate.last_failure
           <> outcome.Vliw_percolation.Migrate.last_failure
        || vetoed <> suspended
      then
        QCheck2.Test.fail_reportf
          "op%d -> n%d: replayed %s (suspended %b), real attempt moved %d, %s \
           (suspended %b)"
          op.Operation.id target
          (show outcome.Vliw_percolation.Migrate.last_failure)
          suspended r.Vliw_percolation.Migrate.moved
          (show r.Vliw_percolation.Migrate.last_failure)
          vetoed;
      (match outcome.Vliw_percolation.Migrate.last_failure with
      | Some Vliw_percolation.Migrate.Suspended -> incr replayed_vetoes
      | Some _ -> incr replayed_failures
      | None -> ());
      if filled then incr replayed_fills
    in
    let ctx = Ctx.make p ~machine ~exit_live in
    ignore (Grip.Scheduler.run ~on_replay config ctx)
  in
  List.iter run
    [
      (Machine.homogeneous 2, true);
      (Machine.homogeneous 4, true);
      (Machine.homogeneous 8, true);
      (Machine.homogeneous 2, false);
      (Machine.homogeneous 4, false);
      (Machine.homogeneous 8, false);
      (Machine.unlimited, true);
    ];
  true

(* Built by the suite list, with its own fixed seed: a run must see
   replays of legality failures, of gap vetoes, and of answers that
   reached Gapless condition 4. *)
let prop_replays_agree () =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261019 |])
      (QCheck2.Test.make ~name:"replayed attempt == real attempt" ~count:60
         ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen replays_agree)
  in
  ( name,
    speed,
    fun () ->
      replayed_failures := 0;
      replayed_vetoes := 0;
      replayed_fills := 0;
      run ();
      if !replayed_failures = 0 || !replayed_vetoes = 0 || !replayed_fills = 0
      then
        Alcotest.failf
          "replays seen: %d legality failures, %d gap vetoes, %d condition-4 \
           answers"
          !replayed_failures !replayed_vetoes !replayed_fills )

(* -- Moveable-ops enumeration --------------------------------------------- *)

(* The region pass's oracle: the Moveable-ops set of [n] by the
   dominator tree, listed as the region pass lists it.  A node comes
   after its dominators in RPO, so only the positions after [n]'s are
   filtered. *)
let moveable_op_ids (p : Program.t) dom n acc =
  Iarr.clear acc;
  let add = Iarr.push acc in
  let len = Program.n_nodes p in
  let at = Program.rpo_index p n in
  if at < len then
    for k = at + 1 to len - 1 do
      let id = Program.rpo_at p k in
      if (not (Program.is_exit p id)) && Dom.dominates dom n id then
        Program.iter_op_ids p id add
    done;
  acc

(* The Unifiable-ops set of [n] as it was computed before it came from
   node entry's region pass: the nodes [n] dominates, in RPO, less [n]
   and the exit, each node's ops less those on a dependence chain with
   an op of [n]. *)
let unifiable_oracle p dom ~ddg ~horizon n =
  let instance = Grip.Unifiable.instance in
  let in_n = Scan_oracles.all_ops p n in
  let chained op =
    List.exists
      (fun o ->
        Vliw_analysis.Ddg.chain_related ddg ~horizon (instance o) (instance op))
      in_n
  in
  List.concat_map
    (fun id ->
      if id = n || Program.is_exit p id then []
      else List.filter (fun op -> not (chained op)) (Scan_oracles.all_ops p id))
    (Dom.dominated dom p n)

(* The RPO suffix after each node, filtered by dominance, lists exactly
   the op ids a filter over the whole RPO does, in the same order — on
   random unwound programs, before and after random migrations
   ([Move_cj] moves included).  So does node entry's one-pass region
   over the subtree, and so does the Unifiable-ops set drawn from it,
   against the dominator filter less the same chain filter. *)
let prop_suffix_enumeration =
  QCheck2.Test.make ~name:"suffix enumeration == full-RPO filter" ~count:100
    ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen (fun spec ->
      let p, exit_live = Synthetic_gen.joined_program spec ~joins:0 in
      let ddg = Grip.Pipeline.ddg_of (Workloads.Synthetic.generate spec) in
      let ctx = Ctx.make p ~machine:(Machine.homogeneous 2) ~exit_live in
      let next = Synthetic_gen.make_rng spec.Workloads.Synthetic.seed in
      let acc = Iarr.create () in
      let scratch = Grip.Scheduler.fresh_scratch p in
      let chains = Vliw_analysis.Ddg.chains ddg ~horizon:4 in
      for step = 0 to 12 do
        if step > 0 then ignore (Synthetic_gen.migrate_random ctx next);
        let dom = Dom.compute p in
        List.iter
          (fun n ->
            let full =
              List.concat_map
                (fun id ->
                  if id = n || Program.is_exit p id || not (Dom.dominates dom n id)
                  then []
                  else List.map (fun (o : Operation.t) -> o.Operation.id)
                      (Scan_oracles.all_ops p id))
                (Program.rpo p)
            in
            let got = Iarr.to_list (moveable_op_ids p dom n acc) in
            if got <> full then
              QCheck2.Test.fail_reportf "step %d, n%d: %d op ids, want %d" step n
                (List.length got) (List.length full);
            Program.region_op_ids p n acc;
            let region = Iarr.to_list acc in
            if region <> full then
              QCheck2.Test.fail_reportf
                "step %d, n%d: region lists %d op ids, want %d" step n
                (List.length region) (List.length full);
            let ids = List.map (fun (o : Operation.t) -> o.Operation.id) in
            let unifiable = ids (Grip.Unifiable.set ctx scratch chains n)
            and want = ids (unifiable_oracle p dom ~ddg ~horizon:4 n) in
            if unifiable <> want then
              QCheck2.Test.fail_reportf
                "step %d, n%d: Unifiable set lists %d op ids, want %d" step n
                (List.length unifiable) (List.length want))
          (Program.rpo p)
      done;
      true)

(* A cyclic program: entry -> a -> h; h -> b -> c; c -> h (back edge)
   and c -> d -> e -> exit.  h has two leaves pointing at it, a's and
   c's, so the program is not an out-tree: node entry raises a
   structured [Scheduling] error wherever it is entered, at a and at d
   below the cycle alike, and so does a whole GRiP or Unifiable run. *)
let cyclic_program () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let op id = Operation.make ~id (Operation.Copy (reg id, imm id)) in
  let node id succ = Program.fresh_node p ~ops:[ op id ] ~ctree:(Ctree.leaf succ) in
  let e = node 7 exit_ in
  let d = node 1 e.Node.id in
  let h = node 2 exit_ in
  let cj = Operation.make ~id:3 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 0)) in
  let c =
    Program.fresh_node p ~ops:[ op 4 ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf h.Node.id, Ctree.Leaf d.Node.id))
  in
  let b = node 5 c.Node.id in
  let a = node 6 h.Node.id in
  Program.redirect p ~from_:h.Node.id ~old_:exit_ ~new_:b.Node.id;
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:a.Node.id;
  (p, a.Node.id, d.Node.id)

(* A cycle through the entry: entry -> a -> b; b -> entry (back edge)
   and b -> exit.  The back edge is a leaf pointing at the entry. *)
let entry_cycle_program () =
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let op id = Operation.make ~id (Operation.Copy (reg id, imm id)) in
  let cj = Operation.make ~id:3 (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 0)) in
  let b =
    Program.fresh_node p ~ops:[ op 2 ]
      ~ctree:(Ctree.Branch (cj, Ctree.Leaf p.Program.entry, Ctree.Leaf exit_))
  in
  let a = Program.fresh_node p ~ops:[ op 1 ] ~ctree:(Ctree.leaf b.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:a.Node.id;
  p

(* [f ()] raises node entry's structured [Scheduling] error. *)
let scheduling_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: no error on a graph that is not an out-tree" what
  | exception
      Grip_robust.Grip_error.Error
        {
          Grip_robust.Grip_error.stage = Grip_robust.Grip_error.Scheduling;
          cause = Grip_robust.Grip_error.Malformed [ _ ];
          _;
        } ->
      ()

let run_grip p =
  Grip.Scheduler.run
    (Grip.Scheduler.default_config ~rank:Grip.Rank.source_order)
    (Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty)

let run_unifiable p =
  Grip.Unifiable.run
    (Grip.Unifiable.default_config ~rank:Grip.Rank.source_order
       ~ddg:(Vliw_analysis.Ddg.build []) ~horizon:1)
    (Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty)

let run_post p =
  Grip.Post.run
    (Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty)
    (Ctx.make p ~machine:(Machine.homogeneous 2) ~exit_live:Reg.Set.empty)
    ~rank:Grip.Rank.source_order

let test_region_cyclic () =
  let p, a, d = cyclic_program () in
  let scratch = Grip.Scheduler.fresh_scratch p in
  Alcotest.(check bool) "not an out-tree" false (Program.is_out_tree p);
  scheduling_error "node entry at a" (fun () ->
      Grip.Scheduler.entry_op_ids scratch a);
  scheduling_error "node entry at d, below the cycle" (fun () ->
      Grip.Scheduler.entry_op_ids scratch d);
  let fresh, _, _ = cyclic_program () in
  scheduling_error "Scheduler.run" (fun () -> run_grip fresh);
  let looped = entry_cycle_program () in
  let entry = looped.Program.entry in
  scheduling_error "node entry at the entry of a cycle through it" (fun () ->
      Grip.Scheduler.entry_op_ids (Grip.Scheduler.fresh_scratch looped) entry);
  scheduling_error "Scheduler.run, cycle through the entry" (fun () ->
      run_grip (entry_cycle_program ()));
  let fresh, _, _ = cyclic_program () in
  scheduling_error "Unifiable.run" (fun () -> run_unifiable fresh);
  scheduling_error "Unifiable.run, cycle through the entry" (fun () ->
      run_unifiable (entry_cycle_program ()))

(* -- out-trees ------------------------------------------------------------- *)

(* The schedulers' input (DESIGN.md §36): no leaf points at the entry,
   and at most one at any node but the exit.  Three graphs that break
   it, each acyclic or not, each refused by GRiP, POST and Unifiable at
   their first node entry. *)
let not_out_trees () =
  let op id = Operation.make ~id (Operation.Copy (reg id, imm id)) in
  let cj id = Operation.make ~id (Operation.Cjump (Opcode.Lt, Operand.Reg (reg 9), imm 0)) in
  let program build =
    let p = Program.create () in
    let top = build p p.Program.exit_id in
    Program.redirect p ~from_:p.Program.entry ~old_:p.Program.exit_id ~new_:top;
    p
  in
  (* two nodes, one parent each, whose leaves meet at [shared] *)
  let join () =
    program (fun p exit_ ->
        let shared = Program.fresh_node p ~ops:[ op 1 ] ~ctree:(Ctree.leaf exit_) in
        let side id =
          (Program.fresh_node p ~ops:[ op id ] ~ctree:(Ctree.leaf shared.Node.id))
            .Node.id
        in
        let l = side 2 and r = side 3 in
        (Program.fresh_node p ~ops:[]
           ~ctree:(Ctree.Branch (cj 4, Ctree.Leaf l, Ctree.Leaf r)))
          .Node.id)
  in
  (* one tree whose two leaves both point at [a] *)
  let double_leaf () =
    program (fun p exit_ ->
        let a = Program.fresh_node p ~ops:[ op 1 ] ~ctree:(Ctree.leaf exit_) in
        (Program.fresh_node p ~ops:[ op 2 ]
           ~ctree:(Ctree.Branch (cj 3, Ctree.Leaf a.Node.id, Ctree.Leaf a.Node.id)))
          .Node.id)
  in
  (* a leaf back to the entry *)
  let entry_leaf () =
    program (fun p exit_ ->
        (Program.fresh_node p ~ops:[ op 1 ]
           ~ctree:(Ctree.Branch (cj 2, Ctree.Leaf p.Program.entry, Ctree.Leaf exit_)))
          .Node.id)
  in
  [ ("a join", join); ("two leaves at one node", double_leaf);
    ("a leaf into the entry", entry_leaf) ]

let test_refuses_non_out_trees () =
  List.iter
    (fun (what, build) ->
      Alcotest.(check bool) (what ^ ": not an out-tree") false
        (Program.is_out_tree (build ()));
      scheduling_error (what ^ ", Scheduler.run") (fun () -> run_grip (build ()));
      scheduling_error (what ^ ", Post.run") (fun () -> run_post (build ()));
      scheduling_error (what ^ ", Unifiable.run") (fun () ->
          run_unifiable (build ())))
    (not_out_trees ())

(* Assert that [p] is an out-tree, with its derived state (leaf counts
   and join count included) as a recount finds it. *)
let assert_out_tree what p =
  (match Program.check_derived_state p with
  | None -> ()
  | Some reason -> Alcotest.failf "%s: %s" what reason);
  if not (Program.is_out_tree p) then Alcotest.failf "%s: not an out-tree" what

(* Kernel [k] unwound and cleaned as the pipeline does, then scheduled
   by GRiP, GRiP(no-gap) and POST at 2, 4 and 8 FU, each on its own
   copy.  Every program must be an out-tree: the input, the program
   after every move [Scheduler.run] reports, and the final program,
   POST's too.  POST may give up on a node it cannot break (ROADMAP
   item 3); the program it leaves is checked all the same.  Returns the
   moves checked. *)
let out_tree_runs ~horizon what k =
  let exit_live = Grip.Kernel.exit_live k and rank = Grip.Pipeline.default_rank k in
  let moves = ref 0 in
  List.iter
    (fun fu ->
      let machine = Machine.homogeneous fu in
      let horizon = horizon machine in
      let fresh () =
        let p = (Grip.Unwind.build k ~horizon).Grip.Unwind.program in
        ignore (Vliw_percolation.Redundant.cleanup p ~exit_live);
        assert_out_tree (what ^ " input") p;
        p
      in
      List.iter
        (fun gap ->
          let p = fresh () in
          let label =
            Printf.sprintf "%s %s %d FU" what (if gap then "GRiP" else "GRiP(no-gap)") fu
          in
          let on_move ~op:_ ~outcome:_ =
            incr moves;
            assert_out_tree label p
          in
          ignore
            (Grip.Scheduler.run ~on_move
               { (Grip.Scheduler.default_config ~rank) with
                 Grip.Scheduler.gap_prevention = gap }
               (Ctx.make p ~machine ~exit_live));
          assert_out_tree label p)
        [ true; false ];
      let p = fresh () in
      (match
         Grip.Post.run
           (Ctx.make p ~machine:Machine.unlimited ~exit_live)
           (Ctx.make p ~machine ~exit_live) ~rank
       with
      | _ -> ()
      | exception
          Grip_robust.Grip_error.Error
            { Grip_robust.Grip_error.cause = Grip_robust.Grip_error.Resource_overflow _; _ }
        ->
          ());
      assert_out_tree (Printf.sprintf "%s POST %d FU" what fu) p)
    [ 2; 4; 8 ];
  !moves

(* Synthetic kernels of 8 to 64 ops, unwound only 6 deep: the check
   after every move is linear in the program, so the sizes stay
   small. *)
let prop_out_tree_synthetic =
  QCheck2.Test.make ~name:"Synthetic schedules stay out-trees" ~count:20
    ~print:Synthetic_gen.print_spec
    QCheck2.Gen.(
      let* seed = int_range 1 1_000_000 and* n_ops = int_range 8 64 in
      return { Workloads.Synthetic.default_spec with Workloads.Synthetic.seed; n_ops })
    (fun spec ->
      out_tree_runs
        ~horizon:(fun _ -> 6)
        (Printf.sprintf "Synthetic %s" (Synthetic_gen.print_spec spec))
        (Workloads.Synthetic.generate spec)
      > 0)

(* test_minic's 18 cold-request sources at the pipeline's horizons. *)
let test_out_tree_minic () =
  List.iter
    (fun (name, params, stmts, _) ->
      match Minic.Compile.kernel_of_string (Cold_sources.generated ~name params stmts) with
      | Error e -> Alcotest.failf "%s: %s" name (Grip_robust.Grip_error.to_string e)
      | Ok out ->
          if
            out_tree_runs ~horizon:Grip.Pipeline.default_horizon name
              out.Minic.Compile.kernel
            = 0
          then Alcotest.failf "%s: no move checked" name)
    Cold_sources.cold_pins

(* -- convergence detection ---------------------------------------------- *)

let row cells = { Grip.Schedule_table.node = 0; cells }

let test_convergence_detects_period () =
  (* rows: {a_i, b_(i-1)} repeating with delta 1 *)
  let rows =
    List.init 8 (fun i -> row (if i = 0 then [ (0, 0) ] else [ (0, i); (1, i - 1) ]))
  in
  match Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows with
  | Some p ->
      Alcotest.(check int) "period" 1 p.Grip.Convergence.period;
      Alcotest.(check int) "delta" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "pattern expected"

let test_convergence_rejects_incomplete_window () =
  (* position 1 vanishes from the steady region: a window of only
     position 0 must not count when 1 is still live for most iters *)
  let rows =
    List.init 8 (fun i -> row [ (0, i); (1, i) ])
    @ List.init 4 (fun i -> row [ (0, 8 + i) ])
  in
  (* the all-positions region repeats fine *)
  match Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows with
  | Some p -> Alcotest.(check int) "delta" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "pattern expected in the complete region"

let test_convergence_spread_has_no_pattern () =
  (* row widths grow every row: no two rows can ever match *)
  let rows =
    List.init 8 (fun i -> row (List.init (i + 1) (fun j -> (j mod 2, i))))
  in
  Alcotest.(check bool) "no pattern" true
    (Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows = None)

let test_gap_counter () =
  let rows = [ row [ (0, 0) ]; row []; row [ (0, 1) ] ] in
  Alcotest.(check int) "one gap" 1 (Grip.Convergence.gaps rows)

(* -- convergence oracle: the array passes against the list ones -------- *)

let pattern_t =
  Alcotest.(
    option
      (testable
         (fun ppf (p : Grip.Convergence.pattern) ->
           Format.fprintf ppf "{start=%d; period=%d; delta=%d; repeats=%d}"
             p.Grip.Convergence.start p.Grip.Convergence.period
             p.Grip.Convergence.delta p.Grip.Convergence.repeats)
         ( = )))

(* Path, rows, pattern (with and without the body positions, and with
   no tail ignored) and gaps of [p] against the old passes; returns
   whether the pattern search found one. *)
let same_convergence what (k : Grip.Kernel.t) p =
  let module T = Grip.Schedule_table in
  let module C = Grip.Convergence in
  Alcotest.(check (list int)) (what ^ ": main path")
    (Convergence_oracle.main_path p) (T.main_path p);
  let rows = T.rows p and want = Convergence_oracle.rows p in
  Alcotest.(check (list (pair int (list (pair int int))))) (what ^ ": rows")
    (List.map (fun (r : T.row) -> (r.T.node, r.T.cells)) want)
    (List.map (fun (r : T.row) -> (r.T.node, r.T.cells)) rows);
  let body_positions = List.length k.Grip.Kernel.body + 1 in
  Alcotest.check pattern_t (what ^ ": pattern")
    (Convergence_oracle.detect ~body_positions rows)
    (C.detect ~body_positions rows);
  Alcotest.check pattern_t (what ^ ": pattern, any window")
    (Convergence_oracle.detect rows) (C.detect rows);
  Alcotest.check pattern_t (what ^ ": pattern, whole table")
    (Convergence_oracle.detect ~ignore_tail:0 ~body_positions rows)
    (C.detect ~ignore_tail:0 ~body_positions rows);
  Alcotest.(check int) (what ^ ": gaps") (C.gaps want) (C.gaps rows);
  C.detect ~body_positions rows <> None

let test_convergence_oracle_table1 () =
  let converged = ref 0 and not_converged = ref 0 in
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      ignore
        (same_convergence (k.Grip.Kernel.name ^ " rolled") k
           (Grip.Kernel.rolled k).Builder.program);
      List.iter
        (fun fus ->
          List.iter
            (fun method_ ->
              let o =
                Grip.Pipeline.run k ~machine:(Machine.homogeneous fus) ~method_
              in
              let what =
                Printf.sprintf "%s %dFU %s" k.Grip.Kernel.name fus
                  (Grip.Pipeline.method_name method_)
              in
              if same_convergence what k o.Grip.Pipeline.program then incr converged
              else incr not_converged)
            [ Grip.Pipeline.Grip; Grip.Pipeline.Post ])
        [ 2; 4; 8 ])
    Workloads.Livermore.all;
  Alcotest.(check bool) "some cells converge" true (!converged > 0);
  Alcotest.(check bool) "some cells do not" true (!not_converged > 0)

(* Synthetic kernels under GRiP and its no-gap ablation, at the default
   horizon and at one too short to converge. *)
let test_convergence_oracle_synthetic () =
  let converged = ref 0 and not_converged = ref 0 in
  List.iter
    (fun (n_ops, seed) ->
      let k =
        Workloads.Synthetic.generate
          { Workloads.Synthetic.default_spec with n_ops; seed }
      in
      List.iter
        (fun (fus, horizon, method_) ->
          let o =
            Grip.Pipeline.run k ~machine:(Machine.homogeneous fus) ?horizon ~method_
          in
          let what =
            Printf.sprintf "%s %dFU h%d %s" k.Grip.Kernel.name fus
              o.Grip.Pipeline.horizon (Grip.Pipeline.method_name method_)
          in
          if same_convergence what k o.Grip.Pipeline.program then incr converged
          else incr not_converged)
        [
          (2, None, Grip.Pipeline.Grip);
          (4, None, Grip.Pipeline.Grip_no_gap);
          (8, None, Grip.Pipeline.Grip);
          (4, Some 6, Grip.Pipeline.Grip);
        ])
    [ (8, 7919); (16, 15838); (24, 23757); (32, 31676) ];
  Alcotest.(check bool) "some schedules converge" true (!converged > 0);
  Alcotest.(check bool) "some do not" true (!not_converged > 0)

(* -- baselines ----------------------------------------------------------- *)

let test_post_respects_machine () =
  let machine = Machine.homogeneous 2 in
  let o =
    Grip.Pipeline.run abcdefg ~machine ~method_:Grip.Pipeline.Post ~horizon:8
  in
  check_wf o.Grip.Pipeline.program;
  Alcotest.(check bool) "fits" true (fits_everywhere machine o.Grip.Pipeline.program);
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "POST must preserve semantics"

let test_unifiable_schedules () =
  let machine = Machine.homogeneous 2 in
  let o =
    Grip.Pipeline.run abc ~machine ~method_:Grip.Pipeline.Unifiable ~horizon:6
  in
  check_wf o.Grip.Pipeline.program;
  Alcotest.(check bool) "fits" true (fits_everywhere machine o.Grip.Pipeline.program);
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Unifiable must preserve semantics"

(* Unifiable schedules at horizon 8: the {!Grip_serve.Cache.schedule_digest}
   of each kernel at 2, 4 and 8 FU.  The other six kernels (LL7–LL10,
   LL13, LL14) take over ten times as long as these 24 cells under
   Unifiable, so they are compared by hand with
   [grip schedule … --method=unifiable --horizon=8 --digest]. *)
let unifiable_pins =
  [
    ( "LL1",
      ( "ce2b752fa49c612f1ae2c2d9617951f3", "5ad26d61e99f8e5c4486377aed642a20",
        "cf5d56d0a60d9df5a015f23a4db94fb2" ) );
    ( "LL2",
      ( "363b91615ff64fc74311955fc9b3e961", "413f173fd2228ddac423816ea09426d3",
        "95117fc2114ce7ec502e8429420525d5" ) );
    ( "LL3",
      ( "ab5ddd54f17d1a493fc1587131e9ef0f", "bd77575d46ae7664c8916ff1d10e76b6",
        "df5775198396b08ba15c70417091c882" ) );
    ( "LL4",
      ( "bb8a5b4b01f2b719c6fd279efd12824d", "08018bc6a24873510155b2692dee623b",
        "1ca21aa29a2bb7ce26f4a1c817ecdad7" ) );
    ( "LL5",
      ( "4a4af3c588fde5c0c559e28725be2cb4", "1626222233d1c203e3192c39311f8fb4",
        "e3af77ff7b8d6fecf4239896e2ca4084" ) );
    ( "LL6",
      ( "ecba1b43ce7d0a8064e9fabc985bcc9e", "5f6f4089e4f742652f968d39016395b4",
        "0f13a4967c1ae282d38a4d32d4dbfafc" ) );
    ( "LL11",
      ( "ff38b66b72c1cdc846d169cfc5a13675", "15edfc828fc6289e7301ab749b2bb1ee",
        "7fb5deb0067609d94564e2c9d25c9748" ) );
    ( "LL12",
      ( "9dfb779744057094fb2ce4e90063615b", "7448cee2c7985ef997c74761d8c2a982",
        "add533f7e9bd032456008f8d5e54ddfe" ) );
  ]

let test_unifiable_pinned () =
  List.iter
    (fun (name, (d2, d4, d8)) ->
      let k =
        (Option.get (Workloads.Livermore.find name)).Workloads.Livermore.kernel
      in
      List.iter
        (fun (fus, want) ->
          let o =
            Grip.Pipeline.run k ~machine:(Machine.homogeneous fus)
              ~method_:Grip.Pipeline.Unifiable ~horizon:8
          in
          Alcotest.(check string)
            (Printf.sprintf "%s at %d FU" name fus)
            want
            (Grip_serve.Cache.schedule_digest o.Grip.Pipeline.program))
        [ (2, d2); (4, d4); (8, d8) ])
    unifiable_pins

let test_unifiable_set_excludes_chained () =
  let u = Grip.Unwind.build abcdefg ~horizon:2 in
  let p = u.Grip.Unwind.program in
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:(Grip.Kernel.exit_live abcdefg) in
  let ddg = Grip.Pipeline.ddg_of abcdefg in
  (* head of iteration 0 holds a0; b0 (depends on a0) must be excluded
     from Unifiable(head), d0 (independent chain) included *)
  let head = u.Grip.Unwind.heads.(0) in
  let set =
    Grip.Unifiable.set ctx (Grip.Scheduler.fresh_scratch p)
      (Vliw_analysis.Ddg.chains ddg ~horizon:2)
      head
  in
  let poss = List.map (fun (o : Operation.t) -> (o.Operation.src_pos, o.Operation.iter)) set in
  Alcotest.(check bool) "b0 excluded" false (List.mem (1, 0) poss);
  Alcotest.(check bool) "d0 included" true (List.mem (3, 0) poss);
  Alcotest.(check bool) "a1 excluded (carried chain)" false (List.mem (0, 1) poss)

(* -- speedup measurement -------------------------------------------------- *)

(* -- modulo and list scheduling baselines -------------------------------- *)

let test_modulo_recurrence_bound () =
  (* abc: a -> a carried chain of length 1 => recurrence MII 1; with
     4 ops (body + control test) and 2 FUs the resource bound (2)
     dominates *)
  let m = Grip.Modulo.schedule abc ~machine:(Machine.homogeneous 2) in
  Alcotest.(check int) "resource mii" 2 m.Grip.Modulo.mii_resource;
  Alcotest.(check bool) "ii >= mii" true (m.Grip.Modulo.ii >= 2)

let test_modulo_recurrence_dominates () =
  (* abcdefg's f<->g cycle: length 2 distance 1 => recurrence MII 2,
     binding on a wide machine *)
  let m = Grip.Modulo.schedule abcdefg ~machine:(Machine.homogeneous 8) in
  Alcotest.(check int) "recurrence mii" 2 m.Grip.Modulo.mii_recurrence;
  Alcotest.(check bool) "ii = 2" true (m.Grip.Modulo.ii = 2)

(* Modulo's recurrence bound and initiation interval on every built-in
   kernel, at 1, 2, 4 and 8 FUs and unlimited, as the cycle search that
   computed the bound before it came from the bottleneck analyzer's
   critical chain gave them. *)
let modulo_pins =
  [
    ("LL1", 1, [ 10; 5; 3; 2; 1 ]);
    ("LL2", 1, [ 7; 4; 2; 1; 1 ]);
    ("LL3", 1, [ 5; 3; 2; 1; 1 ]);
    ("LL4", 1, [ 6; 3; 2; 1; 1 ]);
    ("LL5", 4, [ 7; 4; 4; 4; 4 ]);
    ("LL6", 4, [ 6; 4; 4; 4; 4 ]);
    ("LL7", 1, [ 27; 14; 7; 4; 1 ]);
    ("LL8", 1, [ 19; 10; 5; 3; 1 ]);
    ("LL9", 1, [ 13; 7; 4; 2; 1 ]);
    ("LL10", 1, [ 15; 8; 4; 2; 1 ]);
    ("LL11", 3, [ 5; 3; 3; 3; 3 ]);
    ("LL12", 1, [ 5; 3; 2; 1; 1 ]);
    ("LL13", 6, [ 12; 7; 6; 6; 6 ]);
    ("LL14", 1, [ 11; 6; 3; 2; 1 ]);
    ("abc", 1, [ 4; 2; 1; 1; 1 ]);
    ("abcdefg", 2, [ 8; 4; 2; 2; 2 ]);
  ]

let test_modulo_pins () =
  List.iter
    (fun (name, rec_mii, iis) ->
      let kern, _ = Option.get (Workloads.Builtin.find name) in
      List.iter2
        (fun machine ii ->
          let m = Grip.Modulo.schedule kern ~machine in
          let at = Format.asprintf "%s on %a" name Machine.pp machine in
          Alcotest.(check int) (at ^ ": recMII") rec_mii m.Grip.Modulo.mii_recurrence;
          Alcotest.(check int) (at ^ ": II") ii m.Grip.Modulo.ii)
        [
          Machine.homogeneous 1; Machine.homogeneous 2; Machine.homogeneous 4;
          Machine.homogeneous 8; Machine.unlimited;
        ]
        iis)
    modulo_pins

let test_modulo_schedule_legal () =
  (* every flow arc respected: t(dst) >= t(src) + 1 - II*dist *)
  let kern = abcdefg in
  let machine = Machine.homogeneous 4 in
  let m = Grip.Modulo.schedule kern ~machine in
  let kinds = kern.Grip.Kernel.body @ [ List.nth (Grip.Kernel.control kern) 1 ] in
  let ops = List.mapi (fun i k -> Operation.make ~id:i ~src_pos:i k) kinds in
  let ddg = Vliw_analysis.Ddg.build ~ivar:(kern.Grip.Kernel.ivar, 1) ops in
  let time = Array.make (List.length kinds) 0 in
  List.iter (fun (pos, t) -> time.(pos) <- t) m.Grip.Modulo.schedule;
  List.iter
    (fun (a : Vliw_analysis.Ddg.arc) ->
      match a.Vliw_analysis.Ddg.kind with
      | Vliw_analysis.Ddg.Flow | Vliw_analysis.Ddg.Mem ->
          let slack =
            time.(a.Vliw_analysis.Ddg.dst) + (m.Grip.Modulo.ii * a.Vliw_analysis.Ddg.dist)
            - time.(a.Vliw_analysis.Ddg.src)
          in
          if slack < 1 then
            Alcotest.failf "arc %d->%d dist %d violated (slack %d)"
              a.Vliw_analysis.Ddg.src a.Vliw_analysis.Ddg.dst
              a.Vliw_analysis.Ddg.dist slack
      | _ -> ())
    ddg.Vliw_analysis.Ddg.arcs;
  (* modulo resource usage within width *)
  let usage = Array.make m.Grip.Modulo.ii 0 in
  List.iter
    (fun (_, t) -> usage.(t mod m.Grip.Modulo.ii) <- usage.(t mod m.Grip.Modulo.ii) + 1)
    m.Grip.Modulo.schedule;
  Array.iter (fun u -> Alcotest.(check bool) "within width" true (u <= 4)) usage

let test_list_scheduler_no_overlap () =
  (* one iteration of abc: chain a->b->c plus control: at least the
     chain length in cycles, independent of width *)
  let t8 = Grip.List_scheduler.schedule abc ~machine:(Machine.homogeneous 8) in
  Alcotest.(check bool) "chain bound" true (t8.Grip.List_scheduler.cycles >= 3);
  let t1 = Grip.List_scheduler.schedule abc ~machine:(Machine.homogeneous 1) in
  Alcotest.(check int) "serialises at width 1" 5 t1.Grip.List_scheduler.cycles

let test_locality_ordering () =
  (* list <= modulo <= GRiP on a parallel kernel *)
  let e = Option.get (Workloads.Livermore.find "LL12") in
  let kern = e.Workloads.Livermore.kernel in
  let machine = Machine.homogeneous 4 in
  let ls = Grip.List_scheduler.speedup kern (Grip.List_scheduler.schedule kern ~machine) in
  let mo = Grip.Modulo.speedup kern (Grip.Modulo.schedule kern ~machine) in
  let o = Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Grip ~horizon:16 in
  let gr = (Grip.Pipeline.measure ~data:e.Workloads.Livermore.data o).Grip.Speedup.speedup in
  Alcotest.(check bool)
    (Printf.sprintf "list %.2f <= modulo %.2f <= grip %.2f" ls mo gr)
    true
    (ls <= mo +. 0.01 && mo <= gr +. 0.01)

(* -- speculation policy --------------------------------------------------- *)

let test_speculation_policies_sound () =
  List.iter
    (fun spec ->
      let o =
        Grip.Pipeline.run abcdefg ~machine:(Machine.homogeneous 4)
          ~method_:Grip.Pipeline.Grip ~horizon:8 ~speculation:spec
      in
      check_wf o.Grip.Pipeline.program;
      match Grip.Pipeline.check o with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "speculation policy broke semantics")
    [ Grip.Scheduler.Always; Grip.Scheduler.Resource_aware 0.5;
      Grip.Scheduler.Resource_aware 0.0 ]

let test_speculation_zero_blocks_guarded_ops () =
  (* with threshold 0.0, no plain op may land guarded above a branch *)
  let o =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 4)
      ~method_:Grip.Pipeline.Grip ~horizon:8
      ~speculation:(Grip.Scheduler.Resource_aware 0.0)
  in
  let p = o.Grip.Pipeline.program in
  let guarded =
    List.filter
      (fun (op : Operation.t) ->
        (not (Operation.is_cjump op)) && op.Operation.guard <> [])
      (Program.all_ops p)
  in
  Alcotest.(check int) "no guarded plain ops" 0 (List.length guarded)

let test_speedup_identity () =
  (* scheduling with a 1-wide machine cannot beat sequential by much;
     speedup must stay close to 1 *)
  let machine = Machine.homogeneous 1 in
  let o = Grip.Pipeline.run abc ~machine ~method_:Grip.Pipeline.Grip ~horizon:16 in
  let m = Grip.Pipeline.measure o in
  Alcotest.(check bool)
    (Printf.sprintf "1-FU speedup %.2f in [0.8, 1.7]" m.Grip.Speedup.speedup)
    true
    (m.Grip.Speedup.speedup >= 0.8 && m.Grip.Speedup.speedup <= 1.7)

let test_speedup_monotone_in_width () =
  let sp fu =
    let o =
      Grip.Pipeline.run abc ~machine:(Machine.homogeneous fu)
        ~method_:Grip.Pipeline.Grip ~horizon:16
    in
    (Grip.Pipeline.measure o).Grip.Speedup.speedup
  in
  let s2 = sp 2 and s4 = sp 4 in
  Alcotest.(check bool)
    (Printf.sprintf "s4 (%.2f) >= s2 (%.2f) - eps" s4 s2)
    true (s4 >= s2 -. 0.11)

(* Starving the migration budget must be reported, not silently
   accepted: the truncated schedule stays legal but the stats (and the
   pipeline outcome) flag the exhaustion. *)
let test_fuel_exhaustion_reported () =
  let o =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 2)
      ~method_:Grip.Pipeline.Grip ~horizon:16 ~max_migrations:3
  in
  Alcotest.(check bool) "flagged" true o.Grip.Pipeline.fuel_exhausted;
  (match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "truncated schedule must stay sound (%d mismatches)"
        (List.length ms));
  let o' =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 2)
      ~method_:Grip.Pipeline.Grip ~horizon:16
  in
  Alcotest.(check bool) "default budget suffices" false
    o'.Grip.Pipeline.fuel_exhausted

let () =
  Alcotest.run "grip"
    [
      ( "unwind",
        [
          Alcotest.test_case "shape" `Quick test_unwind_shape;
          Alcotest.test_case "equivalent to rolled" `Quick test_unwind_equivalent_to_rolled;
          Alcotest.test_case "folds induction" `Quick test_unwind_folds_induction;
          Alcotest.test_case "renames body locals" `Quick test_unwind_renames_body_locals;
          Alcotest.test_case "keeps recurrences" `Quick test_unwind_keeps_recurrence_regs;
        ] );
      ( "rank",
        [
          Alcotest.test_case "iteration major" `Quick test_rank_iteration_major;
          Alcotest.test_case "prefers long chains" `Quick test_rank_prefers_long_chains;
          Alcotest.test_case "non-default ranks pinned" `Quick
            test_non_default_ranks_pinned;
          QCheck_alcotest.to_alcotest prop_ranked_queue_is_min_scan;
          QCheck_alcotest.to_alcotest prop_key_order_is_oracle;
          Alcotest.test_case "key fields out of range" `Quick test_key_range;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "abc converges" `Quick test_grip_abc_converges;
          Alcotest.test_case "preserves semantics" `Quick test_grip_preserves_semantics;
          Alcotest.test_case "respects machine" `Quick test_grip_respects_machine;
          Alcotest.test_case "mixed-period gapless" `Quick test_grip_mixed_period_gapless;
          Alcotest.test_case "no-gap diverges" `Quick test_no_gap_diverges_on_mixed_period;
          Alcotest.test_case "no-gap still sound" `Quick test_no_gap_still_sound;
          Alcotest.test_case "stats sane" `Quick test_scheduler_stats_sane;
          Alcotest.test_case "fuel exhaustion reported" `Quick
            test_fuel_exhaustion_reported;
          QCheck_alcotest.to_alcotest prop_suffix_enumeration;
          prop_replays_agree ();
          Alcotest.test_case "region pass on a cyclic program" `Quick
            test_region_cyclic;
        ] );
      ( "out-tree",
        [
          Alcotest.test_case "node entry refuses non-trees" `Quick
            test_refuses_non_out_trees;
          QCheck_alcotest.to_alcotest prop_out_tree_synthetic;
          Alcotest.test_case "minic cold sources stay out-trees" `Quick
            test_out_tree_minic;
        ] );
      ( "gapless",
        [
          Alcotest.test_case "cond1 only-op" `Quick test_gapless_cond1_only_op;
          Alcotest.test_case "blocks abandonment" `Quick test_gapless_blocks_abandoning_iteration;
          Alcotest.test_case "cond4 filler" `Quick test_gapless_cond4_filler;
          Alcotest.test_case "memo exact on a cyclic graph" `Quick test_memo_cyclic;
          prop_memo_exact;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "detects period" `Quick test_convergence_detects_period;
          Alcotest.test_case "partial positions" `Quick test_convergence_rejects_incomplete_window;
          Alcotest.test_case "spread has no pattern" `Quick test_convergence_spread_has_no_pattern;
          Alcotest.test_case "Table 1 == old passes" `Quick test_convergence_oracle_table1;
          Alcotest.test_case "Synthetic == old passes" `Quick
            test_convergence_oracle_synthetic;
          Alcotest.test_case "gap counter" `Quick test_gap_counter;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "POST respects machine" `Quick test_post_respects_machine;
          Alcotest.test_case "Unifiable schedules" `Quick test_unifiable_schedules;
          Alcotest.test_case "Unifiable set" `Quick test_unifiable_set_excludes_chained;
          Alcotest.test_case "Unifiable digests pinned" `Quick test_unifiable_pinned;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "1-FU identity" `Quick test_speedup_identity;
          Alcotest.test_case "monotone in width" `Quick test_speedup_monotone_in_width;
        ] );
      ( "modulo+list",
        [
          Alcotest.test_case "resource bound" `Quick test_modulo_recurrence_bound;
          Alcotest.test_case "recurrence bound" `Quick test_modulo_recurrence_dominates;
          Alcotest.test_case "legal schedule" `Quick test_modulo_schedule_legal;
          Alcotest.test_case "recMII and II pinned" `Quick test_modulo_pins;
          Alcotest.test_case "list no overlap" `Quick test_list_scheduler_no_overlap;
          Alcotest.test_case "locality ordering" `Slow test_locality_ordering;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "policies sound" `Quick test_speculation_policies_sound;
          Alcotest.test_case "zero threshold" `Quick test_speculation_zero_blocks_guarded_ops;
        ] );
    ]
