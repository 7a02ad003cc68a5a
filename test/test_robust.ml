(* Robustness subsystem: structured errors, per-stage guards,
   deterministic fault injection, and the graceful-degradation ladder
   of Pipeline.run_robust. *)

module Grip_error = Grip_robust.Grip_error
module Guard = Grip_robust.Guard
module Fault = Grip_robust.Fault
module Pipeline = Grip.Pipeline
module Kernel = Grip.Kernel
module Machine = Vliw_machine.Machine
module Builder = Vliw_ir.Builder

let abc = Workloads.Paper_examples.abc
let abcdefg = Workloads.Paper_examples.abcdefg

let scheduled ?(machine = Machine.homogeneous 2) k =
  (Pipeline.run k ~machine ~method_:Pipeline.Grip).Pipeline.program

(* A corrupted program is "detected" when any guard fires:
   structural well-formedness, resource fit, or the oracle.  The oracle
   sweeps every supported trip count 2..n: an unwound program has
   per-iteration drain paths, so corruption of the exit arm of
   iteration j is observable only at trip count exactly j and a single
   spot-check could miss it. *)
let detected ?(data = Kernel.default_data) k ~machine ~n p =
  Guard.structural Grip_error.Validation p <> None
  || Guard.resources Grip_error.Validation ~machine p <> None
  || List.exists
       (fun n ->
         Guard.oracle Grip_error.Validation
           ~reference:(Kernel.rolled k).Builder.program ~candidate:p
           ~init:(Kernel.initial_state ~n k ~data)
           ~observable:k.Kernel.observable
         <> None)
       (List.init (n - 1) (fun i -> i + 2))

(* -- structured errors --------------------------------------------------- *)

let test_error_rendering () =
  let e =
    Grip_error.make ~kernel:"LL1" ~machine:"2 FU" Grip_error.Scheduling
      (Grip_error.Fuel_exhausted { migrations = 10; budget = 10 })
  in
  Alcotest.(check string)
    "render" "scheduling error [LL1 on 2 FU]: migration fuel exhausted (10 of 10)"
    (Grip_error.to_string e);
  match Grip_error.guard (fun () -> Grip_error.raise_ Grip_error.Io (Grip_error.Message "x")) with
  | Error { Grip_error.stage = Grip_error.Io; _ } -> ()
  | Error _ | Ok _ -> Alcotest.fail "guard should capture the raised error"

(* -- fault injection ----------------------------------------------------- *)

(* Every applicable injection, over a spread of deterministic seeds,
   must be caught by the guards (the acceptance criterion of the
   robustness issue: no injected miscompile survives). *)
let test_fault_caught mode () =
  let machine = Machine.homogeneous 2 in
  let applied = ref 0 in
  for seed = 0 to 7 do
    let p = scheduled abcdefg ~machine in
    match Fault.inject ~seed ~max_iter:16 ~machine mode p with
    | Error _ -> ()
    | Ok inj ->
        incr applied;
        if not (detected abcdefg ~machine ~n:16 p) then
          Alcotest.failf "undetected %s fault (seed %d): %s"
            (Fault.mode_name mode) seed inj.Fault.detail
  done;
  if !applied = 0 then
    Alcotest.failf "no applicable site for %s" (Fault.mode_name mode)

let test_fault_deterministic () =
  let machine = Machine.homogeneous 2 in
  let one () =
    let p = scheduled abcdefg ~machine in
    match Fault.inject ~seed:3 ~machine Fault.Clobber_operand p with
    | Ok inj -> inj.Fault.detail
    | Error m -> Alcotest.failf "injection refused: %s" m
  in
  Alcotest.(check string) "same seed, same site" (one ()) (one ())

let test_clean_program_passes () =
  let machine = Machine.homogeneous 2 in
  let p = scheduled abcdefg ~machine in
  Alcotest.(check bool)
    "no false positive" false
    (detected abcdefg ~machine ~n:16 p)

(* -- degradation ladder -------------------------------------------------- *)

let test_top_rung_wins () =
  match Pipeline.run_robust abcdefg ~machine:(Machine.homogeneous 2) with
  | Error e -> Alcotest.failf "unexpected failure: %s" (Grip_error.to_string e)
  | Ok r ->
      Alcotest.(check string) "rung" "GRiP" (Pipeline.rung_name r.Pipeline.rung);
      Alcotest.(check int) "no descents" 0 (List.length r.Pipeline.descents)

(* The pipeline-level fault of the issue: skip the Gapless-move test
   (schedule with gap prevention off).  On the unlimited machine at a
   short horizon the no-gap schedule does not converge (paper Figure 9);
   the ladder must abandon that rung and recover instead of returning a
   non-convergent schedule. *)
let test_skip_gapless_falls () =
  match
    Pipeline.run_robust ~horizon:10 ~start:Pipeline.R_grip_no_gap abcdefg
      ~machine:Machine.unlimited
  with
  | Error e -> Alcotest.failf "ladder should recover: %s" (Grip_error.to_string e)
  | Ok r -> (
      match r.Pipeline.descents with
      | (Pipeline.R_grip_no_gap, e) :: _ ->
          (match e.Grip_error.cause with
          | Grip_error.Non_convergent _ -> ()
          | _ ->
              Alcotest.failf "expected non-convergence, got: %s"
                (Grip_error.to_string e));
          Alcotest.(check bool)
            "landed below the faulty rung" true
            (r.Pipeline.rung <> Pipeline.R_grip_no_gap)
      | _ -> Alcotest.fail "no-gap rung should have been abandoned")

let test_fuel_exhaustion_falls () =
  match
    Pipeline.run_robust ~max_migrations:3 abc ~machine:(Machine.homogeneous 2)
  with
  | Error e -> Alcotest.failf "ladder should recover: %s" (Grip_error.to_string e)
  | Ok r ->
      (match r.Pipeline.descents with
      | (Pipeline.R_grip, { Grip_error.cause = Grip_error.Fuel_exhausted _; _ })
        :: _ ->
          ()
      | _ -> Alcotest.fail "first descent should be GRiP fuel exhaustion");
      (* POST runs with its own default budget and may recover; the
         starved GRiP rungs must have been abandoned *)
      Alcotest.(check bool)
        "recovered below the starved rungs" true
        (r.Pipeline.rung <> Pipeline.R_grip
        && r.Pipeline.rung <> Pipeline.R_grip_no_gap)

(* The first rung's error is surfaced: at the head of [descents], and
   in the first line [pp_descents] prints. *)
let test_first_error_surfaces () =
  match
    Pipeline.run_robust ~max_migrations:3 abc ~machine:(Machine.homogeneous 2)
  with
  | Error e -> Alcotest.failf "ladder should recover: %s" (Grip_error.to_string e)
  | Ok r -> (
      match r.Pipeline.descents with
      | ((Pipeline.R_grip, { Grip_error.cause = Grip_error.Fuel_exhausted _; _ })
         as first)
        :: _ ->
          let line = Format.asprintf "%a" Pipeline.pp_descents [ first ] in
          Alcotest.(check bool)
            ("printed first: " ^ line) true
            (String.starts_with ~prefix:line
               (Format.asprintf "%a" Pipeline.pp_descents r.Pipeline.descents))
      | _ -> Alcotest.fail "first descent should be GRiP fuel exhaustion")

(* Every rung — forced via [start] — must produce an oracle-equivalent,
   well-formed, resource-fitting program on every machine. *)
let test_every_rung_sound () =
  let machines =
    [ Machine.homogeneous 1; Machine.homogeneous 2; Machine.homogeneous 4;
      Machine.unlimited ]
  in
  List.iter
    (fun start ->
      List.iter
        (fun machine ->
          List.iter
            (fun k ->
              (* explicit horizon: the width-scaled default is enormous
                 on the unlimited machine *)
              match Pipeline.run_robust ~horizon:12 ~start k ~machine with
              | Error e ->
                  Alcotest.failf "%s from %s: %s" k.Kernel.name
                    (Pipeline.rung_name start) (Grip_error.to_string e)
              | Ok r ->
                  let p = r.Pipeline.program in
                  (match Grip.Speedup.verify k ~scheduled:p ~n:(r.Pipeline.horizon - 2) with
                  | Ok _ -> ()
                  | Error ms ->
                      Alcotest.failf "%s from %s won at %s yet fails oracle (%d)"
                        k.Kernel.name (Pipeline.rung_name start)
                        (Pipeline.rung_name r.Pipeline.rung) (List.length ms));
                  (match Guard.structural Grip_error.Validation p with
                  | None -> ()
                  | Some e -> Alcotest.failf "malformed: %s" (Grip_error.to_string e));
                  match Guard.resources Grip_error.Validation ~machine p with
                  | None -> ()
                  | Some e -> Alcotest.failf "overflow: %s" (Grip_error.to_string e))
            [ abc; abcdefg ])
        machines)
    Pipeline.ladder

(* The list-scheduled rolled rung on Livermore kernels with their own
   data generators: rolled_program must be semantics-preserving and
   resource-clean on real loop bodies, including a 1-wide machine that
   forces the split latch. *)
let test_list_rung_livermore () =
  List.iter
    (fun name ->
      let e = Option.get (Workloads.Livermore.find name) in
      let k = e.Workloads.Livermore.kernel in
      let data = e.Workloads.Livermore.data in
      List.iter
        (fun machine ->
          match
            Pipeline.run_robust ~start:Pipeline.R_list ~data k ~machine
          with
          | Error err ->
              Alcotest.failf "%s: %s" name (Grip_error.to_string err)
          | Ok r ->
              Alcotest.(check string)
                (name ^ " wins at list rung") "list-rolled"
                (Pipeline.rung_name r.Pipeline.rung);
              let m = Pipeline.measure_robust ~data r in
              if not (m.Grip.Speedup.speedup >= 0.99) then
                Alcotest.failf "%s list rung slower than sequential: %.2f" name
                  m.Grip.Speedup.speedup)
        [ Machine.homogeneous 1; Machine.homogeneous 3 ])
    [ "LL1"; "LL3"; "LL5"; "LL12" ]

(* -- properties ---------------------------------------------------------- *)

let gen_setup =
  QCheck.Gen.(
    let* width = int_range 1 5 in
    let* start = oneofl Pipeline.ladder in
    let* k = oneofl [ abc; abcdefg ] in
    return (width, start, k))

let print_setup (width, start, (k : Kernel.t)) =
  Printf.sprintf "width=%d start=%s kernel=%s" width (Pipeline.rung_name start)
    k.Kernel.name

let prop_ladder_never_miscompiles =
  QCheck.Test.make ~count:40 ~name:"run_robust result is always oracle-valid"
    (QCheck.make ~print:print_setup gen_setup)
    (fun (width, start, k) ->
      match
        Pipeline.run_robust ~horizon:12 ~start k
          ~machine:(Machine.homogeneous width)
      with
      | Error _ -> false
      | Ok r ->
          Grip.Speedup.verify k ~scheduled:r.Pipeline.program
            ~n:(r.Pipeline.horizon - 2)
          |> Result.is_ok
          && Vliw_ir.Wellformed.check r.Pipeline.program = [])

let gen_fault =
  QCheck.Gen.(
    let* seed = int_range 0 1000 in
    let* mode = oneofl Fault.all in
    let* width = int_range 2 4 in
    return (seed, mode, width))

let print_fault (seed, mode, width) =
  Printf.sprintf "seed=%d mode=%s width=%d" seed (Fault.mode_name mode) width

(* Injected fault => the guards catch it, or it is provably harmless:
   unobservable at every supported trip count AND structurally and
   resource-wise clean.  (A perturbed duplicate store, for instance,
   can be semantically neutral over the whole domain.)  [detected]
   already sweeps exactly that certificate, so the content of this
   property is that the sweep never crashes, never half-fires, and
   that undetected survivors really are invisible to every guard —
   while the fixed-seed smoke above pins down that concrete injections
   ARE caught. *)
let prop_injected_faults_caught =
  QCheck.Test.make ~count:40
    ~name:"injected faults are caught or provably harmless"
    (QCheck.make ~print:print_fault gen_fault)
    (fun (seed, mode, width) ->
      let machine = Machine.homogeneous width in
      let p = scheduled abcdefg ~machine in
      match Fault.inject ~seed ~max_iter:16 ~machine mode p with
      | Error _ -> true (* no applicable site on this machine *)
      | Ok _ ->
          detected abcdefg ~machine ~n:16 p
          || (Guard.structural Grip_error.Validation p = None
             && Guard.resources Grip_error.Validation ~machine p = None
             && List.for_all
                  (fun n ->
                    Result.is_ok (Grip.Speedup.verify abcdefg ~scheduled:p ~n))
                  (List.init 15 (fun i -> i + 2))))

(* POST's node breaking on this kernel used to loop forever: every
   demotion out of one node renamed the op and left a repair copy
   behind, so the node never shrank, yet each round counted as progress
   and another empty node was spliced above it.  A round that lowers no
   demand now raises [Resource_overflow], within the deadline: the
   POST rung's descent reports it, and the ladder falls to the list
   rung at once. *)
let livelock_kernel =
  Workloads.Synthetic.generate
    {
      Workloads.Synthetic.seed = 878764;
      n_ops = 7;
      n_arrays = 1;
      p_load = 0.338;
      p_store = 0.374;
      p_recurrence = 0.455;
    }

let test_post_break_livelock () =
  match
    Pipeline.run_robust ~horizon:10 ~deadline:5.0 ~start:Pipeline.R_post
      ~data:Workloads.Synthetic.data livelock_kernel
      ~machine:(Machine.homogeneous 2)
  with
  | Error e -> Alcotest.failf "ladder failed: %s" (Grip_error.to_string e)
  | Ok r -> (
      Alcotest.(check string) "lands on" "list-rolled"
        (Pipeline.rung_name r.Pipeline.rung);
      match r.Pipeline.descents with
      | [
       ( Pipeline.R_post,
         {
           Grip_error.stage = Grip_error.Scheduling;
           cause = Grip_error.Resource_overflow { width; _ };
           _;
         } );
      ] ->
          Alcotest.(check int) "width" 2 width
      | (_, e) :: _ ->
          Alcotest.failf "POST must give up on this kernel: %s"
            (Grip_error.to_string e)
      | [] -> Alcotest.fail "POST must give up on this kernel")

(* A horizon past the kernel's data: abc's arrays hold 64 elements, so
   every rung's final oracle faults at 98 iterations and the
   sequential rung wins.  Measuring it faults too, and must say so as a
   [Validation] error naming the kernel, the trip count and the fault,
   not as a simulator exception. *)
let test_horizon_past_data () =
  match
    Pipeline.run_robust ~horizon:100 abc ~machine:(Machine.homogeneous 2)
  with
  | Error e -> Alcotest.failf "ladder failed: %s" (Grip_error.to_string e)
  | Ok r -> (
      Alcotest.(check string) "lands on" "sequential"
        (Pipeline.rung_name r.Pipeline.rung);
      match Pipeline.measure_robust r with
      | _ -> Alcotest.fail "measuring past the data must fail"
      | exception
          Grip_error.Error
            {
              Grip_error.stage = Grip_error.Validation;
              kernel = Some "abc";
              cause = Grip_error.Message msg;
              _;
            } ->
          Alcotest.(check bool)
            ("trip count and fault named: " ^ msg)
            true
            (String.starts_with ~prefix:"simulating 86 iterations: out-of-bounds"
               msg))

(* The load-shed map: [level] rungs below the start, never past the
   sequential reference. *)
let test_descend_rung () =
  let name = Pipeline.rung_name in
  List.iter
    (fun start ->
      Alcotest.(check string) "level 0 keeps the start" (name start)
        (name (Pipeline.descend_rung start 0)))
    Pipeline.ladder;
  Alcotest.(check string) "GRiP, two down" "POST"
    (name (Pipeline.descend_rung Pipeline.R_grip 2));
  List.iter
    (fun (start, level) ->
      Alcotest.(check string)
        (Printf.sprintf "%s, %d down" (name start) level)
        "sequential"
        (name (Pipeline.descend_rung start level)))
    [
      (Pipeline.R_grip, 4); (Pipeline.R_grip, 9); (Pipeline.R_post, 2);
      (Pipeline.R_list, 7); (Pipeline.R_sequential, 1);
    ]

(* One driver: [Pipeline.run] is the unguarded case of the driver the
   ladder's pipelining rungs run guarded.  Whenever the start rung wins
   (no descents), its schedule and scheduler counters must be exactly
   what [run] produces for the same method.  Each rung still runs under
   a 5 s deadline: POST's node breaking once looped forever on a random
   kernel (the regression case above), and the deadline keeps any such
   defect from hanging the suite.  An abandoned start rung has nothing
   to tie. *)
let prop_run_is_unguarded_rung =
  QCheck2.Test.make ~count:10
    ~name:"run == winning rung of run_robust (guarded)"
    ~print:Synthetic_gen.print_spec Synthetic_gen.spec_gen (fun spec ->
      let kern = Workloads.Synthetic.generate spec in
      List.for_all
        (fun fus ->
          let machine = Machine.homogeneous fus in
          List.for_all
            (fun method_ ->
              let start = Pipeline.rung_of_method method_ in
              match
                Pipeline.run_robust ~horizon:10 ~deadline:5.0 ~start
                  ~data:Workloads.Synthetic.data kern ~machine
              with
              | Error _ -> false
              | Ok { Pipeline.descents = _ :: _; _ } ->
                  true (* the start rung was abandoned: nothing to tie *)
              | Ok r -> (
                  let o = Pipeline.run ~horizon:10 kern ~machine ~method_ in
                  match r.Pipeline.scheduled with
                  | None -> false
                  | Some won ->
                      r.Pipeline.rung = start
                      && Grip_serve.Cache.schedule_digest r.Pipeline.program
                         = Grip_serve.Cache.schedule_digest o.Pipeline.program
                      && won.Pipeline.stats = o.Pipeline.stats))
            [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])
        [ 2; 4; 8 ])

(* -- non-finite values --------------------------------------------------- *)

(* Two 64-op Synthetic kernels whose values go non-finite by 16 trips:
   seed 15838 leaves NaNs in its results, seed 39595 infinities.  Each
   rolled loop must agree with itself, and the ladder serves GRiP at
   every width, where an oracle that compared x - y against a tolerance
   failed every rung and served the sequential loop. *)
let non_finite seed =
  Workloads.Synthetic.generate
    { Workloads.Synthetic.default_spec with Workloads.Synthetic.n_ops = 64; seed }

let test_non_finite_self_equivalent () =
  List.iter
    (fun seed ->
      let k = non_finite seed in
      let rolled = (Kernel.rolled k).Builder.program in
      let init = Kernel.initial_state ~n:16 k ~data:Workloads.Synthetic.data in
      match
        Vliw_sim.Oracle.equivalent ~observable:k.Kernel.observable ~init rolled rolled
      with
      | Ok _ -> ()
      | Error ms ->
          Alcotest.failf "seed %d: %d mismatches, first %a" seed (List.length ms)
            Vliw_sim.Oracle.pp_mismatch (List.hd ms))
    [ 15838; 39595 ]

let test_non_finite_rungs () =
  List.iter
    (fun (seed, fus) ->
      match
        Pipeline.run_robust ~data:Workloads.Synthetic.data (non_finite seed)
          ~machine:(Machine.homogeneous fus)
      with
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d at %d FU" seed fus)
            "GRiP" (Pipeline.rung_name r.Pipeline.rung)
      | Error e -> Alcotest.failf "seed %d: %s" seed (Grip_error.to_string e))
    [ (15838, 2); (15838, 4); (15838, 8); (39595, 2); (39595, 4); (39595, 8) ]

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019";
  Alcotest.run "robust"
    [
      ( "errors",
        [
          Alcotest.test_case "rendering and guard" `Quick test_error_rendering;
        ] );
      ( "faults",
        Alcotest.test_case "deterministic site" `Quick test_fault_deterministic
        :: Alcotest.test_case "clean program passes" `Quick
             test_clean_program_passes
        :: List.map
             (fun mode ->
               Alcotest.test_case (Fault.mode_name mode) `Quick
                 (test_fault_caught mode))
             Fault.all );
      ( "ladder",
        [
          Alcotest.test_case "top rung wins" `Quick test_top_rung_wins;
          Alcotest.test_case "skip-gapless falls" `Quick test_skip_gapless_falls;
          Alcotest.test_case "fuel exhaustion falls" `Quick
            test_fuel_exhaustion_falls;
          Alcotest.test_case "no-fallback surfaces error" `Quick
            test_first_error_surfaces;
          Alcotest.test_case "every rung sound" `Slow test_every_rung_sound;
          Alcotest.test_case "list rung on Livermore" `Quick
            test_list_rung_livermore;
          Alcotest.test_case "POST node-breaking livelock" `Quick
            test_post_break_livelock;
          Alcotest.test_case "descend_rung saturates" `Quick test_descend_rung;
          Alcotest.test_case "horizon past the data" `Quick
            test_horizon_past_data;
          Alcotest.test_case "non-finite kernels equal themselves" `Quick
            test_non_finite_self_equivalent;
          Alcotest.test_case "non-finite kernels served GRiP" `Quick
            test_non_finite_rungs;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_ladder_never_miscompiles;
            prop_injected_faults_caught;
            prop_run_is_unguarded_rung;
          ] );
    ]
