(* Telemetry suite (lib/obs Runtime/Profile + the GC sampling in
   Grip_obs.timed):

   - per-phase allocation/collection deltas reconcile with the
     whole-run [Gc] counters (the `grip profile` sum law), every
     allocation read by the one exact reader
     ([Grip_obs.allocated_bytes]), which a phase of known allocation
     reads to within a few words;
   - a null observability handle records nothing (telemetry is pure
     on the default path);
   - the runtime-events consumer is an idempotent singleton, captures
     real GC spans with a calibrated wall clock, and its views are
     interval-correct on synthetic data;
   - the profile report itself is a pure function of collected data,
     checked against golden output. *)

module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Runtime = Grip_obs.Runtime
module Profile = Grip_obs.Profile
module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore

let entry name =
  match Livermore.find name with
  | Some e -> e
  | None -> Alcotest.failf "no built-in kernel %s" name

(* -- sum law ---------------------------------------------------------------- *)

(* Phase-attributed GC deltas must reconcile with the whole-run domain
   counters: phase windows are disjoint sub-intervals of the run, so
   their sums never exceed the run's own deltas, and on an
   allocation-heavy kernel the canonical phases are where the bytes
   actually go (well over half).  *)
let test_phase_deltas_reconcile () =
  let e = entry "LL5" in
  let machine = Machine.homogeneous 4 in
  let metrics = Metrics.create () in
  let obs = Obs.make ~metrics () in
  let q0 = Gc.quick_stat () in
  let a0 = Obs.allocated_bytes () in
  let o = Pipeline.run ~obs e.Livermore.kernel ~machine ~method_:Pipeline.Grip in
  let _ = Pipeline.measure ~obs ~data:e.Livermore.data o in
  let a1 = Obs.allocated_bytes () in
  let q1 = Gc.quick_stat () in
  let sum name =
    List.fold_left
      (fun acc p -> acc + Metrics.counter metrics (name ^ p))
      0 Profile.canonical_phases
  in
  let alloc_sum = sum "gc.alloc_bytes.phase." in
  let total = a1 -. a0 in
  Alcotest.(check bool)
    "phases allocated something" true
    (alloc_sum > 1024);
  Alcotest.(check bool)
    "phase alloc never exceeds the run's" true
    (float_of_int alloc_sum <= total +. 1024.0);
  Alcotest.(check bool)
    (Printf.sprintf "phase alloc covers most of the run (%d of %.0f)"
       alloc_sum total)
    true
    (float_of_int alloc_sum >= 0.5 *. total);
  let minor_sum = sum "gc.minor.phase." in
  let major_sum = sum "gc.major.phase." in
  Alcotest.(check bool)
    "phase minor collections within the run's" true
    (minor_sum <= q1.Gc.minor_collections - q0.Gc.minor_collections);
  Alcotest.(check bool)
    "phase major collections within the run's" true
    (major_sum <= q1.Gc.major_collections - q0.Gc.major_collections);
  Alcotest.(check bool)
    "top-heap gauge sampled" true
    (Metrics.gauge metrics "gc.top_heap_words" > 0.0)

(* A [timed] phase that allocates 1,000 conses (three words each,
   24,000 bytes) reads that much, give or take the reader's own few
   words, wherever the minor collections fall. *)
let test_timed_alloc_exact () =
  let metrics = Metrics.create () in
  let obs = Obs.make ~metrics () in
  let keep = ref [] in
  ignore
    (Obs.timed obs (Trace.Stage "conses") (fun () ->
         for i = 1 to 1000 do
           keep := i :: !keep
         done));
  Alcotest.(check int) "kept" 1000 (List.length !keep);
  let got = Metrics.counter metrics "gc.alloc_bytes.phase.conses" in
  Alcotest.(check bool)
    (Printf.sprintf "1,000 conses read %d bytes, within 1 KB of 24,000" got)
    true
    (abs (got - 24_000) <= 1024)

(* The default (null) handle must stay pure: no counters, no gauges,
   no per-phase GC entries appear anywhere. *)
let test_null_obs_records_nothing () =
  let e = entry "LL1" in
  let machine = Machine.homogeneous 2 in
  let o = Pipeline.run e.Livermore.kernel ~machine ~method_:Pipeline.Grip in
  ignore (Pipeline.measure ~data:e.Livermore.data o);
  List.iter
    (fun p ->
      Alcotest.(check int)
        ("no gc counter for " ^ p)
        0
        (Metrics.counter Metrics.disabled ("gc.alloc_bytes.phase." ^ p)))
    Profile.canonical_phases;
  Alcotest.(check (float 0.0))
    "no gauge" 0.0
    (Metrics.gauge Metrics.disabled "gc.top_heap_words")

(* -- runtime-events consumer ------------------------------------------------ *)

let test_runtime_consumer_lifecycle () =
  let rt1 = Runtime.start () in
  let rt2 = Runtime.start () in
  Alcotest.(check bool) "start is idempotent" true (rt1 == rt2);
  Runtime.stop rt1;
  Runtime.stop rt1;
  (* stop is idempotent *)
  let rt3 = Runtime.start () in
  Alcotest.(check bool) "fresh consumer after stop" true (rt3 != rt1);
  Alcotest.(check bool) "clock calibrated" true (Runtime.calibrated rt3);
  (* force collections so spans exist regardless of machine speed *)
  let junk = ref [] in
  for i = 0 to 200_000 do
    junk := (i, string_of_int i) :: !junk;
    if i mod 50_000 = 0 then junk := []
  done;
  Gc.minor ();
  Gc.full_major ();
  Runtime.poll rt3;
  let spans = Runtime.spans rt3 in
  Alcotest.(check bool) "GC spans captured" true (spans <> []);
  Alcotest.(check bool)
    "spans are well-formed wall intervals" true
    (let now = Unix.gettimeofday () in
     List.for_all
       (fun (s : Runtime.span) ->
         s.Runtime.t1 >= s.Runtime.t0
         && s.Runtime.t0 > now -. 3600.0
         && s.Runtime.t1 <= now +. 1.0
         && (s.Runtime.kind = "minor" || s.Runtime.kind = "major"))
       spans);
  (* emitting the consumer's view through a null tracer is inert *)
  List.iter
    (fun (_, ev) -> Trace.emit Trace.null ev)
    (Runtime.trace_events rt3);
  Runtime.stop rt3

(* Synthetic consumer state: interval views must union overlapping
   spans (simultaneous stop-the-world slices on several domains count
   once) and clip to the asked window. *)
let synthetic spans_mono =
  {
    Runtime.cursor = None;
    callbacks = None;
    open_spans = Hashtbl.create 0;
    spans_mono = List.rev spans_mono;
    marks_mono = [];
    lost = 0;
    offset = 0.0;
    epoch_wall = 0.0;
  }

let test_runtime_interval_views () =
  let rt =
    synthetic [ (0, "minor", 1.0, 1.2); (1, "minor", 1.1, 1.3);
                (0, "major", 2.0, 2.05) ]
  in
  Alcotest.(check (float 1e-9))
    "overlap unions simultaneous spans" 0.3
    (Runtime.gc_overlap rt ~t0:1.0 ~t1:2.0);
  Alcotest.(check (float 1e-9))
    "overlap clips to the window" 0.15
    (Runtime.gc_overlap rt ~t0:1.15 ~t1:1.9);
  Alcotest.(check (float 1e-9))
    "max pause finds the longest overlapping span" 0.2
    (Runtime.max_pause rt ~t0:0.0 ~t1:10.0);
  Alcotest.(check (float 1e-9))
    "max pause respects the window" 0.05
    (Runtime.max_pause rt ~t0:1.9 ~t1:10.0);
  let mi, ma = Runtime.gc_seconds rt ~domain:0 in
  Alcotest.(check (float 1e-9)) "minor seconds per domain" 0.2 mi;
  Alcotest.(check (float 1e-9)) "major seconds per domain" 0.05 ma;
  let mi, _ = Runtime.gc_seconds ~window:(1.1, 1.15) rt ~domain:0 in
  Alcotest.(check (float 1e-9)) "windowed seconds clip" 0.05 mi;
  Alcotest.(check (list int)) "domains" [ 0; 1 ] (Runtime.domains rt);
  Alcotest.(check int)
    "trace events cover every span" 3
    (List.length (Runtime.trace_events rt));
  Alcotest.(check int)
    "per-domain filter" 2
    (List.length (Runtime.trace_events ~domain:0 rt))

(* -- profile rendering ------------------------------------------------------ *)

let test_phase_windows () =
  let ev ts e = (ts, e) in
  let events =
    [
      ev 1.0 (Trace.Span_begin (Trace.Stage "rung:grip"));
      ev 1.0 (Trace.Span_begin Trace.Unwind);
      ev 2.0 (Trace.Span_end Trace.Unwind);
      ev 2.0 (Trace.Span_begin Trace.Schedule);
      ev 5.0 (Trace.Span_end Trace.Schedule);
      ev 5.0 (Trace.Span_end (Trace.Stage "rung:grip"));
      ev 6.0 (Trace.Span_begin Trace.Schedule);
      ev 7.0 (Trace.Span_end Trace.Schedule);
    ]
  in
  let windows = Profile.phase_windows events in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "unwind window" [ (1.0, 2.0) ]
    (List.assoc "unwind" windows);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "schedule windows accumulate" [ (2.0, 5.0); (6.0, 7.0) ]
    (List.assoc "schedule" windows);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "stage span recovered too" [ (1.0, 5.0) ]
    (List.assoc "rung:grip" windows)

(* Golden render: canned registry + windows + spans in, exact report
   out.  Locks the `grip profile` output format. *)
let test_profile_golden () =
  let metrics = Metrics.create () in
  Metrics.add_time metrics "phase.unwind" 0.5;
  Metrics.add metrics "gc.alloc_bytes.phase.unwind" 1048576;
  Metrics.add metrics "gc.minor.phase.unwind" 2;
  Metrics.add_time metrics "phase.schedule" 1.25;
  Metrics.add metrics "gc.alloc_bytes.phase.schedule" 524288;
  Metrics.add metrics "gc.minor.phase.schedule" 1;
  Metrics.add metrics "gc.major.phase.schedule" 1;
  let windows = [ ("unwind", [ (10.0, 10.5) ]); ("schedule", [ (10.5, 11.75) ]) ] in
  let spans =
    [
      { Runtime.domain = 0; kind = "minor"; t0 = 10.1; t1 = 10.102 };
      { Runtime.domain = 0; kind = "major"; t0 = 11.0; t1 = 11.004 };
    ]
  in
  let rows = Profile.rows ~metrics ~windows ~spans in
  Alcotest.(check int) "two phases reported" 2 (List.length rows);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Profile.pp_rows ppf rows;
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "phase table golden"
    "phase           wall(s)      alloc   minor   major    max pause\n\
     unwind           0.5000      1.0MB       2       0     2.000ms\n\
     schedule         1.2500    512.0KB       1       1     4.000ms\n\
     TOTAL            1.7500      1.5MB       3       1     4.000ms\n"
    (Buffer.contents buf);
  Buffer.clear buf;
  Profile.pp_efficiency ppf ~jobs:2 ~wall_s:2.0
    [
      { Profile.domain = 0; label = "main"; busy_s = 1.5; gc_s = 0.25 };
      { Profile.domain = 1; label = "worker"; busy_s = 1.0; gc_s = 0.35 };
    ];
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "efficiency block golden"
    "parallel efficiency (jobs=2, wall 2.0000s):\n\
    \  domain 0 (main): busy 1.5000s (75.0%)  gc 0.2500s (12.5%)\n\
    \  domain 1 (worker): busy 1.0000s (50.0%)  gc 0.3500s (17.5%)\n\
    \  GC barrier estimate: 0.6000s domain-seconds stopped (15.0% of 2 x wall)\n"
    (Buffer.contents buf)

(* The per-cell gc block of the bench artifact, as
   [Bench_artifact.measure_gc] builds it from whole-call [Gc] deltas:
   it survives a JSON round-trip with every member a finite number,
   and sees the call's allocation. *)
let test_bench_gc_block_shape () =
  let module Json = Obs.Json in
  let n, gc =
    Grip.Bench_artifact.measure_gc (fun () ->
        List.length (List.init 100_000 string_of_int))
  in
  Alcotest.(check int) "the call's own result" 100_000 n;
  match Json.parse (Json.to_string gc) with
  | Error e -> Alcotest.failf "gc block unparseable: %s" e
  | Ok (Json.Obj members as doc) ->
      Alcotest.(check int) "four members" 4 (List.length members);
      List.iter
        (fun (field, v) ->
          match Json.to_float v with
          | Some x ->
              Alcotest.(check bool) (field ^ " is a finite number") true
                (Float.is_finite x)
          | None -> Alcotest.failf "gc block member %s is not a number" field)
        members;
      Alcotest.(check bool)
        "allocation observed" true
        (Option.get (Option.bind (Json.member "alloc_bytes" doc) Json.to_float)
        > 0.0)
  | Ok _ -> Alcotest.fail "gc block is not an object"

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "phase deltas reconcile" `Quick
            test_phase_deltas_reconcile;
          Alcotest.test_case "timed allocation is exact" `Quick
            test_timed_alloc_exact;
          Alcotest.test_case "null obs records nothing" `Quick
            test_null_obs_records_nothing;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "consumer lifecycle" `Quick
            test_runtime_consumer_lifecycle;
          Alcotest.test_case "interval views" `Quick
            test_runtime_interval_views;
        ] );
      ( "report",
        [
          Alcotest.test_case "phase windows" `Quick test_phase_windows;
          Alcotest.test_case "golden render" `Quick test_profile_golden;
          Alcotest.test_case "bench gc block shape" `Quick
            test_bench_gc_block_shape;
        ] );
    ]
