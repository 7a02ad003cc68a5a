(* Observability subsystem: JSON encoding/parsing, metrics, trace
   sinks, and the invariant that ties them to the schedulers — the
   provenance journal's hops, suspensions and barriers replay exactly
   to the scheduler's own counters and to the registry, across ladder
   descents too — and the trace budget: every Table 1 cell, traced
   through the guarded pipeline, fits the default ring.  Also the
   bench artifact diff
   (regressions, missing cells, work and counter-skew reports), the
   artifact's validator on mutated artifacts, and
   the work counters the pipeline reports: one graph-order walk per
   shape version, and the dominator cache. *)

module Obs = Grip_obs
module Json = Grip_obs.Json
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Pipeline = Grip.Pipeline
module Scheduler = Grip.Scheduler
module Post = Grip.Post
module Kernel = Grip.Kernel
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore

let kernel name = (Option.get (Livermore.find name)).Livermore.kernel

(* -- Json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Str "x\"y\\z\n\t");
        ("c", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty", Json.Obj []);
        ("unicode", Json.Str "caf\xc3\xa9");
        ("neg", Json.int (-42));
      ]
  in
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty v) with
      | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | Error e -> Alcotest.failf "roundtrip parse failed: %s" e)
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing" ]

let test_json_escapes () =
  match Json.parse {|"aAé😀b"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "unicode escapes" "aA\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* Documented failure modes of the string-escape parser: a truncated
   [\u] escape (fewer than four hex digits before the closing quote)
   and an escape character outside JSON's repertoire. *)
let test_json_escape_failures () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid escape %S" s
      | Error _ -> ())
    [ {|"\u12"|}; {|"\u123"|}; {|"\uzzzz"|}; {|"\x41"|}; {|"\q"|} ]

(* Round-trip property: any value the renderer can represent exactly
   parses back to itself, pretty or compact.  The generator sticks to
   numbers with exact decimal renderings — integers and dyadic
   fractions k/2^m — because [Num] carries a float and %.12g is only
   guaranteed lossless for those; strings draw from the full byte
   range, so control characters exercise the \u escape path and high
   bytes the raw UTF-8 pass-through. *)
let json_gen =
  QCheck2.Gen.(
    let scalar =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map Json.int (int_range (-1_000_000) 1_000_000);
          map
            (fun (k, m) -> Json.Num (float_of_int k /. float_of_int (1 lsl m)))
            (pair (int_range (-4096) 4096) (int_range 0 8));
          map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 12));
        ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 ( 1,
                   map
                     (fun xs -> Json.List xs)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4)
                        (pair (string_size ~gen:char (int_bound 8)) (self (n / 2))))
                 );
               ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:200
    ~print:(fun v -> Json.to_string ~pretty:true v)
    json_gen
    (fun v ->
      List.for_all
        (fun pretty -> Json.parse (Json.to_string ~pretty v) = Ok v)
        [ false; true ])

(* -- Metrics -------------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.incr m "y";
  Alcotest.(check int) "x" 5 (Metrics.counter m "x");
  Alcotest.(check int) "y" 1 (Metrics.counter m "y");
  Alcotest.(check int) "absent" 0 (Metrics.counter m "z");
  (* disabled registry records nothing *)
  Metrics.incr Metrics.disabled "x";
  Alcotest.(check int) "disabled" 0 (Metrics.counter Metrics.disabled "x")

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (fun v -> Metrics.observe m "h" v) [ 0; 1; 1; 3; 100; 1000 ];
  Metrics.observe_n m "h" 3 2;
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "n" 8 (Obs.Hdr.count h);
      Alcotest.(check int) "sum" 1111 h.Obs.Hdr.sum;
      Alcotest.(check int) "max" 1000 (Obs.Hdr.max_value h);
      (* below 128 one bucket per value; 1000 in its 8-wide sub-bucket *)
      Alcotest.(check (list (triple int int int)))
        "buckets"
        [ (0, 0, 1); (1, 1, 2); (3, 3, 3); (100, 100, 1); (1000, 1007, 1) ]
        (Obs.Hdr.buckets h)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.observe m "h" 3;
  Metrics.add_time m "t" 0.25;
  let j = Metrics.to_json m in
  let member path =
    List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some j) path
  in
  Alcotest.(check (option (float 1e-9)))
    "counter" (Some 1.0)
    (Option.bind (member [ "counters"; "c" ]) Json.to_float);
  Alcotest.(check (option (float 1e-9)))
    "time" (Some 0.25)
    (Option.bind (member [ "times"; "t" ]) Json.to_float);
  Alcotest.(check bool)
    "histogram present" true
    (member [ "histograms"; "h" ] <> None);
  (* and the dump itself is valid JSON text *)
  match Json.parse (Json.to_string ~pretty:true j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics dump unparseable: %s" e

(* -- Metrics.merge laws --------------------------------------------------- *)

(* Distinct per-seed registries with overlapping and disjoint names.
   Times use power-of-two fractions so float addition is exact and the
   associativity check is not at the mercy of rounding. *)
let sample_registry seed =
  let m = Metrics.create () in
  Metrics.add m "shared" seed;
  Metrics.incr m (Printf.sprintf "only.%d" seed);
  Metrics.add_time m "t.shared" (0.25 *. float_of_int seed);
  Metrics.add_time m (Printf.sprintf "t.%d" seed) 0.5;
  Metrics.gauge_set m "g.shared" (float_of_int seed);
  Metrics.gauge_max m (Printf.sprintf "g.%d" seed) 1.0;
  List.iter (Metrics.observe m "h") [ seed; seed * 2; 7; 1000 * seed ];
  m

let dump m = Json.to_string ~pretty:true (Metrics.to_json m)

(* [merged rs] — a fresh registry with [rs] folded in left to right. *)
let merged rs =
  let m = Metrics.create () in
  List.iter (fun r -> Metrics.merge ~into:m r) rs;
  m

let test_metrics_merge_commutative () =
  let a = sample_registry 1 and b = sample_registry 2 in
  Alcotest.(check string) "a+b = b+a" (dump (merged [ a; b ])) (dump (merged [ b; a ]));
  (* and the combination is an actual sum, not a replacement *)
  let ab = merged [ a; b ] in
  Alcotest.(check int) "counters add" 3 (Metrics.counter ab "shared");
  Alcotest.(check (float 1e-12)) "times add" 0.75 (Metrics.time ab "t.shared");
  Alcotest.(check (float 0.0)) "gauges keep the max" 2.0
    (Metrics.gauge ab "g.shared");
  match Metrics.histogram ab "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      Alcotest.(check int) "hist n adds" 8 (Obs.Hdr.count h);
      Alcotest.(check int) "hist max" 2000 (Obs.Hdr.max_value h)

let test_metrics_merge_associative () =
  let a = sample_registry 1 and b = sample_registry 2 and c = sample_registry 3 in
  Alcotest.(check string) "(a+b)+c = a+(b+c)"
    (dump (merged [ merged [ a; b ]; c ]))
    (dump (merged [ a; merged [ b; c ] ]))

(* Registries drawn at random, merged in any order, dump the same as
   one registry that recorded every observation.  Histogram values are
   drawn inside the exact region, far above it and past the saturation
   bound. *)
type recorded = Count of string * int | Observe of string * int

let record m = function
  | Count (name, k) -> Metrics.add m name k
  | Observe (name, v) -> Metrics.observe m name v

let registry_of events =
  let m = Metrics.create () in
  List.iter (record m) events;
  m

let prop_metrics_merge_any_order =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let value =
    oneof [ int_range 0 127; int_range 128 100_000; int_range 0 (1 lsl 31) ]
  in
  let event =
    oneof
      [
        map2 (fun n k -> Count (n, k)) name (int_range 1 5);
        map2 (fun n v -> Observe (n, v)) name value;
      ]
  in
  let gen =
    let* groups = list_size (int_range 1 6) (list_size (int_range 0 20) event) in
    let* order = shuffle_l groups in
    return (groups, order)
  in
  let show groups =
    String.concat " | "
      (List.map
         (fun g ->
           String.concat ","
             (List.map
                (function
                  | Count (n, k) -> Printf.sprintf "%s+%d" n k
                  | Observe (n, v) -> Printf.sprintf "%s:%d" n v)
                g))
         groups)
  in
  let print (groups, order) = show groups ^ " merged as " ^ show order in
  QCheck2.Test.make ~name:"merge in any order == one registry" ~count:200
    ~print gen (fun (groups, order) ->
      let whole = dump (registry_of (List.concat groups)) in
      let regs = List.map registry_of order in
      let half = List.length regs / 2 in
      let front = List.filteri (fun i _ -> i < half) regs
      and back = List.filteri (fun i _ -> i >= half) regs in
      dump (merged regs) = whole
      && dump (merged [ merged back; merged front ]) = whole)

(* Gauge semantics: [gauge_set] is last-write-wins within a registry,
   [gauge_max] a high-water mark, merge keeps the max across
   registries, the disabled registry records nothing, and the JSON
   dump carries a gauges object. *)
let test_metrics_gauges () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "unset gauge reads 0" 0.0 (Metrics.gauge m "g");
  Metrics.gauge_set m "g" 5.0;
  Metrics.gauge_set m "g" 3.0;
  Alcotest.(check (float 0.0)) "set replaces" 3.0 (Metrics.gauge m "g");
  Metrics.gauge_max m "g" 2.0;
  Alcotest.(check (float 0.0)) "max keeps higher reading" 3.0
    (Metrics.gauge m "g");
  Metrics.gauge_max m "g" 7.0;
  Alcotest.(check (float 0.0)) "max advances" 7.0 (Metrics.gauge m "g");
  Metrics.gauge_set Metrics.disabled "g" 9.0;
  Alcotest.(check (float 0.0)) "disabled registry records nothing" 0.0
    (Metrics.gauge Metrics.disabled "g");
  let other = Metrics.create () in
  Metrics.gauge_set other "g" 4.0;
  Metrics.merge ~into:other m;
  Alcotest.(check (float 0.0)) "merge keeps max" 7.0 (Metrics.gauge other "g");
  match Json.member "gauges" (Metrics.to_json m) with
  | Some (Json.Obj [ ("g", Json.Num v) ]) ->
      Alcotest.(check (float 0.0)) "json gauge value" 7.0 v
  | _ -> Alcotest.fail "gauges object missing from metrics dump"

let test_metrics_merge_disabled () =
  let a = sample_registry 1 in
  let before = dump a in
  Metrics.merge ~into:a Metrics.disabled;
  Alcotest.(check string) "disabled source is a no-op" before (dump a);
  Metrics.merge ~into:Metrics.disabled a;
  Alcotest.(check int) "disabled sink records nothing" 0
    (Metrics.counter Metrics.disabled "shared")

(* Once a name's cell exists, an event allocates nothing. *)
let test_metrics_no_alloc () =
  let m = Metrics.create () in
  Metrics.add m "test.alloc.named" 1;
  Metrics.observe m "test.alloc.named_h" 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Metrics.add m "test.alloc.named" 1;
    Metrics.observe m "test.alloc.named_h" (i land 127)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 20,000 events" 0.0 words;
  Alcotest.(check int) "named counter" 10_001
    (Metrics.counter m "test.alloc.named");
  match Metrics.histogram m "test.alloc.named_h" with
  | Some hist ->
      Alcotest.(check int) "named histogram" 10_001 (Obs.Hdr.count hist)
  | None -> Alcotest.fail "named histogram missing"

(* -- provenance journals --------------------------------------------------- *)

module Provenance = Obs.Provenance

(* Recorder mechanics, in isolation: a journal is keyed by its
   operation's id and keeps the node it was first seen at, views come
   back oldest-first, and the blocker ranking counts Dep rejections per
   blamed operation. *)
let test_provenance_journal_by_id () =
  let p = Provenance.create () in
  Provenance.record_hop p ~op:5 ~from_:1 ~to_:2 ~rule:Provenance.Move_op;
  Provenance.record_hop p ~op:5 ~from_:2 ~to_:3 ~rule:Provenance.Move_cj;
  Provenance.record_reject p ~op:5 ~node:3 (Provenance.Dep 4);
  Provenance.record_reject p ~op:5 ~node:3 (Provenance.Dep 4);
  Provenance.record_reject p ~op:9 ~node:7 (Provenance.Dep 2);
  Alcotest.(check (list int)) "one journal per op id, by id" [ 5; 9 ]
    (List.map (fun j -> j.Provenance.id) (Provenance.journals p));
  (match Provenance.journal p 5 with
  | None -> Alcotest.fail "journal of op 5 missing"
  | Some j ->
      Alcotest.(check int) "origin" 1 j.Provenance.origin;
      (match Provenance.journey j with
      | [ h1; h2 ] ->
          Alcotest.(check (list (pair int int)))
            "hops oldest-first" [ (1, 2); (2, 3) ]
            [ (h1.Provenance.from_, h1.Provenance.to_);
              (h2.Provenance.from_, h2.Provenance.to_) ];
          Alcotest.(check bool)
            "rules recorded" true
            (h1.Provenance.rule = Provenance.Move_op
            && h2.Provenance.rule = Provenance.Move_cj)
      | hops -> Alcotest.failf "expected 2 hops, got %d" (List.length hops));
      Alcotest.(check int) "rejections" 2
        (List.length (Provenance.rejections j)));
  (match Provenance.journal p 9 with
  | None -> Alcotest.fail "journal of op 9 missing"
  | Some j ->
      Alcotest.(check int) "origin of a rejection-only journal" 7
        j.Provenance.origin;
      Alcotest.(check int) "no hops" 0 (List.length (Provenance.journey j)));
  Alcotest.(check int) "total hops" 2 (Provenance.total_hops p);
  Alcotest.(check int) "total deps" 3 (Provenance.total_deps p);
  Alcotest.(check (list (pair int int)))
    "blockers ranked" [ (4, 2); (2, 1) ] (Provenance.blockers p)

let test_provenance_null_inert () =
  Provenance.record_hop Provenance.null ~op:1 ~from_:0 ~to_:1
    ~rule:Provenance.Move_op;
  Provenance.record_reject Provenance.null ~op:1 ~node:0 Provenance.Fuel;
  Alcotest.(check bool) "disabled" false (Provenance.enabled Provenance.null);
  Alcotest.(check int) "no journals" 0
    (List.length (Provenance.journals Provenance.null));
  Alcotest.(check int) "no hops" 0 (Provenance.total_hops Provenance.null);
  Alcotest.(check bool) "no fuel" false (Provenance.fuel_hit Provenance.null)

(* The replay invariant, journal edition: scheduling with provenance
   and metrics enabled, the journal-derived totals must equal both the
   scheduler's own counters and the metrics registry — hops,
   suspensions and resource barriers are recorded at the very sites
   that bump the counters, so any divergence is a lost or duplicated
   record.  POST's phase 2 moves operations outside Migrate, so its
   journals account for phase 1. *)
let check_prov_replay name method_ fu =
  let prov = Provenance.create () in
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m ~prov () in
  let o =
    Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous fu) ~method_
  in
  let ctx = Printf.sprintf "%s/%s/%dFU" name (Pipeline.method_name method_) fu in
  let expect (s : Scheduler.stats) =
    Alcotest.(check int) (ctx ^ " hops") s.Scheduler.hops
      (Provenance.total_hops prov);
    Alcotest.(check int)
      (ctx ^ " suspensions") s.Scheduler.suspensions
      (Provenance.total_suspensions prov);
    Alcotest.(check int)
      (ctx ^ " barriers") s.Scheduler.resource_barrier_events
      (Provenance.total_barriers prov);
    Alcotest.(check int)
      (ctx ^ " hops = metrics")
      (Metrics.counter m "scheduler.hops")
      (Provenance.total_hops prov);
    Alcotest.(check int)
      (ctx ^ " suspensions = metrics")
      (Metrics.counter m "scheduler.suspensions")
      (Provenance.total_suspensions prov);
    Alcotest.(check int)
      (ctx ^ " barriers = metrics")
      (Metrics.counter m "scheduler.barriers")
      (Provenance.total_barriers prov);
    Alcotest.(check bool) (ctx ^ " journaled work") true
      (Provenance.total_hops prov > 0)
  in
  (match o.Pipeline.stats with
  | Pipeline.Grip_stats s -> expect s
  | Pipeline.Post_stats s -> expect s.Post.phase1
  | Pipeline.Unifiable_stats _ -> Alcotest.fail "unexpected Unifiable stats");
  Alcotest.(check bool)
    (ctx ^ " fuel agrees") o.Pipeline.fuel_exhausted
    (Provenance.fuel_hit prov)

let prov_replay_cases =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun fu ->
          List.map
            (fun m ->
              let label =
                Printf.sprintf "journal replay %s %s %dFU" name
                  (Pipeline.method_name m) fu
              in
              Alcotest.test_case label `Slow (fun () ->
                  check_prov_replay name m fu))
            [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])
        [ 2; 4 ])
    [ "LL1"; "LL5" ]

(* A rung that a guard abandons after its schedule phase has published
   its counts: over a guarded run whose GRiP and no-gap rungs run out
   of fuel, the registry's hops, suspensions and barriers equal the
   journal's totals over every rung, and its migrations those of
   standalone runs of each rung under the same budget. *)
let test_registry_across_descents () =
  let prov = Provenance.create () in
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m ~prov () in
  let k = kernel "LL1" and machine = Machine.homogeneous 2 in
  let r =
    Result.get_ok (Pipeline.run_robust ~obs ~max_migrations:50 k ~machine)
  in
  Alcotest.(check (list string)) "fuel abandoned GRiP and no-gap"
    [ "GRiP"; "GRiP(no-gap)" ]
    (List.map (fun (rung, _) -> Pipeline.rung_name rung) r.Pipeline.descents);
  Alcotest.(check string) "POST won" "POST" (Pipeline.rung_name r.Pipeline.rung);
  let migrations method_ =
    match (Pipeline.run ~max_migrations:50 k ~machine ~method_).Pipeline.stats with
    | Pipeline.Grip_stats s -> s.Scheduler.migrations
    | Pipeline.Post_stats s -> s.Post.phase1.Scheduler.migrations
    | Pipeline.Unifiable_stats _ -> Alcotest.fail "unexpected Unifiable stats"
  in
  Alcotest.(check int) "migrations"
    (List.fold_left
       (fun acc m -> acc + migrations m)
       0
       [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])
    (Metrics.counter m "scheduler.migrations");
  Alcotest.(check int) "hops" (Provenance.total_hops prov)
    (Metrics.counter m "scheduler.hops");
  Alcotest.(check int) "suspensions" (Provenance.total_suspensions prov)
    (Metrics.counter m "scheduler.suspensions");
  Alcotest.(check int) "barriers" (Provenance.total_barriers prov)
    (Metrics.counter m "scheduler.barriers")

(* -- merged-trace replay (the parallel-harness invariant) ------------------ *)

(* Each task of a parallel batch records into a private ring buffer;
   the harness concatenates and time-sorts them.  The merged timeline
   must still be a lossless account: it holds every event of both
   rings, in time order, and its spans reconstruct each phase's count
   over the runs, each begin matched by its end. *)
let test_merged_trace_replay () =
  let run name =
    let ring, tracer = Trace.ring () in
    let obs = Obs.make ~trace:tracer () in
    ignore
      (Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous 2)
         ~method_:Pipeline.Grip);
    Alcotest.(check int) "ring did not overflow" 0 (Trace.ring_dropped ring);
    Trace.ring_events ring
  in
  let e1 = run "LL1" and e2 = run "LL5" in
  let merged = Trace.merge_events [ e1; e2 ] in
  Alcotest.(check int)
    "merge loses nothing"
    (List.length e1 + List.length e2)
    (List.length merged);
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merged timeline is time-ordered" true (sorted merged);
  let spans p edge events =
    List.length
      (List.filter
         (fun (_, ev) ->
           match (edge, ev) with
           | `B, Trace.Span_begin q | `E, Trace.Span_end q -> q = p
           | _ -> false)
         events)
  in
  List.iter
    (fun p ->
      let name = Trace.phase_name p in
      Alcotest.(check int) (name ^ " spans") 2 (spans p `B merged);
      Alcotest.(check int) (name ^ " spans closed") 2 (spans p `E merged))
    [ Trace.Unwind; Trace.Redundancy; Trace.Schedule; Trace.Converge ]

(* -- null sink changes nothing -------------------------------------------- *)

let test_null_sink_purity () =
  let run obs =
    let o =
      Pipeline.run ~obs (kernel "LL1") ~machine:(Machine.homogeneous 2)
        ~method_:Pipeline.Grip
    in
    let m = Pipeline.measure ~obs o in
    (Grip.Schedule_table.render o.Pipeline.program, m.Grip.Speedup.speedup)
  in
  let table_null, speedup_null = run Obs.null in
  let _, tracer = Trace.ring () in
  let table_traced, speedup_traced =
    run (Obs.make ~trace:tracer ~metrics:(Metrics.create ()) ())
  in
  Alcotest.(check string) "same schedule" table_null table_traced;
  Alcotest.(check (float 1e-9)) "same speedup" speedup_null speedup_traced;
  (* provenance journaling must be just as pure an observer *)
  let table_prov, speedup_prov =
    run (Obs.make ~prov:(Provenance.create ()) ())
  in
  Alcotest.(check string) "same schedule with journals" table_null table_prov;
  Alcotest.(check (float 1e-9))
    "same speedup with journals" speedup_null speedup_prov

(* -- Chrome rendering ------------------------------------------------------ *)

(* One track of ring events as a complete Chrome document. *)
let chrome events =
  Trace.chrome_tracks [ { Trace.tid = 1; label = "main"; events } ]

(* The trace-event records of a document, less its metadata ("M")
   records. *)
let event_records = function
  | Json.List records ->
      List.filter
        (fun r -> Option.bind (Json.member "ph" r) Json.to_str <> Some "M")
        records
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_chrome_sink_valid () =
  let r, tracer = Trace.ring () in
  let obs = Obs.make ~trace:tracer () in
  let o =
    Pipeline.run ~obs (kernel "LL1") ~machine:(Machine.homogeneous 2)
      ~method_:Pipeline.Grip
  in
  ignore (Pipeline.measure ~obs o);
  match Json.parse (chrome (Trace.ring_events r)) with
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  | Ok doc ->
      let records = event_records doc in
      Alcotest.(check bool) "non-empty" true (records <> []);
      let phases = Hashtbl.create 8 in
      List.iter
        (fun r ->
          (match Option.bind (Json.member "ph" r) Json.to_str with
          | Some ph -> Hashtbl.replace phases ph ()
          | None -> Alcotest.fail "record without ph");
          if Json.member "name" r = None then
            Alcotest.fail "record without name";
          if Option.bind (Json.member "ts" r) Json.to_float = None then
            Alcotest.fail "record without numeric ts")
        records;
      List.iter
        (fun ph ->
          Alcotest.(check bool) ("has ph=" ^ ph) true (Hashtbl.mem phases ph))
        [ "B"; "E" ]

(* -- ring truncation is observable ----------------------------------------- *)

(* A ring past capacity must say how much it overwrote (the CLI turns
   this into a truncation warning) and keep exactly the newest
   [capacity] events, oldest-first. *)
let test_ring_truncation () =
  let stage id = Trace.Request_stage { id; stage = "received" } in
  let r, tracer = Trace.ring ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tracer (stage i)
  done;
  Alcotest.(check int) "dropped" 6 (Trace.ring_dropped r);
  let survivors =
    List.filter_map
      (function _, Trace.Request_stage { id; _ } -> Some id | _ -> None)
      (Trace.ring_events r)
  in
  Alcotest.(check (list int)) "newest kept, oldest-first" [ 7; 8; 9; 10 ]
    survivors;
  (* and an un-overflowed ring reports zero *)
  let r2, tracer2 = Trace.ring ~capacity:4 () in
  Trace.emit tracer2 (stage 1);
  Alcotest.(check int) "no overflow" 0 (Trace.ring_dropped r2)

(* -- trace budget ------------------------------------------------------------ *)

(* Every Table 1 cell (each kernel at 2, 4 and 8 FUs, GRiP and POST),
   traced through the guarded pipeline into a ring of the default
   capacity, loses no event: the trace holds spans, guard verdicts and
   descents, never an event per migration attempt or hop, so a cell,
   descents included, emits a few dozen events. *)
let test_trace_budget () =
  let largest = ref (0, "") in
  List.iter
    (fun (e : Livermore.entry) ->
      let k = e.Livermore.kernel in
      List.iter
        (fun fu ->
          List.iter
            (fun method_ ->
              let ring, tracer = Trace.ring () in
              let obs = Obs.make ~trace:tracer () in
              let cell =
                Printf.sprintf "%s %s %dFU" k.Kernel.name
                  (Pipeline.method_name method_) fu
              in
              (match
                 Pipeline.run_robust ~obs ~data:e.Livermore.data
                   ~start:(Pipeline.rung_of_method method_) k
                   ~machine:(Machine.homogeneous fu)
               with
              | Ok _ -> ()
              | Error err ->
                  Alcotest.failf "%s: %s" cell
                    (Grip_robust.Grip_error.to_string err));
              Alcotest.(check int) (cell ^ " dropped") 0
                (Trace.ring_dropped ring);
              let n = List.length (Trace.ring_events ring) in
              if n > fst !largest then largest := (n, cell))
            [ Pipeline.Grip; Pipeline.Post ])
        [ 2; 4; 8 ])
    Livermore.all;
  Printf.printf "largest cell trace: %d events (%s)\n" (fst !largest)
    (snd !largest)

(* -- bench diff ------------------------------------------------------------ *)

module Bench_diff = Grip.Bench_diff

let artifact ?(schema = "grip.bench.table1/3") loops =
  Printf.sprintf {|{"schema":%S,"loops":[%s]}|} schema
    (String.concat "," loops)

let ll1 ?(grip = 2.5) ?(post = 2.0) () =
  Printf.sprintf
    {|{"name":"LL1","fu2":{"grip":{"speedup":%g},"post":{"speedup":%g}}}|}
    grip post

let ll5 ?(grip = 3.0) () =
  Printf.sprintf {|{"name":"LL5","fu4":{"grip":{"speedup":%g}}}|} grip

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let diff_ok ~old_ ~new_ =
  match Bench_diff.diff ~old_ ~new_ with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_bench_diff_self_clean () =
  let a = artifact [ ll1 (); ll5 () ] in
  let r = diff_ok ~old_:a ~new_:a in
  Alcotest.(check int) "cells" 3 (List.length r.Bench_diff.cells);
  Alcotest.(check (list string)) "only_old" [] r.Bench_diff.only_old;
  Alcotest.(check (list string)) "only_new" [] r.Bench_diff.only_new;
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_diff.regressions r))

let test_bench_diff_regression () =
  let old_ = artifact [ ll1 (); ll5 () ] in
  (* the GRiP drop regresses; the larger POST drop must not *)
  let new_ = artifact [ ll1 ~grip:2.4 ~post:1.0 (); ll5 () ] in
  match Bench_diff.regressions (diff_ok ~old_ ~new_) with
  | [ c ] ->
      Alcotest.(check string) "culprit" "LL1/fu2/grip" (Bench_diff.cell_label c);
      Alcotest.(check (float 1e-9)) "delta" (-0.1) (Bench_diff.delta c)
  | cs -> Alcotest.failf "expected 1 regression, got %d" (List.length cs)

(* The cell layout has been stable since schema /1, so artifacts from
   before the bottleneck block stay comparable. *)
let test_bench_diff_cross_schema () =
  let old_ = artifact ~schema:"grip.bench.table1/1" [ ll1 () ] in
  let new_ = artifact [ ll1 () ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells)

(* A schema /6 artifact's per-cell gc block is extra data the diff
   never reads: a /6-vs-/5 comparison stays clean even though only
   one side carries it. *)
let test_bench_diff_tolerates_gc_block () =
  let ll1_gc =
    {|{"name":"LL1","fu2":{"grip":{"speedup":2.5,
        "gc":{"alloc_bytes":1048576,"minor_collections":3,
              "major_collections":1,"promoted_bytes":4096}},
      "post":{"speedup":2}}}|}
  in
  let old_ = artifact ~schema:"grip.bench.table1/5" [ ll1 () ] in
  let new_ = artifact ~schema:"grip.bench.table1/6" [ ll1_gc ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells);
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_diff.regressions r))

let test_bench_diff_asymmetric_cells () =
  let old_ = artifact [ ll1 (); ll5 () ] in
  let new_ =
    artifact [ ll1 (); {|{"name":"LL9","fu8":{"grip":{"speedup":4}}}|} ]
  in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check (list string)) "only_old" [ "LL5/fu4/grip" ]
    r.Bench_diff.only_old;
  Alcotest.(check (list string)) "only_new" [ "LL9/fu8/grip" ]
    r.Bench_diff.only_new;
  Alcotest.(check int) "compared cells never regress" 0
    (List.length (Bench_diff.regressions r));
  Alcotest.(check (list string)) "the vanished GRiP cell is missing"
    [ "LL5/fu4/grip" ] r.Bench_diff.missing

(* GRiP cells that vanish from the new artifact, or lose their numeric
   speedup, fail the diff; an empty new artifact compares no cell and
   must not pass.  POST cells and cells only in the new artifact stay
   informational. *)
let test_bench_diff_vanished_cells () =
  let old_ = artifact [ ll1 (); ll5 () ] in
  let fails label ~new_ want =
    let r = diff_ok ~old_ ~new_ in
    Alcotest.(check (list string)) (label ^ ": missing") want r.Bench_diff.missing;
    Alcotest.(check bool) (label ^ ": gate") (want = []) (Bench_diff.passes r)
  in
  fails "empty loops" ~new_:{|{"schema":"grip.bench.table1/9","loops":[]}|}
    [ "LL1/fu2/grip"; "LL5/fu4/grip" ];
  fails "non-numeric speedup"
    ~new_:
      (artifact
         [
           {|{"name":"LL1","fu2":{"grip":{"speedup":"fast"},"post":{"speedup":2}}}|};
           ll5 ();
         ])
    [ "LL1/fu2/grip" ];
  fails "POST cell gone"
    ~new_:
      (artifact [ {|{"name":"LL1","fu2":{"grip":{"speedup":2.5}}}|}; ll5 () ])
    [];
  fails "extra cell in new"
    ~new_:(artifact [ ll1 (); ll5 (); {|{"name":"LL9","fu8":{"grip":{"speedup":4}}}|} ])
    [];
  let r =
    diff_ok ~old_ ~new_:{|{"schema":"grip.bench.table1/9","loops":[]}|}
  in
  let out = Format.asprintf "%a" (fun ppf r -> Bench_diff.pp_result ppf r) r in
  Alcotest.(check bool) "printed as missing" true
    (contains out "LL5/fu4/grip  MISSING");
  Alcotest.(check bool) "no clean verdict" false
    (contains out "no GRiP regressions")

(* Per cell, the integer [stats] and [legality] counters that differ
   are listed, and the report ends with the cells that did the same
   work; float fields and counters only one side carries are ignored.
   A listed difference fails the diff. *)
let test_bench_diff_work () =
  let cell ~hops ~seconds ~extra =
    Printf.sprintf
      {|{"speedup":2.5,"stats":{"technique":"grip","migrations":10,"hops":%d,"fuel_exhausted":false},
         "legality":{"check_seconds":%g,"cache_hits":3%s}}|}
      hops seconds extra
  in
  let loop grip = Printf.sprintf {|{"name":"LL1","fu2":{"grip":%s,"post":{"speedup":2}}}|} grip in
  let old_ = artifact ~schema:"grip.bench.table1/10" [ loop (cell ~hops:5 ~seconds:0.25 ~extra:""); ll5 () ] in
  let same = artifact ~schema:"grip.bench.table1/11" [ loop (cell ~hops:5 ~seconds:0.5 ~extra:{|,"scan_nodes":7|}); ll5 () ] in
  let r = diff_ok ~old_ ~new_:same in
  Alcotest.(check bool) "same work" true
    (List.for_all (fun c -> c.Bench_diff.work = []) r.Bench_diff.cells);
  let new_ = artifact ~schema:"grip.bench.table1/11" [ loop (cell ~hops:6 ~seconds:0.5 ~extra:{|,"scan_nodes":7|}); ll5 () ] in
  let r = diff_ok ~old_ ~new_ in
  (match List.filter (fun c -> c.Bench_diff.work <> []) r.Bench_diff.cells with
  | [ c ] ->
      Alcotest.(check string) "cell" "LL1/fu2/grip" (Bench_diff.cell_label c);
      Alcotest.(check (list (triple string int int))) "counters"
        [ ("stats.hops", 5, 6) ] c.Bench_diff.work
  | cs -> Alcotest.failf "expected 1 cell with other work, got %d" (List.length cs));
  Alcotest.(check bool) "differing work fails" false (Bench_diff.passes r);
  let out = Format.asprintf "%a" (fun ppf r -> Bench_diff.pp_result ppf r) r in
  Alcotest.(check bool) "printed" true (contains out "work: stats.hops 5 -> 6");
  Alcotest.(check bool) "summary" true (contains out "work identical on 2/3 cells")

(* The exit rule: any integer [stats] or [legality] counter that both
   cells carry and disagree on fails the diff; the timing never does,
   nor does a counter only one artifact carries (schema skew). *)
let test_bench_diff_work_gate () =
  let cell ?(hops = 5) ?(chain = 9) ?(seconds = 0) extra =
    Printf.sprintf
      {|{"speedup":2.5,"stats":{"technique":"grip","hops":%d,"fuel_exhausted":false},
         "legality":{"check_seconds":%d,"chain_nodes":%d%s}}|}
      hops seconds chain extra
  in
  let art grip =
    artifact ~schema:"grip.bench.table1/12"
      [ Printf.sprintf {|{"name":"LL1","fu2":{"grip":%s}}|} grip ]
  in
  let old_ = art (cell "") in
  let gate label ~new_ want =
    let r = diff_ok ~old_ ~new_ in
    Alcotest.(check bool) label want (Bench_diff.passes r)
  in
  gate "self diff passes" ~new_:old_ true;
  gate "changed stats.hops fails" ~new_:(art (cell ~hops:6 "")) false;
  gate "changed legality.chain_nodes fails" ~new_:(art (cell ~chain:8 ""))
    false;
  gate "timing is not work" ~new_:(art (cell ~seconds:1 "")) true;
  gate "a counter only one artifact carries is skew"
    ~new_:(art (cell {|,"order_walks":3|})) true

(* Counters that only one artifact's cells carry are named once, after
   the cell list, sorted and merged over every compared cell; they
   change neither the per-cell work lists nor the exit rule. *)
let test_bench_diff_counter_skew () =
  let cell extra =
    Printf.sprintf
      {|{"speedup":2.5,"stats":{"technique":"grip","hops":5},"legality":{"cache_hits":3%s}}|}
      extra
  in
  let loop name fu grip = Printf.sprintf {|{"name":"%s","%s":{"grip":%s}}|} name fu grip in
  let old_ =
    artifact ~schema:"grip.bench.table1/11"
      [ loop "LL1" "fu2" (cell {|,"rpo_rebuilds":4|}); loop "LL5" "fu4" (cell "") ]
  in
  let new_ =
    artifact ~schema:"grip.bench.table1/12"
      [
        loop "LL1" "fu2" (cell {|,"order_walks":2,"order_visits":9|});
        loop "LL5" "fu4" (cell {|,"order_walks":1|});
      ]
  in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check (list string)) "only old" [ "legality.rpo_rebuilds" ]
    r.Bench_diff.counters_only_old;
  Alcotest.(check (list string)) "only new"
    [ "legality.order_visits"; "legality.order_walks" ]
    r.Bench_diff.counters_only_new;
  Alcotest.(check bool) "work identical" true
    (List.for_all (fun c -> c.Bench_diff.work = []) r.Bench_diff.cells);
  Alcotest.(check bool) "informational" true (Bench_diff.passes r);
  let out = Format.asprintf "%a" (fun ppf r -> Bench_diff.pp_result ppf r) r in
  Alcotest.(check bool) "old side printed" true
    (contains out "counters only in old artifact: legality.rpo_rebuilds\n");
  Alcotest.(check bool) "new side printed once, sorted" true
    (contains out
       "counters only in new artifact: legality.order_visits, legality.order_walks\n");
  let self = diff_ok ~old_:new_ ~new_ in
  Alcotest.(check bool) "no skew line on a self diff" false
    (contains (Format.asprintf "%a" (fun ppf r -> Bench_diff.pp_result ppf r) self)
       "counters only in")

let test_bench_diff_rejects () =
  let good = artifact [ ll1 () ] in
  List.iter
    (fun (label, bad) ->
      match Bench_diff.diff ~old_:bad ~new_:good with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("unversioned schema", {|{"schema":"something.else","loops":[]}|});
      ("pre-/1 schema", artifact ~schema:"grip.bench.table1/0" []);
      ("no schema", {|{"loops":[]}|});
      ("invalid JSON", "{");
    ]

(* -- the artifact's declaration -------------------------------------------- *)

module Artifact = Grip.Bench_artifact

(* The committed artifact cut to LL1 at 2 FUs, small enough to mutate
   member by member. *)
let one_loop_artifact () =
  let text =
    In_channel.with_open_bin "../BENCH_table1.json" In_channel.input_all
  in
  let cut = function
    | "fus", _ -> ("fus", Json.List [ Json.int 2 ])
    | "loops", Json.List (Json.Obj ll1 :: _) ->
        ( "loops",
          Json.List
            [ Json.Obj (List.filter (fun (k, _) -> k <> "fu4" && k <> "fu8") ll1) ]
        )
    | member -> member
  in
  match Json.parse text with
  | Ok (Json.Obj top) -> Json.Obj (List.map cut top)
  | Ok _ | Error _ -> Alcotest.fail "the committed artifact is not a JSON object"

let validate_one = Artifact.validate ~loops:[ "LL1" ] ~fus:[ 2 ]

let test_artifact_cut_validates () =
  Alcotest.(check (result unit string))
    "LL1 at 2 FUs" (Ok ())
    (validate_one (Json.to_string (one_loop_artifact ())))

(* Every object member of [v], at any depth: its path as [Json.check]
   prints it, its value, and the whole document with the member
   replaced ([Some]) or deleted ([None]). *)
let rec member_sites path v =
  let inside put (p, x, inner) = (p, x, fun r -> put (inner r)) in
  match v with
  | Json.Obj kvs ->
      List.concat
        (List.mapi
           (fun i (k, x) ->
             let here = if path = "" then k else path ^ "." ^ k in
             let put r =
               Json.Obj
                 (List.concat
                    (List.mapi
                       (fun j kv ->
                         if j <> i then [ kv ]
                         else Option.fold ~none:[] ~some:(fun x' -> [ (k, x') ]) r)
                       kvs))
             in
             (here, x, put)
             :: List.map (inside (fun x' -> put (Some x'))) (member_sites here x))
           kvs)
  | Json.List items ->
      List.concat
        (List.mapi
           (fun i x ->
             let put x' =
               Json.List (List.mapi (fun j y -> if j = i then x' else y) items)
             in
             List.map (inside put) (member_sites (Printf.sprintf "%s[%d]" path i) x))
           items)
  | _ -> []

(* Each member of the one-loop artifact deleted, then given a value of
   another type; then the text cut short at 60 offsets.  [validate]
   rejects every mutant, naming the member at fault, and [diff] answers
   either way round without raising. *)
let test_artifact_mutants () =
  let doc = one_loop_artifact () in
  let text = Json.to_string doc in
  let diff_total label bad =
    List.iter
      (fun (old_, new_) ->
        match Bench_diff.diff ~old_ ~new_ with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: diff raised %s" label (Printexc.to_string e))
      [ (bad, text); (text, bad) ]
  in
  let rejects label ~prefix bad =
    (match validate_one bad with
    | Ok () -> Alcotest.failf "%s: accepted" label
    | Error e ->
        if not (String.starts_with ~prefix e) then
          Alcotest.failf "%s: %S does not start with %S" label e prefix
    | exception e ->
        Alcotest.failf "%s: validate raised %s" label (Printexc.to_string e));
    diff_total label bad
  in
  let retype = function Json.Str _ -> Json.Num 1.0 | _ -> Json.Str "x" in
  let sites = member_sites "" doc in
  Alcotest.(check bool) "every cell member reached" true (List.length sites > 100);
  List.iter
    (fun (path, v, put) ->
      List.iter
        (fun (how, r) ->
          rejects (how ^ " " ^ path) ~prefix:(path ^ ": ")
            (Json.to_string (put r)))
        [ ("delete", None); ("retype", Some (retype v)) ])
    sites;
  let n = String.length text in
  List.iter
    (fun i ->
      let cut = i * n / 60 in
      rejects (Printf.sprintf "cut at %d" cut) ~prefix:"invalid JSON"
        (String.sub text 0 cut))
    (List.init 60 Fun.id)

(* -- Unifiable stats and fuel (the Pipeline.run fix) ----------------------- *)

let test_unifiable_stats_surfaced () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:Machine.unlimited
      ~method_:Pipeline.Unifiable ~horizon:4
  in
  (match o.Pipeline.stats with
  | Pipeline.Unifiable_stats s ->
      Alcotest.(check bool)
        "did migrations" true
        (s.Grip.Unifiable.migrations > 0)
  | _ -> Alcotest.fail "expected Unifiable stats");
  Alcotest.(check bool) "budget not exhausted" false o.Pipeline.fuel_exhausted

let test_unifiable_fuel_exhausted () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:Machine.unlimited
      ~method_:Pipeline.Unifiable ~horizon:4 ~max_migrations:1
  in
  Alcotest.(check bool) "budget exhausted" true o.Pipeline.fuel_exhausted

(* -- graph order: one walk per shape version ------------------------------ *)

(* [Program]'s graph-order walk serves reachability, rule 3, node
   entry and the run's cursor.  On LL1 at 2 FU it walks at least once,
   never twice at one shape, and reports what it did; at an unchanged
   shape, node entry (the region pass over the RPO suffix) and the
   rule-3 fold's position reads add no walk. *)
let test_one_order_walk_per_shape () =
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m () in
  let k = kernel "LL1" and machine = Machine.homogeneous 2 in
  let o = Pipeline.run ~obs k ~machine ~method_:Pipeline.Grip in
  let p = o.Pipeline.program in
  let walks = Metrics.counter m "ir.order_walks" in
  Alcotest.(check bool) "walks happen" true (walks >= 1);
  Alcotest.(check int) "counter reports the program's walks" walks
    (Vliw_ir.Program.order_walks p);
  Alcotest.(check int) "visits reported" (Vliw_ir.Program.order_visits p)
    (Metrics.counter m "ir.order_visits");
  Alcotest.(check bool) "at most one walk per shape version" true
    (walks <= Vliw_ir.Program.shape_version p + 1);
  ignore (Vliw_ir.Program.n_nodes p);
  let before = Vliw_ir.Program.order_walks p in
  let scratch = Scheduler.fresh_scratch p in
  let cutoff = ref (-1) in
  List.iter
    (fun n ->
      let acc = Scheduler.entry_op_ids scratch n in
      Vliw_ir.Iarr.iter
        (fun oid ->
          let home = Vliw_ir.Program.home_int p oid in
          cutoff := max !cutoff (Vliw_ir.Program.rpo_index p home))
        acc)
    (Vliw_ir.Program.rpo p);
  Alcotest.(check bool) "positions read" true (!cutoff > 0);
  Alcotest.(check int) "no walk at an unchanged shape" before
    (Vliw_ir.Program.order_walks p)

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019";
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "escape failures" `Quick test_json_escape_failures;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
          Alcotest.test_case "merge commutative" `Quick
            test_metrics_merge_commutative;
          Alcotest.test_case "merge associative" `Quick
            test_metrics_merge_associative;
          QCheck_alcotest.to_alcotest prop_metrics_merge_any_order;
          Alcotest.test_case "merge disabled" `Quick
            test_metrics_merge_disabled;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
          Alcotest.test_case "no allocation per event" `Quick
            test_metrics_no_alloc;
        ] );
      ( "replay",
        [
          Alcotest.test_case "registry == journal across descents" `Quick
            test_registry_across_descents;
        ] );
      ( "provenance",
        Alcotest.test_case "journal keyed by op id" `Quick
          test_provenance_journal_by_id
        :: Alcotest.test_case "null recorder is inert" `Quick
             test_provenance_null_inert
        :: prov_replay_cases );
      ( "merged-trace",
        [
          Alcotest.test_case "merged replay reconstructs counters" `Slow
            test_merged_trace_replay;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink purity" `Quick test_null_sink_purity;
          Alcotest.test_case "chrome JSON valid" `Quick test_chrome_sink_valid;
          Alcotest.test_case "ring truncation observable" `Quick
            test_ring_truncation;
          Alcotest.test_case "default ring holds every Table 1 cell" `Slow
            test_trace_budget;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "self diff clean" `Quick test_bench_diff_self_clean;
          Alcotest.test_case "regression detected" `Quick
            test_bench_diff_regression;
          Alcotest.test_case "cross-schema comparable" `Quick
            test_bench_diff_cross_schema;
          Alcotest.test_case "gc block tolerated" `Quick
            test_bench_diff_tolerates_gc_block;
          Alcotest.test_case "asymmetric cells reported" `Quick
            test_bench_diff_asymmetric_cells;
          Alcotest.test_case "vanished GRiP cells fail" `Quick
            test_bench_diff_vanished_cells;
          Alcotest.test_case "work differences reported" `Quick
            test_bench_diff_work;
          Alcotest.test_case "work differences fail" `Quick
            test_bench_diff_work_gate;
          Alcotest.test_case "counter skew named once" `Quick
            test_bench_diff_counter_skew;
          Alcotest.test_case "malformed artifacts rejected" `Quick
            test_bench_diff_rejects;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "LL1 at 2 FUs validates" `Quick
            test_artifact_cut_validates;
          Alcotest.test_case "mutants rejected, diff total" `Quick
            test_artifact_mutants;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "unifiable stats surfaced" `Quick
            test_unifiable_stats_surfaced;
          Alcotest.test_case "unifiable fuel exhausted" `Quick
            test_unifiable_fuel_exhausted;
          Alcotest.test_case "one order walk per shape" `Quick
            test_one_order_walk_per_shape;
        ] );
    ]
