(* The repository benchmark: one workload per invocation.

     gripbench --workload table1|serve-hot|serve-cold --seed N
               --seconds S --trace 0|1 --cli PATH --out DIR

   Prints one row per cell or width, every metric by name with its
   unit, and as its last line the JSON result
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   they are the per-layer ones, from a separate traced run whose spans
   are written to DIR.  perfbench/run.py builds this program and the
   daemon and runs it; see perfbench/README.md. *)

(* Per-layer metrics, in the order BENCHMARK.json lists them.  A layer
   the workload does not exercise reports 0. *)
let per_layer =
  [
    ("scheduler.grip_s", "s");
    ("scheduler.post_s", "s");
    ("scheduler.migrations", "count");
    ("scheduler.hops", "count");
    ("scheduler.reach_ratio", "fraction");
    ("scheduler.suspensions", "count");
    ("scheduler.barriers", "count");
    ("scheduler.alloc_mb", "MB");
    ("scheduler.minor_gcs", "count");
    ("scheduler.slowest_cell_s", "s");
    ("scheduler.post_speedup_geomean", "x");
    ("percolation.legality_hit_ratio", "fraction");
    ("unwind.s", "s");
    ("unwind.nodes", "count");
    ("redundant.s", "s");
    ("redundant.removed", "count");
    ("convergence.s", "s");
    ("convergence.converged_cells", "count");
    ("sim.s", "s");
    ("analysis.rank_ms", "ms");
    ("minic.compile_ms", "ms");
    ("minic.ops_lowered", "count");
    ("guard.s", "s");
    ("store.warm_ratio", "fraction");
    ("store.analysis_hits", "count");
    ("store.bytes_mb", "MB");
    ("store.evictions", "count");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("cache.key_us", "us");
    ("cache.find_us", "us");
    ("cache.digest_ms", "ms");
    ("cache.hit_ratio", "fraction");
    ("server.service_p50_us", "us");
    ("server.wait_p50_us", "us");
    ("server.client_p95_ms", "ms");
    ("server.client_p99_ms", "ms");
    ("server.cold_p50_ms", "ms");
    ("server.warm_miss_p50_ms", "ms");
    ("server.first_seen_p50_ms", "ms");
    ("server.new_width_p50_ms", "ms");
    ("supervisor.queue_depth_peak", "count");
    ("supervisor.sheds", "count");
    ("supervisor.retries", "count");
    ("driver.lag_ms", "ms");
    ("driver.sent", "count");
    ("trace.overhead_ratio", "x");
    ("trace.coverage", "fraction");
  ]

(* Layer metrics from the spans and counters the traced run recorded. *)
let span_layers () =
  let tbl = Span.summary () in
  let self name = (Span.find tbl name).Span.self in
  let layer l = Span.fold_layer tbl ~layer:l (fun g -> g.Span.self) in
  let mean name ~scale = Span.mean_self tbl name ~scale in
  let c = Stages.counts in
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 c.Stages.stats) in
  let grip f = function
    | Grip.Pipeline.Grip_stats s -> f s
    | Grip.Pipeline.Post_stats s -> f s.Grip.Post.phase1
    | Grip.Pipeline.Unifiable_stats _ -> 0
  in
  let migrations = sum (grip (fun s -> s.Grip.Scheduler.migrations)) in
  let sched = [ Span.find tbl "scheduler.grip"; Span.find tbl "scheduler.post" ] in
  let hits = float_of_int (Stages.counter "legality.cache_hits")
  and misses = float_of_int (Stages.counter "legality.cache_misses") in
  [
    ("scheduler.grip_s", self "scheduler.grip");
    ("scheduler.post_s", self "scheduler.post");
    ("scheduler.migrations", migrations);
    ("scheduler.hops", sum (grip (fun s -> s.Grip.Scheduler.hops)));
    ("scheduler.reach_ratio", Util.ratio (sum (grip (fun s -> s.Grip.Scheduler.reached))) migrations);
    ("scheduler.suspensions", sum (grip (fun s -> s.Grip.Scheduler.suspensions)));
    ("scheduler.barriers", sum (grip (fun s -> s.Grip.Scheduler.resource_barrier_events)));
    ( "scheduler.alloc_mb",
      Util.sum (List.map (fun g -> g.Span.self_words) sched) *. float_of_int (Sys.word_size / 8) /. 1e6 );
    ("scheduler.minor_gcs", float_of_int (List.fold_left (fun a g -> a + g.Span.self_gcs) 0 sched));
    ("percolation.legality_hit_ratio", Util.ratio hits (hits +. misses));
    ("unwind.s", layer "unwind");
    ("unwind.nodes", float_of_int c.Stages.unwound_nodes);
    ("redundant.s", layer "redundant");
    ("redundant.removed", float_of_int c.Stages.removed);
    ("convergence.s", layer "convergence");
    ("convergence.converged_cells", float_of_int c.Stages.converged);
    ("sim.s", layer "sim");
    ("analysis.rank_ms", mean "analysis.rank" ~scale:1e3);
    ("minic.compile_ms", mean "minic.compile" ~scale:1e3);
    ( "minic.ops_lowered",
      match c.Stages.ops_lowered with
      | [] -> 0.0
      | l -> Util.mean (List.map float_of_int l) );
    ("guard.s", layer "guard");
    ("protocol.decode_us", mean "protocol.decode" ~scale:1e6);
    ("protocol.encode_us", mean "protocol.encode" ~scale:1e6);
    ("cache.key_us", mean "cache.key" ~scale:1e6);
    ("cache.find_us", mean "cache.find" ~scale:1e6);
    ("cache.digest_ms", mean "cache.digest" ~scale:1e3);
  ]

let usage () =
  prerr_endline
    "usage: gripbench --workload table1|serve-hot|serve-cold --seed N --seconds S \
     --trace 0|1 --cli PATH --out DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let cli = ref "" and out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value (int_of_string_opt v) ~default:(-1); parse rest
    | "--seconds" :: v :: rest -> seconds := Option.value (int_of_string_opt v) ~default:0; parse rest
    | "--trace" :: v :: rest -> trace := Option.value (int_of_string_opt v) ~default:(-1); parse rest
    | "--cli" :: v :: rest -> cli := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !out = "" then usage ();
  let trace = !trace = 1 in
  let result =
    match !workload with
    | "table1" -> Ok (Table1.run ~seed:!seed ~seconds:!seconds ~trace)
    | "serve-hot" -> Serve.run_hot ~cli:!cli ~out:!out ~seed:!seed ~seconds:!seconds ~trace
    | "serve-cold" -> Serve.run_cold ~cli:!cli ~out:!out ~seed:!seed ~seconds:!seconds ~trace
    | _ -> usage ()
  in
  match result with
  | Error msg ->
      Util.failf "%s: %s" !workload msg;
      exit 1
  | Ok (r, layers) ->
      let r =
        if not trace then r
        else begin
          Span.write
            (Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload !seed));
          let layers = layers @ span_layers () in
          {
            r with
            Util.metrics =
              List.map
                (fun (name, unit_) ->
                  Util.metric name unit_
                    (Option.value (List.assoc_opt name layers) ~default:0.0))
                per_layer;
          }
        end
      in
      Util.print_result r;
      if not r.Util.correct then exit 1
