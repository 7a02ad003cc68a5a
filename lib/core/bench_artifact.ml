(** The Table 1 artifact ([BENCH_table1.json]), declared once.

    Each object of the artifact is a list of rows, one per member: the
    member's name, how [bench json] renders it from the pipeline's own
    values ({!Pipeline.outcome}, {!Speedup.t}, the cell's
    {!Grip_obs.Metrics.t}), and the {!Grip_obs.Json.shape} a reader
    accepts there.  The writer ({!run_cell}, {!to_json}) and the
    validator ({!validate}) are folds over the same rows, so a member
    added to a row list is written and required at once.  {!project}
    is [bench diff]'s reading of a cell, the same for every schema
    since /1. *)

module Json = Grip_obs.Json
module Metrics = Grip_obs.Metrics
module Bottleneck = Grip_obs.Bottleneck
module Supervisor = Grip_parallel.Supervisor

let schema_prefix = "grip.bench.table1/"
let schema = schema_prefix ^ "16"

(* -- rows ------------------------------------------------------------------ *)

type 'a row = { name : string; write : 'a -> Json.t; accept : Json.shape }

let row name accept write = { name; write; accept }
let num name f = row name Json.Number (fun x -> Json.Num (f x))
let count name f = row name Json.Count (fun x -> Json.int (f x))
let flag name f = row name Json.Flag (fun x -> Json.Bool (f x))

(* A member that holds one value, written and required alike. *)
let const name v = row name (Json.One_of [ v ]) (fun _ -> v)
let obj rows x = Json.Obj (List.map (fun r -> (r.name, r.write x)) rows)
let fields rows = Json.Fields (List.map (fun r -> (r.name, r.accept)) rows)
let block name rows f = row name (fields rows) (fun x -> obj rows (f x))

(* -- a cell ---------------------------------------------------------------- *)

let grip_stats =
  [
    const "technique" (Json.Str "grip");
    count "nodes_scheduled" (fun s -> s.Scheduler.nodes_scheduled);
    count "migrations" (fun s -> s.Scheduler.migrations);
    count "hops" (fun s -> s.Scheduler.hops);
    count "reached" (fun s -> s.Scheduler.reached);
    count "suspensions" (fun s -> s.Scheduler.suspensions);
    count "resource_barriers" (fun s -> s.Scheduler.resource_barrier_events);
    flag "fuel_exhausted" (fun s -> s.Scheduler.fuel_exhausted);
  ]

let post_stats =
  [
    const "technique" (Json.Str "post");
    count "breaks" (fun s -> s.Post.breaks);
    count "demoted_ops" (fun s -> s.Post.demoted_ops);
    count "cj_splits" (fun s -> s.Post.cj_splits);
    count "repair_hops" (fun s -> s.Post.repair_hops);
    count "phase1_migrations" (fun s -> s.Post.phase1.Scheduler.migrations);
    count "phase1_hops" (fun s -> s.Post.phase1.Scheduler.hops);
    count "phase1_suspensions" (fun s -> s.Post.phase1.Scheduler.suspensions);
    flag "fuel_exhausted" (fun s -> s.Post.phase1.Scheduler.fuel_exhausted);
  ]

let phase_seconds =
  List.map
    (fun phase -> num phase (List.assoc phase))
    [ "unwind"; "redundancy"; "schedule"; "converge" ]

(* The move-legality and graph-maintenance counters of DESIGN.md §13;
   each member is its metric name past the layer prefix. *)
let legality =
  num "check_seconds" (fun m -> Metrics.time m "legality.check")
  :: List.map
       (fun key ->
         let dot = String.index key '.' in
         count
           (String.sub key (dot + 1) (String.length key - dot - 1))
           (fun m -> Metrics.counter m key))
       [
         "ir.gc_runs"; "ir.gc_reclaimed"; "ir.gc_candidates";
         "scheduler.candidate_visits"; "scheduler.replays";
         "gapless.scan_nodes"; "ir.order_walks"; "ir.order_visits";
       ]

(* Over a (before, after) pair of [Gc] samples. *)
let gc =
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  [
    num "alloc_bytes" (fun ((a0, _), (a1, _)) -> a1 -. a0);
    count "minor_collections" (fun ((_, q0), (_, q1)) ->
        q1.Gc.minor_collections - q0.Gc.minor_collections);
    count "major_collections" (fun ((_, q0), (_, q1)) ->
        q1.Gc.major_collections - q0.Gc.major_collections);
    num "promoted_bytes" (fun ((_, q0), (_, q1)) ->
        (q1.Gc.promoted_words -. q0.Gc.promoted_words) *. bytes_per_word);
  ]

(** [measure_gc f] — [f ()] and the artifact's gc block for the call:
    this domain's allocated bytes (read by {!Grip_obs.allocated_bytes},
    as [Grip_obs.timed] reads a phase's), collections and promoted
    bytes over it.  A cell runs on one domain, so the domain-local
    counters delimit exactly its work. *)
let measure_gc f =
  let sample () = (Grip_obs.allocated_bytes (), Gc.quick_stat ()) in
  let before = sample () in
  let r = f () in
  (r, obj gc (before, sample ()))

(* What a cell is written from: one run, measured and checked. *)
type 'stats cell = {
  outcome : Pipeline.outcome;
  stats : 'stats;  (** the outcome's own scheduler counters *)
  measured : Speedup.t;
  oracle_ok : bool;
  metrics : Metrics.t;
  gc_block : Json.t;
  report : Bottleneck.report;
}

let cell stats =
  [
    num "speedup" (fun c -> c.measured.Speedup.speedup);
    num "cycles_per_iter" (fun c -> c.measured.Speedup.sched_per_iter);
    num "seq_cycles_per_iter" (fun c -> c.measured.Speedup.seq_per_iter);
    flag "steady_state" (fun c -> c.measured.Speedup.steady);
    flag "converged" (fun c -> c.outcome.Pipeline.pattern <> None);
    flag "oracle_ok" (fun c -> c.oracle_ok);
    block "stats" stats (fun c -> c.stats);
    block "phase_seconds" phase_seconds (fun c ->
        c.outcome.Pipeline.phase_seconds);
    block "legality" legality (fun c -> c.metrics);
    row "gc" (fields gc) (fun c -> c.gc_block);
    row "bottleneck" Bottleneck.valid_json (fun c ->
        Bottleneck.to_json c.report);
  ]

(** [run_cell ?horizon ~data k method_ fu] — one Table 1 cell: [k]
    scheduled by [method_] (GRiP or POST) on a [fu]-wide machine,
    measured and oracle-checked on [data].  The cell has its own
    metrics registry, for the legality block, and its own provenance
    recorder, so the bottleneck block's totals are the journal-derived
    ones (equal to the counters by the replay invariant). *)
let run_cell ?horizon ~data (k : Kernel.t) method_ fu =
  let machine = Vliw_machine.Machine.homogeneous fu in
  let prov = Grip_obs.Provenance.create () in
  let metrics = Metrics.create () in
  let obs = Grip_obs.make ~prov ~metrics () in
  let (outcome, measured, oracle_ok), gc_block =
    measure_gc (fun () ->
        let o = Pipeline.run ~obs k ~machine ~method_ ?horizon in
        let m = Pipeline.measure ~data o in
        (o, m, Result.is_ok (Pipeline.check ~data o)))
  in
  let report = Explain.report ~prov outcome in
  let write rows stats =
    obj (cell rows)
      { outcome; stats; measured; oracle_ok; metrics; gc_block; report }
  in
  match outcome.Pipeline.stats with
  | Pipeline.Grip_stats s -> write grip_stats s
  | Pipeline.Post_stats s -> write post_stats s
  | Pipeline.Unifiable_stats _ ->
      invalid_arg "Bench_artifact.run_cell: Table 1 has no Unifiable cells"

(* -- the whole artifact ---------------------------------------------------- *)

(** What a loop's entry is written from. *)
type loop = {
  kernel : Kernel.t;
  paper : (float * float * float) * (float * float * float);
      (** the paper's GRiP and POST speedups at 2/4/8 FUs *)
  cells : (Json.t * Json.t) list;
      (** per width of {!sweep.fus}: the GRiP and the POST cell *)
}

(** What the artifact is written from. *)
type sweep = {
  fus : int list;
  horizon : int option;  (** [None]: each width's default *)
  jobs : int;
  wall_seconds : float;
  cell_seconds : float;  (** summed over cells *)
  resilience : Supervisor.stats;
  loops : loop list;
}

let paper =
  let triple (a, b, c) = Json.List [ Json.Num a; Json.Num b; Json.Num c ] in
  let three = Json.Seq [ Json.Number; Json.Number; Json.Number ] in
  [
    row "grip" three (fun (g, _) -> triple g);
    row "post" three (fun (_, p) -> triple p);
  ]

let techniques =
  [
    row "grip" (fields (cell grip_stats)) fst;
    row "post" (fields (cell post_stats)) snd;
  ]

let loop ~fus name =
  [
    const "name" (Json.Str name);
    count "ops_per_iteration" (fun l -> Kernel.ops_per_iteration l.kernel);
    block "paper" paper (fun l -> l.paper);
  ]
  @ List.mapi
      (fun i fu ->
        block (Printf.sprintf "fu%d" fu) techniques (fun l ->
            List.nth l.cells i))
      fus

let resilience =
  [
    count "retries" (fun r -> r.Supervisor.retries);
    count "sheds" (fun r -> r.Supervisor.sheds);
    count "quarantined" (fun r -> r.Supervisor.quarantined);
    count "worker_restarts" (fun r -> r.Supervisor.worker_restarts);
    count "gap_violations" (fun r -> r.Supervisor.gap_violations);
    num "max_worker_gap_ms" (fun r -> r.Supervisor.max_gap *. 1e3);
  ]

let harness =
  [
    count "jobs" (fun s -> s.jobs);
    num "wall_seconds" (fun s -> s.wall_seconds);
    num "cell_seconds" (fun s -> s.cell_seconds);
    block "resilience" resilience (fun s -> s.resilience);
  ]

let top ~loops ~fus =
  [
    const "schema" (Json.Str schema);
    const "fus" (Json.List (List.map Json.int fus));
    row "horizon" (Json.Maybe Json.Count) (fun s ->
        Option.fold ~none:Json.Null ~some:Json.int s.horizon);
    block "harness" harness Fun.id;
    row "loops"
      (Json.Seq (List.map (fun name -> fields (loop ~fus name)) loops))
      (fun s ->
        Json.List
          (List.map2 (fun name l -> obj (loop ~fus name) l) loops s.loops));
  ]

(** [to_json s] — the artifact. *)
let to_json s =
  let loops = List.map (fun l -> l.kernel.Kernel.name) s.loops in
  obj (top ~loops ~fus:s.fus) s

(** [validate ~loops ~fus text] — [Ok ()] when [text] is an artifact of
    this schema whose loops are named [loops], in order, each with a
    GRiP and a POST cell at every width of [fus]; otherwise the first
    defect, with the path of the member at fault. *)
let validate ~loops ~fus text =
  match Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok doc -> Json.check (fields (top ~loops ~fus)) doc

(* -- bench diff's projection ---------------------------------------------- *)

(** What [bench diff] reads of a cell.  Every schema since /1 holds
    its cells at [loops[].fuW.{grip,post}] with a numeric [speedup]. *)
type view = {
  speedup : float;
  alloc_bytes : float option;  (** [gc.alloc_bytes], schema /6 on *)
  work : (string * float) list;
      (** ["block.member"] and value of each integer member of the
          cell's [stats] and [legality] blocks, except the legality
          rows of this schema that are not counts (its timing) *)
}

let measurements =
  List.filter_map
    (fun r ->
      if r.accept = Json.Count then None else Some ("legality." ^ r.name))
    legality

let members = function Json.Obj kvs -> kvs | _ -> []

let view c =
  let number path =
    Option.bind
      (List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some c) path)
      Json.to_float
  in
  let counters block =
    List.filter_map
      (fun (k, v) ->
        let key = block ^ "." ^ k in
        match v with
        | Json.Num x when Float.is_integer x && not (List.mem key measurements)
          ->
            Some (key, x)
        | _ -> None)
      (members (Option.value ~default:Json.Null (Json.member block c)))
  in
  Option.map
    (fun speedup ->
      {
        speedup;
        alloc_bytes = number [ "gc"; "alloc_bytes" ];
        work = counters "stats" @ counters "legality";
      })
    (number [ "speedup" ])

let version doc =
  match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when String.starts_with ~prefix:schema_prefix s ->
      let n = String.length schema_prefix in
      int_of_string_opt (String.sub s n (String.length s - n))
  | _ -> None

(* The viewable cells of each loop's [fuW] members, in order. *)
let cells doc =
  let loop_cells loop =
    match Option.bind (Json.member "name" loop) Json.to_str with
    | None -> []
    | Some name ->
        List.concat_map
          (fun (fu, techs) ->
            if String.length fu > 2 && String.starts_with ~prefix:"fu" fu then
              List.filter_map
                (fun tech ->
                  Option.map
                    (fun v -> ((name, fu, tech), v))
                    (Option.bind (Json.member tech techs) view))
                [ "grip"; "post" ]
            else [])
          (members loop)
  in
  Option.bind (Json.member "loops" doc) Json.to_list
  |> Option.value ~default:[]
  |> List.concat_map loop_cells

(** [project text] — the cells of an artifact of any schema /N with
    N >= 1, in artifact order, keyed by (loop, ["fuW"], technique); a
    cell without a numeric speedup is left out. *)
let project text =
  match Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok doc -> (
      match version doc with
      | None -> Error "not a grip.bench.table1 artifact"
      | Some v when v < 1 ->
          Error (Printf.sprintf "unsupported schema version %d" v)
      | Some _ -> Ok (cells doc))
