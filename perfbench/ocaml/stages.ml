(* The program's layers called one by one, each call inside a span:
   the traced run's view of a Table 1 cell, of a daemon miss and of a
   daemon hit.  Every sequence here mirrors a public entry point
   ([Pipeline.run], the cold path of [Pipeline.run_robust], and the
   daemon's hit path); the workloads check that each traced result is
   byte-identical to the untraced one, so a change to those entry
   points that this file does not follow fails the traced run instead
   of silently timing something else. *)

module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Guard = Grip_robust.Guard
module Grip_error = Grip_robust.Grip_error
module Protocol = Grip_serve.Protocol
module Cache = Grip_serve.Cache

(* Counters the scheduler and the move-legality memo emit; on only in
   the traced run. *)
let obs = Grip_obs.make ~metrics:(Grip_obs.Metrics.create ()) ()
let counter name = Grip_obs.Metrics.counter obs.Grip_obs.metrics name

(* Work counts gathered while tracing. *)
type counts = {
  mutable unwound_nodes : int;
  mutable removed : int;
  mutable converged : int;
  mutable stats : Pipeline.sched_stats list;
  mutable ops_lowered : int list;
}

let counts = { unwound_nodes = 0; removed = 0; converged = 0; stats = []; ops_lowered = [] }

let unwind ~rid k ~horizon =
  let p = Span.run "unwind" ~rid (fun () -> (Grip.Unwind.build k ~horizon).Grip.Unwind.program) in
  counts.unwound_nodes <- counts.unwound_nodes + Vliw_ir.Program.n_nodes p;
  p

let redundant ~rid p ~exit_live =
  let ((l, c, d) as r) =
    Span.run "redundant" ~rid (fun () -> Vliw_percolation.Redundant.cleanup p ~exit_live)
  in
  counts.removed <- counts.removed + l + c + d;
  r

let schedule ~rid p ~machine ~exit_live ~rank ~(method_ : Pipeline.method_) =
  let stats =
    match method_ with
    | Pipeline.Grip | Pipeline.Grip_no_gap ->
        Span.run "scheduler.grip" ~rid (fun () ->
            let ctx = Ctx.make ~obs p ~machine ~exit_live in
            let config =
              {
                (Grip.Scheduler.default_config ~rank) with
                Grip.Scheduler.gap_prevention = method_ = Pipeline.Grip;
              }
            in
            Pipeline.Grip_stats (Grip.Scheduler.run config ctx))
    | Pipeline.Post ->
        Span.run "scheduler.post" ~rid (fun () ->
            let unlimited = Ctx.make ~obs p ~machine:Machine.unlimited ~exit_live in
            let real = Ctx.make ~obs p ~machine ~exit_live in
            Pipeline.Post_stats (Grip.Post.run unlimited real ~rank))
    | Pipeline.Unifiable -> invalid_arg "Stages.schedule: Unifiable"
  in
  counts.stats <- stats :: counts.stats;
  stats

let converge ~rid (k : Grip.Kernel.t) p =
  let rows, pattern =
    Span.run "convergence" ~rid (fun () ->
        let rows = Grip.Schedule_table.rows p in
        ( rows,
          Grip.Convergence.detect
            ~body_positions:(List.length k.Grip.Kernel.body + 1)
            rows ))
  in
  if pattern <> None then counts.converged <- counts.converged + 1;
  (rows, pattern)

let fuel_exhausted = function
  | Pipeline.Grip_stats s -> s.Grip.Scheduler.fuel_exhausted
  | Pipeline.Post_stats s -> s.Grip.Post.phase1.Grip.Scheduler.fuel_exhausted
  | Pipeline.Unifiable_stats _ -> false

let outcome k ~machine ~horizon ~method_ p ~removed ~stats (rows, pattern) =
  {
    Pipeline.program = p;
    kernel = k;
    machine;
    horizon;
    method_;
    pattern;
    gaps = Grip.Convergence.gaps rows;
    static_cpi = Option.map Grip.Convergence.cycles_per_iteration pattern;
    redundant_removed = removed;
    wall_seconds = 0.0;
    phase_seconds = [];
    stats;
    fuel_exhausted = fuel_exhausted stats;
  }

(** [pipeline_run ~rid k ~machine ~method_] — [Pipeline.run] with its
    default rank and horizon, stage by stage. *)
let pipeline_run ~rid k ~machine ~method_ =
  let rank = Span.run "analysis.rank" ~rid (fun () -> Pipeline.default_rank k) in
  let horizon = Pipeline.default_horizon machine in
  let p = unwind ~rid k ~horizon in
  let exit_live = Grip.Kernel.exit_live k in
  let removed = redundant ~rid p ~exit_live in
  let stats = schedule ~rid p ~machine ~exit_live ~rank ~method_ in
  outcome k ~machine ~horizon ~method_ p ~removed ~stats (converge ~rid k p)

(* -- the daemon's cold miss -------------------------------------------------- *)

let guard ~rid name check =
  match Span.run name ~rid check with None -> Ok () | Some e -> Error e

let ( let* ) = Result.bind

(* One pipelining rung of [Pipeline.run_robust] from cold (no tier-2
   seed), with its guards at [Strict], the daemon's setting. *)
let attempt ~rid ~rank ~data k ~machine ~method_ =
  let kernel = k.Grip.Kernel.name in
  let mstr = Format.asprintf "%a" Machine.pp machine in
  let horizon = Pipeline.default_horizon machine in
  let exit_live = Grip.Kernel.exit_live k in
  let* p = Grip_error.guard (fun () -> unwind ~rid k ~horizon) in
  let* () =
    guard ~rid "guard.structural" (fun () ->
        Guard.structural ~kernel ~machine:mstr Grip_error.Unwind p)
  in
  let removed = redundant ~rid p ~exit_live in
  let* () =
    guard ~rid "guard.structural" (fun () ->
        Guard.structural ~kernel ~machine:mstr Grip_error.Redundancy p)
  in
  let* () =
    guard ~rid "guard.oracle" (fun () ->
        Guard.oracle ~kernel ~machine:mstr Grip_error.Redundancy
          ~reference:(Grip.Kernel.rolled k).Vliw_ir.Builder.program ~candidate:p
          ~init:(Grip.Kernel.initial_state ~n:(min 4 (horizon - 2)) k ~data)
          ~observable:k.Grip.Kernel.observable)
  in
  let stats = schedule ~rid p ~machine ~exit_live ~rank ~method_ in
  let* () =
    if fuel_exhausted stats then
      Error (Grip_error.make ~kernel Grip_error.Scheduling (Grip_error.Message "fuel"))
    else Ok ()
  in
  let* () =
    guard ~rid "guard.structural" (fun () ->
        Guard.structural ~kernel ~machine:mstr Grip_error.Validation p)
  in
  let* () =
    guard ~rid "guard.resources" (fun () ->
        Guard.resources ~kernel Grip_error.Validation ~machine p)
  in
  let ((_, pattern) as conv) = converge ~rid k p in
  let* () =
    if pattern = None then
      Error (Grip_error.make ~kernel Grip_error.Convergence (Grip_error.Message "no pattern"))
    else Ok ()
  in
  let* () =
    match
      Span.run "sim.verify" ~rid (fun () ->
          Grip.Speedup.verify ~data k ~scheduled:p ~n:(horizon - 2))
    with
    | Ok _ -> Ok ()
    | Error _ ->
        Error (Grip_error.make ~kernel Grip_error.Validation (Grip_error.Message "oracle"))
  in
  Ok (outcome k ~machine ~horizon ~method_ p ~removed ~stats conv)

(** [cold_miss ~rid k ~data ~machine] — what the daemon does for a
    request it has never seen: rank, then the ladder's pipelining
    rungs in order, each fully guarded; then digest and speedup.
    Returns (rung name, digest, speedup).  Should every pipelining
    rung fail, the rolled rungs run through [Pipeline.run_robust]
    itself. *)
let cold_miss ~rid k ~data ~machine =
  let rank = Span.run "analysis.rank" ~rid (fun () -> Pipeline.default_rank k) in
  let rec ladder = function
    | [] ->
        let r =
          Span.run "scheduler.rolled" ~rid (fun () ->
              Pipeline.run_robust ~data ~start:Pipeline.R_list k ~machine)
        in
        Result.map
          (fun (r : Pipeline.robust) ->
            ( Pipeline.rung_name r.Pipeline.rung,
              Span.run "cache.digest" ~rid (fun () -> Cache.schedule_digest r.Pipeline.program),
              (Span.run "sim.measure" ~rid (fun () -> Pipeline.measure_robust ~data r))
                .Grip.Speedup.speedup ))
          r
    | (rung, method_) :: rest -> (
        match attempt ~rid ~rank ~data k ~machine ~method_ with
        | Ok o ->
            Ok
              ( Pipeline.rung_name rung,
                Span.run "cache.digest" ~rid (fun () -> Cache.schedule_digest o.Pipeline.program),
                (Span.run "sim.measure" ~rid (fun () -> Pipeline.measure ~data o))
                  .Grip.Speedup.speedup )
        | Error _ -> ladder rest)
  in
  ladder
    [
      (Pipeline.R_grip, Pipeline.Grip);
      (Pipeline.R_grip_no_gap, Pipeline.Grip_no_gap);
      (Pipeline.R_post, Pipeline.Post);
    ]

(** [miss ~rid frame] — the daemon's handling of one request frame it
    has never seen, replayed in-process: decode, resolve (the minic
    front end for inline source), cache key and lookup, the cold
    pipeline, and the encoded reply.  Returns (rung, digest, speedup). *)
let miss ~rid frame =
  let req =
    Span.run "protocol.decode" ~rid (fun () ->
        match Protocol.decode frame with
        | Ok f -> Protocol.request_of_payload f.Protocol.payload
        | Error msg -> Error msg)
  in
  match req with
  | Error msg -> Error msg
  | Ok req -> (
      let resolved =
        match req.Protocol.source with
        | Some src ->
            Span.run "minic.compile" ~rid (fun () ->
                match Minic.Compile.kernel_of_string src with
                | Ok out ->
                    counts.ops_lowered <-
                      List.length out.Minic.Compile.kernel.Grip.Kernel.body
                      :: counts.ops_lowered;
                    Ok (out.Minic.Compile.kernel, out.Minic.Compile.data)
                | Error e -> Error (Grip_error.to_string e))
        | None -> (
            match Option.bind req.Protocol.kernel Workloads.Livermore.find with
            | Some e -> Ok (e.Workloads.Livermore.kernel, e.Workloads.Livermore.data)
            | None -> Error "unknown kernel")
      in
      match resolved with
      | Error msg -> Error msg
      | Ok (k, data) -> (
          let fus = req.Protocol.fus in
          let cache = Cache.create ~capacity:1 in
          let key = Span.run "cache.key" ~rid (fun () -> Cache.key ~fus ~method_:req.Protocol.method_ k) in
          ignore (Span.run "cache.find" ~rid (fun () -> Cache.find cache key));
          match cold_miss ~rid k ~data ~machine:(Machine.homogeneous fus) with
          | Error e -> Error (Grip_error.to_string e)
          | Ok (rung, digest, speedup) ->
              ignore
                (Span.run "protocol.encode" ~rid (fun () ->
                     Protocol.encode
                       {
                         Protocol.id = rid;
                         kind = Protocol.Schedule_resp;
                         payload =
                           Grip_obs.Json.to_string
                             (Protocol.reply_to_json
                                {
                                  Protocol.rkernel = k.Grip.Kernel.name;
                                  rung;
                                  digest;
                                  cache = "miss";
                                  speedup;
                                  wall_ms = 0.0;
                                });
                       }));
              Ok (rung, digest, speedup)))

(* -- the daemon's hit -------------------------------------------------------- *)

(** [hit ~rid ~memo cache frame] — the daemon's answer to a request
    already in its schedule cache, replayed in-process over the same
    public calls: decode, resolve through the front-end memo, cache key
    and lookup, encode.  Returns the cached digest. *)
let hit ~rid ~memo cache frame =
  let req =
    Span.run "protocol.decode" ~rid (fun () ->
        match Protocol.decode frame with
        | Ok f -> Protocol.request_of_payload f.Protocol.payload
        | Error msg -> Error msg)
  in
  match req with
  | Error msg -> Error msg
  | Ok req -> (
      match Span.run "server.resolve" ~rid (fun () -> Grip_serve.Server.resolve ~memo req) with
      | Error e -> Error (Grip_error.to_string e)
      | Ok (k, _, _) -> (
          let key =
            Span.run "cache.key" ~rid (fun () ->
                Cache.key ~fus:req.Protocol.fus ~method_:req.Protocol.method_ k)
          in
          match Span.run "cache.find" ~rid (fun () -> Cache.find cache key) with
          | None -> Error "replayed hit missed the cache"
          | Some e ->
              ignore
                (Span.run "protocol.encode" ~rid (fun () ->
                     Protocol.encode
                       {
                         Protocol.id = rid;
                         kind = Protocol.Schedule_resp;
                         payload =
                           Grip_obs.Json.to_string
                             (Protocol.reply_to_json
                                {
                                  Protocol.rkernel = k.Grip.Kernel.name;
                                  rung = e.Cache.rung;
                                  digest = e.Cache.digest;
                                  cache = "hit";
                                  speedup = e.Cache.speedup;
                                  wall_ms = 0.0;
                                });
                       }));
              Ok e.Cache.digest))
