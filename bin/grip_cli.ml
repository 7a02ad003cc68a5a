(* grip — command-line driver for the GRiP VLIW pipeliner.

   Subcommands:
     compile  FILE.mc          parse/typecheck/lower a minic kernel
     schedule (FILE.mc | LLn)  pipeline a kernel through the guarded
                               pipeline (degradation ladder) and report
     simulate (FILE.mc | LLn)  execute sequential vs scheduled
     list                      list the built-in kernels             *)

open Cmdliner
module Machine = Vliw_machine.Machine
module Pipeline = Grip.Pipeline
module Grip_error = Grip_robust.Grip_error
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor
module Budget = Grip_robust.Budget
module Fault = Grip_robust.Fault

(* Read a whole file, closing the channel on any failure and carrying
   [Sys_error] as a structured Io error instead of an uncaught
   exception. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Grip_error.make Grip_error.Io (Grip_error.Io_failure m))
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error m ->
              Error (Grip_error.make Grip_error.Io (Grip_error.Io_failure m))
          | exception End_of_file ->
              Error
                (Grip_error.make Grip_error.Io
                   (Grip_error.Io_failure (path ^ ": truncated read"))))

let die e =
  Format.eprintf "grip: %a@." Grip_error.pp e;
  exit 1

let invalid fmt =
  Format.kasprintf
    (fun msg -> die (Grip_error.make Grip_error.Io (Grip_error.Message msg)))
    fmt

let machine_of_fus fus =
  if fus < 1 then invalid "--fus must be at least 1 (got %d)" fus
  else Machine.homogeneous fus

(* -- resource-argument validation ------------------------------------------
   Out-of-range values die with a structured error; merely unreasonable
   ones are clamped with a warning, so a fat-fingered flag degrades the
   run instead of oversubscribing the machine or disabling a bound. *)

let validate_jobs jobs =
  if jobs < 1 then invalid "--jobs must be at least 1 (got %d)" jobs;
  let rec_domains = Domain.recommended_domain_count () in
  let ceiling = max 1 (4 * rec_domains) in
  if jobs > ceiling then begin
    Format.eprintf
      "grip: warning: clamping --jobs %d to %d (4x the %d domain(s) this \
       machine supports)@."
      jobs ceiling rec_domains;
    ceiling
  end
  else jobs

(* milliseconds on the flag, seconds internally; 0 = no deadline *)
let validate_deadline_ms = function
  | None -> None
  | Some ms when Float.is_nan ms || ms < 0.0 ->
      invalid "--deadline-ms must be non-negative (got %g)" ms
  | Some ms when ms = 0.0 -> None
  | Some ms -> Some (ms /. 1e3)

let validate_retries retries =
  if retries < 0 then invalid "--retries must be non-negative (got %d)" retries;
  if retries > 16 then begin
    Format.eprintf "grip: warning: clamping --retries %d to 16@." retries;
    16
  end
  else retries

let validate_queue queue =
  if queue < 1 then invalid "--queue must be at least 1 (got %d)" queue;
  queue

(* resolve a kernel argument: a built-in kernel or a minic source
   file *)
let resolve name =
  match Workloads.Builtin.find name with
  | Some found -> Ok found
  | None when Sys.file_exists name -> (
      match read_file name with
      | Error e -> Error e
      | Ok src -> (
          match Minic.Compile.kernel_of_string src with
          | Ok out -> Ok (out.Minic.Compile.kernel, out.Minic.Compile.data)
          | Error e -> Error e))
  | None ->
      Error
        (Grip_error.make Grip_error.Io
           (Grip_error.Message
              (Printf.sprintf
                 "%S is neither a built-in kernel (LL1..LL14, abc, abcdefg) \
                  nor a readable file"
                 name)))

let kernel_arg =
  let doc = "Kernel: LL1..LL14, abc, abcdefg, or a minic source file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let kernels_arg =
  let doc =
    "Kernels: LL1..LL14, abc, abcdefg, or minic source files.  More than one \
     may be given; with --jobs they are scheduled in parallel and reported in \
     argument order."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"KERNEL" ~doc)

let jobs_arg =
  let doc =
    "Scheduling domains for multi-kernel batches (default 1: everything on \
     the calling domain).  Reports are printed in argument order and are \
     byte-identical whatever $(docv) is."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let deadline_ms_arg =
  let doc =
    "Wall-clock budget per scheduling rung, in milliseconds.  The budget \
     token is polled at the scheduler loop heads, so a rung that blows it \
     abandons mid-schedule and the degradation ladder descends; 0 disables \
     the deadline."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let retries_arg ~default =
  let doc =
    "Supervised re-admissions of a failed task before it is quarantined \
     (its slot reports the final error; the rest of the batch completes)."
  in
  Arg.(value & opt int default & info [ "retries" ] ~docv:"N" ~doc)

let fus_arg =
  let doc = "Number of homogeneous functional units." in
  Arg.(value & opt int 4 & info [ "fus"; "f" ] ~docv:"N" ~doc)

let method_arg =
  let methods =
    [
      ("grip", Pipeline.Grip);
      ("grip-no-gap", Pipeline.Grip_no_gap);
      ("post", Pipeline.Post);
      ("unifiable", Pipeline.Unifiable);
    ]
  in
  let doc = "Scheduling technique: grip, grip-no-gap, post or unifiable." in
  Arg.(value & opt (enum methods) Pipeline.Grip & info [ "method"; "m" ] ~doc)

let horizon_arg =
  let doc = "Unwinding horizon (iterations); default scales with the machine." in
  Arg.(value & opt (some int) None & info [ "horizon" ] ~docv:"H" ~doc)

let table_arg =
  let doc = "Print the iteration/instruction schedule table." in
  Arg.(value & flag & info [ "table"; "t" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of the run to $(docv) (open in \
     chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print scheduler counters, histograms and per-phase timings." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let show_table_arg =
  let doc =
    "Print an ASCII slot-occupancy timeline of the schedule, flagging the \
     converged pattern window."
  in
  Arg.(value & flag & info [ "show-table" ] ~doc)

let digest_arg =
  let doc =
    "Print the content digest of the rendered schedule — the same value the \
     scheduling daemon serves, so offline and served schedules can be \
     compared byte-for-byte."
  in
  Arg.(value & flag & info [ "digest" ] ~doc)

(* Per-kernel observability: every task of a schedule batch gets a
   private handle — a ring tracer when --trace is on, a fresh metrics
   registry when --metrics is on — so worker domains never share a
   sink.  After the join the registries merge into one report and the
   rings concatenate (timestamp-ordered) into one trace file. *)
let make_obs ~want_trace ~want_metrics =
  let ring, tracer =
    if want_trace then
      let r, t = Trace.ring () in
      (Some r, t)
    else (None, Trace.null)
  in
  let registry = if want_metrics then Metrics.create () else Metrics.disabled in
  (Obs.make ~trace:tracer ~metrics:registry (), ring, registry)

(* The run's tracks (tid scheme: {!Obs.Trace_file}) written to [path]. *)
let write_trace path tracks =
  match Obs.Trace_file.write path tracks with
  | Ok () -> Format.eprintf "grip: trace written to %s@." path
  | Error m -> die (Grip_error.make Grip_error.Io (Grip_error.Io_failure m))

(* -- compile ------------------------------------------------------------- *)

let compile_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"minic source file")
  in
  let run file =
    let result =
      match read_file file with
      | Error e -> Error e
      | Ok src -> Minic.Compile.kernel_of_string src
    in
    match result with
    | Error e -> die e
    | Ok out ->
        let k = out.Minic.Compile.kernel in
        Format.printf "kernel %s: %d pre ops, %d body ops, %d arrays@."
          k.Grip.Kernel.name
          (List.length k.Grip.Kernel.pre)
          (List.length k.Grip.Kernel.body)
          (List.length k.Grip.Kernel.arrays);
        List.iter
          (fun kind -> Format.printf "  %a@." Vliw_ir.Operation.pp_kind kind)
          k.Grip.Kernel.body
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Parse, typecheck and lower a minic kernel")
    Term.(const run $ file)

(* -- schedule ------------------------------------------------------------ *)

(* One kernel's schedule report, rendered into [ppf]: the tables asked
   for, the abandoned rungs, the speedup of [program] (produced [how]),
   its pattern ([no_pattern] when it has none), the oracle verdict, the
   digest when asked and the scheduling time. *)
let report ppf ~table ~show_table ~digest kern machine ~how ~no_pattern
    ~descents ~pattern (m : Grip.Speedup.t) ~wall program =
  let jump_pos = List.length kern.Grip.Kernel.body in
  if table then
    Format.fprintf ppf "%s@." (Grip.Schedule_table.render ~jump_pos program);
  if show_table then
    Format.fprintf ppf "%s@."
      (Grip.Schedule_table.occupancy ~jump_pos
         ?window:
           (Option.map
              (fun (p : Grip.Convergence.pattern) ->
                (p.Grip.Convergence.start, p.Grip.Convergence.period,
                 p.Grip.Convergence.delta))
              pattern)
         ~machine program);
  Pipeline.pp_descents ppf descents;
  Format.fprintf ppf "%s on %a %s: speedup %.2f (%.2f -> %.2f cycles/iter)@."
    kern.Grip.Kernel.name Machine.pp machine how m.Grip.Speedup.speedup
    m.Grip.Speedup.seq_per_iter m.Grip.Speedup.sched_per_iter;
  (match pattern with
  | Some p ->
      Format.fprintf ppf "converged: %d row(s) per %d iteration(s) from row %d@."
        p.Grip.Convergence.period p.Grip.Convergence.delta
        (p.Grip.Convergence.start + 1)
  | None -> Format.fprintf ppf "%s@." no_pattern);
  Format.fprintf ppf "oracle: OK@.";
  if digest then
    Format.fprintf ppf "digest: %s@." (Grip_serve.Cache.schedule_digest program);
  Format.fprintf ppf "scheduling time: %.3fs@." wall

(* One kernel through the guarded pipeline, or, for the Unifiable
   baseline (not a ladder rung), through one unguarded run whose final
   oracle is checked here; the report is rendered into [ppf].  Failures
   raise [Grip_error.Error] for the pool to surface. *)
let schedule_one ~obs ~budget ?deadline ~digest ppf (kern, data) machine
    method_ horizon table show_table =
  let report = report ppf ~table ~show_table ~digest kern machine in
  match method_ with
  | Pipeline.Unifiable ->
      let o =
        Pipeline.run ~obs
          ~budget:(Budget.sub budget ?deadline ())
          kern ~machine ~method_ ?horizon
      in
      let m = Pipeline.measure ~obs ~data o in
      Result.iter_error
        (fun e -> raise (Grip_error.Error e))
        (Pipeline.oracle_final ~kernel:kern.Grip.Kernel.name
           ~mstr:(Format.asprintf "%a" Machine.pp machine)
           ~data ~n:(o.Pipeline.horizon - 2) kern o.Pipeline.program);
      report
        ~how:("with " ^ Pipeline.method_name method_)
        ~no_pattern:"no repeating pattern" ~descents:[]
        ~pattern:o.Pipeline.pattern m ~wall:o.Pipeline.wall_seconds
        o.Pipeline.program
  | _ -> (
      match
        Pipeline.run_robust ~obs ?horizon ?deadline ~budget ~data
          ~start:(Pipeline.rung_of_method method_) kern ~machine
      with
      | Error e -> raise (Grip_error.Error e)
      | Ok r ->
          report
            ~how:("at rung " ^ Pipeline.rung_name r.Pipeline.rung)
            ~no_pattern:"no pipeline pattern (rolled-loop rung)"
            ~descents:r.Pipeline.descents ~pattern:r.Pipeline.pattern
            (Pipeline.measure_robust ~data r)
            ~wall:r.Pipeline.wall_seconds r.Pipeline.program)

let schedule_run kernels fus method_ horizon table trace_file metrics
    show_table digest jobs deadline_ms retries =
  let jobs = validate_jobs jobs in
  let deadline = validate_deadline_ms deadline_ms in
  let retries = validate_retries retries in
  let machine = machine_of_fus fus in
  (* resolve every kernel before spawning anything *)
  let resolved =
    List.map
      (fun name -> match resolve name with Ok r -> Ok r | Error e -> die e)
      kernels
    |> List.map Result.get_ok
  in
  (* each task: private obs handle, report rendered into a buffer;
     the executing worker rides along so the trace writer can place
     the task's ring on that worker's Chrome track *)
  let run_one ~worker ~budget resolved_kernel =
    let obs, ring, registry =
      make_obs ~want_trace:(trace_file <> None) ~want_metrics:metrics
    in
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    schedule_one ~obs ~budget ?deadline ~digest ppf resolved_kernel machine
      method_ horizon table show_table;
    Format.pp_print_flush ppf ();
    (Buffer.contents buf, ring, registry, worker)
  in
  (* the supervisor's own events (retries, restarts, quarantines) land
     in a coordinator-side handle, merged with the per-task ones *)
  let sup_obs, sup_ring, sup_registry =
    make_obs ~want_trace:(trace_file <> None) ~want_metrics:metrics
  in
  (* with tracing on, the runtime-events consumer captures per-domain
     GC spans for the trace's gc tracks *)
  let rt = if trace_file <> None then Some (Obs.Runtime.start ()) else None in
  let config = { Supervisor.default_config with Supervisor.retries } in
  let results, _rstats =
    Pool.with_pool ~jobs (fun pool ->
        Supervisor.supervise_worker ~config ~obs:sup_obs pool ~f:run_one
          resolved)
  in
  Option.iter Obs.Runtime.stop rt;
  (* preserve the unsupervised contract: the lowest-index quarantined
     failure is the run's failure *)
  (match
     List.find_map (function Error e -> Some e | Ok _ -> None) results
   with
  | Some e -> die e
  | None -> ());
  let results = List.map Result.get_ok results in
  List.iter (fun (report, _, _, _) -> print_string report) results;
  let rings =
    List.filter_map (fun (_, ring, _, _) -> ring) results
    @ Option.to_list sup_ring
  in
  let dropped =
    List.fold_left (fun acc r -> acc + Trace.ring_dropped r) 0 rings
  in
  if metrics then begin
    let merged = Metrics.create () in
    List.iter
      (fun (_, _, registry, _) -> Metrics.merge ~into:merged registry)
      results;
    Metrics.merge ~into:merged sup_registry;
    if rings <> [] then Metrics.add merged "trace_events_dropped" dropped;
    Format.printf "-- metrics --@.%a" Metrics.pp merged
  end;
  match trace_file with
  | Some path ->
      Obs.Trace_file.warn_dropped ~dropped path;
      write_trace path
        (Obs.Trace_file.tracks
           ?main:(Option.map (fun r -> ("main", Trace.ring_events r)) sup_ring)
           ~workers:
             (List.filter_map
                (fun (_, ring, _, w) ->
                  Option.map (fun r -> (w, Trace.ring_events r)) ring)
                results)
           rt)
  | None -> ()

let schedule_cmd =
  Cmd.v
    (Cmd.info "schedule"
       ~doc:
         "Pipeline one or more kernels through the guarded pipeline and \
          report speedup")
    Term.(
      const schedule_run $ kernels_arg $ fus_arg $ method_arg $ horizon_arg
      $ table_arg $ trace_arg $ metrics_arg
      $ show_table_arg $ digest_arg $ jobs_arg $ deadline_ms_arg
      $ retries_arg ~default:0)

(* -- stress ---------------------------------------------------------------- *)

let stress_run kernels fus tasks jobs deadline_ms retries queue fault every
    fault_ms poison gap_ms dump =
  let jobs = validate_jobs jobs in
  let deadline = validate_deadline_ms deadline_ms in
  let retries = validate_retries retries in
  let queue = validate_queue queue in
  if tasks < 1 then invalid "--tasks must be at least 1 (got %d)" tasks;
  if every < 1 then invalid "--fault-every must be at least 1 (got %d)" every;
  if Float.is_nan fault_ms || fault_ms < 0.0 then
    invalid "--fault-ms must be non-negative (got %g)" fault_ms;
  if Float.is_nan gap_ms || gap_ms < 0.0 then
    invalid "--gap-ms must be non-negative (got %g)" gap_ms;
  let machine = machine_of_fus fus in
  let resolved =
    List.map
      (fun name -> match resolve name with Ok r -> Ok r | Error e -> die e)
      kernels
    |> List.map Result.get_ok
  in
  let nk = List.length resolved in
  let items =
    List.init tasks (fun i -> (i, List.nth resolved (i mod nk), Pipeline.R_grip))
  in
  let plan =
    Option.map
      (fun f ->
        let fault =
          match f with
          | `Crash -> Fault.Crash
          | `Stall -> Fault.Stall (fault_ms /. 1e3)
          | `Slow -> Fault.Slow (fault_ms /. 1e3)
        in
        Fault.pool_plan ~every ~transient:(not poison) fault)
      fault
  in
  let gap_threshold = if gap_ms = 0.0 then None else Some (gap_ms /. 1e3) in
  let config =
    {
      Supervisor.deadline;
      retries;
      queue_limit = queue;
      gap_threshold;
      fault = plan;
    }
  in
  (* the supervision story — retries, sheds, restarts, gaps — is the
     trace this driver dumps; per-task scheduling traces stay off, so
     the ring holds what the supervisor can emit, up to 2^20 events *)
  let ring, tracer =
    Trace.ring ~capacity:(min (1 lsl 20) (Supervisor.trace_events config ~tasks)) ()
  in
  let registry = Metrics.create () in
  let sup_obs = Obs.make ~trace:tracer ~metrics:registry () in
  let degrade ~level (i, rk, start) =
    let start' = Pipeline.descend_rung start level in
    if start' = start then None
    else Some ((i, rk, start'), Pipeline.rung_name start')
  in
  let f ~budget (_i, (kern, data), start) =
    match
      Pipeline.run_robust ?deadline ~budget ~data ~start kern ~machine
    with
    | Ok r -> Pipeline.rung_name r.Pipeline.rung
    | Error e -> raise (Grip_error.Error e)
  in
  (* with the gap watchdog on, capture GC spans so flagged gaps that
     are really runtime pauses report as gc_pause, not stall *)
  let rt = if gap_threshold <> None then Some (Obs.Runtime.start ()) else None in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Pool.with_pool ~jobs (fun pool ->
        Supervisor.supervise ~config ~obs:sup_obs ~degrade
          ~gap_cause:(Obs.Runtime.gap_cause rt) pool ~f items)
  in
  let wall = Unix.gettimeofday () -. t0 in
  Option.iter Obs.Runtime.stop rt;
  let ok = List.length (List.filter Result.is_ok results) in
  Format.printf
    "stress: %d task(s) over %d kernel(s) on %a, jobs=%d queue=%d retries=%d%s%s@."
    tasks nk Machine.pp machine jobs
    (if queue = max_int then tasks else queue)
    retries
    (match deadline with
    | Some d -> Printf.sprintf " deadline=%.0fms" (d *. 1e3)
    | None -> "")
    (match plan with
    | Some p ->
        Printf.sprintf " fault=%s every %d%s"
          (Fault.pool_fault_name p.Fault.fault)
          p.Fault.every
          (if p.Fault.transient then "" else " (poison)")
    | None -> "");
  Format.printf "  completed %d/%d, %a, wall %.2fs@." ok tasks
    Supervisor.pp_stats stats wall;
  (* final-rung census: where did the ladder (and the load-shedder)
     actually land the batch? *)
  let census = Hashtbl.create 8 in
  List.iter
    (function
      | Ok rung ->
          Hashtbl.replace census rung
            (1 + Option.value (Hashtbl.find_opt census rung) ~default:0)
      | Error _ -> ())
    results;
  Hashtbl.iter (fun rung n -> Format.printf "  rung %-12s x%d@." rung n) census;
  (* attempt latencies from the supervisor's [pool.task_us] histogram:
     the same bounded-error quantiles the serving plane reports *)
  let lat =
    Option.value (Metrics.histogram registry "pool.task_us")
      ~default:(Obs.Hdr.create ())
  in
  let ms q = float_of_int (Obs.Hdr.quantile lat q) /. 1e3 in
  Format.printf "  latency/attempt p50=%.1fms p99=%.1fms p999=%.1fms max=%.1fms@."
    (ms 0.50) (ms 0.99) (ms 0.999)
    (float_of_int (Obs.Hdr.max_value lat) /. 1e3);
  Array.iteri
    (fun w busy ->
      let wgap, wcause =
        List.fold_left
          (fun ((acc, _) as keep) (w', _, g, cause) ->
            if w' = w && g > acc then (g, cause) else keep)
          (0.0, "stall") stats.Supervisor.worker_gaps
      in
      Format.printf "  worker %d: busy %.2fs generation %d max-gap %.1fms%s@."
        w busy
        stats.Supervisor.generations.(w)
        (wgap *. 1e3)
        (if wgap > 0.0 then " (" ^ wcause ^ ")" else ""))
    stats.Supervisor.busy;
  List.iter
    (fun r ->
      match r with
      | Error e -> Format.printf "  quarantined: %a@." Grip_error.pp e
      | Ok _ -> ())
    results;
  if Supervisor.flagged stats then begin
    let stalls, gc_pauses =
      List.fold_left
        (fun (s, g) (_, _, _, cause) ->
          if cause = "gc_pause" then (s, g + 1) else (s + 1, g))
        (0, 0) stats.Supervisor.worker_gaps
    in
    Format.printf
      "  WATCHDOG FLAGGED: %d starvation gap(s) (%d stall, %d gc_pause), \
       widest %.1fms (threshold %.1fms) — dumping trace ring@."
      stats.Supervisor.gap_violations stalls gc_pauses
      (stats.Supervisor.max_gap *. 1e3)
      gap_ms;
    Format.printf "  trace_events_dropped=%d@." (Trace.ring_dropped ring);
    write_trace dump
      (Obs.Trace_file.tracks
         ~main:("main", Trace.ring_events ring)
         ~workers:[] rt)
  end

let stress_cmd =
  let kernels_arg =
    let doc =
      "Kernels cycled over by the synthetic task burst (default LL3)."
    in
    Arg.(value & pos_all string [ "LL3" ] & info [] ~docv:"KERNEL" ~doc)
  in
  let tasks_arg =
    let doc = "Number of scheduling tasks in the burst." in
    Arg.(value & opt int 64 & info [ "tasks" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue bound: tasks are admitted in waves of $(docv); waves \
       past the grace window are load-shed to a cheaper rung."
    in
    Arg.(value & opt int max_int & info [ "queue" ] ~docv:"N" ~doc)
  in
  let fault_arg =
    let doc = "Deterministic fault to inject: crash, stall or slow." in
    Arg.(
      value
      & opt (some (enum [ ("crash", `Crash); ("stall", `Stall); ("slow", `Slow) ])) None
      & info [ "fault" ] ~docv:"KIND" ~doc)
  in
  let every_arg =
    let doc = "Inject the fault into every $(docv)-th task." in
    Arg.(value & opt int 5 & info [ "fault-every" ] ~docv:"N" ~doc)
  in
  let fault_ms_arg =
    let doc = "Stall/slow duration in milliseconds." in
    Arg.(value & opt float 50.0 & info [ "fault-ms" ] ~docv:"MS" ~doc)
  in
  let poison_arg =
    let doc =
      "Make faults permanent (hit every attempt) instead of transient \
       (first attempt only): exercises quarantine instead of retry."
    in
    Arg.(value & flag & info [ "poison" ] ~doc)
  in
  let gap_ms_arg =
    let doc =
      "Starvation-gap watchdog threshold in milliseconds (0 disables the \
       watchdog's gap detection)."
    in
    Arg.(value & opt float 20.0 & info [ "gap-ms" ] ~docv:"MS" ~doc)
  in
  let dump_arg =
    let doc = "Where to dump the trace ring when the watchdog flags the run." in
    Arg.(
      value
      & opt string "grip-stress.trace.json"
      & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Drive a bursty scheduling load through the supervised pool and \
          report latency percentiles, per-worker gaps and resilience \
          counters; optionally inject deterministic worker faults")
    Term.(
      const stress_run $ kernels_arg $ fus_arg $ tasks_arg $ jobs_arg
      $ deadline_ms_arg $ retries_arg ~default:2 $ queue_arg $ fault_arg
      $ every_arg $ fault_ms_arg $ poison_arg $ gap_ms_arg $ dump_arg)

(* -- profile --------------------------------------------------------------- *)

(* Run a kernel (or a batch of copies, with --jobs) through the full
   pipeline with metrics, ring tracing and the runtime-events consumer
   all on, then print the phase attribution table and the
   parallel-efficiency block from the collected data.  The rendering
   itself is [Obs.Profile] — pure functions over the merged registry,
   the recovered phase windows and the captured GC spans. *)
let profile_run kernel fus jobs tasks trace_file max_schedule_alloc =
  let jobs = validate_jobs jobs in
  if tasks < 1 then invalid "--tasks must be at least 1 (got %d)" tasks;
  let machine = machine_of_fus fus in
  let kern, data = match resolve kernel with Ok r -> r | Error e -> die e in
  let rt = Obs.Runtime.start () in
  let run_one ~worker ~budget:_ () =
    let obs, ring, registry = make_obs ~want_trace:true ~want_metrics:true in
    let o = Pipeline.run ~obs kern ~machine ~method_:Pipeline.Grip in
    let m = Pipeline.measure ~obs ~data o in
    (m.Grip.Speedup.speedup, Option.get ring, registry, worker)
  in
  let sup_obs, sup_ring, sup_registry =
    make_obs ~want_trace:true ~want_metrics:true
  in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Pool.with_pool ~jobs (fun pool ->
        Supervisor.supervise_worker ~obs:sup_obs pool ~f:run_one
          (List.init tasks (fun _ -> ())))
  in
  let wall = Unix.gettimeofday () -. t0 in
  Obs.Runtime.stop rt;
  (match
     List.find_map (function Error e -> Some e | Ok _ -> None) results
   with
  | Some e -> die e
  | None -> ());
  let results = List.map Result.get_ok results in
  (* merge per-task registries and rings into one run-wide view *)
  let merged = Metrics.create () in
  List.iter (fun (_, _, registry, _) -> Metrics.merge ~into:merged registry)
    results;
  Metrics.merge ~into:merged sup_registry;
  let events =
    Trace.merge_events
      (List.map (fun (_, ring, _, _) -> Trace.ring_events ring) results)
  in
  let spans = Obs.Runtime.spans rt in
  let windows = Obs.Profile.phase_windows events in
  let rows = Obs.Profile.rows ~metrics:merged ~windows ~spans in
  let speedup =
    match results with (s, _, _, _) :: _ -> s | [] -> 0.0
  in
  Format.printf "profile: %s on %a, jobs=%d task(s)=%d, speedup %.2f@.@."
    kern.Grip.Kernel.name Machine.pp machine jobs tasks speedup;
  Obs.Profile.pp_rows Format.std_formatter rows;
  Format.printf "@.";
  let effs =
    List.init jobs (fun w ->
        let minor_s, major_s =
          Obs.Runtime.gc_seconds ~window:(t0, t0 +. wall) rt ~domain:w
        in
        {
          Obs.Profile.domain = w;
          label = (if w = 0 then "main" else "worker");
          busy_s = stats.Supervisor.busy.(w);
          gc_s = minor_s +. major_s;
        })
  in
  Obs.Profile.pp_efficiency Format.std_formatter ~jobs ~wall_s:wall effs;
  if not (Obs.Runtime.calibrated rt) then
    Format.printf
      "  (runtime-events clock uncalibrated: GC pauses unavailable)@.";
  if Obs.Runtime.lost rt > 0 then
    Format.printf "  runtime events lost: %d@." (Obs.Runtime.lost rt);
  (match trace_file with
  | Some path ->
      write_trace path
        (Obs.Trace_file.tracks
           ?main:(Option.map (fun r -> ("main", Trace.ring_events r)) sup_ring)
           ~workers:
             (List.map (fun (_, ring, _, w) -> (w, Trace.ring_events ring)) results)
           (Some rt))
  | None -> ());
  (* Allocation ceiling: an executable assertion on the flat-IR hot
     path.  The schedule phase is where per-query allocation would
     re-appear first, so a pinned byte budget catches regressions the
     speedup table can't see. *)
  match max_schedule_alloc with
  | None -> ()
  | Some ceiling ->
      let got =
        List.fold_left
          (fun acc r ->
            if r.Obs.Profile.phase = "schedule" then
              acc + r.Obs.Profile.alloc_bytes
            else acc)
          0 rows
      in
      if got > ceiling then (
        Format.printf
          "schedule-phase allocation %d bytes exceeds ceiling %d@." got
          ceiling;
        exit 1)
      else
        Format.printf "schedule-phase allocation %d bytes within ceiling %d@."
          got ceiling

let profile_cmd =
  let tasks_arg =
    let doc =
      "How many copies of the kernel to schedule (with --jobs they spread \
       over the pool, making the parallel-efficiency block meaningful)."
    in
    Arg.(value & opt int 1 & info [ "tasks" ] ~docv:"N" ~doc)
  in
  let max_schedule_alloc_arg =
    let doc =
      "Exit non-zero if the schedule phase allocates more than $(docv) \
       bytes (summed across tasks).  Pins the allocation-free scheduling \
       invariant in CI."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "max-schedule-alloc" ] ~docv:"BYTES" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Schedule a kernel with GC/allocation telemetry on and print a \
          per-phase attribution table (wall seconds, allocated bytes, \
          minor/major collections, max GC pause) plus a \
          parallel-efficiency block (per-worker busy vs. GC-stall time \
          and a collection-barrier estimate)")
    Term.(
      const profile_run $ kernel_arg $ fus_arg $ jobs_arg $ tasks_arg
      $ trace_arg $ max_schedule_alloc_arg)

(* -- simulate ------------------------------------------------------------ *)

let simulate_run kernel fus n =
  match resolve kernel with
  | Error e -> die e
  | Ok (kern, data) -> (
      let machine = machine_of_fus fus in
      let horizon = max 18 (n + 2) in
      match Pipeline.run_robust ~horizon ~data kern ~machine with
      | Error e -> die e
      | Ok r ->
          let c_seq, c_sched =
            match Grip.Speedup.run ~data kern ~scheduled:r.Pipeline.program ~n with
            | cycles -> cycles
            | exception Grip_error.Error e -> die e
          in
          Format.printf
            "%s, %d iterations: sequential %d cycles, %s %d cycles (%.2fx)@."
            kern.Grip.Kernel.name n c_seq
            (Pipeline.rung_name r.Pipeline.rung)
            c_sched
            (float_of_int c_seq /. float_of_int c_sched))

let simulate_cmd =
  let n_arg =
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"Trip count to execute.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute sequential vs scheduled code")
    Term.(const simulate_run $ kernel_arg $ fus_arg $ n_arg)

(* -- explain -------------------------------------------------------------- *)

let explain_run kernel fus method_ horizon op top =
  match resolve kernel with
  | Error e -> die e
  | Ok (kern, _data) ->
      let machine = machine_of_fus fus in
      let prov = Obs.Provenance.create () in
      let obs = Obs.make ~prov () in
      let o = Pipeline.run ~obs kern ~machine ~method_ ?horizon in
      let r = Grip.Explain.report ~prov o in
      Grip.Explain.render Format.std_formatter ?op ~top ~prov o r

let explain_cmd =
  let op_arg =
    let doc = "Also print the full provenance journal of operation $(docv)." in
    Arg.(value & opt (some int) None & info [ "op" ] ~docv:"ID" ~doc)
  in
  let top_arg =
    let doc = "How many top blocking operations to list." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Schedule a kernel with provenance journals on and report why it \
          runs at the rate it does: verdict (dep/resource/scheduler-bound), \
          critical chain, FU pressure and the why-not rejection table")
    Term.(
      const explain_run $ kernel_arg $ fus_arg $ method_arg $ horizon_arg
      $ op_arg $ top_arg)

(* -- bench ---------------------------------------------------------------- *)

let bench_diff_run old_file new_file =
  let read f = match read_file f with Ok s -> s | Error e -> die e in
  let old_ = read old_file and new_ = read new_file in
  match Grip.Bench_diff.diff ~old_ ~new_ with
  | Error msg -> die (Grip_error.make Grip_error.Io (Grip_error.Message msg))
  | Ok r ->
      Format.printf "%a" Grip.Bench_diff.pp_result r;
      if not (Grip.Bench_diff.passes r) then exit 1

let bench_cmd =
  let old_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline BENCH_table1.json artifact.")
  in
  let new_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate BENCH_table1.json artifact.")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two Table 1 bench artifacts cell by cell; exits non-zero \
            when any GRiP speedup dropped, when a GRiP cell is missing, or \
            when a compared cell's integer stats or legality counters differ")
      Term.(const bench_diff_run $ old_arg $ new_arg)
  in
  Cmd.group (Cmd.info "bench" ~doc:"Bench-artifact utilities") [ diff_cmd ]

(* -- serve / loadgen / metrics-dump ---------------------------------------- *)

module Serve = Grip_serve.Server
module Serve_client = Grip_serve.Client
module Serve_loadgen = Grip_serve.Loadgen

let socket_arg =
  let doc = "Unix-domain socket path to serve on / connect to." in
  Arg.(value & opt string "grip.sock" & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc =
    "Use TCP 127.0.0.1:$(docv) instead of the Unix-domain socket."
  in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let addr_of socket port =
  match port with Some p -> Serve.Tcp p | None -> Serve.Unix_sock socket

let serve_run socket port jobs queue deadline_ms retries cache gap_ms
    trace_file =
  let jobs = validate_jobs jobs in
  let deadline = validate_deadline_ms deadline_ms in
  let retries = validate_retries retries in
  let queue = validate_queue queue in
  if cache < 1 then invalid "--cache must be at least 1 (got %d)" cache;
  if Float.is_nan gap_ms || gap_ms < 0.0 then
    invalid "--gap-ms must be non-negative (got %g)" gap_ms;
  let config =
    {
      Serve.addr = addr_of socket port;
      jobs;
      queue_limit = queue;
      deadline;
      retries;
      cache_capacity = cache;
      gap_threshold = (if gap_ms = 0.0 then None else Some (gap_ms /. 1e3));
      trace_file;
    }
  in
  match Serve.run config with Ok _served -> () | Error e -> die e

let serve_cmd =
  let queue_arg =
    let doc =
      "Admission wave size: schedule requests are dispatched onto the \
       supervised pool in waves of $(docv); overflow waves are load-shed \
       one rung down the degradation ladder."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Capacity of the content-addressed schedule cache (LRU)." in
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let gap_ms_arg =
    let doc =
      "Starvation-gap watchdog threshold in milliseconds (0 disables it); \
       a flagged run dumps the trace ring at shutdown."
    in
    Arg.(value & opt float 0.0 & info [ "gap-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: framed requests on a loopback socket, \
          dispatched through the supervised pool with a content-addressed \
          schedule cache, HDR latency histograms and an OpenMetrics \
          exposition")
    Term.(
      const serve_run $ socket_arg $ port_arg $ jobs_arg $ queue_arg
      $ deadline_ms_arg $ retries_arg ~default:1 $ cache_arg $ gap_ms_arg
      $ trace_arg)

(* A loadgen kernel argument is a built-in name (sent by name) or a
   minic file (sent as inline source). *)
let loadgen_template fus method_ name =
  if Sys.file_exists name then
    match read_file name with
    | Ok src ->
        { Grip_serve.Protocol.kernel = None; source = Some src; fus;
          method_ }
    | Error e -> die e
  else
    { Grip_serve.Protocol.kernel = Some name; source = None; fus; method_ }

let parse_key_dist s =
  match String.lowercase_ascii s with
  | "uniform" -> `Uniform
  | other -> (
      match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "zipf" -> (
          let rest = String.sub other (i + 1) (String.length other - i - 1) in
          match float_of_string_opt rest with
          | Some s when (not (Float.is_nan s)) && s > 0.0 -> `Zipf s
          | Some _ | None ->
              invalid "--key-dist zipf exponent must be positive (got %s)" rest)
      | _ ->
          invalid
            "--key-dist must be 'uniform' or 'zipf:S' with S > 0 (got %s)" s)

let loadgen_run socket port kernels fus method_ requests rate period duty
    key_dist shutdown =
  if requests < 1 then invalid "--requests must be at least 1 (got %d)" requests;
  if Float.is_nan rate || rate <= 0.0 then
    invalid "--rate must be positive (got %g)" rate;
  if Float.is_nan period || period <= 0.0 then
    invalid "--period must be positive (got %g)" period;
  if Float.is_nan duty || duty <= 0.0 || duty > 1.0 then
    invalid "--duty must be in (0, 1] (got %g)" duty;
  if fus < 1 then invalid "--fus must be at least 1 (got %d)" fus;
  let method_name =
    match method_ with
    | Pipeline.Grip -> "grip"
    | Pipeline.Grip_no_gap -> "grip-no-gap"
    | Pipeline.Post -> "post"
    | Pipeline.Unifiable -> invalid "loadgen: method unifiable is not served"
  in
  let key_dist = parse_key_dist key_dist in
  let templates = List.map (loadgen_template fus method_name) kernels in
  let addr = addr_of socket port in
  match Serve_client.connect addr with
  | Error msg ->
      die (Grip_error.make Grip_error.Serve (Grip_error.Io_failure msg))
  | Ok client -> (
      let finish () = Serve_client.close client in
      Fun.protect ~finally:finish (fun () ->
          match
            Serve_loadgen.run ~key_dist client ~requests ~rate ~period ~duty
              templates
          with
          | Error msg ->
              die
                (Grip_error.make Grip_error.Serve
                   (Grip_error.Protocol_violation msg))
          | Ok report -> (
              Serve_loadgen.pp_report Format.std_formatter report;
              (* the daemon-side view of the burst: queue depth, sheds
                 and the per-worker gap census from the exposition *)
              (match Serve_client.metrics client with
              | Ok text ->
                  List.iter
                    (fun line ->
                      if
                        List.exists
                          (fun needle ->
                            let ln = String.length needle in
                            let rec has i =
                              i + ln <= String.length line
                              && (String.sub line i ln = needle || has (i + 1))
                            in
                            has 0)
                          [ "queue_depth"; "gap"; "sheds" ]
                      then Format.printf "  daemon %s@." line)
                    (String.split_on_char '\n' text)
              | Error msg ->
                  Format.eprintf "grip: metrics fetch failed: %s@." msg);
              if shutdown then
                match Serve_client.shutdown client with
                | Ok () -> ()
                | Error msg ->
                    die
                      (Grip_error.make Grip_error.Serve
                         (Grip_error.Protocol_violation msg)))))

let loadgen_cmd =
  let kernels_arg =
    let doc = "Kernels cycled over by the request stream (default LL3)." in
    Arg.(value & pos_all string [ "LL3" ] & info [] ~docv:"KERNEL" ~doc)
  in
  let requests_arg =
    let doc = "Total requests to offer." in
    Arg.(value & opt int 1000 & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Mean offered rate, requests per second." in
    Arg.(value & opt float 500.0 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let period_arg =
    let doc = "Burst cycle length in seconds." in
    Arg.(value & opt float 0.25 & info [ "period" ] ~docv:"S" ~doc)
  in
  let duty_arg =
    let doc =
      "Busy fraction of each burst cycle: each cycle's requests are packed \
       into its first $(docv) fraction, then the line goes idle."
    in
    Arg.(value & opt float 0.5 & info [ "duty" ] ~docv:"D" ~doc)
  in
  let key_dist_arg =
    let doc =
      "Template popularity: 'uniform' cycles round-robin; 'zipf:S' draws \
       template ranks from a Zipf law with exponent S (deterministic, \
       fixed-seed), so the burst exercises realistic cache hit/miss \
       ratios."
    in
    Arg.(value & opt string "uniform" & info [ "key-dist" ] ~docv:"DIST" ~doc)
  in
  let shutdown_arg =
    let doc = "Send a shutdown frame to the daemon after the run." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop (coordinated-omission-free) bursty load generator for \
          the scheduling daemon: fixed arrival schedule, pipelined \
          requests, latency measured from scheduled arrival; reports HDR \
          percentiles, throughput and per-tier cache hit-rates")
    Term.(
      const loadgen_run $ socket_arg $ port_arg $ kernels_arg $ fus_arg
      $ method_arg $ requests_arg $ rate_arg $ period_arg $ duty_arg
      $ key_dist_arg $ shutdown_arg)

let metrics_dump_run socket port =
  match Serve_client.connect ~attempts:1 (addr_of socket port) with
  | Error msg ->
      die (Grip_error.make Grip_error.Serve (Grip_error.Io_failure msg))
  | Ok client ->
      Fun.protect
        ~finally:(fun () -> Serve_client.close client)
        (fun () ->
          match Serve_client.metrics client with
          | Ok text -> print_string text
          | Error msg ->
              die
                (Grip_error.make Grip_error.Serve
                   (Grip_error.Protocol_violation msg)))

let metrics_dump_cmd =
  Cmd.v
    (Cmd.info "metrics-dump"
       ~doc:
         "Fetch and print the running daemon's OpenMetrics exposition \
          (counters, gauges, histograms, HDR latency quantile buckets)")
    Term.(const metrics_dump_run $ socket_arg $ port_arg)

(* -- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.printf "paper examples: abc, abcdefg@.";
    List.iter
      (fun (e : Workloads.Livermore.entry) ->
        Format.printf "%-6s %s@." e.Workloads.Livermore.kernel.Grip.Kernel.name
          e.Workloads.Livermore.kernel.Grip.Kernel.description)
      Workloads.Livermore.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in kernels") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "grip" ~version:"1.0.0"
      ~doc:"Global Resource-constrained Percolation scheduling for VLIW loops"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd;
            schedule_cmd;
            stress_cmd;
            profile_cmd;
            simulate_cmd;
            explain_cmd;
            bench_cmd;
            serve_cmd;
            loadgen_cmd;
            metrics_dump_cmd;
            list_cmd;
          ]))
