(** The GRiP scheduling daemon.

    [grip serve] binds a loopback socket (Unix-domain or TCP), reads
    {!Protocol} frames, and dispatches schedule requests onto the
    supervised domain pool — the same admission-control, retry,
    load-shed and watchdog machinery the batch drivers use, now fed by
    a socket instead of a task list:

    - frames that complete in one select round form one {e admission
      wave}; the wave runs through [Supervisor.supervise_worker], so
      queue-limit backpressure applies and overflow requests are
      load-shed one rung down the degradation ladder rather than
      queued without bound;
    - results are cached content-addressed ({!Cache}): a repeat of an
      already-scheduled problem answers from the cache without
      touching the pool, and duplicates {e within} a wave are
      coalesced onto one scheduling task;
    - every request's service time lands in the registry's
      [serve.latency_us] histogram (a scheduled miss also in
      [serve.latency.cold_us]), each scheduling task's own registry is
      merged into it, and the whole registry (cache hits/misses/
      evictions, queue depth, shed counts, latency histograms) is
      exposed in OpenMetrics text via a [Metrics_req] frame;
    - each request is correlated through the trace: the daemon emits
      [Request_stage] milestones (received / cache_hit / schedule /
      respond) carrying the request id, and each scheduling task runs
      inside a [Stage "request N"] span on its worker's ring, so a
      merged Chrome trace shows one connected track per request; the
      events a ring overwrote are counted in [trace_events_dropped]
      and reported when the trace is written;
    - the supervisor's starvation watchdog stays armed ([--gap-ms]):
      a flagged run dumps the trace ring at shutdown, with gaps
      classified stall vs gc_pause by the runtime-events consumer,
      which also runs under [--trace] so the trace file carries each
      domain's GC track. *)

module Pipeline = Grip.Pipeline
module Grip_error = Grip_robust.Grip_error
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Hdr = Grip_obs.Hdr
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor

type addr = Unix_sock of string | Tcp of int  (** TCP binds 127.0.0.1 *)

let pp_addr ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp port -> Format.fprintf ppf "tcp:127.0.0.1:%d" port

type config = {
  addr : addr;
  jobs : int;
  queue_limit : int;  (** admission wave size for the supervisor *)
  deadline : float option;  (** per-attempt budget, seconds *)
  retries : int;
  cache_capacity : int;
  gap_threshold : float option;  (** starvation watchdog, seconds *)
  trace_file : string option;
      (** write the merged request trace here at shutdown; a
          watchdog-flagged run without one dumps to
          [grip-serve.trace.json] *)
}

let default_config ~addr =
  {
    addr;
    jobs = 1;
    queue_limit = 64;
    deadline = None;
    retries = 1;
    cache_capacity = 256;
    gap_threshold = None;
    trace_file = None;
  }

(* -- request resolution ----------------------------------------------------

   A request names a built-in kernel ({!Workloads.Builtin}, as the CLI
   resolves one) or carries inline minic source; anything else is a
   protocol violation. *)

let rung_of_method_name = function
  | "grip" -> Ok Pipeline.R_grip
  | "grip-no-gap" -> Ok Pipeline.R_grip_no_gap
  | "post" -> Ok Pipeline.R_post
  | other -> Error (Printf.sprintf "unknown method %S" other)

let protocol_error msg =
  Grip_error.make Grip_error.Serve (Grip_error.Protocol_violation msg)

(** A memoizable frontend result: the lowered kernel and its data
    function (or the error the lowering produced — also memoized, so a
    hot malformed source does not re-parse either). *)
type resolved =
  (Grip.Kernel.t * (string -> int -> Vliw_ir.Value.t), Grip_error.t) result

let resolve_kernel (r : Protocol.request) : resolved =
  match (r.Protocol.kernel, r.Protocol.source) with
  | Some name, None -> (
      match Workloads.Builtin.find name with
      | Some found -> Ok found
      | None -> Error (protocol_error (Printf.sprintf "unknown kernel %S" name)))
  | None, Some src -> (
      match Minic.Compile.kernel_of_string src with
      | Ok out -> Ok (out.Minic.Compile.kernel, out.Minic.Compile.data)
      | Error e -> Error e)
  | _ ->
      (* unreachable: Protocol.request_of_json enforces exactly one *)
      Error (protocol_error "malformed request")

let resolve ?memo ?registry (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* start = Result.map_error protocol_error (rung_of_method_name r.Protocol.method_) in
  if r.Protocol.fus < 1 || r.Protocol.fus > 64 then
    Error (protocol_error (Printf.sprintf "fus %d out of [1, 64]" r.Protocol.fus))
  else
    let* kern, data =
      match memo with
      | None -> resolve_kernel r
      | Some tbl -> (
          let mk = (r.Protocol.kernel, r.Protocol.source) in
          match Hashtbl.find_opt tbl mk with
          | Some res ->
              Option.iter
                (fun reg -> Metrics.incr reg "serve.resolve.memo_hits")
                registry;
              res
          | None ->
              let res = resolve_kernel r in
              (* bounded: a hostile client cycling unique sources must
                 not grow the memo without limit *)
              if Hashtbl.length tbl < 4096 then Hashtbl.replace tbl mk res;
              res)
    in
    Ok (kern, data, start)

(* -- connections ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable pending : string }

(* Extract every complete frame from the connection's pending bytes;
   the first malformed header poisons the connection (framing is
   lost), reported as [Error]. *)
let extract_frames conn =
  let rec go acc =
    let s = conn.pending in
    if String.length s < Protocol.header_len then Ok (List.rev acc)
    else
      match Protocol.decode_header s with
      | Error msg -> Error msg
      | Ok (kind, id, len) ->
          let total = Protocol.header_len + len in
          if String.length s < total then Ok (List.rev acc)
          else begin
            let payload = String.sub s Protocol.header_len len in
            conn.pending <-
              String.sub s total (String.length s - total);
            go ({ Protocol.id; kind; payload } :: acc)
          end
  in
  go []

let send conn frame =
  match Protocol.write_frame conn.fd frame with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* -- the daemon ------------------------------------------------------------- *)

type state = {
  config : config;
  registry : Metrics.t;
  ring : Trace.ring;
  tracer : Trace.t;
  cache : Cache.t;
  resolve_memo : (string option * string option, resolved) Hashtbl.t;
      (** frontend memo: request (kernel, source) -> lowered kernel, so
          a repeated inline minic source is not re-parsed *)
  rt : Obs.Runtime.t option;  (** GC-span consumer for gap_cause *)
  mutable worker_events : (int * (float * Trace.event) list) list;
      (** per-request worker rings collected for the shutdown trace *)
  mutable flagged : bool;
  mutable served : int;
  t0 : float;
}

let reply_frame id reply =
  {
    Protocol.id;
    kind = Protocol.Schedule_resp;
    payload = Grip_obs.Json.to_string (Protocol.reply_to_json reply);
  }

let error_frame id (e : Grip_error.t) =
  {
    Protocol.id;
    kind = Protocol.Error_resp;
    payload =
      Protocol.error_payload
        ~stage:(Grip_error.stage_name e.Grip_error.stage)
        (Grip_error.to_string e);
  }

let finish_request ?(miss = false) st conn ~id ~recv_at frame_or_err =
  let frame =
    match frame_or_err with
    | Ok reply -> reply_frame id reply
    | Error e ->
        Metrics.incr st.registry "serve.errors";
        error_frame id e
  in
  Trace.emit st.tracer (Trace.Request_stage { id; stage = "respond" });
  ignore (send conn frame);
  st.served <- st.served + 1;
  let lat_us = int_of_float ((Unix.gettimeofday () -. recv_at) *. 1e6) in
  Metrics.observe st.registry "serve.latency_us" lat_us;
  (* scheduled misses also land in the cold-latency slice *)
  if miss then Metrics.observe st.registry "serve.latency.cold_us" lat_us

(* A cache miss scheduled through the pool. *)
type task = {
  t_key : string;  (** cache key (kernel + fus + method) *)
  t_kern : Grip.Kernel.t;
  t_data : string -> int -> Vliw_ir.Value.t;
  t_start : Pipeline.rung;
  t_fus : int;
}

(* One select round's schedule requests, as one supervised admission
   wave: answer cache hits inline, coalesce duplicate problems, run
   the distinct misses through the pool, fill the cache, respond. *)
let process_wave st pool reqs =
  let now () = Unix.gettimeofday () in
  (* per distinct cache key: the task to run plus every (conn, id,
     recv_at, position) waiting on it *)
  let tasks = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (conn, (frame : Protocol.frame), recv_at) ->
      let id = frame.Protocol.id in
      Metrics.incr st.registry "serve.requests";
      Trace.emit st.tracer (Trace.Request_stage { id; stage = "received" });
      match Protocol.request_of_payload frame.Protocol.payload with
      | Error msg ->
          Metrics.incr st.registry "serve.errors.protocol";
          finish_request st conn ~id ~recv_at (Error (protocol_error msg))
      | Ok req -> (
          match resolve ~memo:st.resolve_memo ~registry:st.registry req with
          | Error e -> finish_request st conn ~id ~recv_at (Error e)
          | Ok (kern, data, start) -> (
              let key =
                Cache.key ~fus:req.Protocol.fus ~method_:req.Protocol.method_
                  kern
              in
              match Cache.find st.cache key with
              | Some e ->
                  Metrics.incr st.registry "serve.cache.hits";
                  Trace.emit st.tracer
                    (Trace.Request_stage { id; stage = "cache_hit" });
                  finish_request st conn ~id ~recv_at
                    (Ok
                       {
                         Protocol.rkernel = kern.Grip.Kernel.name;
                         rung = e.Cache.rung;
                         digest = e.Cache.digest;
                         cache = "hit";
                         speedup = e.Cache.speedup;
                         wall_ms = (now () -. recv_at) *. 1e3;
                       })
              | None -> (
                  match Hashtbl.find_opt tasks key with
                  | Some waiters ->
                      Metrics.incr st.registry "serve.cache.coalesced";
                      waiters := (conn, id, recv_at) :: !waiters
                  | None ->
                      Metrics.incr st.registry "serve.cache.misses";
                      Hashtbl.replace tasks key (ref [ (conn, id, recv_at) ]);
                      order :=
                        {
                          t_key = key;
                          t_kern = kern;
                          t_data = data;
                          t_start = start;
                          t_fus = req.Protocol.fus;
                        }
                        :: !order))))
    reqs;
  let items = List.rev !order in
  if items <> [] then begin
    let sup_config =
      {
        Supervisor.default_config with
        Supervisor.deadline = st.config.deadline;
        retries = st.config.retries;
        queue_limit = st.config.queue_limit;
        gap_threshold = st.config.gap_threshold;
      }
    in
    let degrade ~level t =
      let start' = Pipeline.descend_rung t.t_start level in
      if start' = t.t_start then None
      else Some ({ t with t_start = start' }, Pipeline.rung_name start')
    in
    let want_trace = st.config.trace_file <> None in
    let f ~worker ~budget t =
      let machine = Vliw_machine.Machine.homogeneous t.t_fus in
      (* the wave's requests waiting on this problem, for the span tag *)
      let rid =
        match Hashtbl.find_opt tasks t.t_key with
        | Some ws -> (
            match List.rev !ws with (_, id, _) :: _ -> id | [] -> 0)
        | None -> 0
      in
      let ring, tracer =
        if want_trace then
          let r, t = Trace.ring () in
          (Some r, t)
        else (None, Trace.null)
      in
      let obs = Obs.make ~trace:tracer ~metrics:(Metrics.create ()) () in
      let span = Trace.Stage (Printf.sprintf "request %d" rid) in
      Trace.emit tracer (Trace.Span_begin span);
      Trace.emit tracer (Trace.Request_stage { id = rid; stage = "schedule" });
      let result =
        Pipeline.run_robust ~obs ?deadline:st.config.deadline ~budget
          ~data:t.t_data ~start:t.t_start t.t_kern ~machine
      in
      Trace.emit tracer (Trace.Span_end span);
      match result with
      | Error e -> raise (Grip_error.Error e)
      | Ok r ->
          let m = Pipeline.measure_robust ~data:t.t_data r in
          ( Pipeline.rung_name r.Pipeline.rung,
            Cache.schedule_digest r.Pipeline.program,
            m.Grip.Speedup.speedup,
            worker,
            ring,
            obs )
    in
    let sup_obs = Obs.make ~trace:st.tracer ~metrics:st.registry () in
    let results, stats =
      Supervisor.supervise_worker ~config:sup_config ~obs:sup_obs ~degrade
        ~gap_cause:(Obs.Runtime.gap_cause st.rt) pool ~f items
    in
    if Supervisor.flagged stats then st.flagged <- true;
    List.iter2
      (fun t result ->
        let waiters = List.rev !(Hashtbl.find tasks t.t_key) in
        match result with
        | Error e ->
            Metrics.incr st.registry "serve.errors.schedule";
            List.iter
              (fun (conn, id, recv_at) ->
                finish_request st conn ~id ~recv_at (Error e))
              waiters
        | Ok (rung, digest, speedup, worker, ring, obs) ->
            Metrics.merge ~into:st.registry obs.Obs.metrics;
            Option.iter
              (fun r ->
                Metrics.add st.registry "trace_events_dropped"
                  (Trace.ring_dropped r);
                st.worker_events <-
                  (worker, Trace.ring_events r) :: st.worker_events)
              ring;
            let evictions =
              Cache.add st.cache t.t_key ~rung ~digest ~speedup ~now:(now ())
            in
            Metrics.add st.registry "serve.cache.evictions" evictions;
            List.iteri
              (fun i (conn, id, recv_at) ->
                finish_request ~miss:true st conn ~id ~recv_at
                  (Ok
                     {
                       Protocol.rkernel = t.t_kern.Grip.Kernel.name;
                       rung;
                       digest;
                       cache = (if i > 0 then "coalesced" else "miss");
                       speedup;
                       wall_ms = (now () -. recv_at) *. 1e3;
                     }))
              waiters)
      items results
  end

let render_metrics st =
  let now = Unix.gettimeofday () in
  Metrics.gauge_set st.registry "serve.cache.size"
    (float_of_int (Cache.size st.cache));
  Metrics.gauge_set st.registry "serve.cache.bytes"
    (float_of_int (Cache.bytes st.cache));
  Metrics.gauge_set st.registry "serve.cache.age_seconds"
    (Cache.oldest_age st.cache ~now);
  Metrics.gauge_set st.registry "serve.uptime_seconds" (now -. st.t0);
  Grip_obs.Openmetrics.render st.registry

(* The trace file at shutdown, with a warning when a ring overwrote
   events: the main ring's drops join the workers' in
   [trace_events_dropped]. *)
let write_trace_file st path =
  Metrics.add st.registry "trace_events_dropped" (Trace.ring_dropped st.ring);
  Obs.Trace_file.warn_dropped
    ~dropped:(Metrics.counter st.registry "trace_events_dropped")
    path;
  let tracks =
    Obs.Trace_file.tracks
      ~main:("serve", Trace.ring_events st.ring)
      ~workers:st.worker_events st.rt
  in
  match Obs.Trace_file.write path tracks with
  | Ok () -> Format.eprintf "grip: serve trace written to %s@." path
  | Error m -> Format.eprintf "grip: trace write failed: %s@." m

let listen_socket addr =
  match addr with
  | Unix_sock path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(** [run config] — bind, serve until a [Shutdown_req] frame, then
    write the trace (if requested or the watchdog flagged the run) and
    return how many requests were served. *)
let run config =
  match listen_socket config.addr with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Grip_error.make Grip_error.Serve
           (Grip_error.Io_failure
              (Format.asprintf "cannot bind %a: %s" pp_addr config.addr
                 (Unix.error_message err))))
  | listen_fd ->
      let ring, tracer = Trace.ring ~capacity:65536 () in
      let st =
        {
          config;
          registry = Metrics.create ();
          ring;
          tracer;
          cache = Cache.create ~capacity:config.cache_capacity;
          resolve_memo = Hashtbl.create 64;
          rt =
            (if config.gap_threshold <> None || config.trace_file <> None then
               Some (Obs.Runtime.start ())
             else None);
          worker_events = [];
          flagged = false;
          served = 0;
          t0 = Unix.gettimeofday ();
        }
      in
      Format.eprintf
        "grip: serving on %a (jobs=%d queue=%d cache=%d)@." pp_addr
        config.addr config.jobs config.queue_limit config.cache_capacity;
      let conns = ref [] in
      let shutdown = ref false in
      let close_conn conn =
        conns := List.filter (fun c -> c != conn) !conns;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      in
      Pool.with_pool ~jobs:config.jobs (fun pool ->
          while not !shutdown do
            let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
            let readable, _, _ =
              try Unix.select fds [] [] 0.25
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            if List.mem listen_fd readable then begin
              match Unix.accept listen_fd with
              | fd, _ -> conns := { fd; pending = "" } :: !conns
              | exception Unix.Unix_error _ -> ()
            end;
            let wave = ref [] in
            List.iter
              (fun conn ->
                if List.memq conn.fd readable then begin
                  let buf = Bytes.create 65536 in
                  match Unix.read conn.fd buf 0 65536 with
                  | 0 -> close_conn conn
                  | n -> (
                      conn.pending <-
                        conn.pending ^ Bytes.sub_string buf 0 n;
                      let recv_at = Unix.gettimeofday () in
                      match extract_frames conn with
                      | Error msg ->
                          (* framing lost: answer once, drop the
                             connection *)
                          Metrics.incr st.registry "serve.errors.protocol";
                          ignore
                            (send conn
                               (error_frame 0 (protocol_error msg)));
                          close_conn conn
                      | Ok frames ->
                          List.iter
                            (fun (frame : Protocol.frame) ->
                              match frame.Protocol.kind with
                              | Protocol.Schedule_req ->
                                  wave := (conn, frame, recv_at) :: !wave
                              | Protocol.Ping_req ->
                                  ignore
                                    (send conn
                                       {
                                         frame with
                                         Protocol.kind = Protocol.Pong_resp;
                                         payload = "";
                                       })
                              | Protocol.Metrics_req ->
                                  let text = render_metrics st in
                                  ignore
                                    (send conn
                                       {
                                         Protocol.id = frame.Protocol.id;
                                         kind = Protocol.Metrics_resp;
                                         payload =
                                           Grip_obs.Json.to_string
                                             (Grip_obs.Json.Obj
                                                [ ("text", Grip_obs.Json.Str text) ]);
                                       })
                              | Protocol.Shutdown_req ->
                                  ignore
                                    (send conn
                                       {
                                         Protocol.id = frame.Protocol.id;
                                         kind = Protocol.Shutdown_resp;
                                         payload = "";
                                       });
                                  shutdown := true
                              | _ ->
                                  Metrics.incr st.registry
                                    "serve.errors.protocol";
                                  ignore
                                    (send conn
                                       (error_frame frame.Protocol.id
                                          (protocol_error
                                             (Printf.sprintf
                                                "unexpected %s frame"
                                                (Protocol.kind_name
                                                   frame.Protocol.kind))))))
                            frames)
                  | exception Unix.Unix_error _ -> close_conn conn
                end)
              (List.rev !conns);
            (match List.rev !wave with
            | [] -> ()
            | reqs -> process_wave st pool reqs)
          done);
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match config.addr with
      | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ());
      Option.iter Obs.Runtime.stop st.rt;
      (match (config.trace_file, st.flagged) with
      | Some path, _ -> write_trace_file st path
      | None, true ->
          Format.eprintf
            "grip: watchdog flagged the run — dumping trace ring@.";
          write_trace_file st "grip-serve.trace.json"
      | None, false -> ());
      Format.eprintf "grip: served %d request(s); latency %a@." st.served
        Hdr.pp
        (Option.value
           (Metrics.histogram st.registry "serve.latency_us")
           ~default:(Hdr.create ()));
      Ok st.served
