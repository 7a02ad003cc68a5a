(* End-to-end smoke of the scheduling daemon, against the real CLI
   binary (argv.(1) = path to grip_cli.exe):

   1. spawn [grip serve] on a loopback Unix socket;
   2. digest sweep — every Livermore kernel x {2,4,8} FUs served and
      compared byte-for-byte against the offline pipeline's digest;
   3. an open-loop loadgen burst of >= 1000 requests with zero
      protocol errors, a present p99 and a cache hit-rate over 50%;
   4. the OpenMetrics exposition parses, carries the cache
      hit/miss/eviction counters, and its latency histogram counts
      every request;
   5. a shutdown frame drains the daemon, which must exit 0 and, since
      it ran with [--trace], leave a trace with a GC track in which
      every served request's [request N] span kept both its begin and
      its end record, and no record is a migration event or a flow
      arrow (the journal is their one home). *)

module Protocol = Grip_serve.Protocol
module Cache = Grip_serve.Cache
module Server = Grip_serve.Server
module Client = Grip_serve.Client
module Loadgen = Grip_serve.Loadgen
module Hdr = Grip_obs.Hdr
module Json = Grip_obs.Json
module Openmetrics = Grip_obs.Openmetrics

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n%!" name
  end

let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FATAL: %s\n%!" msg;
      exit 1)
    fmt

let () =
  if Array.length Sys.argv < 2 then fatal "usage: serve_smoke GRIP_CLI";
  let cli = Sys.argv.(1) in
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grip-smoke-%d.%s" (Unix.getpid ()) name)
  in
  let sock = tmp "sock" and trace = tmp "trace.json" in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; "2"; "--queue"; "32";
         "--cache"; "128"; "--trace"; trace |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let client =
    match Client.connect ~attempts:200 ~delay:0.05 (Server.Unix_sock sock) with
    | Ok c -> c
    | Error msg -> fatal "connect: %s" msg
  in
  (* -- digest sweep: served == offline, every kernel x FU ------------------ *)
  let fus = [ 2; 4; 8 ] in
  let cells = ref 0 in
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.iter
        (fun fu ->
          incr cells;
          let offline =
            match
              Grip.Pipeline.run_robust ~data:e.Workloads.Livermore.data k
                ~machine:(Vliw_machine.Machine.homogeneous fu)
            with
            | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
            | Error err ->
                fatal "offline %s fu%d: %s" k.Grip.Kernel.name fu
                  (Grip_robust.Grip_error.to_string err)
          in
          match
            Client.schedule client
              { Protocol.kernel = Some k.Grip.Kernel.name; source = None;
                fus = fu; method_ = "grip" }
          with
          | Ok reply ->
              check
                (Printf.sprintf "digest %s fu%d" k.Grip.Kernel.name fu)
                (reply.Protocol.digest = offline)
          | Error msg -> fatal "serve %s fu%d: %s" k.Grip.Kernel.name fu msg)
        fus)
    Workloads.Livermore.all;
  check "sweep covered all 42 cells" (!cells = 42);
  (* -- same kernel, new FU count -------------------------------------------- *)
  (* "abc" was not in the sweep, so fu=2 is a miss; fu=4 is a different
     cache key, so it is scheduled from scratch too and its digest must
     be byte-identical to the offline pipeline at fu=4. *)
  let abc fu =
    match
      Client.schedule client
        { Protocol.kernel = Some "abc"; source = None; fus = fu;
          method_ = "grip" }
    with
    | Ok reply -> reply
    | Error msg -> fatal "serve abc fu%d: %s" fu msg
  in
  let fu2 = abc 2 in
  check "abc fu2 is a miss" (fu2.Protocol.cache = "miss");
  let fu4 = abc 4 in
  check "abc fu4 is a miss" (fu4.Protocol.cache = "miss");
  let abc_offline =
    match
      Grip.Pipeline.run_robust ~data:Grip.Kernel.default_data
        Workloads.Paper_examples.abc
        ~machine:(Vliw_machine.Machine.homogeneous 4)
    with
    | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
    | Error err -> fatal "offline abc fu4: %s" (Grip_robust.Grip_error.to_string err)
  in
  check "abc fu4 digest == offline" (fu4.Protocol.digest = abc_offline);
  (* -- open-loop burst ------------------------------------------------------ *)
  let templates =
    List.concat_map
      (fun (e : Workloads.Livermore.entry) ->
        List.map
          (fun fu ->
            { Protocol.kernel = Some e.Workloads.Livermore.kernel.Grip.Kernel.name;
              source = None; fus = fu; method_ = "grip" })
          fus)
      Workloads.Livermore.all
  in
  let requests = 1000 in
  (match
     Loadgen.run client ~requests ~rate:4000.0 ~period:0.1 ~duty:0.5 templates
   with
  | Error msg -> fatal "loadgen: %s" msg
  | Ok report ->
      check "all requests answered" (report.Loadgen.received = requests);
      check "zero protocol/schedule errors" (report.Loadgen.errors = 0);
      check "p99 present" (Hdr.quantile report.Loadgen.hist 0.99 > 0);
      check "p999 >= p50"
        (Hdr.quantile report.Loadgen.hist 0.999
        >= Hdr.quantile report.Loadgen.hist 0.5);
      check
        (Printf.sprintf "cache hit-rate %.2f over 0.5"
           (Loadgen.hit_rate report))
        (Loadgen.hit_rate report > 0.5));
  (* -- exposition ----------------------------------------------------------- *)
  (match Client.metrics client with
  | Error msg -> fatal "metrics: %s" msg
  | Ok text -> (
      match Openmetrics.parse text with
      | Error msg -> check ("metrics parse: " ^ msg) false
      | Ok families ->
          let have name =
            List.exists
              (fun f ->
                f.Openmetrics.fname = name && f.Openmetrics.samples <> [])
              families
          in
          let sample name =
            List.find_map
              (fun f -> List.assoc_opt name f.Openmetrics.samples)
              families
          in
          check "every request counted in grip_serve_latency_us"
            (sample "grip_serve_latency_us_count" <> None
            && sample "grip_serve_latency_us_count"
               = sample "grip_serve_requests_total");
          List.iter
            (fun name -> check ("exposes " ^ name) (have name))
            [
              "grip_serve_requests"; "grip_serve_cache_hits";
              "grip_serve_cache_misses"; "grip_serve_cache_evictions";
              "grip_serve_cache_bytes"; "grip_serve_latency_us";
              "grip_serve_latency_cold_us"; "grip_pool_queue_depth";
            ];
          (* no analysis-store surface: no tier-2 family, no warm-miss
             latency split *)
          let prefix p s =
            String.length s >= String.length p
            && String.sub s 0 (String.length p) = p
          in
          List.iter
            (fun f ->
              let name = f.Openmetrics.fname in
              check ("no " ^ name)
                (not
                   (prefix "grip_serve_cache_t2_" name
                   || prefix "grip_serve_latency_warm_miss_us" name)))
            families));
  (* -- clean shutdown ------------------------------------------------------- *)
  (match Client.shutdown client with
  | Ok () -> ()
  | Error msg -> check ("shutdown: " ^ msg) false);
  Client.close client;
  let _, status = Unix.waitpid [] pid in
  check "daemon exits 0" (status = Unix.WEXITED 0);
  (match In_channel.with_open_bin trace In_channel.input_all with
  | text -> (
      Sys.remove trace;
      let sub = "gc domain" in
      let rec find i =
        i + String.length sub <= String.length text
        && (String.sub text i (String.length sub) = sub || find (i + 1))
      in
      check "trace holds a gc domain track" (find 0);
      match Json.parse text with
      | Ok (Json.List records) ->
          let str key r = Option.bind (Json.member key r) Json.to_str in
          let named prefix r =
            match str "name" r with
            | Some n -> String.starts_with ~prefix n
            | None -> false
          in
          (* begin and end records per request span *)
          let edges = Hashtbl.create 64 in
          List.iter
            (fun r ->
              match (str "name" r, str "ph" r) with
              | Some name, Some (("B" | "E") as ph)
                when String.starts_with ~prefix:"request " name ->
                  let b, e =
                    Option.value ~default:(0, 0) (Hashtbl.find_opt edges name)
                  in
                  Hashtbl.replace edges name
                    (if ph = "B" then (b + 1, e) else (b, e + 1))
              | _ -> ())
            records;
          check "trace holds request spans" (Hashtbl.length edges > 0);
          Hashtbl.iter
            (fun name (b, e) ->
              check
                (Printf.sprintf "%s: %d begin and %d end records" name b e)
                (b = e && b > 0))
            edges;
          check "no migrate.* record"
            (not (List.exists (named "migrate.") records));
          check "no grip.flow record"
            (not
               (List.exists (fun r -> str "cat" r = Some "grip.flow") records))
      | Ok _ -> check "trace is a JSON array" false
      | Error msg -> check ("trace parse: " ^ msg) false)
  | exception Sys_error msg -> check ("trace file: " ^ msg) false);
  if !failures > 0 then begin
    Printf.eprintf "serve smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve smoke: OK"
