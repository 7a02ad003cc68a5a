(* The two serving workloads, driven through a [grip serve] child
   process over one connection (see {!Load} and {!Daemon}).

   serve-hot: open loop on a warmed daemon.  Requests draw from a Zipf
   law (exponent 1) over a hot set of 14 Livermore (kernel, width)
   keys and 8 generated minic sources; the rank order is fixed and the
   seed draws the minic sources and the request sequence, so every
   seed offers the same popularity curve.  Every timed request is a
   tier-1 hit: protocol, front-end memo, cache key and lookup and the
   select loop do all the work, the scheduler none.

   serve-cold: closed loop, one client, like a build driver waiting on
   each compile.  Each generated minic source is requested at 2, 4 and
   8 FU in a seeded order.  The first request for a source is
   first-seen (front end, tier-1 and tier-2 miss, cold guarded
   pipeline); the later ones are new-width (tier-2 warm restore at
   2/4 FU, which share unwind horizon 18, or analysis-only reuse at
   8 FU, horizon 22).  The class comes from what the client sent, not
   from the reply, so removing tier 2 still shows.  Closed loop
   because queueing in an open loop amplified the run-to-run noise of
   these ~100 ms requests.  The stream is sent twice, each time to a
   fresh daemon; a request's time is the mean of the two, at reference
   speed (see {!Pace}). *)

module Protocol = Grip_serve.Protocol
module Json = Grip_obs.Json

let widths = [| 2; 4; 8 |]

let request_frame ~id (r : Protocol.request) =
  Protocol.encode
    {
      Protocol.id;
      kind = Protocol.Schedule_req;
      payload = Json.to_string (Protocol.request_to_json r);
    }

let livermore name fus = { Protocol.kernel = Some name; source = None; fus; method_ = "grip" }
let minic src fus = { Protocol.kernel = None; source = Some src; fus; method_ = "grip" }

type reply = { rung : string; digest : string; cache : string; speedup : float }

let parse_reply = function
  | Protocol.Schedule_resp, payload -> (
      match Protocol.reply_of_payload payload with
      | Ok r ->
          Ok
            {
              rung = r.Protocol.rung;
              digest = r.Protocol.digest;
              cache = r.Protocol.cache;
              speedup = r.Protocol.speedup;
            }
      | Error msg -> Error msg)
  | Protocol.Error_resp, payload ->
      let stage, msg = Protocol.error_of_payload payload in
      Error (stage ^ ": " ^ msg)
  | k, _ -> Error ("unexpected " ^ Protocol.kind_name k)

let schedule (d : Daemon.t) req =
  match
    Load.call d.Daemon.conn Protocol.Schedule_req
      (Json.to_string (Protocol.request_to_json req))
  with
  | Ok r -> parse_reply r
  | Error msg -> Error msg

(* Set-up, [times] times over: spawn, ping, [warm]; every daemon but
   the last is shut down (cleanly, or the run fails) and the last one
   is measured.  Set-up time is the median of the [times], each at
   reference speed (see {!Pace}). *)
let setup ~pace ~cli ~out ~times ~warm =
  let rec go n times =
    let started, _, time =
      Pace.timed pace (fun () ->
          match Daemon.spawn ~cli ~out with
          | Error msg -> Error ("spawn: " ^ msg)
          | Ok d -> (
              match warm d with
              | Error msg ->
                  Daemon.kill d;
                  Error ("warm-up: " ^ msg)
              | Ok w -> Ok (d, w)))
    in
    match started with
    | Error msg -> Error msg
    | Ok (d, w) -> (
        let times = time :: times in
        if n = 1 then Ok (d, w, times)
        else
          match Daemon.shutdown d with
          | Error msg -> Error msg
          | Ok () -> go (n - 1) times)
  in
  go times []

(* Layer metrics read from the daemon's exposition. *)
let server_layers samples =
  let s = Daemon.sample samples in
  let hdr fam q = Daemon.hdr_quantile (Daemon.hdr samples fam) q in
  let hits = s "grip_serve_cache_hits_total" and misses = s "grip_serve_cache_misses_total" in
  [
    ("server.cold_p50_ms", hdr "grip_serve_latency_cold_us" 0.5 /. 1e3);
    ("server.warm_miss_p50_ms", hdr "grip_serve_latency_warm_miss_us" 0.5 /. 1e3);
    ("supervisor.queue_depth_peak", s "grip_pool_queue_depth_peak");
    ("supervisor.sheds", s "grip_pool_sheds_total");
    ("supervisor.retries", s "grip_pool_retries_total");
    ("cache.hit_ratio", Util.ratio hits (hits +. misses));
    ("store.warm_ratio", Util.ratio (s "grip_serve_cache_t2_hits_total") misses);
    ("store.analysis_hits", s "grip_serve_cache_t2_analysis_hits_total");
    ("store.bytes_mb", s "grip_serve_cache_t2_bytes" /. 1e6);
    ("store.evictions", s "grip_serve_cache_t2_evictions");
  ]

(* Scrape, then shut down; a failure in either fails the run. *)
let finish d =
  let rss = Daemon.peak_rss_mb d in
  let samples = Daemon.exposition d in
  let down = Daemon.shutdown d in
  match (samples, down) with
  | Ok samples, Ok () -> Ok (rss, samples)
  | Error msg, _ | _, Error msg -> Error msg

let ms x = 1e3 *. x

(* Attempted and failed operations; a failure is also reported on
   standard error. *)
type check = { mutable attempted : int; mutable failed : int }

let fail check fmt =
  check.failed <- check.failed + 1;
  Util.failf fmt

(* [sources rng n] — [n] generated sources with their ops per
   iteration (0 if the front end rejects one, which fails the run).
   A source that lowers to the same kernel as an earlier one is drawn
   again: the daemon would answer it from its cache. *)
let sources check rng n =
  let seen = Hashtbl.create n in
  let rec gen index tries =
    let g = Kgen.make rng ~index in
    match Minic.Compile.kernel_of_string g.Kgen.source with
    | Error e ->
        fail check "%s fails the front end: %s" g.Kgen.name (Grip_robust.Grip_error.to_string e);
        (g, 0)
    | Ok out ->
        let k = out.Minic.Compile.kernel in
        let key = Grip_serve.Cache.kernel_key k in
        if Hashtbl.mem seen key && tries < 100 then gen index (tries + 1)
        else begin
          Hashtbl.replace seen key ();
          (g, List.length k.Grip.Kernel.body)
        end
  in
  Array.init n (fun index -> gen index 0)

(* -- serve-hot ---------------------------------------------------------------- *)

let hot_keys check rng =
  let lls =
    List.map
      (fun (e : Workloads.Livermore.entry) ->
        let name = e.Workloads.Livermore.kernel.Grip.Kernel.name in
        let n = int_of_string (String.sub name 2 (String.length name - 2)) in
        livermore name widths.((n + 2) mod 3))
      Workloads.Livermore.all
  in
  let srcs =
    Array.to_list (sources check rng 8)
    |> List.mapi (fun j ((g : Kgen.t), _) -> minic g.Kgen.source widths.(j mod 3))
  in
  Array.of_list (lls @ srcs)

(* Zipf(1) over ranks 0..n-1: inverse-CDF draw. *)
let zipf_sampler n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let rec find i = if i >= n - 1 || cdf.(i) >= u then i else find (i + 1) in
    find 0

let stream_len = 65536

(* Replies of the timed window against the warm-up digests. *)
let check_replies check ~keys ~expected replies ~sent ~first =
  check.attempted <- check.attempted + sent;
  for i = 0 to sent - 1 do
    let key = keys.((first + i) mod stream_len) in
    match Load.reply replies i with
    | None -> fail check "serve-hot: request %d got no reply" i
    | Some r -> (
        match parse_reply r with
        | Error msg -> fail check "serve-hot: request %d: %s" i msg
        | Ok r ->
            if r.cache <> "hit" then fail check "serve-hot: request %d was a %s, not a hit" i r.cache
            else if r.digest <> fst expected.(key) then
              fail check "serve-hot: request %d digest differs from warm-up" i)
  done

let run_hot ~cli ~out ~seed ~seconds ~trace =
  Pace.with_pace @@ fun pace ->
  let rng = Random.State.make [| seed |] in
  let check = { attempted = 0; failed = 0 } in
  let hot = hot_keys check rng in
  let draw = zipf_sampler (Array.length hot) in
  let keys = Array.init stream_len (fun _ -> draw rng) in
  let frames = Array.mapi (fun id k -> request_frame ~id hot.(k)) keys in
  (* every daemon must schedule every hot key identically *)
  let previous = ref None in
  let warm d =
    let replies = Array.map (schedule d) hot in
    check.attempted <- check.attempted + Array.length hot;
    match Array.find_opt Result.is_error replies with
    | Some (Error msg) -> Error msg
    | _ ->
        let replies = Array.map Result.get_ok replies in
        let digests = Array.map (fun r -> r.digest) replies in
        (match !previous with
        | Some p when p <> digests -> fail check "serve-hot: warm-up digests differ between daemons"
        | _ -> previous := Some digests);
        Ok replies
  in
  (* each set-up schedules the whole hot set cold (~4 s): three *)
  match setup ~pace ~cli ~out ~times:3 ~warm with
  | Error msg -> Error msg
  | Ok (d, warm_replies, setups) ->
      let expected = Array.map (fun r -> (r.digest, r.rung)) warm_replies in
      let conn = d.Daemon.conn in
      let budget = float_of_int seconds in
      let cursor = ref 0 in
      let phase ~rate ~duration =
        let first = !cursor in
        let ph, failure = Load.open_loop conn ~frames ~first ~rate ~duration ~grace:10.0 in
        cursor := (first + ph.Load.sent) mod stream_len;
        Option.iter (fun msg -> fail check "serve-hot: %s" msg) failure;
        check_replies check ~keys ~expected ph.Load.replies ~sent:ph.Load.sent ~first;
        (ph, first)
      in
      (* The timed window alternates, four times over, a fixed-rate
         segment (4000 req/s, well under capacity) and a saturation
         segment (1024 requests in flight), so that latency and
         capacity both sample the whole run, not one stretch of it:
         this host's speed drifts over tens of seconds. *)
      let rounds = 4 in
      let fixed_s = Float.max 1.0 (0.3 *. budget /. float_of_int rounds)
      and sat_s = Float.max 1.0 (0.4 *. budget /. float_of_int rounds) in
      let fixed = ref [] and rates = ref [] and sat_sent = ref 0 in
      (* the daemon's service times of the fixed-rate requests: under
         saturation it answers a whole select round at once *)
      let service_hdr () =
        match Daemon.exposition d with
        | Ok samples -> Daemon.hdr samples "grip_serve_latency_us"
        | Error msg ->
            fail check "serve-hot: %s" msg;
            []
      in
      let fixed_service = ref [] in
      for _ = 1 to rounds do
        let before = service_hdr () in
        fixed := phase ~rate:4000.0 ~duration:fixed_s :: !fixed;
        fixed_service := Daemon.hdr_add !fixed_service (Daemon.hdr_sub (service_hdr ()) before);
        let first = !cursor in
        let replies, sent, r, failure =
          Load.saturate conn ~frames ~first ~window:1024 ~duration:sat_s
        in
        Option.iter (fun msg -> fail check "serve-hot: %s" msg) failure;
        cursor := (first + sent) mod stream_len;
        check_replies check ~keys ~expected replies ~sent ~first;
        sat_sent := !sat_sent + sent;
        rates := !rates @ r
      done;
      let fixed = List.rev !fixed in
      let fixed_sent = List.fold_left (fun a (ph, _) -> a + ph.Load.sent) 0 fixed in
      let fixed_all f = Array.concat (List.map (fun (ph, _) -> Array.sub (f ph) 0 ph.Load.sent) fixed) in
      let lat = Array.to_list (fixed_all (fun ph -> ph.Load.latencies)) in
      let lags = Array.to_list (fixed_all (fun ph -> ph.Load.lags)) in
      (* p50 of each second at the fixed rate, and their median: a
         burst of host noise then costs one second, not the run *)
      let per_second_p50 =
        List.concat_map
          (fun (ph, _) ->
            List.init (max 1 (ph.Load.sent / 4000)) (fun w ->
                let n = min 4000 (ph.Load.sent - (w * 4000)) in
                Util.median (Array.to_list (Array.sub ph.Load.latencies (w * 4000) n))))
          fixed
      in
      (* capacity: the daemon's sustained rate under saturation is the
         20th percentile of its half-second completion rates, the rate
         it kept up in four half-seconds out of five (its fast spells
         come and go with the host, from run to run; its slow ones
         recur).  90% of that is offered open loop for 1 s; the first
         rate, stepping down by 10%, whose median stays under 1 ms and
         whose backlog at the end of the step is under 10 ms of work is
         the capacity. *)
      let saturated = Util.quantile !rates 0.2 in
      Util.row "serve-hot sustained_rps=%.1f window=1024 sent=%d half_second_rates=%s" saturated
        !sat_sent
        (String.concat "," (List.map (Printf.sprintf "%.0f") !rates));
      let steps = ref [] in
      let passes rate =
        let ph, _ = phase ~rate ~duration:1.0 in
        let p50 = Util.median (Array.to_list ph.Load.latencies) in
        let ok = p50 <= 1e-3 && float_of_int ph.Load.backlog <= 0.01 *. rate in
        Util.row "serve-hot capacity_step rate=%.0f p50_ms=%.3f backlog=%d pass=%b" rate (ms p50)
          ph.Load.backlog ok;
        steps := ph :: !steps;
        ok
      in
      let rec search rate tries =
        if tries = 0 then 0.0 else if passes rate then rate else search (0.9 *. rate) (tries - 1)
      in
      let capacity = search (0.9 *. saturated) 4 in
      let sent =
        fixed_sent + !sat_sent + List.fold_left (fun a p -> a + p.Load.sent) 0 !steps
      in
      (* traced: replay the hit path in-process over the fixed-rate
         stream, and the warm-up misses stage by stage *)
      let traced_layers =
        if not trace then []
        else begin
          let cache = Grip_serve.Cache.create ~capacity:256 in
          let memo = Hashtbl.create 64 in
          Span.on := true;
          Array.iteri
            (fun k req ->
              let frame = request_frame ~id:k req in
              match Stages.miss ~rid:k frame with
              | Ok (rung, digest, speedup) ->
                  if (digest, rung) <> expected.(k) then
                    fail check "serve-hot: traced miss of key %d differs from the daemon" k
                  else (
                    match Grip_serve.Server.resolve req with
                    | Ok (kern, _, _) ->
                        ignore
                          (Grip_serve.Cache.add cache
                             (Grip_serve.Cache.key ~fus:req.Protocol.fus
                                ~method_:req.Protocol.method_ kern)
                             ~rung ~digest ~speedup ~now:0.0)
                    | Error _ -> fail check "serve-hot: key %d does not resolve" k)
              | Error msg -> fail check "serve-hot: traced miss of key %d: %s" k msg)
            hot;
          let slots =
            Array.concat
              (List.map
                 (fun (ph, first) -> Array.init ph.Load.sent (fun i -> (first + i) mod stream_len))
                 fixed)
          in
          for i = 0 to min (Array.length slots) 20000 - 1 do
            let slot = slots.(i) in
            match Stages.hit ~rid:(100 + i) ~memo cache frames.(slot) with
            | Ok digest ->
                if digest <> fst expected.(keys.(slot)) then
                  fail check "serve-hot: traced hit %d differs from the daemon" i
            | Error msg -> fail check "serve-hot: traced hit %d: %s" i msg
          done;
          Span.on := false;
          []
        end
      in
      (match finish d with
      | Error msg -> fail check "serve-hot: %s" msg; Error msg
      | Ok (rss, samples) ->
          let p50 = Util.median lat and p95 = Util.quantile lat 0.95 and p99 = Util.quantile lat 0.99 in
          (* the fixed-rate replies at the requested rung *)
          let at_rung = ref 0 in
          List.iter
            (fun (ph, _) ->
              for i = 0 to ph.Load.sent - 1 do
                match Option.map parse_reply (Load.reply ph.Load.replies i) with
                | Some (Ok r) when r.rung = "GRiP" -> incr at_rung
                | _ -> ()
              done)
            fixed;
          Util.row "serve-hot fixed rate=4000 n=%d p50_ms=%.4f p95_ms=%.4f p99_ms=%.4f lag_p99_ms=%.4f"
            fixed_sent (ms p50) (ms p95) (ms p99) (ms (Util.quantile lags 0.99));
          Util.row "serve-hot capacity_rps=%.1f steps=%d" capacity (List.length !steps);
          Array.iteri
            (fun k (req : Protocol.request) ->
              Util.row "serve-hot key %-6s fu%d rung=%s speedup=%.3f digest=%s"
                (match req.Protocol.kernel with Some n -> n | None -> Printf.sprintf "src%d" k)
                req.Protocol.fus (snd expected.(k)) warm_replies.(k).speedup (fst expected.(k)))
            hot;
          let service = Daemon.hdr_quantile !fixed_service 0.5 in
          let layers =
            server_layers samples
            @ [
                ("server.service_p50_us", service);
                ("server.wait_p50_us", Float.max 0.0 ((1e6 *. p50) -. service));
                ("server.client_p95_ms", ms p95);
                ("server.client_p99_ms", ms p99);
                ("driver.lag_ms", ms (Util.quantile lags 0.99));
                ("driver.sent", float_of_int sent);
              ]
            @ traced_layers
          in
          Ok
            ( {
                Util.correct = check.failed = 0;
                attempted = check.attempted;
                failed = check.failed;
                metrics =
                  [
                    Util.metric "setup_s" "s" (Util.median setups);
                    Util.metric "peak_rss_mb" "MB" rss;
                    Util.metric "throughput" "1/s" capacity;
                    Util.metric "latency_ms" "ms" (ms (Util.median per_second_p50));
                    (* the Livermore keys: the generated sources
                       differ from seed to seed *)
                    Util.metric "grip_speedup_geomean" "x"
                      (Util.geomean
                         (List.filteri (fun k _ -> hot.(k).Protocol.kernel <> None)
                            (Array.to_list (Array.map (fun r -> r.speedup) warm_replies))));
                    Util.metric "full_rung_share" "fraction"
                      (Util.ratio (float_of_int !at_rung) (float_of_int fixed_sent));
                  ];
              },
              layers ))

(* -- serve-cold --------------------------------------------------------------- *)

type cold_req = {
  src : int;  (** source index *)
  fus : int;
  first_seen : bool;
  frame : string;
}

let run_cold ~cli ~out ~seed ~seconds ~trace =
  Pace.with_pace @@ fun pace ->
  let rng = Random.State.make [| seed |] in
  (* a fixed amount of work, about [seconds] long over both passes,
     so that memory and the cost mix do not depend on how fast the
     daemon was; at least 60 sources (180 requests, 9 beyond the p95) *)
  let n_sources = max 60 (seconds * 2) in
  let check = { attempted = 0; failed = 0 } in
  let generated = sources check rng n_sources in
  let sources = Array.map fst generated and ops = Array.map snd generated in
  let reqs =
    Array.to_list sources
    |> List.mapi (fun s (g : Kgen.t) ->
           Util.shuffle rng [ 2; 4; 8 ]
           |> List.mapi (fun j fus -> (s, j, fus, g.Kgen.source)))
    |> List.concat
    |> List.mapi (fun id (src, j, fus, text) ->
           { src; fus; first_seen = j = 0; frame = request_frame ~id (minic text fus) })
    |> Array.of_list
  in
  let warm d =
    List.fold_left
      (fun acc (name, fus) ->
        match acc with Error _ -> acc | Ok () -> Result.map ignore (schedule d (livermore name fus)))
      (Ok ())
      [ ("LL1", 2); ("LL3", 2); ("LL5", 4); ("LL12", 8) ]
  in
  (* One pass of the stream: a daemon set up [times] times over, every
     request in turn, then scrape and shut down. *)
  let pass ~times =
    match setup ~pace ~cli ~out ~times ~warm with
    | Error msg -> Error msg
    | Ok (d, (), setups) -> (
        let t_start = Util.now () in
        let results =
          Pace.series pace (Array.length reqs) ~prepare:ignore
            ~finish:(fun _ reply -> Result.bind reply parse_reply)
            (fun id -> Load.request d.Daemon.conn ~timeout:120.0 ~id reqs.(id).frame)
          |> Array.map (fun (reply, wall, scaled) -> ((wall, scaled), reply))
        in
        let wall = Util.now () -. t_start in
        match finish d with
        | Error msg -> Error msg
        | Ok (rss, samples) -> Ok (setups, results, wall, rss, samples))
  in
  (* Two passes of the same stream, each on a fresh daemon, about half
     a run apart, and a request's time is the mean of the two.  Set-up
     time is the median of five set-ups, three before the first pass
     and two before the second. *)
  let ( let* ) = Result.bind in
  let* setups1, pass1, wall1, rss1, _ = pass ~times:3 in
  let* setups2, pass2, wall2, rss2, samples = pass ~times:2 in
  Util.row "serve-cold passes wall_s=%.3f,%.3f" wall1 wall2;
  let setups = setups1 @ setups2 in
  let rss = Float.max rss1 rss2 in
  let check_pass results =
    check.attempted <- check.attempted + Array.length results;
    Array.iteri
      (fun i (_, rep) ->
        let r = reqs.(i) in
        match rep with
        | Error msg -> fail check "serve-cold: source %d fu%d: %s" r.src r.fus msg
        | Ok rep ->
            if rep.cache = "hit" || not (Float.is_finite rep.speedup && rep.speedup > 0.0) then
              fail check "serve-cold: source %d fu%d: unexpected %s reply, speedup %g" r.src r.fus
                rep.cache rep.speedup)
      results
  in
  check_pass pass1;
  check_pass pass2;
  (* both daemons must schedule every request identically; a
     request failed in either pass misses every latency limit.  A
     request's wall time and its time at reference speed, each the
     mean of its two passes. *)
  let results =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match (pass1.(i), pass2.(i)) with
           | ((w1, s1), Ok a), ((w2, s2), Ok b) ->
               if a.digest <> b.digest || a.rung <> b.rung then begin
                 fail check "serve-cold: source %d fu%d: the two daemons' schedules differ" r.src
                   r.fus;
                 (r, (infinity, infinity), Error "schedules differ")
               end
               else (r, ((w1 +. w2) /. 2.0, (s1 +. s2) /. 2.0), Ok a)
           | (_, Error msg), _ | _, (_, Error msg) -> (r, (infinity, infinity), Error msg))
         reqs)
  in
  let ok = List.filter_map (fun (r, lat, rep) -> match rep with Ok rep -> Some (r, lat, rep) | Error _ -> None) results in
  (* offline re-schedule of a seeded sample: digest for digest *)
  let sample = List.filteri (fun _ _ -> Random.State.int rng 25 = 0) ok in
  List.iter
    (fun (r, _, (rep : reply)) ->
      match Minic.Compile.kernel_of_string sources.(r.src).Kgen.source with
      | Error _ -> ()
      | Ok out -> (
          match
            Grip.Pipeline.run_robust ~data:out.Minic.Compile.data out.Minic.Compile.kernel
              ~machine:(Vliw_machine.Machine.homogeneous r.fus)
          with
          | Ok o ->
              if Grip_serve.Cache.schedule_digest o.Grip.Pipeline.program <> rep.digest then
                fail check "serve-cold: source %d fu%d: served digest differs from offline" r.src r.fus
          | Error e ->
              fail check "serve-cold: offline source %d: %s" r.src
                (Grip_robust.Grip_error.to_string e)))
    sample;
  check.attempted <- check.attempted + List.length sample;
  (* traced: every first-seen request replayed stage by stage *)
  if trace then begin
    Span.on := true;
    List.iter
      (fun (r, _, (rep : reply)) ->
        if r.first_seen then
          match Stages.miss ~rid:r.src r.frame with
          | Ok (rung, digest, _) ->
              if rung <> rep.rung || digest <> rep.digest then
                fail check "serve-cold: traced source %d fu%d differs from the daemon" r.src r.fus
          | Error msg -> fail check "serve-cold: traced source %d: %s" r.src msg)
      ok;
    Span.on := false
  end;
  (* per-layer and per-width figures in wall time, end-to-end ones at
     reference speed *)
  let lats = List.map (fun (_, (wall, _), _) -> wall) results
  and scaled = List.map (fun (_, (_, s), _) -> s) results in
  let lats_of p = List.filter_map (fun (r, (wall, _), _) -> if p r then Some wall else None) ok in
  let first = lats_of (fun r -> r.first_seen) and later = lats_of (fun r -> not r.first_seen) in
  Array.iter
    (fun fus ->
      let at = List.filter (fun (r, _, _) -> r.fus = fus) ok in
      let p pred =
        Util.median (List.filter_map (fun (r, (wall, _), _) -> if pred r then Some wall else None) at)
      in
      Util.row
        "serve-cold fu%d n=%d first_seen_p50_ms=%.3f new_width_p50_ms=%.3f speedup_geomean=%.4f below_rung=%d"
        fus (List.length at)
        (ms (p (fun r -> r.first_seen)))
        (ms (p (fun r -> not r.first_seen)))
        (Util.geomean (List.map (fun (_, _, rep) -> rep.speedup) at))
        (List.length (List.filter (fun (_, _, rep) -> rep.rung <> "GRiP") at)))
    widths;
  let used = List.sort_uniq compare (List.map (fun (r, _, _) -> r.src) results) in
  let op_counts = List.map (fun s -> float_of_int ops.(s)) used in
  Util.row "serve-cold sources=%d requests=%d ops_per_iter_min=%.0f p50=%.0f max=%.0f mean=%.2f"
    (List.length used) (List.length results)
    (Util.quantile op_counts 0.0) (Util.median op_counts) (Util.quantile op_counts 1.0)
    (Util.mean op_counts);
  let service = Daemon.hdr_quantile (Daemon.hdr samples "grip_serve_latency_us") 0.5 in
  let p50 = Util.median lats in
  let layers =
    server_layers samples
    @ [
        ("server.service_p50_us", service);
        ("server.wait_p50_us", Float.max 0.0 ((1e6 *. p50) -. service));
        ("server.client_p95_ms", ms (Util.quantile lats 0.95));
        ("server.client_p99_ms", ms (Util.quantile lats 0.99));
        ("server.first_seen_p50_ms", ms (Util.median first));
        ("server.new_width_p50_ms", ms (Util.median later));
        ("minic.ops_lowered", Util.mean op_counts);
        ("driver.sent", float_of_int (2 * List.length results));
      ]
  in
  Ok
    ( {
        Util.correct = check.failed = 0;
        attempted = check.attempted;
        failed = check.failed;
        metrics =
          [
            Util.metric "setup_s" "s" (Util.median setups);
            Util.metric "peak_rss_mb" "MB" rss;
            (* one client: a pass's time is the sum of its
               request times *)
            Util.metric "throughput" "1/s" (float_of_int (List.length results) /. Util.sum scaled);
            (* request costs cluster by template and width, so
               the median jumps between clusters; the geometric
               mean is the typical request *)
            Util.metric "latency_ms" "ms" (ms (Util.geomean scaled));
            Util.metric "grip_speedup_geomean" "x"
              (Util.geomean (List.map (fun (_, _, rep) -> rep.speedup) ok));
            Util.metric "full_rung_share" "fraction"
              (Util.ratio
                 (float_of_int (List.length (List.filter (fun (_, _, rep) -> rep.rung = "GRiP") ok)))
                 (float_of_int (List.length results)));
          ];
      },
      layers )
