(** Open-loop load generator for the scheduling daemon.

    Closed-loop clients (send, wait, send) suffer {e coordinated
    omission}: when the daemon stalls, the client stops offering load,
    so the stall's victims are never measured.  This generator is
    open-loop: request arrival times are a {e fixed schedule} computed
    up front ({!arrivals}), requests are pipelined onto one connection
    the moment their scheduled time passes, and every latency is
    measured from the {e scheduled} arrival — a request the daemon
    answered late is charged its queueing delay even if the client was
    itself behind on sending.

    The arrival schedule is bursty in the hwlat style: time is cut
    into fixed periods, each period offers its share of requests
    packed into the leading [duty] fraction (the busy burst) and then
    goes idle, so the daemon sees admission waves — exercising the
    supervisor's queue-limit backpressure — while the long-run offered
    rate stays exactly [rate]. *)

module Hdr = Grip_obs.Hdr

(** [arrivals ~rate ~period ~duty n] — scheduled send offsets
    (seconds from start, nondecreasing) for [n] requests at a mean
    offered rate of [rate] req/s: each [period]-second cycle carries
    [rate * period] requests uniformly packed into its first
    [duty * period] seconds.  Pure, so the burst shape is unit-testable. *)
let arrivals ~rate ~period ~duty n =
  if rate <= 0.0 then invalid_arg "Loadgen.arrivals: rate must be positive";
  if period <= 0.0 then invalid_arg "Loadgen.arrivals: period must be positive";
  if duty <= 0.0 || duty > 1.0 then
    invalid_arg "Loadgen.arrivals: duty must be in (0, 1]";
  let per_cycle = max 1 (int_of_float (Float.round (rate *. period))) in
  Array.init n (fun i ->
      let cycle = i / per_cycle and j = i mod per_cycle in
      (float_of_int cycle *. period)
      +. (float_of_int j *. (period *. duty /. float_of_int per_cycle)))

(** Which template each request draws: [`Uniform] cycles round-robin
    (every key equally hot — the original behaviour); [`Zipf s] draws
    template ranks from a Zipf law with exponent [s], the classic
    skewed-popularity shape of real request streams, so a burst
    exercises realistic cache hit / miss ratios instead of warming
    every key equally.  The Zipf draw uses a fixed-seed PRNG:
    two runs with the same arguments offer the same key sequence. *)
type key_dist = [ `Uniform | `Zipf of float ]

type report = {
  sent : int;
  received : int;
  errors : int;  (** Error_resp frames (protocol errors are fatal) *)
  hits : int;  (** finished schedule served from cache *)
  misses : int;  (** scheduled: full pipeline *)
  coalesced : int;
  hist : Hdr.t;  (** request latency, microseconds, open-loop *)
  wall : float;
  rung_census : (string * int) list;  (** served rung -> count *)
}

let hit_rate r =
  if r.received = 0 then 0.0
  else float_of_int (r.hits + r.coalesced) /. float_of_int r.received

let throughput r = if r.wall > 0.0 then float_of_int r.received /. r.wall else 0.0

(** [run client ~requests ~rate ~period ~duty reqs] — offer [requests]
    requests (drawn from the [reqs] templates per [key_dist]) on the
    open-loop schedule; returns the latency/cache report or a protocol
    error. *)
let run ?(key_dist = `Uniform) (client : Client.t) ~requests ~rate ~period
    ~duty reqs =
  if reqs = [] then invalid_arg "Loadgen.run: no request templates";
  let templates = Array.of_list reqs in
  let pick =
    match key_dist with
    | `Uniform -> fun i -> i mod Array.length templates
    | `Zipf s ->
        if Float.is_nan s || s <= 0.0 then
          invalid_arg "Loadgen.run: zipf exponent must be positive";
        let n = Array.length templates in
        (* cumulative weights 1/r^s over template ranks *)
        let cdf = Array.make n 0.0 in
        let total = ref 0.0 in
        for r = 0 to n - 1 do
          total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
          cdf.(r) <- !total
        done;
        let rng = Random.State.make [| 0x5eed; requests |] in
        fun _i ->
          let u = Random.State.float rng !total in
          let rec find r = if r >= n - 1 || cdf.(r) >= u then r else find (r + 1) in
          find 0
  in
  let sched = arrivals ~rate ~period ~duty requests in
  let hist = Hdr.create () in
  let census = Hashtbl.create 8 in
  let id_slot = Hashtbl.create 1024 in  (* frame id -> schedule index *)
  let hits = ref 0 and misses = ref 0 and coalesced = ref 0 in
  let errors = ref 0 and received = ref 0 and sent = ref 0 in
  let failure = ref None in
  let t0 = Unix.gettimeofday () in
  let record_reply (f : Protocol.frame) =
    let recv_t = Unix.gettimeofday () in
    match Hashtbl.find_opt id_slot f.Protocol.id with
    | None -> failure := Some (Printf.sprintf "unknown response id %d" f.Protocol.id)
    | Some slot -> (
        Hashtbl.remove id_slot f.Protocol.id;
        incr received;
        (* open-loop: latency from the scheduled arrival, not the
           actual send — late sends stay charged to the daemon-side
           backlog that caused them *)
        let lat_us = (recv_t -. (t0 +. sched.(slot))) *. 1e6 in
        Hdr.record hist (int_of_float lat_us);
        match f.Protocol.kind with
        | Protocol.Schedule_resp -> (
            match Protocol.reply_of_payload f.Protocol.payload with
            | Ok reply ->
                (match reply.Protocol.cache with
                | "hit" -> incr hits
                | "coalesced" -> incr coalesced
                | _ -> incr misses);
                Hashtbl.replace census reply.Protocol.rung
                  (1
                  + Option.value
                      (Hashtbl.find_opt census reply.Protocol.rung)
                      ~default:0)
            | Error msg -> failure := Some msg)
        | Protocol.Error_resp -> incr errors
        | k -> failure := Some ("unexpected " ^ Protocol.kind_name k))
  in
  let drain_ready () =
    (* consume every reply already buffered, without blocking *)
    let rec go () =
      if !failure = None then
        match Unix.select [ client.Client.fd ] [] [] 0.0 with
        | [ _ ], _, _ -> (
            match Client.recv client with
            | Ok f -> record_reply f; go ()
            | Error msg -> failure := Some msg)
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let next = ref 0 in
  while !next < requests && !failure = None do
    let due = t0 +. sched.(!next) in
    let now = Unix.gettimeofday () in
    if now >= due then begin
      let req = templates.(pick !next) in
      let id = Client.send_schedule client req in
      Hashtbl.replace id_slot id !next;
      incr sent;
      incr next;
      drain_ready ()
    end
    else begin
      (* sleep toward the next arrival, waking early for replies *)
      (match
         Unix.select [ client.Client.fd ] [] [] (Float.min (due -. now) 0.01)
       with
      | [ _ ], _, _ -> (
          match Client.recv client with
          | Ok f -> record_reply f
          | Error msg -> failure := Some msg)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain_ready ()
    end
  done;
  (* all sent: block for the stragglers *)
  while !failure = None && !received < !sent do
    match Client.recv client with
    | Ok f -> record_reply f
    | Error msg -> failure := Some msg
  done;
  match !failure with
  | Some msg -> Error msg
  | None ->
      Ok
        {
          sent = !sent;
          received = !received;
          errors = !errors;
          hits = !hits;
          misses = !misses;
          coalesced = !coalesced;
          hist;
          wall = Unix.gettimeofday () -. t0;
          rung_census =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) census []);
        }

let pp_report ppf r =
  Format.fprintf ppf
    "loadgen: sent %d received %d error(s) %d in %.2fs (%.0f req/s)@." r.sent
    r.received r.errors r.wall (throughput r);
  Format.fprintf ppf
    "  cache: %d hit / %d miss / %d coalesced (hit-rate %.1f%%)@." r.hits
    r.misses r.coalesced
    (100.0 *. hit_rate r);
  Format.fprintf ppf "  latency (open-loop, us): %a@." Hdr.pp r.hist;
  List.iter
    (fun (rung, n) -> Format.fprintf ppf "  rung %-12s x%d@." rung n)
    r.rung_census
