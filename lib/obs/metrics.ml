(** Counters, histograms, gauges and accumulated timings.

    A {!t} is a named registry; the disabled registry makes every
    recording call a single boolean test, so instrumented code can be
    unconditional.  Everything is integer- or float-valued and
    allocation-light: counters are [int ref]s behind one hash lookup,
    and every histogram is an {!Hdr.t} — one layout for all, exact for
    values below 128, within 1/64 above — so no caller picks bucket
    bounds and two registries always merge.

    Every recording call hashes its metric's name, so the registry
    serves cold sites.  A count taken per scheduling event lives in a
    record of the code that counts it ([Grip.Scheduler.stats],
    [Grip.Post.stats], [Vliw_percolation.Ctx.counts]), and the
    pipeline adds it here once per run, right after the schedule phase
    returns ([Grip.Pipeline.drive]): under the name below, and only
    when its event happened at least once in the run, so the registry
    holds the names it held when every event wrote it (DESIGN.md §31).
    A hit allocates nothing (a histogram only when a value first
    reaches a higher power of two); a timer boxes a float each time it
    accumulates.

    Conventional names used by the scheduling stack:
    - [scheduler.migrations / hops / reached / suspensions / barriers]
      — published from [Grip.Scheduler.stats]; POST publishes its
      phase 1 here, and [post.breaks / repair_hops] from its own stats
    - [scheduler.candidate_visits] — candidates choose-op's ranked
      queue examined (a held candidate is examined once per rewind)
    - [scheduler.replays] — migration attempts replayed from their
      op's replay slot instead of walked; each also counts in
      [scheduler.migrations] and the other per-attempt counters as the
      attempt it stands for
    - [gapless.scan_nodes] — nodes the Gapless test's condition-3
      searches expanded (memoized nodes are not expanded; a replay
      searches nothing)
    - [ir.gc_runs / gc_reclaimed / gc_candidates] — graph
      collections (one per committed move), nodes collected and
      worklist entries examined
    - [ir.order_walks / order_visits] — graph-order walks of the
      scheduled program and the nodes they reached (one walk per shape
      version that something asked about), added once per pipeline run
    - [hist scheduler.travel_distance] — hops per migration
    - [hist schedule.slot_occupancy] — operations per instruction of
      the final schedule
    - [hist pool.task_us / pool.worker_gap_ms] — wall time of every
      supervised attempt, and the widest starvation gap per (worker,
      task)
    - [hist serve.latency_us / serve.latency.cold_us] — the daemon's
      service time per request, and per scheduled miss
    - [time legality.check] — an estimate of the time inside move
      legality checks, from one timed check in 64
    - [time phase.<name>] — accumulated wall seconds per pipeline
      phase
    - [gc.alloc_bytes.phase.<name> / gc.minor.phase.<name> /
      gc.major.phase.<name>] — per-phase allocation and collection
      deltas sampled by [Grip_obs.timed]
    - [gauge gc.top_heap_words / gc.max_pause_ms.<phase>] — high-water
      readings with set-within-a-registry, max-across-merge
      semantics. *)

type t = {
  enabled : bool;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hdr.t) Hashtbl.t;
  times : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

let create () =
  {
    enabled = true;
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 8;
    times = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
  }

let disabled =
  {
    enabled = false;
    counters = Hashtbl.create 0;
    hists = Hashtbl.create 0;
    times = Hashtbl.create 0;
    gauges = Hashtbl.create 0;
  }

let enabled t = t.enabled

(* -- counters ------------------------------------------------------------- *)

(* [counter_cell t name] — the cell of counter [name], created at 0 on
   first use.  [find], not [find_opt]: a hit allocates no option box. *)
let counter_cell t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let add t name k =
  if t.enabled then
    let r = counter_cell t name in
    r := !r + k

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* -- histograms ----------------------------------------------------------- *)

let hist_cell t name =
  match Hashtbl.find t.hists name with
  | h -> h
  | exception Not_found ->
      let h = Hdr.create () in
      Hashtbl.replace t.hists name h;
      h

(** [observe t name v] — record [v] into histogram [name], created on
    first use. *)
let observe t name v = if t.enabled then Hdr.record (hist_cell t name) v

(** [observe_n t name v k] — {!observe} [v] [k > 0] times, in one
    add: how a count kept per value outside the registry is
    published. *)
let observe_n t name v k =
  if t.enabled then Hdr.record_n (hist_cell t name) v k

let histogram t name = Hashtbl.find_opt t.hists name

(* -- timings -------------------------------------------------------------- *)

let time_cell t name =
  match Hashtbl.find t.times name with
  | r -> r
  | exception Not_found ->
      let r = ref 0.0 in
      Hashtbl.replace t.times name r;
      r

(** [add_time t name dt] — accumulate [dt] wall seconds under
    [name]. *)
let add_time t name dt =
  if t.enabled then
    let r = time_cell t name in
    r := !r +. dt

let time t name =
  match Hashtbl.find_opt t.times name with Some r -> !r | None -> 0.0

(* -- gauges --------------------------------------------------------------- *)

(** [gauge_set t name v] — overwrite gauge [name] with [v] (last
    write wins within a registry). *)
let gauge_set t name v =
  if t.enabled then
    match Hashtbl.find t.gauges name with
    | r -> r := v
    | exception Not_found -> Hashtbl.replace t.gauges name (ref v)

(** [gauge_max t name v] — keep the high-water mark: record [v] only
    if it exceeds the current reading (or the gauge is unset). *)
let gauge_max t name v =
  if t.enabled then
    match Hashtbl.find t.gauges name with
    | r -> if v > !r then r := v
    | exception Not_found -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.0

(* -- merge ---------------------------------------------------------------- *)

(** [merge ~into src] — fold [src] into [into]: counters and times
    add, gauges keep the maximum, histograms add their counts
    ({!Hdr.merge}, exact).  Commutative and associative (up to the
    registry's sorted rendering), so per-domain registries from a
    parallel run collapse into one coherent report in any join order.
    It cannot fail: every histogram has the same layout.  Merging from
    or into a disabled registry is a no-op. *)
let merge ~into src =
  if into.enabled && src.enabled then begin
    Hashtbl.iter (fun name r -> add into name !r) src.counters;
    Hashtbl.iter (fun name r -> add_time into name !r) src.times;
    Hashtbl.iter (fun name r -> gauge_max into name !r) src.gauges;
    Hashtbl.iter
      (fun name h -> Hdr.merge ~into:(hist_cell into name) h)
      src.hists
  end

(* -- dumps ---------------------------------------------------------------- *)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let pp ppf t =
  if not t.enabled then Format.fprintf ppf "(metrics disabled)@."
  else begin
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %d@." k (counter t k))
      (sorted_keys t.counters);
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %.6fs@." ("time " ^ k) (time t k))
      (sorted_keys t.times);
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %g@." ("gauge " ^ k) (gauge t k))
      (sorted_keys t.gauges);
    List.iter
      (fun k ->
        Format.fprintf ppf "%-40s %a@." ("hist " ^ k) Hdr.pp
          (Hashtbl.find t.hists k))
      (sorted_keys t.hists)
  end

(* One entry per non-empty sub-bucket: "v" in the exact region,
   "lo-hi" (inclusive) above it. *)
let hist_to_json h =
  let label lo hi =
    if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi
  in
  Json.Obj
    [
      ("n", Json.int (Hdr.count h));
      ("sum", Json.int h.Hdr.sum);
      ("max", Json.int (Hdr.max_value h));
      ( "buckets",
        Json.Obj
          (List.map
             (fun (lo, hi, c) -> (label lo hi, Json.int c))
             (Hdr.buckets h)) );
    ]

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun k -> (k, Json.int (counter t k)))
             (sorted_keys t.counters)) );
      ( "times",
        Json.Obj
          (List.map (fun k -> (k, Json.Num (time t k))) (sorted_keys t.times))
      );
      ( "gauges",
        Json.Obj
          (List.map (fun k -> (k, Json.Num (gauge t k))) (sorted_keys t.gauges))
      );
      ( "histograms",
        Json.Obj
          (List.map
             (fun k -> (k, hist_to_json (Hashtbl.find t.hists k)))
             (sorted_keys t.hists)) );
    ]
