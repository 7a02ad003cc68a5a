(** Counters, fixed-bucket histograms and accumulated timings.

    A {!t} is a named registry; the disabled registry makes every
    recording call a single boolean test, so instrumented code can be
    unconditional.  Everything is integer- or float-valued and
    allocation-light: histograms use caller-fixed bucket bounds (no
    rescaling), counters are [int ref]s behind one hash lookup.

    Every recording call hashes its metric's name, so the registry
    serves cold sites.  A count taken per scheduling event lives in a
    record of the code that counts it ([Grip.Scheduler.stats],
    [Grip.Post.stats], [Vliw_percolation.Ctx.counts]), and the
    pipeline adds it here once per run, right after the schedule phase
    returns ([Grip.Pipeline.drive]): under the name below, and only
    when its event happened at least once in the run, so the registry
    holds the names it held when every event wrote it (DESIGN.md §31).
    A hit allocates nothing; a timer boxes a float each time it
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
    - [migrate.chain_nodes] — nodes each walked migration's chain
      check followed, whether or not it found a chain (a replay checks
      no chain)
    - [gapless.scan_nodes] — nodes the Gapless test's condition-3
      searches expanded (memoized nodes are not expanded; a replay
      searches nothing)
    - [migrate.walk_nodes] — nodes the plain post-order walk expanded
      (a migration that finds a chain climbs it and adds nothing)
    - [ir.gc_runs / gc_reclaimed / gc_candidates] — graph
      collections (one per committed move), nodes collected and
      worklist entries examined
    - [ir.order_walks / order_visits] — graph-order walks of the
      scheduled program and the nodes they reached (one walk per shape
      version that something asked about), added once per pipeline run
    - [hist scheduler.travel_distance] — hops per migration
    - [hist schedule.slot_occupancy] — operations per instruction of
      the final schedule
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

type hist = {
  bounds : int array;  (** ascending inclusive upper bounds *)
  counts : int array;  (** [length bounds + 1]; last is overflow *)
  mutable n : int;
  mutable sum : int;
  mutable vmax : int;
}

type t = {
  enabled : bool;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  times : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

(** Raised by {!merge} when two histograms recorded under the same
    name disagree on bucket bounds — a malformed worker report.
    Deliberately its own exception (not a bare [Invalid_argument]):
    merge sites catch it and degrade (drop the report, count it)
    instead of letting a stray worker kill a long-running daemon;
    [Grip_robust.Grip_error.of_merge_mismatch] is the structured
    conversion. *)
exception Merge_mismatch of { name : string }

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

let default_bounds = [| 0; 1; 2; 4; 8; 16; 32; 64 |]

let hist_create bounds =
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    n = 0;
    sum = 0;
    vmax = min_int;
  }

let hist_cell t bounds name =
  match Hashtbl.find t.hists name with
  | h -> h
  | exception Not_found ->
      let h = hist_create bounds in
      Hashtbl.replace t.hists name h;
      h

(* The first bucket whose bound admits [v], else the overflow bucket. *)
let rec bucket bounds v i =
  if i >= Array.length bounds || v <= Array.unsafe_get bounds i then i
  else bucket bounds v (i + 1)

(* [k] observations of [v]. *)
let record h v k =
  let i = bucket h.bounds v 0 in
  h.counts.(i) <- h.counts.(i) + k;
  h.n <- h.n + k;
  h.sum <- h.sum + (k * v);
  if v > h.vmax then h.vmax <- v

(** [observe t ?bounds name v] — record [v] into histogram [name],
    creating it with [bounds] (default powers of two up to 64) on
    first use; later [bounds] are ignored. *)
let observe t ?(bounds = default_bounds) name v =
  if t.enabled then record (hist_cell t bounds name) v 1

(** [observe_n t name v k] — {!observe} [v] [k > 0] times, in one
    bucket add: how a count kept per value outside the registry is
    published. *)
let observe_n t name v k =
  if t.enabled then record (hist_cell t default_bounds name) v k

(** [add_hist t name h] — fold the observations of [h] into histogram
    [name], created with [h]'s bounds when absent: how {!merge}
    combines two registries' histograms.  Bounds that differ
    from the existing histogram's raise {!Merge_mismatch}. *)
let add_hist t name h =
  if t.enabled then
    match Hashtbl.find_opt t.hists name with
    | None ->
        Hashtbl.replace t.hists name
          {
            bounds = h.bounds;
            counts = Array.copy h.counts;
            n = h.n;
            sum = h.sum;
            vmax = h.vmax;
          }
    | Some h' when h'.bounds = h.bounds ->
        Array.iteri (fun i c -> h'.counts.(i) <- h'.counts.(i) + c) h.counts;
        h'.n <- h'.n + h.n;
        h'.sum <- h'.sum + h.sum;
        if h.vmax > h'.vmax then h'.vmax <- h.vmax
    | Some _ -> raise (Merge_mismatch { name })

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
    add, gauges keep the maximum, histograms combine bucket-wise.
    Commutative and associative (up to the registry's sorted
    rendering), so per-domain registries from a parallel run collapse
    into one coherent report in any join order.  Histograms recorded
    under the same name must share bucket bounds (they do when both
    sides ran the same instrumented code); mismatched bounds raise
    {!Merge_mismatch}.  Merging from or into a disabled registry is
    a no-op. *)
let merge ~into src =
  if into.enabled && src.enabled then begin
    Hashtbl.iter (fun name r -> add into name !r) src.counters;
    Hashtbl.iter (fun name r -> add_time into name !r) src.times;
    Hashtbl.iter (fun name r -> gauge_max into name !r) src.gauges;
    Hashtbl.iter (add_hist into) src.hists
  end

(* -- dumps ---------------------------------------------------------------- *)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let bucket_label bounds i =
  if i >= Array.length bounds then Printf.sprintf ">%d" bounds.(Array.length bounds - 1)
  else if i = 0 then Printf.sprintf "<=%d" bounds.(0)
  else Printf.sprintf "%d-%d" (bounds.(i - 1) + 1) bounds.(i)

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
        let h = Hashtbl.find t.hists k in
        let mean =
          if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n
        in
        Format.fprintf ppf "%-40s n=%d mean=%.2f max=%d@." ("hist " ^ k) h.n
          mean
          (if h.n = 0 then 0 else h.vmax);
        Array.iteri
          (fun i c ->
            if c > 0 then
              Format.fprintf ppf "  %-10s %d@." (bucket_label h.bounds i) c)
          h.counts)
      (sorted_keys t.hists)
  end

let hist_to_json h =
  Json.Obj
    [
      ("n", Json.int h.n);
      ("sum", Json.int h.sum);
      ("max", Json.int (if h.n = 0 then 0 else h.vmax));
      ( "buckets",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun i c -> (bucket_label h.bounds i, Json.int c))
                h.counts)) );
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
