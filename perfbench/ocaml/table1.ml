(* Workload table1: the paper's Table 1 — 14 Livermore kernels x 2/4/8
   FUs x GRiP/POST, 84 cells — scheduled in sequence on one domain
   through [Pipeline.run], [Pipeline.measure] and [Pipeline.check].
   The seed only shuffles the cell order.  Nearly all of the time is
   in the scheduler, so a scheduler change shows here; the serving
   plane, minic, the tier-2 store and the guarded driver get no work.

   A cell's time covers run + measure + check, and is reported at
   reference speed (see {!Pace}).  The traced run sweeps once untraced
   and once stage by stage (see {!Stages}); each traced cell must
   reproduce its untraced digest. *)

module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine

type cell = {
  name : string;
  kernel : Grip.Kernel.t;
  data : string -> int -> Vliw_ir.Value.t;
  fu : int;
  method_ : Pipeline.method_;
}

let cells =
  List.concat_map
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.concat_map
        (fun fu ->
          List.map
            (fun method_ ->
              {
                name =
                  Printf.sprintf "%s fu%d %s" k.Grip.Kernel.name fu
                    (Pipeline.method_name method_);
                kernel = k;
                data = e.Workloads.Livermore.data;
                fu;
                method_;
              })
            [ Pipeline.Grip; Pipeline.Post ])
        [ 2; 4; 8 ])
    Workloads.Livermore.all

(* The digest of test/schedule_digests.ml: the rendered program plus
   the convergence verdict. *)
let digest (o : Pipeline.outcome) =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a@.cpi=%s converged=%b@." Vliw_ir.Program.pp
          o.Pipeline.program
          (match o.Pipeline.static_cpi with
          | Some c -> Printf.sprintf "%.4f" c
          | None -> "-")
          (o.Pipeline.pattern <> None)))

type result = {
  wall : float;
  scaled : float;  (** [wall] at reference speed *)
  speedup : float;
  ok : bool;  (** the oracle accepted the schedule and the speedup is sane *)
  converged : bool;
  digest : string;
}

(* The cell's result without its times, so that the outcome itself
   can be freed. *)
let finish c (o : Pipeline.outcome) (m : Grip.Speedup.t) check =
  let speedup = m.Grip.Speedup.speedup in
  let ok = Result.is_ok check && Float.is_finite speedup && speedup > 0.0 in
  if not ok then Util.failf "table1 %s: oracle or speedup check failed" c.name;
  {
    wall = 0.0;
    scaled = 0.0;
    speedup;
    ok;
    converged = o.Pipeline.pattern <> None;
    digest = digest o;
  }

(* One untraced pass over the cells in [order], each timed between
   two references (see {!Pace}).  Each cell starts after a full major
   collection, outside its time, so that its time does not depend on
   the garbage the cells before it (in the seeded order) left behind. *)
let sweep_plain pace order =
  let cells = Array.of_list order in
  Pace.series pace (Array.length cells)
    ~prepare:(fun _ -> Gc.full_major ())
    ~finish:(fun i (o, m, check) -> finish (snd cells.(i)) o m check)
    (fun i ->
      let c = snd cells.(i) in
      let o = Pipeline.run c.kernel ~machine:(Machine.homogeneous c.fu) ~method_:c.method_ in
      (o, Pipeline.measure ~data:c.data o, Pipeline.check ~data:c.data o))
  |> Array.to_list
  |> List.map2 (fun (i, c) (r, wall, scaled) -> (i, c, { r with wall; scaled })) order

let run_traced ~rid c =
  let machine = Machine.homogeneous c.fu in
  Gc.full_major ();
  let t0 = Util.now () in
  let o, m, check =
    Span.run "cell" ~rid (fun () ->
        let o = Stages.pipeline_run ~rid c.kernel ~machine ~method_:c.method_ in
        let m = Span.run "sim.measure" ~rid (fun () -> Pipeline.measure ~data:c.data o) in
        let check = Span.run "sim.verify" ~rid (fun () -> Pipeline.check ~data:c.data o) in
        (o, m, check))
  in
  let wall = Util.now () -. t0 in
  { (finish c o m check) with wall; scaled = wall }

(* Set-up: a short-horizon pass over every kernel at 2 FU, both
   techniques, so the heap and the code are warm before timing. *)
let warm_up () =
  List.iter
    (fun c ->
      if c.fu = 2 then
        ignore
          (Pipeline.run c.kernel ~machine:(Machine.homogeneous 2) ~method_:c.method_
             ~horizon:6))
    cells

let run ~seed ~seconds ~trace =
  Pace.with_pace @@ fun pace ->
  let rng = Random.State.make [| seed |] in
  let setups = List.init 5 (fun _ -> let (), _, scaled = Pace.timed pace warm_up in scaled) in
  let order = Util.shuffle rng (List.mapi (fun i c -> (i, c)) cells) in
  (* a fixed amount of work, so that the cost mix does not depend on
     how fast the host was: one untraced pass per 15 s of [seconds]
     and at least two (a pass takes 13-24 s on a 2-vCPU Xeon VM),
     because the peak resident set of one pass depends on the cell
     order (20-29 MB over five seeds) while the second pass's reaches
     the same 30.7 MB whatever the order; a cell's time is the mean of
     its passes *)
  let passes = ref [] in
  for _ = 1 to (if trace then 1 else max 2 (seconds / 15)) do
    passes := sweep_plain pace order :: !passes
  done;
  let first = List.nth !passes (List.length !passes - 1) in
  let traced =
    if trace then begin
      Span.on := true;
      let r = List.map (fun (i, c) -> (i, c, run_traced ~rid:i c)) order in
      Span.on := false;
      Some r
    end
    else None
  in
  (* per cell: its results in each untraced pass, in pass order *)
  let per_cell =
    List.map
      (fun (i, c, r) ->
        let rs =
          List.rev_map
            (fun pass ->
              let _, _, r' = List.find (fun (j, _, _) -> j = i) pass in
              r')
            !passes
        in
        (i, c, r, rs))
      first
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  in
  let mean_of f rs = Util.mean (List.map f rs) in
  let all = List.concat !passes in
  let failed_plain = List.length (List.filter (fun (_, _, r) -> not r.ok) all) in
  (* every pass must schedule every cell identically *)
  let unstable =
    List.length
      (List.filter
         (fun (i, _, r) ->
           List.exists
             (fun pass ->
               let _, _, r' = List.find (fun (j, _, _) -> j = i) pass in
               r'.digest <> r.digest)
             !passes)
         first)
  in
  let failed_traced =
    match traced with
    | None -> 0
    | Some t ->
        List.length
          (List.filter
             (fun (i, c, r) ->
               let _, _, r0 = List.find (fun (j, _, _) -> j = i) first in
               let bad = (not r.ok) || r.digest <> r0.digest in
               if bad then Util.failf "table1 %s: traced digest differs from untraced" c.name;
               bad)
             t)
  in
  List.iter
    (fun (_, c, r, rs) ->
      Util.row "table1 %-5s fu%d %-4s wall_s=%.4f scaled_s=%.4f speedup=%.3f digest=%s"
        c.kernel.Grip.Kernel.name c.fu
        (Pipeline.method_name c.method_)
        (mean_of (fun r -> r.wall) rs)
        (mean_of (fun r -> r.scaled) rs)
        r.speedup r.digest)
    per_cell;
  let times = List.map (fun (_, _, _, rs) -> mean_of (fun r -> r.scaled) rs) per_cell in
  let sweep_s = Util.sum times
  and wall_s = Util.sum (List.map (fun (_, _, _, rs) -> mean_of (fun r -> r.wall) rs) per_cell) in
  let speedups m =
    List.filter_map
      (fun (_, c, r, _) -> if c.method_ = m then Some r.speedup else None)
      per_cell
  in
  let grip = Util.geomean (speedups Pipeline.Grip)
  and post = Util.geomean (speedups Pipeline.Post) in
  Util.row
    "table1 sweep_s=%.4f wall_s=%.4f passes=%d grip_speedup_geomean=%.4f post_speedup_geomean=%.4f"
    sweep_s wall_s (List.length !passes) grip post;
  let n = float_of_int (List.length per_cell) in
  let e2e =
    [
      Util.metric "setup_s" "s" (Util.median setups);
      Util.metric "peak_rss_mb" "MB" (Util.vm_hwm_mb "self");
      Util.metric "throughput" "1/s" (n /. sweep_s);
      (* the cell times are sparse around their median (57, 75, 78
         and 98 ms nearest it in one run), so a noisy cell near it
         moves the median by a quarter; the geometric mean is the
         typical cell *)
      Util.metric "latency_ms" "ms" (1e3 *. Util.geomean times);
      Util.metric "grip_speedup_geomean" "x" grip;
      Util.metric "full_rung_share" "fraction"
        (float_of_int (List.length (List.filter (fun (_, _, r, _) -> r.converged) per_cell)) /. n);
    ]
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        let tbl = Span.summary () in
        let cell = Span.find tbl "cell" in
        let traced_s = cell.Span.total in
        let inside = Util.sum (Hashtbl.fold (fun name g acc -> if name = "cell" then acc else g.Span.self :: acc) tbl []) in
        let slowest = List.fold_left (fun acc (_, _, r) -> Float.max acc r.wall) 0.0 t in
        [
          ("scheduler.slowest_cell_s", slowest);
          ("scheduler.post_speedup_geomean", post);
          ("trace.overhead_ratio", Util.ratio traced_s wall_s);
          ("trace.coverage", Util.ratio inside traced_s);
        ]
  in
  {
    Util.correct = failed_plain = 0 && failed_traced = 0 && unstable = 0;
    attempted = List.length all + (match traced with Some t -> List.length t | None -> 0);
    failed = failed_plain + failed_traced + unstable;
    metrics = (if trace then [] else e2e);
  },
  layers
