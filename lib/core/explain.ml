(** The bottleneck profiler's adapter: turns a {!Pipeline.outcome} and
    its provenance journals into a {!Grip_obs.Bottleneck} analysis, and
    renders the `grip explain` report (verdict, critical chain,
    per-cycle FU pressure, why-not table, per-op journeys).

    The analyzer itself lives in [lib/obs] and knows nothing of
    kernels or machines; everything model-specific — which DDG arcs
    constrain the rate, what an iteration costs in issue slots, where
    the steady-state window sits — is assembled here. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Provenance = Grip_obs.Provenance
module Bottleneck = Grip_obs.Bottleneck

(* The steady-state window's rows of the pressure listing, or the whole
   internal path when the schedule never converged. *)
let window_pressure (o : Pipeline.outcome) =
  let all = Schedule_table.pressures ~machine:o.Pipeline.machine o.Pipeline.program in
  match o.Pipeline.pattern with
  | None -> all
  | Some pat ->
      List.filteri
        (fun i _ ->
          i >= pat.Convergence.start
          && i < pat.Convergence.start + pat.Convergence.period)
        all

(** [input_of ?prov o] — the analyzer's input for a pipeline outcome.
    Suspension and barrier totals are the scheduler's own stats (the
    journals' totals equal them by the replay invariant); the journals
    give the blocking ops.  The resource bound uses the slots actually
    issued per steady iteration — renaming copies consume slots too,
    and redundancy removal may have deleted body ops — falling back to
    the kernel's nominal op count when the schedule never converged. *)
let input_of ?(prov = Provenance.null) (o : Pipeline.outcome) =
  let positions = List.length o.Pipeline.kernel.Kernel.body + 1 in
  let pressure = window_pressure o in
  let iter_ops =
    match o.Pipeline.pattern with
    | Some pat when pat.Convergence.delta > 0 ->
        float_of_int (List.fold_left (fun a (u, _) -> a + u) 0 pressure)
        /. float_of_int pat.Convergence.delta
    | _ -> float_of_int (Kernel.ops_per_iteration o.Pipeline.kernel)
  in
  let suspensions, barriers = Pipeline.sched_totals o.Pipeline.stats in
  {
    Bottleneck.positions;
    edges = Pipeline.rate_edges (Pipeline.ddg_of o.Pipeline.kernel);
    iter_ops;
    width =
      (if Machine.is_unlimited o.Pipeline.machine then 0
       else Machine.width o.Pipeline.machine);
    achieved_cpi = o.Pipeline.static_cpi;
    suspensions;
    barriers;
    fuel = o.Pipeline.fuel_exhausted;
    pressure;
    blockers = (if Provenance.enabled prov then Provenance.blockers prov else []);
  }

let report ?tolerance ?prov (o : Pipeline.outcome) =
  Bottleneck.analyze ?tolerance (input_of ?prov o)

(* -- human rendering ------------------------------------------------------ *)

let jump_pos (o : Pipeline.outcome) = List.length o.Pipeline.kernel.Kernel.body

(* Display name of an operation id in the final program: body letter
   plus iteration when it is still alive, bare id otherwise. *)
let op_name (o : Pipeline.outcome) id =
  let p = o.Pipeline.program in
  match (Program.home p id, Program.stored_op p id) with
  | Some _, Some op ->
      if op.Operation.iter = Operation.no_iter then
        Printf.sprintf "op%d(pre)" id
      else
        Printf.sprintf "%s%d"
          (Schedule_table.letter ~jump_pos:(jump_pos o) op.Operation.src_pos)
          op.Operation.iter
  | _ -> Printf.sprintf "op%d" id

let pp_chain ppf (o : Pipeline.outcome) (c : Bottleneck.chain) =
  let letter p = Schedule_table.letter ~jump_pos:(jump_pos o) p in
  Format.fprintf ppf "%s"
    (String.concat " -> " (List.map letter c.Bottleneck.chain_positions));
  if c.Bottleneck.chain_distance > 0 then
    Format.fprintf ppf "  (%d op%s / %d iteration%s: a recurrence)"
      c.Bottleneck.chain_ops
      (if c.Bottleneck.chain_ops = 1 then "" else "s")
      c.Bottleneck.chain_distance
      (if c.Bottleneck.chain_distance = 1 then "" else "s")
  else
    Format.fprintf ppf "  (longest dependence path, %d op%s)"
      c.Bottleneck.chain_ops
      (if c.Bottleneck.chain_ops = 1 then "" else "s")

let pp_verdict ppf = function
  | Bottleneck.Dep_bound -> Format.pp_print_string ppf "DEP-BOUND"
  | Bottleneck.Resource_bound -> Format.pp_print_string ppf "RESOURCE-BOUND"
  | Bottleneck.Scheduler_bound { suspensions; barriers; fuel } ->
      Format.fprintf ppf
        "SCHEDULER-BOUND (suspensions=%d barriers=%d fuel=%b)" suspensions
        barriers fuel

(* Why-not table: rejection counts by reason across all journals. *)
let why_not_rows prov =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun j ->
      List.iter
        (fun (r : Provenance.rejection) ->
          let key = Provenance.reason_name r.Provenance.reason in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        (Provenance.rejections j))
    (Provenance.journals prov);
  List.filter_map
    (fun key -> Option.map (fun n -> (key, n)) (Hashtbl.find_opt counts key))
    [ "dep"; "resource_barrier"; "suspended"; "structural"; "fuel" ]

let render_journal ppf (o : Pipeline.outcome) (j : Provenance.journal) =
  Format.fprintf ppf "op%d (%s): origin n%d@." j.Provenance.id
    (op_name o j.Provenance.id) j.Provenance.origin;
  List.iter
    (fun (h : Provenance.hop) ->
      Format.fprintf ppf "  hop n%d -> n%d (%s)@." h.Provenance.from_
        h.Provenance.to_
        (Provenance.rule_name h.Provenance.rule))
    (Provenance.journey j);
  List.iter
    (fun (r : Provenance.rejection) ->
      match r.Provenance.reason with
      | Provenance.Dep id ->
          Format.fprintf ppf "  stopped at n%d: dependence on op%d (%s)@."
            r.Provenance.node id (op_name o id)
      | reason ->
          Format.fprintf ppf "  stopped at n%d: %a@." r.Provenance.node
            Provenance.pp_reason reason)
    (Provenance.rejections j)

(** [render ppf ?op ?top ~prov o r] — the `grip explain` report. *)
let render ppf ?op ?(top = 5) ~prov (o : Pipeline.outcome)
    (r : Bottleneck.report) =
  Format.fprintf ppf "%s on %a (%s): verdict %a@."
    o.Pipeline.kernel.Kernel.name Machine.pp o.Pipeline.machine
    (Pipeline.method_name o.Pipeline.method_)
    pp_verdict r.Bottleneck.verdict;
  (match r.Bottleneck.achieved_cpi with
  | Some cpi ->
      Format.fprintf ppf
        "  achieved: %.2f cycles/iter   dep bound (recMII): %.2f   resource \
         bound (resMII): %.2f@."
        cpi r.Bottleneck.rec_mii r.Bottleneck.res_mii
  | None ->
      Format.fprintf ppf
        "  did not converge within horizon %d   dep bound (recMII): %.2f   \
         resource bound (resMII): %.2f@."
        o.Pipeline.horizon r.Bottleneck.rec_mii r.Bottleneck.res_mii);
  (match r.Bottleneck.achieved_cpi with
  | Some cpi when cpi +. 1e-9 < r.Bottleneck.rec_mii ->
      Format.fprintf ppf
        "  (achieved beats the modeled recurrence: redundancy removal / \
         renaming broke a conservative dependence cycle)@."
  | _ -> ());
  (match r.Bottleneck.chain with
  | Some c -> Format.fprintf ppf "  critical chain: %a@." (fun ppf -> pp_chain ppf o) c
  | None -> ());
  Format.fprintf ppf "  steady-window FU pressure: avg %.1f slots, peak %d@."
    r.Bottleneck.pressure_avg r.Bottleneck.pressure_peak;
  let rows = why_not_rows prov in
  if rows <> [] then begin
    Format.fprintf ppf "  why-not (migration rejections):@.";
    List.iter
      (fun (key, n) -> Format.fprintf ppf "    %-16s %6d@." key n)
      rows
  end;
  (match r.Bottleneck.top_blockers with
  | [] -> ()
  | blockers ->
      Format.fprintf ppf "  top blocking ops:";
      List.iteri
        (fun i (id, n) ->
          if i < top then
            Format.fprintf ppf " %s(x%d)" (op_name o id) n)
        blockers;
      Format.pp_print_newline ppf ());
  match op with
  | None -> ()
  | Some id -> (
      Format.fprintf ppf "@.journey of op %d:@." id;
      match Provenance.journal prov id with
      | Some j -> render_journal ppf o j
      | None ->
          Format.fprintf ppf
            "  no journal (op never migrated, was renamed, or provenance was \
             off)@.")
