(** Per-stage guards for the scheduling pipeline.

    A guard is a predicate over the program being transformed —
    structural well-formedness, resource fit, or semantic equivalence
    against a reference — evaluated after a pipeline stage.  Every
    guard always runs, and a violation is returned as a
    {!Grip_error.t}: the caller abandons the stage, falling one rung
    down the degradation ladder of [Grip.Pipeline.run_robust]. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Oracle = Vliw_sim.Oracle

(** [structural ?kernel ?machine stage p] — [Wellformed.check] as a
    guard. *)
let structural ?kernel ?machine stage (p : Program.t) =
  match Wellformed.check p with
  | [] -> None
  | violations ->
      Some (Grip_error.make ?kernel ?machine stage (Grip_error.Malformed violations))

(** [resources ?kernel stage ~machine p] — every reachable instruction
    fits the issue width. *)
let resources ?kernel stage ~machine (p : Program.t) =
  if Machine.is_unlimited machine then None
  else
    let offender =
      List.find_map
        (fun id ->
          if Program.is_exit p id then None
          else
            let c = Program.counts_packed p id in
            if Machine.fits_packed machine c then None
            else Some (id, Machine.slot_demand_packed machine c))
        (Program.rpo p)
    in
    match offender with
    | None -> None
    | Some (node, demand) ->
        Some
          (Grip_error.make ?kernel
             ~machine:(Format.asprintf "%a" Machine.pp machine)
             stage
             (Grip_error.Resource_overflow
                { node; demand; width = Machine.width machine }))

(** [oracle_error ?kernel ?machine stage mismatches] — the
    [Oracle_mismatch] error for a non-empty list of oracle
    [mismatches]: how many, and the first rendered. *)
let oracle_error ?kernel ?machine stage mismatches =
  let first =
    match mismatches with
    | m :: _ -> Format.asprintf "%a" Oracle.pp_mismatch m
    | [] -> "unknown"
  in
  Grip_error.make ?kernel ?machine stage
    (Grip_error.Oracle_mismatch { count = List.length mismatches; first })

(** [oracle ?kernel ?machine stage ~reference ~candidate ~init
    ~observable] — semantic spot-check of [candidate] against
    [reference] from [init]. *)
let oracle ?kernel ?machine stage ~reference ~candidate ~init ~observable =
  match Oracle.equivalent ~observable ~init reference candidate with
  | Ok _ -> None
  | Error mismatches -> Some (oracle_error ?kernel ?machine stage mismatches)

(** [apply_named ?obs (name, check)] — run the guard [check]: [Error]
    on a violation.  With [obs] enabled, every verdict is also a
    {!Grip_obs.Trace.Guard_verdict} event and a [guard.pass] or
    [guard.fail] count. *)
let apply_named ?(obs = Grip_obs.null) (name, check) =
  let verdict = check () in
  (if Grip_obs.enabled obs then begin
     let ok = verdict = None in
     Grip_obs.Metrics.incr obs.Grip_obs.metrics
       (if ok then "guard.pass" else "guard.fail");
     Grip_obs.Trace.emit obs.Grip_obs.trace
       (Grip_obs.Trace.Guard_verdict
          {
            guard = name;
            ok;
            detail =
              (match verdict with
              | None -> ""
              | Some e -> Grip_error.to_string e);
          })
   end);
  match verdict with None -> Ok () | Some e -> Error e

(** [all_named ?obs checks] — {!apply_named} each [(name, check)] in
    order, stopping at the first violation. *)
let all_named ?obs checks =
  List.fold_left
    (fun acc check ->
      match acc with Error _ -> acc | Ok () -> apply_named ?obs check)
    (Ok ()) checks
