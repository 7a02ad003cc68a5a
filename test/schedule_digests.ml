(* Byte-identical-schedule oracle: digests of the rendered schedule of
   every Livermore kernel x {2,4,8} FUs x {GRiP, no-gap, POST}.  A cell
   whose program stopped being an out-tree would fail at node entry,
   and so fail the sweep.  Each final program must also be an out-tree
   ([Program.is_out_tree]) and pass [Program.check_derived_state] (the
   mirrors kept beside a node's ops and tree, leaf counts included)
   and [Wellformed.check]: a cell with a report renders it in place of
   its digest, and so mismatches; a Unifiable run renders it in place
   of its registry text.

   The expected file is the contract that performance work in the
   scheduling core must not change a single schedule: regenerate with
   [schedule_digests.exe --write FILE RFILE], compare with
   [schedule_digests.exe FILE RFILE] (exits 1 and prints each
   mismatch).  A subset is also checked from test_index.ml under `dune
   runtest`; the full sweep runs under the @schedules / @perf-gate
   aliases.

   The same sweep pins each run's metrics registry in RFILE (the
   registry pin): the 126 cells plus the Unifiable baseline on LL1, LL3
   and LL5 (2 FUs, horizon 8).  A run's registry digest covers the
   counters' names and values, the histograms whole and the timers'
   names, so moving where a count is kept must leave every published
   count, and the set of counts published, as it was.
   [--registry-dump] prints each run's registry as the digest reads it,
   to tell which count moved. *)

let fus = [ 2; 4; 8 ]
let methods = [ Grip.Pipeline.Grip; Grip.Pipeline.Grip_no_gap; Grip.Pipeline.Post ]

let method_tag = function
  | Grip.Pipeline.Grip -> "grip"
  | Grip.Pipeline.Grip_no_gap -> "no-gap"
  | Grip.Pipeline.Post -> "post"
  | Grip.Pipeline.Unifiable -> "unifiable"

(* The registry of one run as the pin reads it: counter names and
   values (less the [gc.*] samples, which vary with the host),
   histograms whole, and timer names without their values. *)
let registry_text m =
  let module Json = Grip_obs.Json in
  let json = Grip_obs.Metrics.to_json m in
  let members key =
    match Json.member key json with Some (Json.Obj kvs) -> kvs | _ -> []
  in
  let line kind (name, v) = Printf.sprintf "%s %s %s" kind name (Json.to_string v) in
  String.concat "\n"
    (List.filter_map
       (fun ((name, _) as c) ->
         if String.starts_with ~prefix:"gc." name then None
         else Some (line "counter" c))
       (members "counters")
    @ List.map (line "histogram") (members "histograms")
    @ List.map (fun (name, _) -> "timer " ^ name) (members "times"))

(* One run with metrics on: the digest of its schedule and its
   registry's text.  The schedule digest covers the full rendered
   program (every node, op, guard, register and conditional tree) plus
   the convergence verdict: any behavioural drift in the scheduling
   core changes it.  Cells run with metrics on, so the sweep also shows
   that recording them changes no schedule. *)
let run_cell ?horizon kernel ~fu ~method_ =
  let machine = Vliw_machine.Machine.homogeneous fu in
  let metrics = Grip_obs.Metrics.create () in
  let obs = Grip_obs.make ~metrics () in
  let o = Grip.Pipeline.run ~obs ?horizon kernel ~machine ~method_ in
  let p = o.Grip.Pipeline.program in
  let schedule =
    match
      (if Vliw_ir.Program.is_out_tree p then [] else [ "not an out-tree" ])
      @ Option.to_list (Vliw_ir.Program.check_derived_state p)
      @ Vliw_ir.Wellformed.check p
    with
    | _ :: _ as reports -> "invalid: " ^ String.concat "; " reports
    | [] ->
        let rendered =
          Format.asprintf "%a@.cpi=%s converged=%b@." Vliw_ir.Program.pp p
            (match o.Grip.Pipeline.static_cpi with
            | Some c -> Printf.sprintf "%.4f" c
            | None -> "-")
            (o.Grip.Pipeline.pattern <> None)
        in
        Digest.to_hex (Digest.string rendered)
  in
  (schedule, registry_text metrics)

let cell_digest kernel ~fu ~method_ = fst (run_cell kernel ~fu ~method_)

let all_cells () =
  List.concat_map
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.concat_map
        (fun fu -> List.map (fun m -> (k, fu, m)) methods)
        fus)
    Workloads.Livermore.all

(* A run's name in both expected files, before its digest. *)
let label (k : Grip.Kernel.t) ~fu ~method_ =
  Printf.sprintf "%s %s fu%d" k.Grip.Kernel.name (method_tag method_) fu

let line_of k ~fu ~method_ digest = label k ~fu ~method_ ^ " " ^ digest

(* The schedule lines, and each registry run's label and text. *)
let sweep () =
  let cells =
    List.map
      (fun (k, fu, m) -> (k, fu, m, run_cell k ~fu ~method_:m))
      (all_cells ())
  in
  (* the expensive Unifiable baseline, at a horizon that keeps it cheap *)
  let unifiable =
    List.map
      (fun name ->
        let k = (Option.get (Workloads.Livermore.find name)).Workloads.Livermore.kernel in
        let m = Grip.Pipeline.Unifiable in
        let schedule, registry = run_cell ~horizon:8 k ~fu:2 ~method_:m in
        ( label k ~fu:2 ~method_:m,
          if String.starts_with ~prefix:"invalid: " schedule then schedule
          else registry ))
      [ "LL1"; "LL3"; "LL5" ]
  in
  ( List.map
      (fun (k, fu, m, (schedule, _)) -> line_of k ~fu ~method_:m schedule)
      cells,
    List.map
      (fun (k, fu, m, (_, registry)) -> (label k ~fu ~method_:m, registry))
      cells
    @ unifiable )

let registry_lines runs =
  List.map
    (fun (name, text) -> name ^ " " ^ Digest.to_hex (Digest.string text))
    runs

(* [--chaos FILE]: the same 126 cells, but scheduled through the
   supervised domain pool with deterministic crash and stall faults
   injected — the acceptance check that retries reproduce every
   schedule byte-identically to the fault-free sequential sweep. *)
let chaos_lines () =
  let module Supervisor = Grip_parallel.Supervisor in
  let module Fault = Grip_robust.Fault in
  let cells = all_cells () in
  Grip_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      List.concat_map
        (fun fault ->
          let config =
            {
              Supervisor.default_config with
              Supervisor.fault = Some (Fault.pool_plan ~every:4 fault);
            }
          in
          let results, stats =
            Supervisor.supervise ~config pool
              ~f:(fun ~budget:_ (k, fu, m) ->
                line_of k ~fu ~method_:m (cell_digest k ~fu ~method_:m))
              cells
          in
          if stats.Supervisor.quarantined > 0 then begin
            Printf.eprintf "chaos sweep (%s): %d tasks quarantined\n"
              (Fault.pool_fault_name fault) stats.Supervisor.quarantined;
            exit 1
          end;
          Printf.eprintf
            "chaos sweep (%s): %d cells, %d retries, %d restarts\n%!"
            (Fault.pool_fault_name fault) (List.length results)
            stats.Supervisor.retries stats.Supervisor.worker_restarts;
          List.map Result.get_ok results)
        [ Fault.Crash; Fault.Stall 0.02 ])

(* Compare [actual] with [file] line by line: prints the verdict and
   each mismatch, and tells whether they agree. *)
let check ~tag ~what file actual =
  let expected =
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let mismatches =
    if List.length expected <> List.length actual then
      [ Printf.sprintf "line count: expected %d, got %d"
          (List.length expected) (List.length actual) ]
    else
      List.filter_map
        (fun (e, a) -> if String.equal e a then None
          else Some (Printf.sprintf "expected %S, got %S" e a))
        (List.combine expected actual)
  in
  if mismatches = [] then
    Printf.printf "%s: %d %s byte-identical\n" tag (List.length actual) what
  else List.iter (Printf.eprintf "%s mismatch: %s\n" tag) mismatches;
  mismatches = []

let write file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.eprintf "wrote %s\n%!" file

let () =
  match Sys.argv with
  | [| _; "--write"; file; rfile |] ->
      let schedules, registries = sweep () in
      write file schedules;
      write rfile (registry_lines registries)
  | [| _; "--registry-dump" |] ->
      List.iter
        (fun (name, text) -> Printf.printf "== %s\n%s\n" name text)
        (snd (sweep ()))
  | [| _; "--chaos"; file |] ->
      (* the sweep runs once per fault kind; each pass must match the
         committed fault-free digests exactly *)
      let lines = chaos_lines () in
      let n = List.length lines / 2 in
      let rec split_at k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: tl ->
              let a, b = split_at (k - 1) tl in
              (x :: a, b)
      in
      let crash, stall = split_at n lines in
      let ok_crash = check ~tag:"chaos sweep (crash)" ~what:"cells" file crash in
      let ok_stall = check ~tag:"chaos sweep (stall)" ~what:"cells" file stall in
      if not (ok_crash && ok_stall) then exit 1
  | [| _; file; rfile |] ->
      let schedules, registries = sweep () in
      let ok_schedules =
        check ~tag:"schedule digests" ~what:"cells" file schedules
      in
      let ok_registries =
        check ~tag:"registry digests" ~what:"runs" rfile
          (registry_lines registries)
      in
      if not (ok_schedules && ok_registries) then exit 1
  | _ ->
      prerr_endline
        "usage: schedule_digests (--write FILE RFILE | FILE RFILE | --chaos \
         FILE | --registry-dump)";
      exit 2
