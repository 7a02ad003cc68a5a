(* Byte-identical-schedule oracle: digests of the rendered schedule of
   every Livermore kernel x {2,4,8} FUs x {GRiP, no-gap, POST}.  A cell
   whose program turned cyclic would fail at node entry, which raises
   on a retreating edge, and so fail the sweep.  Each final program
   must also pass [Program.check_derived_state] (the mirrors kept
   beside a node's ops and tree) and [Wellformed.check]: a cell with a
   report renders it in place of its digest, and so mismatches.

   The expected file is the contract that performance work in the
   scheduling core must not change a single schedule: regenerate with
   [schedule_digests.exe --write FILE], compare with
   [schedule_digests.exe FILE] (exits 1 and prints each mismatch).
   A subset is also checked from test_index.ml under `dune runtest`;
   the full sweep runs under the @schedules / @perf-gate aliases. *)

let fus = [ 2; 4; 8 ]
let methods = [ Grip.Pipeline.Grip; Grip.Pipeline.Grip_no_gap; Grip.Pipeline.Post ]

let method_tag = function
  | Grip.Pipeline.Grip -> "grip"
  | Grip.Pipeline.Grip_no_gap -> "no-gap"
  | Grip.Pipeline.Post -> "post"
  | Grip.Pipeline.Unifiable -> "unifiable"

(* The digest covers the full rendered program (every node, op, guard,
   register and conditional tree) plus the convergence verdict: any
   behavioural drift in the scheduling core changes it.  Cells run with
   metrics on, so the sweep also shows that recording them changes no
   schedule. *)
let cell_digest kernel ~fu ~method_ =
  let machine = Vliw_machine.Machine.homogeneous fu in
  let obs = Grip_obs.make ~metrics:(Grip_obs.Metrics.create ()) () in
  let o = Grip.Pipeline.run ~obs kernel ~machine ~method_ in
  let p = o.Grip.Pipeline.program in
  match
    Option.to_list (Vliw_ir.Program.check_derived_state p)
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

let all_cells () =
  List.concat_map
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.concat_map
        (fun fu -> List.map (fun m -> (k, fu, m)) methods)
        fus)
    Workloads.Livermore.all

let line_of (k : Grip.Kernel.t) ~fu ~method_ digest =
  Printf.sprintf "%s %s fu%d %s" k.Grip.Kernel.name (method_tag method_) fu
    digest

let all_lines () =
  List.map
    (fun (k, fu, m) -> line_of k ~fu ~method_:m (cell_digest k ~fu ~method_:m))
    (all_cells ())

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
              Supervisor.backoff = 0.0;
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

let check ~tag file actual =
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
    Printf.printf "%s: %d cells byte-identical\n" tag (List.length actual)
  else begin
    List.iter (Printf.eprintf "schedule digest mismatch: %s\n") mismatches;
    exit 1
  end

let () =
  match Sys.argv with
  | [| _; "--write"; file |] ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc (l ^ "\n")) (all_lines ());
      close_out oc;
      Printf.eprintf "wrote %s\n%!" file
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
      check ~tag:"chaos sweep (crash)" file crash;
      check ~tag:"chaos sweep (stall)" file stall
  | [| _; file |] -> check ~tag:"schedule digests" file (all_lines ())
  | _ ->
      prerr_endline "usage: schedule_digests (--write FILE | --chaos FILE | FILE)";
      exit 2
