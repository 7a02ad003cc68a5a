(** Deterministic fault injection for the guarded pipeline.

    Each {!mode} corrupts a scheduled (or unwound) program the way a
    scheduler bug would — bypassing the legality checks the percolation
    transformations normally enforce — so the test suite can prove the
    {!Guard}s actually catch miscompiles rather than merely existing:

    - [Drop_dependence]: hoist an operation into the node that defines
      one of its sources, skipping the true-dependence test of
      [Move_op] (under IBM semantics the operation now reads the stale
      value — a dropped dependence edge);
    - [Overfill_node]: force an extra operation into an instruction that
      is already at the issue width, skipping the resource test;
    - [Clobber_operand]: perturb an immediate or address offset, the
      shape of a corrupted migration rewrite.

    A fourth pipeline-level fault — skipping the Gapless-move test so
    that Perfect Pipelining fails to converge — cannot be expressed as
    program surgery; [Grip.Pipeline.run_robust] exercises it by
    scheduling with gap prevention disabled (see the robustness tests).

    Site selection is a pure function of [seed] and the program's
    deterministic traversal order, so every injected fault is exactly
    reproducible. *)

open Vliw_ir
module Machine = Vliw_machine.Machine

type mode = Drop_dependence | Overfill_node | Clobber_operand

let all = [ Drop_dependence; Overfill_node; Clobber_operand ]

let mode_name = function
  | Drop_dependence -> "drop-dependence"
  | Overfill_node -> "overfill-node"
  | Clobber_operand -> "clobber-operand"

type injection = {
  mode : mode;
  detail : string;  (** human-readable description of the corruption *)
}

let pick ~seed = function
  | [] -> None
  | candidates ->
      let n = List.length candidates in
      Some (List.nth candidates (abs seed mod n))

(* An unwound program supports trip counts up to (horizon - 2); an op
   belonging to a later iteration copy may never execute, making a
   corruption of it latent rather than observable.  [~max_iter] lets
   callers confine injection to the executed core. *)
let iter_ok max_iter (x : Operation.t) =
  match max_iter with
  | None -> true
  | Some m -> x.Operation.iter = Operation.no_iter || x.Operation.iter <= m

(* Raw one-node hoist that bypasses every legality check: the essence
   of a scheduler miscompile. *)
let raw_hoist p ~from_ ~to_ (op : Operation.t) =
  Program.remove_op p from_ op.Operation.id;
  Program.add_op p to_ op

(* Candidate sites where hoisting [x] from [s] into predecessor [t]
   drops a true dependence: [t] defines a register [x] reads. *)
let drop_dependence_sites ?max_iter p =
  List.concat_map
    (fun t ->
      if Program.is_exit p t then []
      else
        let tn = Program.ops p t in
        List.concat_map
          (fun s ->
            if Program.is_exit p s || s = t then []
            else
              List.filter_map
                (fun (x : Operation.t) ->
                  if
                    Operation.is_cjump x
                    || x.Operation.guard <> []
                    || not (iter_ok max_iter x)
                  then None
                  else if
                    List.exists
                      (fun (d : Operation.t) ->
                        match Operation.def d with
                        | Some r -> Operation.reads_reg x r
                        | None -> false)
                      tn
                  then Some (t, s, x)
                  else None)
                (Program.ops p s))
          (Program.succs p t))
    (Program.rpo p)

let overfill_sites ?max_iter ~machine p =
  List.concat_map
    (fun t ->
      if Program.is_exit p t then []
      else
        let tn = Program.counts_packed p t in
        List.concat_map
          (fun s ->
            if Program.is_exit p s || s = t then []
            else
              List.filter_map
                (fun (x : Operation.t) ->
                  if
                    Operation.is_cjump x
                    || x.Operation.guard <> []
                    || (not (iter_ok max_iter x))
                    || Machine.room_for_packed machine tn x
                  then None
                  else Some (t, s, x))
                (Program.ops p s))
          (Program.succs p t))
    (Program.rpo p)

let perturb_operand = function
  | Operand.Imm (Value.I k) -> Some (Operand.Imm (Value.I (k + 17)))
  | Operand.Imm (Value.F x) -> Some (Operand.Imm (Value.F (x +. 0.5)))
  | Operand.Regoff (r, c) -> Some (Operand.Regoff (r, c + 1))
  | Operand.Reg _ -> None

let perturb_kind = function
  | Operation.Binop (o, d, a, b) -> (
      match perturb_operand a with
      | Some a' -> Some (Operation.Binop (o, d, a', b))
      | None -> (
          match perturb_operand b with
          | Some b' -> Some (Operation.Binop (o, d, a, b'))
          | None -> None))
  | Operation.Unop (o, d, a) ->
      Option.map (fun a' -> Operation.Unop (o, d, a')) (perturb_operand a)
  | Operation.Copy (d, a) ->
      Option.map (fun a' -> Operation.Copy (d, a')) (perturb_operand a)
  | Operation.Load (d, a) ->
      Option.map
        (fun b' -> Operation.Load (d, { a with Operation.base = b' }))
        (perturb_operand a.Operation.base)
  | Operation.Store (a, v) -> (
      match perturb_operand a.Operation.base with
      | Some b' -> Some (Operation.Store ({ a with Operation.base = b' }, v))
      | None ->
          Option.map (fun v' -> Operation.Store (a, v')) (perturb_operand v))
  | Operation.Cjump _ -> None

let clobber_sites ?max_iter p =
  List.concat_map
    (fun t ->
      if Program.is_exit p t then []
      else
        List.filter_map
          (fun (x : Operation.t) ->
            if not (iter_ok max_iter x) then None
            else
              match perturb_kind x.Operation.kind with
              | Some kind' -> Some (t, x, kind')
              | None -> None)
          (Program.ops p t))
    (Program.rpo p)

(** [inject ~seed ?max_iter ~machine mode p] — corrupt [p] in place.
    [Error reason] when the program offers no applicable site (e.g. no
    full node to overfill on a wide machine); the program is untouched
    in that case.  [max_iter] confines sites to operations of unwound
    iterations at most [max_iter], i.e. to code a bounded-trip oracle
    run actually exercises. *)
let inject ~seed ?max_iter ~machine mode (p : Program.t) =
  match mode with
  | Drop_dependence -> (
      match pick ~seed (drop_dependence_sites ?max_iter p) with
      | None -> Error "no dependence edge to drop"
      | Some (t, s, x) ->
          raw_hoist p ~from_:s ~to_:t x;
          Ok
            {
              mode;
              detail =
                Printf.sprintf "hoisted op #%d from node %d into defining node %d"
                  x.Operation.id s t;
            })
  | Overfill_node -> (
      match pick ~seed (overfill_sites ?max_iter ~machine p) with
      | None -> Error "no full node to overfill"
      | Some (t, s, x) ->
          raw_hoist p ~from_:s ~to_:t x;
          Ok
            {
              mode;
              detail =
                Printf.sprintf "forced op #%d from node %d into full node %d"
                  x.Operation.id s t;
            })
  | Clobber_operand -> (
      match pick ~seed (clobber_sites ?max_iter p) with
      | None -> Error "no operand to clobber"
      | Some (t, x, kind') ->
          Program.replace_op p t { x with Operation.kind = kind' };
          Ok
            {
              mode;
              detail =
                Printf.sprintf "perturbed an operand of op #%d in node %d"
                  x.Operation.id t;
            })

(* -- pool-level faults ----------------------------------------------------- *)

(** Execution-layer faults, injected by the supervised pool rather
    than by program surgery: the way a {e worker} fails rather than
    the way a {e schedule} is miscompiled.

    - [Crash] — the task raises {!Injected_crash} (a stray, non-GRiP
      exception: exactly what a segfaulting worker would look like to
      the supervisor);
    - [Stall s] — the task sleeps [s] seconds {e without polling its
      budget} before running; the heartbeat goes silent, which is the
      signature the starvation-gap watchdog exists to catch;
    - [Slow s] — the task sleeps [s] seconds in small slices, polling
      its budget between slices: latency without starvation, visible
      to deadlines but innocent to the watchdog.

    Whether a given (task, attempt) is hit is a pure function of the
    {!pool_plan} — [(task + seed) mod every = 0], and for a
    [transient] plan only on attempt 0 — so a chaos run is exactly
    reproducible and a retried task deterministically succeeds. *)
type pool_fault = Crash | Stall of float | Slow of float

exception Injected_crash of { task : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected_crash { task; attempt } ->
        Some
          (Printf.sprintf "Injected_crash(task %d, attempt %d)" task attempt)
    | _ -> None)

type pool_plan = {
  fault : pool_fault;
  every : int;  (** tasks with [(task + seed) mod every = 0] are hit *)
  seed : int;
  transient : bool;
      (** hit only the first attempt, so a retry deterministically
          succeeds; [false] makes the fault a poison pill, exercising
          quarantine *)
}

let pool_fault_name = function
  | Crash -> "crash"
  | Stall s -> Printf.sprintf "stall(%.3fs)" s
  | Slow s -> Printf.sprintf "slow(%.3fs)" s

let pool_plan ?(every = 3) ?(seed = 0) ?(transient = true) fault =
  { fault; every = max 1 every; seed; transient }

let hits plan ~task ~attempt =
  (task + plan.seed) mod plan.every = 0
  && ((not plan.transient) || attempt = 0)

(** [trip plan ~budget ~task ~attempt] — run the planned fault for
    this (task, attempt) if it is selected; a no-op otherwise.  Must
    be called {e inside} the task body, on the worker domain. *)
let trip plan ~budget ~task ~attempt =
  if hits plan ~task ~attempt then
    match plan.fault with
    | Crash -> raise (Injected_crash { task; attempt })
    | Stall s ->
        (* no budget polls: the heartbeat flatlines for [s] seconds *)
        Unix.sleepf s
    | Slow s ->
        let slices = 8 in
        for _ = 1 to slices do
          Budget.check budget;
          Unix.sleepf (s /. float_of_int slices)
        done
