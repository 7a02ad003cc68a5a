(** Loop kernels: the unit of work the schedulers consume.

    A kernel is one innermost counted loop — the shape of the paper's
    evaluation (Livermore Loops after the GCC front end) — described by
    its loop-invariant preamble, its body (one operation per statement,
    source order), the induction register, and what is observable after
    the loop.  [rolled] builds the sequential program graph (one
    operation per node, as Percolation Scheduling expects); the
    unwinder ({!Unwind}) derives the software-pipelining candidate. *)

open Vliw_ir

type t = {
  name : string;
  pre : Operation.kind list;
      (** loop setup: induction init, invariant loads; runs once *)
  body : Operation.kind list;
      (** one iteration, without the increment and the back-edge test *)
  ivar : Reg.t;  (** induction register *)
  step : int;  (** per-iteration increment (non-zero) *)
  bound : Operand.t;
      (** iterate while [ivar + step*(j+1) < bound + 1]: i.e. run for
          [bound] iterations when [ivar] starts at 0 with step 1 *)
  observable : Reg.t list;  (** registers compared by the oracle *)
  arrays : (string * int) list;  (** array name and extent *)
  params : (Reg.t * Value.t) list;
      (** runtime-initialised registers (trip bound, problem scalars);
          set by the driver before simulation, not by [pre] *)
  description : string;
}

let make ~name ?(description = "") ~pre ~body ~ivar ?(step = 1) ~bound
    ?(observable = []) ?(arrays = []) ?(params = []) () =
  if step = 0 then invalid_arg "Kernel.make: zero step";
  { name; pre; body; ivar; step; bound; observable; arrays; params; description }

(** Operations of one iteration including the loop control (increment
    and conditional): what the sequential machine executes per
    iteration. *)
let ops_per_iteration k = List.length k.body + 2

(** [control k] is the loop-control pair appended to the body by
    {!rolled}: the induction increment and the back-edge test
    (continue while the incremented induction is below the bound). *)
let control k =
  [
    Operation.Binop
      (Opcode.Add, k.ivar, Operand.Reg k.ivar, Operand.Imm (Value.I k.step));
    Operation.Cjump (Opcode.Lt, Operand.Reg k.ivar, k.bound);
  ]

(** [rolled k] is the sequential rolled-loop program: entry, preamble,
    body (one op per node), increment, back-edge conditional. *)
let rolled k =
  let shape = Builder.loop ~pre:k.pre ~body:(k.body @ control k) () in
  shape

(** [exit_live k] — the registers observable at program exit. *)
let exit_live k = Reg.Set.of_list k.observable

(** [initial_state ?n k ~data] builds a simulator state: arrays filled
    by [data sym i], parameter registers preset, and — when the trip
    bound is a register — that register set to [n]. *)
let initial_state ?n k ~data =
  let regs =
    match n, k.bound with
    | Some n, Operand.Reg r -> (r, Value.I n) :: List.remove_assoc r k.params
    | _ -> k.params
  in
  Vliw_sim.State.init ~regs
    ~arrays:
      (List.map
         (fun (sym, size) -> (sym, Array.init size (data sym)))
         k.arrays)

(** Default array contents: smooth, nonzero floats so that float
    kernels neither overflow nor collapse to zeros. *)
let default_data _sym i = Value.F (1.0 +. (0.01 *. float_of_int (i mod 97)))
