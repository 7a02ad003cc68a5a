(** Speedup measurement by simulation (the paper's Table 1 metric).

    Speedup is the ratio of sequential to scheduled cycles per
    iteration in steady state.  Both programs are executed on the VLIW
    interpreter at two trip counts and the difference quotient cancels
    prologue/epilogue cost:

      per-iter = (C(n2) − C(n1)) / (n2 − n1)

    The sequential reference is the rolled loop (one operation per
    node, as the scheduler received it); redundant-operation removal
    therefore credits the scheduled code, which is how Table 1 shows
    speedups above the functional-unit count. *)

open Vliw_ir
module State = Vliw_sim.State
module Exec = Vliw_sim.Exec
module Grip_error = Grip_robust.Grip_error

type t = {
  seq_per_iter : float;
  sched_per_iter : float;
  speedup : float;
  n1 : int;
  n2 : int;
  steady : bool;
      (** true: difference-quotient steady-state measurement (valid
          when the schedule converged to a repeating pattern, so
          pipeline-drain epilogues cancel); false: total-execution
          ratio at [n2], which honestly charges a non-convergent
          schedule its prologue and drain *)
}

(* The cycles [program] takes from a copy of [st], [k]'s state at trip
   count [n].  A simulator fault (an access past the end of an array:
   [n] beyond the kernel's data) is a [Validation] error naming the
   kernel, the trip count and the fault. *)
let cycles (k : Kernel.t) ~n program st =
  match Exec.run program (State.copy st) with
  | r -> r.Exec.cycles
  | exception State.Fault msg ->
      Grip_error.raise_ ~kernel:k.Kernel.name Grip_error.Validation
        (Grip_error.Message (Printf.sprintf "simulating %d iterations: %s" n msg))

(** [run ?data k ~scheduled ~n] — the cycles the rolled loop and
    [scheduled] take over [n] iterations, as (sequential, scheduled).
    Raises a [Validation] [Grip_error.Error] on a simulator fault. *)
let run ?(data = Kernel.default_data) (k : Kernel.t) ~scheduled ~n =
  let st = Kernel.initial_state ~n k ~data in
  ( cycles k ~n (Kernel.rolled k).Builder.program st,
    cycles k ~n scheduled st )

(** [measure ?steady k ~scheduled ~n1 ~n2] — [n2] must stay strictly
    below the unwind horizon of [scheduled].  With [steady] (default),
    per-iteration cost is the difference quotient between the two trip
    counts; without it, the total-execution ratio at [n2] is used (see
    {!t.steady}).  The four runs start from copies of one initial
    state, the second trip count written into the bound register.
    Raises a [Validation] [Grip_error.Error] on a simulator fault. *)
let measure ?(data = Kernel.default_data) ?(steady = true) (k : Kernel.t)
    ~scheduled ~n1 ~n2 =
  if n1 >= n2 then invalid_arg "Speedup.measure: n1 >= n2";
  let rolled = (Kernel.rolled k).Builder.program in
  let st1 = Kernel.initial_state ~n:n1 k ~data in
  let st2 = State.copy st1 in
  (match k.Kernel.bound with
  | Operand.Reg r -> State.write_reg st2 r (Value.I n2)
  | Operand.Imm _ | Operand.Regoff _ -> ());
  let c_seq1 = cycles k ~n:n1 rolled st1
  and c_seq2 = cycles k ~n:n2 rolled st2
  and c_sch1 = cycles k ~n:n1 scheduled st1
  and c_sch2 = cycles k ~n:n2 scheduled st2 in
  let seq_per_iter, sched_per_iter =
    if steady then
      let per a b = float_of_int (b - a) /. float_of_int (n2 - n1) in
      (per c_seq1 c_seq2, per c_sch1 c_sch2)
    else
      (float_of_int c_seq2 /. float_of_int n2,
       float_of_int c_sch2 /. float_of_int n2)
  in
  {
    seq_per_iter;
    sched_per_iter;
    speedup = (if sched_per_iter > 0.0 then seq_per_iter /. sched_per_iter else nan);
    n1;
    n2;
    steady;
  }

(** [verify k ~scheduled ~n] checks the scheduled program against the
    rolled loop on the equivalence oracle at trip count [n]. *)
let verify ?(data = Kernel.default_data) (k : Kernel.t) ~scheduled ~n =
  let rolled = (Kernel.rolled k).Builder.program in
  let init = Kernel.initial_state ~n k ~data in
  Vliw_sim.Oracle.equivalent ~observable:k.Kernel.observable ~init rolled
    scheduled
