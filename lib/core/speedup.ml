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

(** [measure ?steady k ~scheduled ~n1 ~n2] — [n2] must stay strictly
    below the unwind horizon of [scheduled].  With [steady] (default),
    per-iteration cost is the difference quotient between the two trip
    counts; without it, the total-execution ratio at [n2] is used (see
    {!t.steady}).  The four runs start from copies of one initial
    state, the second trip count written into the bound register. *)
let measure ?(data = Kernel.default_data) ?(steady = true) (k : Kernel.t)
    ~scheduled ~n1 ~n2 =
  if n1 >= n2 then invalid_arg "Speedup.measure: n1 >= n2";
  let rolled = (Kernel.rolled k).Builder.program in
  let st1 = Kernel.initial_state ~n:n1 k ~data in
  let st2 = State.copy st1 in
  (match k.Kernel.bound with
  | Operand.Reg r -> State.write_reg st2 r (Value.I n2)
  | Operand.Imm _ | Operand.Regoff _ -> ());
  let cycles program st = (Exec.run program (State.copy st)).Exec.cycles in
  let c_seq1 = cycles rolled st1
  and c_seq2 = cycles rolled st2
  and c_sch1 = cycles scheduled st1
  and c_sch2 = cycles scheduled st2 in
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
