(* Random [Synthetic] kernel specs, shared by the property suites that
   drive the percolation core over unwound random programs. *)

module Synthetic = Workloads.Synthetic

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_ops = int_range 3 10 in
    let* n_arrays = int_range 1 3 in
    let* p_load = float_range 0.1 0.5 in
    let* p_store = float_range 0.05 0.4 in
    let* p_recurrence = float_range 0.0 0.5 in
    return { Synthetic.seed; n_ops; n_arrays; p_load; p_store; p_recurrence })

let print_spec (s : Synthetic.spec) =
  Printf.sprintf "{seed=%d; n_ops=%d; n_arrays=%d; p=(%.2f,%.2f,%.2f)}"
    s.Synthetic.seed s.Synthetic.n_ops s.Synthetic.n_arrays s.Synthetic.p_load
    s.Synthetic.p_store s.Synthetic.p_recurrence

(* deterministic per-spec rng, as in test_props *)
let make_rng seed =
  let rng = ref seed in
  fun bound ->
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod bound
