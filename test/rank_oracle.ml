(* The comparators the rank keys replaced, kept as the oracle the key
   property compares {!Grip.Rank} against: the section 3.4 heuristic,
   source order and the store-first rank of
   examples/custom_heuristic.ml, each as the total order it defined
   (best first, the op id as the final tie-break). *)

open Vliw_ir

let by_iteration (a : Operation.t) (b : Operation.t) =
  Int.compare a.Operation.iter b.Operation.iter

let tie_break (a : Operation.t) (b : Operation.t) =
  match Int.compare a.Operation.src_pos b.Operation.src_pos with
  | 0 -> Int.compare a.Operation.id b.Operation.id
  | c -> c

(** [section_3_4 ~ddg] — earlier iterations, then longer flow chains,
    then more dependents, keyed by lineage. *)
let section_3_4 ~(ddg : Vliw_analysis.Ddg.t) =
  let heights = Vliw_analysis.Ddg.flow_height ddg in
  let deps = Vliw_analysis.Ddg.dependents ddg in
  let at tbl (op : Operation.t) =
    let pos = op.Operation.lineage in
    if pos >= 0 && pos < Array.length tbl then tbl.(pos) else 0
  in
  fun a b ->
    match by_iteration a b with
    | 0 ->
        let ha = at heights a and hb = at heights b in
        if ha <> hb then Int.compare hb ha
        else
          let da = at deps a and db = at deps b in
          if da <> db then Int.compare db da else tie_break a b
    | c -> c

let source_order a b = match by_iteration a b with 0 -> tie_break a b | c -> c

(** [custom f] — the old [Rank.custom]: a user comparison inside the
    iteration-major order. *)
let custom f a b =
  match by_iteration a b with
  | 0 -> ( match f a b with 0 -> tie_break a b | c -> c)
  | c -> c

let store_first =
  custom (fun a b ->
      let weight (op : Operation.t) = if Operation.is_store op then 0 else 1 in
      compare (weight a) (weight b))
