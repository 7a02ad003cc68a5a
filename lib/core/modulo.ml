(** Iterative modulo scheduling ([RaGl82], [GrLa86]) — the classic
    {e local} resource-constrained software pipeliner the paper
    contrasts GRiP with in section 1: "If resource constraints are
    incorporated like in Modulo scheduling, convergence is less
    arbitrary, but no guarantee of good utilization can be provided
    since the scheduler takes a local (1 or 2 iterations) view of the
    code."

    The implementation is the standard formulation over the kernel's
    dependence graph: compute the minimum initiation interval as the
    maximum of the resource bound (operations per issue width) and the
    recurrence bound (max over dependence cycles of length/distance),
    then try to place each operation at a cycle compatible with its
    predecessors under a modulo reservation table, increasing II on
    failure.

    Unlike GRiP this never moves operations across the loop-control
    conditional, never renames, and never uses code on other paths —
    the locality that costs it schedule quality on anything
    irregular.  It produces an II (cycles per iteration in steady
    state), not a program graph; the bench compares IIs against
    GRiP's measured cycles per iteration. *)

module Ddg = Vliw_analysis.Ddg
module Machine = Vliw_machine.Machine
module Bottleneck = Grip_obs.Bottleneck

type t = {
  ii : int;  (** achieved initiation interval (cycles per iteration) *)
  mii_resource : int;
  mii_recurrence : int;
  schedule : (int * int) list;  (** (body position, start cycle) *)
  attempts : int;  (** IIs tried before success *)
}

(* Resource-minimum II: ceil(ops / width).  Every operation occupies
   one slot for one cycle. *)
let resource_mii ~machine n_ops =
  if Machine.is_unlimited machine then 1
  else (n_ops + Machine.width machine - 1) / Machine.width machine

(* Recurrence-minimum II: over every dependence cycle C,
   ceil(latency(C) / distance(C)), latencies all 1, and at least 1.
   The cycle is the bottleneck analyzer's critical recurrence, found
   over the arcs that bound the rate ({!Pipeline.rate_edges}). *)
let recurrence_mii (ddg : Ddg.t) =
  match
    snd
      (Bottleneck.critical_chain ~positions:(Array.length ddg.Ddg.ops)
         ~edges:(Pipeline.rate_edges ddg))
  with
  | Some { Bottleneck.chain_ops; chain_distance = d; _ } when d > 0 ->
      max 1 ((chain_ops + d - 1) / d)
  | Some _ | None -> 1

(* Height-based priority (standard modulo scheduling order). *)
let priorities (ddg : Ddg.t) =
  let h = Ddg.flow_height ddg in
  List.sort
    (fun a b -> compare (-h.(a), a) (-h.(b), b))
    (List.init (Array.length ddg.Ddg.ops) (fun i -> i))

(* Try to build a schedule at a fixed [ii]; [None] if the budget of
   placements is exhausted. *)
let try_ii (ddg : Ddg.t) ~machine ~ii =
  let n = Array.length ddg.Ddg.ops in
  let width = if Machine.is_unlimited machine then max_int else Machine.width machine in
  let time = Array.make n (-1) in
  let usage = Array.make ii 0 in
  let budget = ref (n * 20) in
  let order = priorities ddg in
  (* earliest start given placed predecessors *)
  let earliest pos =
    List.fold_left
      (fun acc (a : Ddg.arc) ->
        match a.Ddg.kind with
        | Ddg.Flow | Ddg.Mem ->
            if time.(a.Ddg.src) >= 0 then
              max acc (time.(a.Ddg.src) + 1 - (ii * a.Ddg.dist))
            else acc
        | Ddg.Anti | Ddg.Output -> acc)
      0 ddg.Ddg.preds.(pos)
  in
  let unplace pos =
    if time.(pos) >= 0 then begin
      usage.(time.(pos) mod ii) <- usage.(time.(pos) mod ii) - 1;
      time.(pos) <- -1
    end
  in
  let place pos t =
    time.(pos) <- t;
    usage.(t mod ii) <- usage.(t mod ii) + 1
  in
  let rec fill pending =
    match pending with
    | [] -> true
    | pos :: rest ->
        if !budget <= 0 then false
        else begin
          decr budget;
          let e = earliest pos in
          (* scan one full II window for a free slot *)
          let rec scan t =
            if t > e + ii - 1 then None
            else if usage.(t mod ii) < width then Some t
            else scan (t + 1)
          in
          let t = match scan e with Some t -> t | None -> e in
          (* evict anything that now conflicts: successors scheduled too
             early, and a victim in the slot if it was full *)
          let evicted = ref [] in
          if usage.(t mod ii) >= width then begin
            (* evict the lowest-priority occupant of that row *)
            let victim =
              List.find_opt
                (fun q -> time.(q) >= 0 && time.(q) mod ii = t mod ii)
                (List.rev order)
            in
            match victim with
            | Some q ->
                unplace q;
                evicted := q :: !evicted
            | None -> ()
          end;
          place pos t;
          (* dependent ops placed earlier than allowed must be redone *)
          List.iter
            (fun (a : Ddg.arc) ->
              match a.Ddg.kind with
              | Ddg.Flow | Ddg.Mem ->
                  let q = a.Ddg.dst in
                  if
                    q <> pos && time.(q) >= 0
                    && time.(q) < time.(pos) + 1 - (ii * a.Ddg.dist)
                  then begin
                    unplace q;
                    evicted := q :: !evicted
                  end
              | Ddg.Anti | Ddg.Output -> ())
            ddg.Ddg.succs.(pos);
          fill (rest @ List.rev !evicted)
        end
  in
  if fill order then
    Some (List.init n (fun i -> (i, time.(i))))
  else None

(** [schedule kernel ~machine] — modulo-schedule one iteration of the
    kernel's body (its loop-control conditional included, as in the
    unwound comparison). *)
let schedule (k : Kernel.t) ~machine =
  let ddg = Pipeline.ddg_of k in
  let n_ops = Array.length ddg.Ddg.ops in
  let mii_resource = resource_mii ~machine n_ops in
  let mii_recurrence = recurrence_mii ddg in
  let rec go ii attempts =
    if ii > 4 * (mii_resource + mii_recurrence) + n_ops then
      (* give up: sequential fallback *)
      {
        ii;
        mii_resource;
        mii_recurrence;
        schedule = List.init n_ops (fun i -> (i, i));
        attempts;
      }
    else
      match try_ii ddg ~machine ~ii with
      | Some schedule -> { ii; mii_resource; mii_recurrence; schedule; attempts }
      | None -> go (ii + 1) (attempts + 1)
  in
  go (max mii_resource mii_recurrence) 1

(** Speedup in the paper's metric: sequential cycles per iteration over
    the modulo II. *)
let speedup (k : Kernel.t) t =
  float_of_int (Kernel.ops_per_iteration k) /. float_of_int t.ii
