(** Data-dependence graphs of a sequential loop body.

    Built once per kernel from the original body (one operation per
    position, in source order) and consulted by the ranking heuristic
    (chain heights, dependent counts), by the Unifiable-ops baseline
    (same-chain test over unwound instances), and by the unwinder's
    sanity checks.

    Arcs record a [dist]ance in iterations: [0] for intra-iteration
    dependencies and [d > 0] for loop-carried ones.  Register
    dependencies are exact; memory dependencies use {!Alias}, with
    induction-variable-based addresses resolved to exact distances and
    everything else treated conservatively as distance-1 conflicts. *)

open Vliw_ir

type kind = Flow | Anti | Output | Mem

type arc = { src : int; dst : int; kind : kind; dist : int }
(** Dependence from the instance of position [src] at iteration [t] to
    the instance of position [dst] at iteration [t + dist]; when
    [dist = 0], [src < dst] in source order. *)

type t = {
  ops : Operation.t array;
  arcs : arc list;
  succs : arc list array;  (** outgoing arcs, indexed by [src] *)
  preds : arc list array;  (** incoming arcs, indexed by [dst] *)
  ivar : (Reg.t * int) option;
}

(* Register dependencies: for each use of R at position j, the
   generating def is the last def of R before j (intra) or, failing
   that, the last def of R in the whole body (loop-carried, distance
   1).  Anti/output arcs are computed symmetrically. *)
let reg_arcs ops =
  let n = Array.length ops in
  let arcs = ref [] in
  let add src dst kind dist = arcs := { src; dst; kind; dist } :: !arcs in
  (* register -> ascending defining positions, computed in one pass
     (the previous per-use rescan of the whole body made this
     O(positions² · defs)) *)
  let def_tbl : (Reg.t, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i op ->
      match Operation.def op with
      | Some r ->
          Hashtbl.replace def_tbl r
            (i
            :: (match Hashtbl.find_opt def_tbl r with Some l -> l | None -> []))
      | None -> ())
    ops;
  let defs_of r =
    match Hashtbl.find_opt def_tbl r with
    | Some l -> List.rev l
    | None -> []
  in
  for j = 0 to n - 1 do
    List.iter
      (fun r ->
        let defs = defs_of r in
        let before = List.filter (fun i -> i < j) defs in
        match List.rev before with
        | i :: _ -> add i j Flow 0
        | [] -> (
            (* value comes from the previous iteration's last def *)
            match List.rev defs with
            | i :: _ -> add i j Flow 1
            | [] -> () (* live-in: defined outside the loop *)))
      (Operation.uses ops.(j))
  done;
  (* anti: use at i, next def at j > i (or wrapped) *)
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        let defs = defs_of r in
        match List.filter (fun j -> j > i) defs with
        | j :: _ -> add i j Anti 0
        | [] -> (
            match defs with j :: _ -> add i j Anti 1 | [] -> ()))
      (Operation.uses ops.(i))
  done;
  (* output: consecutive defs of the same register *)
  for i = 0 to n - 1 do
    match Operation.def ops.(i) with
    | None -> ()
    | Some r ->
        let defs = List.filter (fun j -> j <> i) (defs_of r) in
        (match List.filter (fun j -> j > i) defs with
        | j :: _ -> add i j Output 0
        | [] -> (
            match defs with
            | j :: _ when j < i -> add i j Output 1
            | _ -> ()))
  done;
  !arcs

(* Memory dependencies.  The instance of an ivar-based address at
   iteration [t] has offset shifted by [t * step]; exact distances
   follow.  Non-ivar bases are handled conservatively. *)
let mem_arcs ?ivar ops =
  let n = Array.length ops in
  let arcs = ref [] in
  let add src dst dist = arcs := { src; dst; kind = Mem; dist } :: !arcs in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match Operation.mem_access ops.(i), Operation.mem_access ops.(j) with
      | Some ai, Some aj
        when Operation.is_store ops.(i) || Operation.is_store ops.(j) ->
          if not (String.equal ai.Operation.sym aj.Operation.sym) then ()
          else begin
            match Alias.normalize ai, Alias.normalize aj, ivar with
            | Alias.Based (r, ci), Alias.Based (s, cj), Some (k, step)
              when Reg.equal r k && Reg.equal s k && step <> 0 ->
                (* address_i(t) = ci + t*step; it meets address_j(t+d)
                   when ci - cj = d*step: the dependence runs
                   i@t -> j@t+d. *)
                let diff = ci - cj in
                if diff mod step = 0 then begin
                  let d = diff / step in
                  if d = 0 && i < j then add i j 0 else if d > 0 then add i j d
                end
            | Alias.Based (r, ci), Alias.Based (s, cj), _ when Reg.equal r s ->
                (* Same non-ivar base register: within one iteration the
                   offsets decide exactly; across iterations the base's
                   value may change arbitrarily, so be conservative. *)
                if ci = cj && i < j then add i j 0;
                add j i 1
            | Alias.Absolute ci, Alias.Absolute cj, _ ->
                (* fixed addresses: identical every iteration *)
                if ci = cj then begin
                  if i < j then add i j 0;
                  add j i 1
                end
            | (Alias.Based _ | Alias.Absolute _ | Alias.Unknown), _, _ ->
                (* incomparable bases: conservative, every distance *)
                if i < j then add i j 0;
                add j i 1
          end
      | _ -> ()
    done
  done;
  !arcs

(** [build ?ivar body] constructs the DDG of [body] (source order).
    [ivar = (k, step)] identifies the induction register and its
    per-iteration step for exact memory distances. *)
let kind_rank = function Flow -> 0 | Anti -> 1 | Output -> 2 | Mem -> 3

(* Same total order the old polymorphic-compare tuple sort produced
   (constant constructors compare in declaration order), monomorphic. *)
let arc_compare a b =
  let c = Int.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Int.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
      if c <> 0 then c else Int.compare a.dist b.dist

let build ?ivar body =
  let ops = Array.of_list body in
  let n = Array.length ops in
  let arcs = reg_arcs ops @ mem_arcs ?ivar ops in
  (* dedupe through a hash table (O(arcs)), then one monomorphic sort
     reproducing the order the old [List.sort_uniq] emitted *)
  let arcs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun a ->
        let key = (a.src, a.dst, kind_rank a.kind, a.dist) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      arcs
    |> List.sort arc_compare
  in
  let succs = Array.make (max n 1) [] in
  let preds = Array.make (max n 1) [] in
  List.iter
    (fun a ->
      succs.(a.src) <- a :: succs.(a.src);
      preds.(a.dst) <- a :: preds.(a.dst))
    arcs;
  { ops; arcs; succs; preds; ivar }

(** [flow_height t] is, for each position, the number of operations on
    the longest intra-iteration flow/mem chain rooted there (>= 1).
    This is criterion 1 of the section 3.4 ranking heuristic. *)
let flow_height t =
  let n = Array.length t.ops in
  let memo = Array.make n 0 in
  let rec h i =
    if memo.(i) > 0 then memo.(i)
    else begin
      memo.(i) <- 1 (* cycle guard; intra arcs form a DAG anyway *);
      let best =
        List.fold_left
          (fun acc a ->
            if a.dist = 0 && (a.kind = Flow || a.kind = Mem) then
              max acc (h a.dst)
            else acc)
          0 t.succs.(i)
      in
      memo.(i) <- 1 + best;
      memo.(i)
    end
  in
  Array.init n h

(** [dependents t] counts the direct flow dependents of each position
    (criterion 2 of the ranking heuristic). *)
let dependents t =
  Array.init (Array.length t.ops) (fun i ->
      List.length
        (List.filter (fun a -> a.kind = Flow) t.succs.(i)))

(** [reaches_flow t ~horizon (i, ti) (j, tj)] — does the instance of
    position [i] at iteration [ti] reach the instance of [j] at [tj]
    through flow/mem dependencies?  Instances are explored within
    iterations [0, horizon].  Used by the Unifiable-ops same-chain
    test. *)
let reaches_flow t ~horizon (i, ti) (j, tj) =
  let n = Array.length t.ops in
  if i < 0 || i >= n || j < 0 || j >= n then false
  else
  let seen = Hashtbl.create 64 in
  let rec go (pos, it) =
    if it > horizon || it < 0 then false
    else if pos = j && it = tj then true
    else if Hashtbl.mem seen (pos, it) then false
    else begin
      Hashtbl.replace seen (pos, it) ();
      List.exists
        (fun a ->
          (a.kind = Flow || a.kind = Mem) && go (a.dst, it + a.dist))
        t.succs.(pos)
    end
  in
  go (i, ti)

(** [chain_related t ~horizon a b] — are the two instances on the same
    flow chain (either reaches the other)? *)
let chain_related t ~horizon a b =
  reaches_flow t ~horizon a b || reaches_flow t ~horizon b a

(** {!reaches_flow} over one DDG and horizon, memoised.  Every arc has
    [dist >= 0], so the iterations along a path never decrease: a path
    from [(i, ti)] to [(j, tj)] stays within [[ti, tj]], which lies in
    [[0, horizon]] when [0 <= ti] and [tj <= horizon], and outside that
    case, or when [tj < ti], there is none.  Inside it, shifting the
    path by [-ti] shows that the answer depends only on [i], [j] and
    [tj - ti], which the memo keys on.  A memo is mutable: keep one per
    run, never one shared across domains. *)
type chains = {
  ddg : t;
  horizon : int;
  known : (int, bool) Hashtbl.t;  (** [((tj - ti) * n + i) * n + j] -> answer *)
}

let chains t ~horizon = { ddg = t; horizon; known = Hashtbl.create 64 }

(** [reaches c a b] — [reaches_flow c.ddg ~horizon:c.horizon a b]. *)
let reaches c (i, ti) (j, tj) =
  let n = Array.length c.ddg.ops in
  if i < 0 || i >= n || j < 0 || j >= n || ti < 0 || tj > c.horizon || tj < ti
  then false
  else
    let d = tj - ti in
    let key = (((d * n) + i) * n) + j in
    match Hashtbl.find c.known key with
    | r -> r
    | exception Not_found ->
        let r = reaches_flow c.ddg ~horizon:d (i, 0) (j, d) in
        Hashtbl.add c.known key r;
        r

(** [related c a b] — {!chain_related} through the memo [c]. *)
let related c a b = reaches c a b || reaches c b a
