(** Per-operation provenance journals: where each operation came from,
    every accepted hop of its migration (with the core transformation
    that performed it), and every rejection with a typed reason.

    The recorder hangs off the shared observability handle
    ({!Grip_obs.t}); {!null} — the default — keeps [enabled] false so
    instrumented hot paths pay one boolean test per site, exactly like
    the null tracer and the disabled metrics registry.  Producers:

    - [Vliw_percolation.Migrate] records accepted hops;
    - the GRiP scheduler records one rejection per migration from the
      migration's last failure, suspensions (with the gap-prevention /
      speculation reason), and fuel exhaustion;
    - the Unifiable baseline records rollbacks and the failures that
      caused them.

    A journal is keyed by its operation's id, which no migration
    changes: [Move_op] lands the operation under its id and [Move_cj]
    moves the jump itself.  The journal is the one record of what a
    migration did; the trace carries no migration events (DESIGN.md
    §37).  Its totals are, by construction, the scheduler's own
    counters: [total_hops] equals [scheduler.hops],
    [total_suspensions] equals [scheduler.suspensions] and
    [total_barriers] equals [scheduler.barriers] for the same run — the
    replay invariant the test suite enforces. *)

(** Functional-unit class of a rejected operation — mirrors
    [Vliw_machine.Machine.fu_class] without creating a dependency from
    the observability layer onto the machine model. *)
type fu_class = Alu | Mem | Branch

let fu_class_name = function Alu -> "alu" | Mem -> "mem" | Branch -> "branch"

(** The core transformation that performed a hop.  The paper's unify
    rule (merging a moved operation with an identical one already in
    the target) has no rule here: the engine removes duplicates during
    redundancy elimination instead. *)
type rule = Move_op | Move_cj

let rule_name = function Move_op -> "move_op" | Move_cj -> "move_cj"

(** Why a migration was stopped. *)
type reason =
  | Dep of int  (** true/memory dependence on the given operation id *)
  | Resource_barrier of fu_class
      (** a full node short of the target (paper section 3.2) *)
  | Suspended of string  (** gap prevention / speculation policy veto *)
  | Fuel  (** the migration budget ran out before this operation moved *)
  | Structural of string
      (** anything else (guarded by a conditional, nodes not adjacent,
          a Unifiable rollback) *)

let reason_name = function
  | Dep _ -> "dep"
  | Resource_barrier _ -> "resource_barrier"
  | Suspended _ -> "suspended"
  | Fuel -> "fuel"
  | Structural _ -> "structural"

let pp_reason ppf = function
  | Dep id -> Format.fprintf ppf "dependence on op%d" id
  | Resource_barrier c ->
      Format.fprintf ppf "resource barrier (%s slot)" (fu_class_name c)
  | Suspended why -> Format.fprintf ppf "suspended: %s" why
  | Fuel -> Format.pp_print_string ppf "migration budget exhausted"
  | Structural why -> Format.fprintf ppf "%s" why

type hop = { from_ : int; to_ : int; rule : rule }
type rejection = { node : int; reason : reason }

type journal = {
  id : int;  (** the operation's id *)
  origin : int;  (** node where the operation was first observed *)
  mutable hops : hop list;  (** newest first *)
  mutable rejections : rejection list;  (** newest first *)
}

type t = {
  enabled : bool;
      (** producers must skip recording (and payload construction)
          entirely when false *)
  journals : (int, journal) Hashtbl.t;  (** keyed by op id *)
}

let null = { enabled = false; journals = Hashtbl.create 0 }
let create () = { enabled = true; journals = Hashtbl.create 64 }
let enabled t = t.enabled

let find_or_create t ~op ~home =
  match Hashtbl.find_opt t.journals op with
  | Some j -> j
  | None ->
      let j = { id = op; origin = home; hops = []; rejections = [] } in
      Hashtbl.replace t.journals op j;
      j

(** [record_hop t ~op ~from_ ~to_ ~rule] — one accepted hop of [op]
    from node [from_] into [to_]. *)
let record_hop t ~op ~from_ ~to_ ~rule =
  if t.enabled then begin
    let j = find_or_create t ~op ~home:from_ in
    j.hops <- { from_; to_; rule } :: j.hops
  end

(** [record_reject t ~op ~node reason] — [op], currently at [node], was
    stopped for [reason]. *)
let record_reject t ~op ~node reason =
  if t.enabled then begin
    let j = find_or_create t ~op ~home:node in
    j.rejections <- { node; reason } :: j.rejections
  end

let journal t op = Hashtbl.find_opt t.journals op

(** All journals, ordered by operation id. *)
let journals t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.journals []
  |> List.sort (fun a b -> compare a.id b.id)

(** Oldest-first views (journals accumulate newest-first). *)
let journey j = List.rev j.hops
let rejections j = List.rev j.rejections

(* -- totals (the replay invariant's left-hand side) ----------------------- *)

let fold_journals t f init =
  Hashtbl.fold (fun _ j acc -> f acc j) t.journals init

let total_hops t =
  fold_journals t (fun acc j -> acc + List.length j.hops) 0

let count_rejections t p =
  fold_journals t
    (fun acc j ->
      acc + List.length (List.filter (fun r -> p r.reason) j.rejections))
    0

let total_suspensions t =
  count_rejections t (function Suspended _ -> true | _ -> false)

let total_barriers t =
  count_rejections t (function Resource_barrier _ -> true | _ -> false)

let total_deps t = count_rejections t (function Dep _ -> true | _ -> false)
let fuel_hit t = count_rejections t (function Fuel -> true | _ -> false) > 0

(** [blockers t] — operations named in [Dep] rejections with how often
    each blocked a migration, most frequent first: the profiler's
    "top blocking ops". *)
let blockers t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ j ->
      List.iter
        (fun r ->
          match r.reason with
          | Dep id ->
              Hashtbl.replace tbl id
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
          | _ -> ())
        j.rejections)
    t.journals;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) tbl []
  |> List.sort (fun (ia, a) (ib, b) ->
         match compare b a with 0 -> compare ia ib | c -> c)
