(** Conditional trees.

    Following the IBM VLIW model (Figure 1 of the paper), an instruction
    selects its successor by evaluating a binary tree of conditional
    jumps; each leaf names the next instruction.  A tree with a single
    leaf is an unconditional fall-through. *)

type t =
  | Leaf of int  (** successor node id *)
  | Branch of Operation.t * t * t
      (** [Branch (cj, when_true, when_false)]; [cj] must be a [Cjump] *)

(** [leaf n] is the trivial tree falling through to node [n]. *)
let leaf n = Leaf n

(** [cjumps t] lists the conditional-jump operations in [t],
    pre-order. *)
let rec cjumps = function
  | Leaf _ -> []
  | Branch (cj, a, b) -> (cj :: cjumps a) @ cjumps b

(** [iter_cjumps f t] applies [f] to each conditional jump of [t] in
    pre-order (the {!cjumps} order) without materializing the list. *)
let rec iter_cjumps f = function
  | Leaf _ -> ()
  | Branch (cj, a, b) ->
      f cj;
      iter_cjumps f a;
      iter_cjumps f b

(** [iter_cjump_ids f t] applies [f] to the id of each conditional
    jump of [t] in pre-order, building no closure. *)
let rec iter_cjump_ids f = function
  | Leaf _ -> ()
  | Branch (cj, a, b) ->
      f cj.Operation.id;
      iter_cjump_ids f a;
      iter_cjump_ids f b

(** [exists_cjump f t] — does some conditional jump of [t] satisfy
    [f]?  Pre-order short-circuit, allocation-free. *)
let rec exists_cjump f = function
  | Leaf _ -> false
  | Branch (cj, a, b) -> f cj || exists_cjump f a || exists_cjump f b

(** [fold_cjumps f acc t] folds [f] over the conditional jumps of [t]
    in pre-order. *)
let rec fold_cjumps f acc = function
  | Leaf _ -> acc
  | Branch (cj, a, b) -> fold_cjumps f (fold_cjumps f (f acc cj) a) b

(** [succs t] is the list of distinct successor node ids of [t]. *)
let succs t =
  let rec leaves = function
    | Leaf n -> [ n ]
    | Branch (_, a, b) -> leaves a @ leaves b
  in
  List.sort_uniq Int.compare (leaves t)

(** [n_cjumps t] counts conditional jumps; this is the branch-resource
    cost of the instruction holding [t]. *)
let rec n_cjumps = function
  | Leaf _ -> 0
  | Branch (_, a, b) -> 1 + n_cjumps a + n_cjumps b

(** [replace_leaf t ~old_ ~new_] redirects every leaf pointing at
    [old_] to point at [new_]. *)
let rec replace_leaf t ~old_ ~new_ =
  match t with
  | Leaf n -> if n = old_ then Leaf new_ else t
  | Branch (cj, a, b) ->
      Branch (cj, replace_leaf a ~old_ ~new_, replace_leaf b ~old_ ~new_)

(** [map_cjumps f t] rewrites each conditional-jump operation with [f]
    (used by renaming and copy forwarding). *)
let rec map_cjumps f = function
  | Leaf n -> Leaf n
  | Branch (cj, a, b) -> Branch (f cj, map_cjumps f a, map_cjumps f b)

(** [root_cjump t] is the root conditional of [t]: the only conditional
    jump Percolation Scheduling may move out of the instruction. *)
let root_cjump = function
  | Leaf _ -> None
  | Branch (cj, _, _) -> Some cj

(** [split_root t] decomposes [Branch (cj, a, b)] into [(cj, a, b)]. *)
let split_root = function
  | Leaf _ -> None
  | Branch (cj, a, b) -> Some (cj, a, b)

let some_nil = Some []

let rec path_go n acc = function
  | Leaf m -> (
      if m <> n then None
      else match acc with [] -> some_nil | _ -> Some (List.rev acc))
  | Branch (cj, a, b) -> (
      match path_go n ((cj.Operation.id, true) :: acc) a with
      | Some _ as r -> r
      | None -> path_go n ((cj.Operation.id, false) :: acc) b)

(** [path_to t n] is the decision sequence (root first) of the first
    pre-order path whose leaf is [n]: the guard an operation acquires
    when it moves up into the instruction holding [t] from successor
    [n].  [None] when no leaf points at [n].  A path of no decisions —
    a bare [Leaf], the tree most legality checks ask about — is one
    shared [Some []], so that answer allocates nothing. *)
let path_to t n = path_go n [] t

(** [has_path_prefix t g] — is the decision list [g] a valid
    root-anchored path prefix of [t]?  Operation guards must satisfy
    this within their node (checked by {!Wellformed}). *)
let rec has_path_prefix t (g : (int * bool) list) =
  match g, t with
  | [], _ -> true
  | (c, b) :: rest, Branch (cj, a, f) ->
      cj.Operation.id = c && has_path_prefix (if b then a else f) rest
  | _ :: _, Leaf _ -> false

(** [shape t] is a structural signature of [t] that ignores node ids and
    operation ids but keeps conditional lineage: used for pipelining
    convergence detection. *)
let rec shape = function
  | Leaf _ -> "L"
  | Branch (cj, a, b) ->
      Printf.sprintf "B%d(%s,%s)" cj.Operation.lineage (shape a) (shape b)
