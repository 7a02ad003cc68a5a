(** VLIW machine descriptions and resource accounting.

    The paper evaluates homogeneous machines with 2, 4 and 8 universal
    functional units and single-cycle operations.  We add, as
    ablations, typed functional units (ALU / memory port / branch unit)
    and a policy making renaming copies free (a machine with dedicated
    move ports).  [Unlimited] is the infinite-resource machine used by
    the first phase of the POST baseline. *)

open Vliw_ir

type fu_class = Alu | Mem | Branch

type shape =
  | Unlimited
  | Homogeneous of int  (** [k] universal slots per instruction *)
  | Typed of { alu : int; mem : int; branch : int }

type t = { shape : shape; copies_free : bool }

(** [homogeneous k] is the paper's machine with [k] functional
    units. *)
let homogeneous ?(copies_free = false) k =
  if k <= 0 then invalid_arg "Machine.homogeneous: k <= 0";
  { shape = Homogeneous k; copies_free }

let typed ?(copies_free = false) ~alu ~mem ~branch () =
  if alu < 0 || mem < 0 || branch <= 0 then invalid_arg "Machine.typed";
  { shape = Typed { alu; mem; branch }; copies_free }

let unlimited = { shape = Unlimited; copies_free = false }

let is_unlimited m = m.shape = Unlimited

(** [class_of op] is the functional-unit class [op] issues on. *)
let class_of (op : Operation.t) =
  match op.Operation.kind with
  | Operation.Load _ | Operation.Store _ -> Mem
  | Operation.Cjump _ -> Branch
  | Operation.Binop _ | Operation.Unop _ | Operation.Copy _ -> Alu

let counted m op = not (m.copies_free && Operation.is_copy op)

(* Resource accounting reads a node's packed category counters
   ([Program.counts_packed], or [Program.counts_of_ops] for a trial
   instruction) — no op-list scan, no allocation.  Loads/stores are the
   Mem class and are never copies; conditional jumps are the Branch
   class; everything else — including the copies a [copies_free]
   machine discounts — is Alu. *)

let used_slots_packed m packed cls =
  match cls with
  | Mem -> Node.packed_mems packed
  | Branch -> Node.packed_cjumps packed
  | Alu ->
      Node.packed_plain packed - Node.packed_mems packed
      - if m.copies_free then Node.packed_copies packed else 0

(** [slot_demand_packed m packed] — the number of issue slots a node
    whose packed counters ({!Node}) are [packed] consumes on machine
    [m] (homogeneous accounting). *)
let slot_demand_packed m packed =
  Node.packed_plain packed + Node.packed_cjumps packed
  - if m.copies_free then Node.packed_copies packed else 0

(** [room_for_packed m packed op] — could [op] be added to a node with
    counters [packed] without exceeding [m]'s issue width? *)
let room_for_packed m packed (op : Operation.t) =
  if not (counted m op) then true
  else
    match m.shape with
    | Unlimited -> true
    | Homogeneous k -> slot_demand_packed m packed + 1 <= k
    | Typed { alu; mem; branch } ->
        let cls = class_of op in
        let limit = match cls with Alu -> alu | Mem -> mem | Branch -> branch in
        used_slots_packed m packed cls + 1 <= limit

(** [fits_packed m packed] — does a node with counters [packed] respect
    [m]'s issue width? *)
let fits_packed m packed =
  match m.shape with
  | Unlimited -> true
  | Homogeneous k -> slot_demand_packed m packed <= k
  | Typed { alu; mem; branch } ->
      used_slots_packed m packed Alu <= alu
      && used_slots_packed m packed Mem <= mem
      && used_slots_packed m packed Branch <= branch

(** [width m] is the total issue width (used to pick unwind factors);
    unlimited machines report a large constant. *)
let width m =
  match m.shape with
  | Unlimited -> 64
  | Homogeneous k -> k
  | Typed { alu; mem; branch } -> alu + mem + branch

let pp ppf m =
  (match m.shape with
  | Unlimited -> Format.pp_print_string ppf "unlimited"
  | Homogeneous k -> Format.fprintf ppf "%d FU" k
  | Typed { alu; mem; branch } ->
      Format.fprintf ppf "%d ALU + %d MEM + %d BR" alu mem branch);
  if m.copies_free then Format.pp_print_string ppf " (free copies)"
