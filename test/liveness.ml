(* Backward liveness over program graphs, computed afresh on each call:
   a round-robin fixpoint over [Reg.Set]s, correct on cyclic graphs
   too.  Redundancy removal computes liveness in its own backward pass
   over the acyclic unwound program ([Redundant.eliminate_dead],
   DESIGN.md §30); this is the reference the old round-by-round
   elimination, kept as its oracle (redundant_oracle.ml), runs on. *)

open Vliw_ir

type t = { program : Program.t; live_in : (int, Reg.Set.t) Hashtbl.t }

let add_uses acc op =
  List.fold_left (fun acc r -> Reg.Set.add r acc) acc (Operation.uses op)

(* Every register node [id] reads, plain ops and jumps alike: VLIW
   semantics read all operands before storing any result, so this
   includes the registers the node also writes. *)
let use p id =
  Ctree.fold_cjumps add_uses
    (Program.fold_ops p id ~init:Reg.Set.empty ~f:add_uses)
    (Program.node p id).Node.ctree

(* The registers node [id] writes on every path: a guarded definition
   commits on some paths only, so it kills nothing. *)
let def p id =
  Program.fold_ops p id ~init:Reg.Set.empty ~f:(fun acc (op : Operation.t) ->
      match Operation.def op with
      | Some d when op.Operation.guard = [] -> Reg.Set.add d acc
      | Some _ | None -> acc)

(* [compute p ~exit_live] — live-in sets of [p]'s reachable nodes;
   [exit_live] is what is observable after the program exits. *)
let compute p ~exit_live =
  let live_in = Hashtbl.create 64 in
  let get id =
    match Hashtbl.find_opt live_in id with
    | Some s -> s
    | None -> if Program.is_exit p id then exit_live else Reg.Set.empty
  in
  let changed = ref true in
  let order = List.rev (Program.rpo p) in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if not (Program.is_exit p id) then begin
          let out =
            List.fold_left
              (fun acc s -> Reg.Set.union acc (get s))
              Reg.Set.empty (Program.succs p id)
          in
          let inn = Reg.Set.union (use p id) (Reg.Set.diff out (def p id)) in
          if not (Reg.Set.equal inn (get id)) then begin
            Hashtbl.replace live_in id inn;
            changed := true
          end
        end)
      order
  done;
  Hashtbl.replace live_in p.Program.exit_id exit_live;
  { program = p; live_in }

(* [live_in t id] — the registers live at the entry of node [id]. *)
let live_in t id =
  Option.value ~default:Reg.Set.empty (Hashtbl.find_opt t.live_in id)

(* [live_out t id] — the union of [live_in] over [id]'s successors. *)
let live_out t id =
  List.fold_left
    (fun acc s -> Reg.Set.union acc (live_in t s))
    Reg.Set.empty
    (Program.succs t.program id)
