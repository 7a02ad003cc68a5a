(** Backward liveness over program graphs, with version-keyed caching.

    A round-robin fixpoint over [Reg.Set]s, correct on cyclic graphs
    too: it is recomputed from scratch whenever the program's version
    counter has advanced and memoised otherwise.  No legality test
    queries it: renaming repairs write-live and move-past-read
    conflicts instead.  Redundancy removal computes liveness in its own
    backward pass over the acyclic unwound program
    ([Redundant.eliminate_dead], DESIGN.md §30); this module is the
    reference the old round-by-round elimination, kept as its test
    oracle, runs on. *)

open Vliw_ir

type t = {
  program : Program.t;
  exit_live : Reg.Set.t;
  mutable version : int;
  mutable live_in : (int, Reg.Set.t) Hashtbl.t;
}

(** [make p ~exit_live] prepares a liveness oracle; [exit_live] is the
    set of registers observable after the program exits (result
    scalars). *)
let make program ~exit_live =
  { program; exit_live; version = -1; live_in = Hashtbl.create 64 }

let compute t =
  let p = t.program in
  let live_in = Hashtbl.create 64 in
  let get id =
    match Hashtbl.find_opt live_in id with
    | Some s -> s
    | None -> if Program.is_exit p id then t.exit_live else Reg.Set.empty
  in
  let changed = ref true in
  (* Round-robin over reverse RPO until fixpoint; cycles (loops) need a
     few rounds. *)
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
          let inn =
            Reg.Set.union (Defuse.use p id) (Reg.Set.diff out (Defuse.def p id))
          in
          if not (Reg.Set.equal inn (get id)) then begin
            Hashtbl.replace live_in id inn;
            changed := true
          end
        end)
      order
  done;
  Hashtbl.replace live_in p.Program.exit_id t.exit_live;
  t.live_in <- live_in;
  t.version <- Program.version p

let refresh t = if t.version <> Program.version t.program then compute t

(** [live_in t id] is the set of registers live at the entry of node
    [id] (recomputing if the program changed since the last query). *)
let live_in t id =
  refresh t;
  match Hashtbl.find_opt t.live_in id with
  | Some s -> s
  | None -> Reg.Set.empty

(** [live_out t id] is the union of [live_in] over successors of [id]. *)
let live_out t id =
  refresh t;
  List.fold_left
    (fun acc s -> Reg.Set.union acc (live_in t s))
    Reg.Set.empty
    (Program.succs t.program id)
