(** Classic list scheduling of a single basic block — the non-pipelined
    baseline (what a VLIW compiler without any software pipelining
    achieves on the loop body).

    Greedy cycle-by-cycle placement in priority order (dependence
    height, as in section 3.4), one iteration at a time: the loop body
    plus its control, no overlap across the back edge.  Reported as the
    "1 iteration" row of the locality comparison bench. *)

module Ddg = Vliw_analysis.Ddg
module Machine = Vliw_machine.Machine

type t = {
  cycles : int;  (** cycles for one iteration *)
  schedule : (int * int) list;  (** (body position, cycle) *)
}

(** [schedule kernel ~machine] — list-schedule one iteration. *)
let schedule (k : Kernel.t) ~machine =
  let kinds = k.Kernel.body @ Kernel.control k in
  let ops =
    List.mapi (fun i kind -> Vliw_ir.Operation.make ~id:i ~src_pos:i kind) kinds
  in
  let ddg = Ddg.build ~ivar:(k.Kernel.ivar, k.Kernel.step) ops in
  let n = Array.length ddg.Ddg.ops in
  let heights = Ddg.flow_height ddg in
  let width = if Machine.is_unlimited machine then max_int else Machine.width machine in
  let time = Array.make n (-1) in
  let placed = ref 0 in
  let cycle = ref 0 in
  let usage = ref 0 in
  let result = ref [] in
  while !placed < n do
    (* ready: all intra-iteration predecessors done strictly earlier *)
    let ready =
      List.filter
        (fun pos ->
          time.(pos) < 0
          && List.for_all
               (fun (a : Ddg.arc) ->
                 a.Ddg.dist > 0
                 || (a.Ddg.kind <> Ddg.Flow && a.Ddg.kind <> Ddg.Mem)
                 || (time.(a.Ddg.src) >= 0 && time.(a.Ddg.src) < !cycle))
               ddg.Ddg.preds.(pos))
        (List.init n (fun i -> i))
      |> List.sort (fun a b -> compare (-heights.(a), a) (-heights.(b), b))
    in
    match ready with
    | pos :: _ when !usage < width ->
        time.(pos) <- !cycle;
        result := (pos, !cycle) :: !result;
        incr placed;
        incr usage
    | _ ->
        incr cycle;
        usage := 0
  done;
  { cycles = !cycle + 1; schedule = List.rev !result }

(** Speedup over one-operation-per-cycle sequential execution. *)
let speedup (k : Kernel.t) t =
  float_of_int (Kernel.ops_per_iteration k) /. float_of_int t.cycles

(* -- executable rolled loop ---------------------------------------------- *)

open Vliw_ir

(* Greedy placement of the body as for {!schedule}, but safe to
   *execute*: distance-0 anti and output arcs are enforced too (the
   metric above may ignore them, an executable schedule may not).  Anti
   arcs allow the write in the reader's own cycle — IBM semantics fetch
   all sources before any store commits — while flow, memory and output
   arcs require strictly earlier cycles.  All distance-0 arcs point
   forward in source order, so the greedy loop always makes progress. *)
let place_body (k : Kernel.t) ~machine ops =
  let n = List.length ops in
  let arr = Array.of_list ops in
  let ddg = Ddg.build ~ivar:(k.Kernel.ivar, k.Kernel.step) ops in
  let heights = Ddg.flow_height ddg in
  let time = Array.make (max n 1) (-1) in
  let cycle_ops : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let at c = try Hashtbl.find cycle_ops c with Not_found -> [] in
  let placed = ref 0 and cycle = ref 0 in
  while !placed < n do
    let ready =
      List.filter
        (fun pos ->
          time.(pos) < 0
          && List.for_all
               (fun (a : Ddg.arc) ->
                 a.Ddg.dist > 0
                 ||
                 match a.Ddg.kind with
                 | Ddg.Flow | Ddg.Mem | Ddg.Output ->
                     time.(a.Ddg.src) >= 0 && time.(a.Ddg.src) < !cycle
                 | Ddg.Anti ->
                     time.(a.Ddg.src) >= 0 && time.(a.Ddg.src) <= !cycle)
               ddg.Ddg.preds.(pos))
        (List.init n (fun i -> i))
      |> List.sort (fun a b -> compare (-heights.(a), a) (-heights.(b), b))
    in
    let room pos =
      Machine.room_for_packed machine
        (Program.counts_of_ops (List.map (fun q -> arr.(q)) (at !cycle)))
        arr.(pos)
    in
    match List.find_opt room ready with
    | Some pos ->
        time.(pos) <- !cycle;
        Hashtbl.replace cycle_ops !cycle (pos :: at !cycle);
        incr placed
    | None -> incr cycle
  done;
  List.filter_map
    (fun c -> match List.rev (at c) with [] -> None | l -> Some l)
    (List.init (!cycle + 1) (fun c -> c))

(** [rolled_program k ~machine] — the list schedule materialised as an
    executable *rolled* loop: body operations grouped into VLIW
    instructions cycle by cycle, followed by the loop control (fused
    into one latch instruction when the machine has room, split
    otherwise).  No iteration overlap — this is the non-pipelined rung
    of the degradation ladder in {!Pipeline.run_robust}, strictly
    better than the one-op-per-node sequential loop and strictly more
    trustworthy than a failed pipelining attempt. *)
let rolled_program (k : Kernel.t) ~machine =
  if k.Kernel.body = [] then (Kernel.rolled k).Builder.program
  else begin
    let p = Program.create () in
    let exit_ = p.Program.exit_id in
    let reserve kind = Program.note_op_regs p (Operation.make ~id:0 kind) in
    List.iter reserve k.Kernel.pre;
    List.iter reserve k.Kernel.body;
    List.iter reserve (Kernel.control k);
    List.iter
      (fun r ->
        Program.note_op_regs p
          (Operation.make ~id:0 (Operation.Copy (r, Operand.Imm (Value.I 0)))))
      (k.Kernel.ivar :: k.Kernel.observable);
    let body_ops =
      List.mapi
        (fun i kind -> Operation.make ~id:i ~src_pos:i kind)
        k.Kernel.body
    in
    let cycles = place_body k ~machine body_ops in
    let kinds = Array.of_list k.Kernel.body in
    let body_nodes =
      List.map
        (fun poss ->
          let ops =
            List.map
              (fun pos ->
                Operation.make ~id:(Program.fresh_op_id p) ~lineage:pos
                  ~src_pos:pos kinds.(pos))
              poss
          in
          (Program.fresh_node p ~ops ~ctree:(Ctree.leaf exit_)).Node.id)
        cycles
    in
    let head = List.hd body_nodes in
    let n_body = Array.length kinds in
    let incr_kind =
      Operation.Binop
        ( Opcode.Add,
          k.Kernel.ivar,
          Operand.Reg k.Kernel.ivar,
          Operand.Imm (Value.I k.Kernel.step) )
    in
    let incr_op () =
      Operation.make ~id:(Program.fresh_op_id p) ~lineage:n_body
        ~src_pos:n_body incr_kind
    in
    let cj_op kind =
      Operation.make ~id:(Program.fresh_op_id p) ~lineage:(n_body + 1)
        ~src_pos:(n_body + 1) kind
    in
    (* Fused latch: increment and back-edge test share an instruction;
       the test reads [Regoff (ivar, step)] because sources are fetched
       before the increment commits.  Split latch for machines without
       the room (e.g. 1-wide). *)
    let fused =
      Machine.fits_packed machine
        (Program.counts_of_ops
           [
             Operation.make ~id:0 incr_kind;
             Operation.make ~id:0
               (Operation.Cjump
                  ( Opcode.Lt,
                    Operand.Regoff (k.Kernel.ivar, k.Kernel.step),
                    k.Kernel.bound ));
           ])
    in
    let latch_head =
      if fused then
        let cj =
          cj_op
            (Operation.Cjump
               ( Opcode.Lt,
                 Operand.Regoff (k.Kernel.ivar, k.Kernel.step),
                 k.Kernel.bound ))
        in
        (Program.fresh_node p ~ops:[ incr_op () ]
           ~ctree:(Ctree.Branch (cj, Ctree.Leaf head, Ctree.Leaf exit_)))
          .Node.id
      else begin
        let cj =
          cj_op (Operation.Cjump (Opcode.Lt, Operand.Reg k.Kernel.ivar, k.Kernel.bound))
        in
        let cj_node =
          Program.fresh_node p ~ops:[]
            ~ctree:(Ctree.Branch (cj, Ctree.Leaf head, Ctree.Leaf exit_))
        in
        let incr_node =
          Program.fresh_node p ~ops:[ incr_op () ]
            ~ctree:(Ctree.leaf cj_node.Node.id)
        in
        incr_node.Node.id
      end
    in
    let pre_ids =
      List.map
        (fun kind ->
          let op =
            Operation.make ~id:(Program.fresh_op_id p) ~lineage:(-1)
              ~src_pos:(-1) kind
          in
          (Program.fresh_node p ~ops:[ op ] ~ctree:(Ctree.leaf exit_)).Node.id)
        k.Kernel.pre
    in
    let rec link = function
      | a :: (b :: _ as rest) ->
          Program.redirect p ~from_:a ~old_:exit_ ~new_:b;
          link rest
      | [ _ ] | [] -> ()
    in
    link ((p.Program.entry :: pre_ids) @ body_nodes @ [ latch_head ]);
    p
  end
