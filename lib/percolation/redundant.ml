(** Redundant-operation removal (paper, end of section 4).

    "As a result of compaction, some operations in the original code
    become redundant and are removed. ... This is the reason that some
    of the speed-ups in Table 1 are larger than the apparent maximum
    indicated by the number of functional units."

    Three passes, each one walk over arrays indexed by node or register
    id (DESIGN.md §30):
    - [forward_memory]: store-to-load forwarding and redundant-load
      elimination over a single-operation-per-node chain (the shape
      the scheduler receives), turning provably-same-address reloads
      into register copies — the LL11/LL12 effect;
    - [forward_copies]: rewrites uses through copies within the
      straight-line chain so dead-copy elimination can fire;
    - [eliminate_dead]: drops operations whose destination is dead
      (typically copies left behind by renaming once every consumer
      has been forwarded past them).

    Every caller hands them an unwound loop or straight-line code: an
    acyclic program. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias

(* One slot per register id in use: every register an op placed in [p]
   mentions lies below [p]'s fresh-register supply; [extra]'s may not. *)
let reg_limit (p : Program.t) extra =
  Reg.Set.fold (fun r n -> max n (Reg.to_int r + 1)) extra p.Program.next_reg

(* The register an operand reads, or [-1]. *)
let reg_read = function
  | Operand.Reg r | Operand.Regoff (r, _) -> Reg.to_int r
  | Operand.Imm _ -> -1

(* -- dead-code elimination ------------------------------------------ *)

(** [eliminate_dead p ~exit_live] removes non-memory, non-jump
    operations whose destination is not live out of their node, until
    none is left; returns the number removed.

    One backward pass in postorder.  In an acyclic program a node's
    successors are final when the pass reaches it, so the live-out it
    decides on is final too; and removing an operation whose
    destination is dead only shrinks liveness above it.  That is the
    fixpoint that recomputing liveness after each round of removals
    reaches (DESIGN.md §30).  Only nodes the entry reaches are visited;
    unwinding and the builders leave no others.  A retreating edge
    raises [Invalid_argument]. *)
let eliminate_dead (p : Program.t) ~exit_live =
  let nregs = reg_limit p exit_live in
  let live_in = Array.make (Program.node_limit p) [||] in
  live_in.(p.Program.exit_id) <- Array.of_list (Reg.Set.elements exit_live);
  let out_mark = Array.make nregs 0
  and in_mark = Array.make nregs 0
  and def_mark = Array.make nregs 0 in
  let stamp = ref 0 in
  let out = Iarr.create () and inn = Iarr.create () and victims = Iarr.create () in
  let removed = ref 0 in
  let add r =
    if r >= 0 && in_mark.(r) <> !stamp then begin
      in_mark.(r) <- !stamp;
      Iarr.push inn r
    end
  in
  let add_uses () (op : Operation.t) =
    match op.Operation.kind with
    | Operation.Binop (_, _, a, b) | Operation.Cjump (_, a, b) ->
        add (reg_read a);
        add (reg_read b)
    | Operation.Unop (_, _, a) | Operation.Copy (_, a) -> add (reg_read a)
    | Operation.Load (_, a) -> add (reg_read a.Operation.base)
    | Operation.Store (a, v) ->
        add (reg_read a.Operation.base);
        add (reg_read v)
  in
  (* Mark in [out_mark], and list in [out], the union of the live-in
     of [succs].  [id] sits at reverse-postorder position [k], and a
     successor at or above it closes a cycle. *)
  let rec gather id k = function
    | [] -> ()
    | s :: tl ->
        if Program.rpo_index p s <= k then
          invalid_arg
            (Printf.sprintf
               "Redundant.eliminate_dead: cyclic program: retreating edge n%d \
                -> n%d"
               id s);
        let regs = live_in.(s) in
        for i = 0 to Array.length regs - 1 do
          let r = regs.(i) in
          if out_mark.(r) <> !stamp then begin
            out_mark.(r) <- !stamp;
            Iarr.push out r
          end
        done;
        gather id k tl
  in
  (* Remove [id]'s ops whose destination is not live out.  VLIW
     reads-before-writes: same-node readers of a destination see the
     pre-instruction value, so only live-out matters. *)
  let sweep id k =
    incr stamp;
    Iarr.clear out;
    gather id k (Program.succs p id);
    Iarr.clear victims;
    let ids = Program.plain_ids p id in
    for i = 0 to Iarr.length ids - 1 do
      let op = Program.op_of p (Iarr.unsafe_get ids i) in
      match op.Operation.kind with
      | Operation.Binop (_, d, _, _)
      | Operation.Unop (_, d, _)
      | Operation.Copy (d, _)
      | Operation.Load (d, _) ->
          if out_mark.(Reg.to_int d) <> !stamp then Iarr.push victims op.Operation.id
      | Operation.Store _ | Operation.Cjump _ -> ()
    done;
    for i = 0 to Iarr.length victims - 1 do
      Program.remove_op p id (Iarr.unsafe_get victims i);
      incr removed
    done
  in
  (* [id]'s live-in after its sweep: every register its ops and jumps
     read, and its live-out less what its unguarded ops define. *)
  let settle id =
    incr stamp;
    Iarr.clear inn;
    let ids = Program.plain_ids p id in
    for i = 0 to Iarr.length ids - 1 do
      let op = Program.op_of p (Iarr.unsafe_get ids i) in
      add_uses () op;
      match Operation.def op with
      | Some d when op.Operation.guard = [] -> def_mark.(Reg.to_int d) <- !stamp
      | Some _ | None -> ()
    done;
    Ctree.fold_cjumps add_uses () (Program.node p id).Node.ctree;
    for i = 0 to Iarr.length out - 1 do
      let r = Iarr.unsafe_get out i in
      if def_mark.(r) <> !stamp then add r
    done;
    live_in.(id) <- Iarr.to_array inn
  in
  for k = Program.n_nodes p - 1 downto 0 do
    let id = Program.rpo_at p k in
    if not (Program.is_exit p id) then begin
      sweep id k;
      settle id
    end
  done;
  !removed

(* [f nid op] on each plain op of the main chain, in instruction order:
   the nodes from the entry following unique successors, the shape of
   an unwound, not-yet-scheduled loop.  The chain stops at the exit or
   after the first node with several successors beyond its own exit
   test; a chain longer than the node table is a cycle, and raises
   [Invalid_argument]. *)
let iter_chain (p : Program.t) f =
  let rec next found = function
    | [] -> found
    | s :: tl ->
        if Program.is_exit p s then next found tl
        else if found >= 0 then -1
        else next s tl
  in
  let rec go id steps =
    if steps > Program.node_limit p then
      invalid_arg "Redundant: cyclic program: the main chain revisits a node";
    if not (Program.is_exit p id) then begin
      let ids = Program.plain_ids p id in
      for i = 0 to Iarr.length ids - 1 do
        f id (Program.op_of p (Iarr.unsafe_get ids i))
      done;
      let s = next (-1) (Program.succs p id) in
      if s >= 0 then go s (steps + 1)
    end
  in
  go p.Program.entry 0

(* -- memory forwarding ---------------------------------------------- *)

(* An available value: the word at [addr] is held in [value] until a
   kill clears [alive]. *)
type entry = { addr : Operation.addr; value : Operand.t; mutable alive : bool }

(* The entries of one array whose addresses are based on one register,
   or on an integer immediate ([key] = -1), by constant part, newest
   first.  Within a class two addresses alias exactly when their
   constants agree; across classes they may always alias. *)
type cls = { key : int; at : (int, entry list) Hashtbl.t }

(* The available values: per array its classes, and per register the
   entries that read it in their address base or value. *)
type avail = { mutable arrays : (string * cls list ref) list; by_reg : entry list array }

(* An address's class key; [-2] for a float-immediate base, which
   may alias every address of its array and must alias none. *)
let class_key (a : Operation.addr) =
  match a.Operation.base with
  | Operand.Reg r | Operand.Regoff (r, _) -> Reg.to_int r
  | Operand.Imm (Value.I _) -> -1
  | Operand.Imm (Value.F _) -> -2

let classes t sym =
  match List.assoc_opt sym t.arrays with
  | Some cs -> cs
  | None ->
      let cs = ref [] in
      t.arrays <- (sym, cs) :: t.arrays;
      cs

let kill_all (c : cls) =
  Hashtbl.iter (fun _ es -> List.iter (fun e -> e.alive <- false) es) c.at

(* The value of the newest live entry at an address that must alias
   [a]: all of them sit in [a]'s own bucket. *)
let available t (a : Operation.addr) =
  let k = class_key a in
  if k = -2 then None
  else
    match List.find_opt (fun c -> c.key = k) !(classes t a.Operation.sym) with
    | None -> None
    | Some c -> (
        let const = Alias.const_part a in
        let rec live = function
          | e :: tl when not e.alive -> live tl
          | es -> es
        in
        match Hashtbl.find_opt c.at const with
        | None -> None
        | Some es -> (
            match live es with
            | [] ->
                Hashtbl.remove c.at const;
                None
            | e :: _ as l ->
                if l != es then Hashtbl.replace c.at const l;
                Some e.value))

(* Kill the entries whose address may alias [a]: its own bucket, and
   every other class of its array whole. *)
let kill_aliases t (a : Operation.addr) =
  let cs = classes t a.Operation.sym in
  let k = class_key a in
  cs :=
    List.filter
      (fun c ->
        if c.key = k then begin
          let const = Alias.const_part a in
          (match Hashtbl.find_opt c.at const with
          | Some es -> List.iter (fun e -> e.alive <- false) es
          | None -> ());
          Hashtbl.remove c.at const;
          true
        end
        else begin
          kill_all c;
          false
        end)
      !cs

(* Kill the entries that read [r]. *)
let kill_reg t r =
  let r = Reg.to_int r in
  List.iter (fun e -> e.alive <- false) t.by_reg.(r);
  t.by_reg.(r) <- []

(* Record that [addr] holds [value].  A float-immediate address is not
   recorded: nothing must-aliases it, so no lookup could return it. *)
let add t (addr : Operation.addr) value =
  let k = class_key addr in
  if k <> -2 then begin
    let e = { addr; value; alive = true } in
    let cs = classes t addr.Operation.sym in
    let c =
      match List.find_opt (fun c -> c.key = k) !cs with
      | Some c -> c
      | None ->
          let c = { key = k; at = Hashtbl.create 16 } in
          cs := c :: !cs;
          c
    in
    let const = Alias.const_part addr in
    Hashtbl.replace c.at const
      (e :: Option.value (Hashtbl.find_opt c.at const) ~default:[]);
    let note r = if r >= 0 then t.by_reg.(r) <- e :: t.by_reg.(r) in
    note (reg_read addr.Operation.base);
    note (reg_read value)
  end

(** [forward_memory p] — on the main chain, replace a load whose
    address provably holds a known value (stored or loaded earlier,
    with no intervening may-aliasing store and no redefinition of the
    involved registers) by a register copy.  Returns the number of
    loads rewritten.  The available values are indexed by array,
    base register and constant, and by the registers they read, so a
    kill touches only what it kills.  A load whose address reads its
    own destination records nothing: after it, the address names
    another word. *)
let forward_memory (p : Program.t) =
  let t = { arrays = []; by_reg = Array.make (reg_limit p Reg.Set.empty) [] } in
  let rewritten = ref 0 in
  iter_chain p (fun nid (op : Operation.t) ->
      match op.Operation.kind with
      | Operation.Load (d, a) ->
          (match available t a with
          | Some v ->
              Program.replace_op p nid
                { op with Operation.kind = Operation.Copy (d, v) };
              incr rewritten
          | None -> ());
          kill_reg t d;
          if not (Operand.uses_reg a.Operation.base d) then add t a (Operand.Reg d)
      | Operation.Store (a, v) ->
          kill_aliases t a;
          add t a v
      | Operation.Binop (_, d, _, _) | Operation.Unop (_, d, _) | Operation.Copy (d, _)
        ->
          kill_reg t d
      | Operation.Cjump _ -> ());
  !rewritten

(* -- copy forwarding ------------------------------------------------ *)

(** [forward_copies p] — on the main chain, rewrite every use of a
    copy's destination into a use of its source (when the source is
    not redefined in between), enabling [eliminate_dead] to collect
    the copies.  Returns the number of operand rewrites.  An op none of
    whose operands reads a copy's destination is left as it is.  A
    copy whose source reads its own destination records nothing: its
    source names another value once it has run. *)
let forward_copies (p : Program.t) =
  let n = reg_limit p Reg.Set.empty in
  (* destination -> the source of the live copy into it *)
  let src = Array.make n None in
  (* register -> destinations whose copy source read it when recorded *)
  let readers = Array.make n [] in
  let rewrites = ref 0 in
  (* Kill the copy into [r] and the copies whose source reads [r]. *)
  let kill r =
    let r = Reg.to_int r in
    src.(r) <- None;
    List.iter
      (fun d ->
        match src.(d) with
        | Some v when reg_read v = r -> src.(d) <- None
        | Some _ | None -> ())
      readers.(r);
    readers.(r) <- []
  in
  let copied o =
    let r = reg_read o in
    r >= 0 && src.(r) <> None
  in
  (* [o] forwarded through the copy into the register it reads, then
     through the copy into the register that one's source reads, and
     so on.  Each such copy is older than the one before it, since
     recording a copy into [r] kills the copies whose source reads
     [r]: the chain the newest-first scan of every copy followed. *)
  let rec forward o =
    let r = reg_read o in
    match if r < 0 then None else src.(r) with
    | None -> o
    | Some v -> (
        match Operand.forward o ~copy_dst:(Reg.of_int r) ~copy_src:v with
        | Some o' ->
            if not (Operand.equal o o') then incr rewrites;
            forward o'
        | None -> o)
  in
  let sources_read_copied (op : Operation.t) =
    match op.Operation.kind with
    | Operation.Binop (_, _, a, b) | Operation.Cjump (_, a, b) -> copied a || copied b
    | Operation.Unop (_, _, a) | Operation.Copy (_, a) -> copied a
    | Operation.Load (_, { Operation.base; _ }) -> copied base
    | Operation.Store ({ Operation.base; _ }, v) -> copied base || copied v
  in
  iter_chain p (fun nid (op : Operation.t) ->
      let op' =
        if not (sources_read_copied op) then op
        else begin
          let op' = Operation.map_operands forward op in
          if op'.Operation.kind <> op.Operation.kind then Program.replace_op p nid op';
          op'
        end
      in
      match op'.Operation.kind with
      | Operation.Copy (d, v) ->
          kill d;
          let s = reg_read v in
          if s <> Reg.to_int d then begin
            src.(Reg.to_int d) <- Some v;
            if s >= 0 then readers.(s) <- Reg.to_int d :: readers.(s)
          end
      | Operation.Binop (_, d, _, _) | Operation.Unop (_, d, _) | Operation.Load (d, _) ->
          kill d
      | Operation.Store _ | Operation.Cjump _ -> ());
  !rewrites

(** [cleanup p ~exit_live] — the full redundancy pipeline: memory
    forwarding, copy forwarding, dead-code elimination; returns
    (loads_forwarded, copies_forwarded, dead_removed). *)
let cleanup (p : Program.t) ~exit_live =
  let l = forward_memory p in
  let c = forward_copies p in
  let d = eliminate_dead p ~exit_live in
  (l, c, d)
