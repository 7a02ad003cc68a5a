(** Rendering of schedules in the paper's figure style: rows are the
    instructions along the loop's internal path, columns are unwound
    iterations, and each cell names the body operations (A, B, C, ...
    by body position) that instruction executes for that iteration —
    the format of Figures 5, 9 and 13. *)

open Vliw_ir

(** [letter pos] is the display name of body position [pos]: A..Z then
    [op<n>].  The loop-control conditional (last position) prints as
    [j]. *)
let letter ?(jump_pos = -1) pos =
  if pos = jump_pos then "j"
  else if pos >= 0 && pos < 26 then String.make 1 (Char.chr (Char.code 'a' + pos))
  else Printf.sprintf "op%d" pos

(* Follow the internal path: from the entry, at each branch prefer the
   successor from which more nodes are reachable (the loop continuation
   dominates any exit epilogue), the first in successor order of equal
   counts.  The candidates' counts are raced: each depth-first walk,
   over one reused stamp array, stops at a cap that doubles until at
   most one candidate reaches it, so a branch costs about twice the
   smaller count rather than the remaining program.  Exact counts are
   memoised per node.  The path's own members are marked in a byte
   array, so a cycle ends the path at its first repeated node. *)
let main_path (p : Program.t) =
  let limit = Program.node_limit p in
  let reach = Array.make limit (-1) in
  let mark = Array.make limit 0 and stamp = ref 0 in
  let stack = Iarr.create () and count = ref 0 in
  let visit id =
    if Array.unsafe_get mark id <> !stamp && not (Program.is_exit p id) then begin
      mark.(id) <- !stamp;
      incr count;
      Iarr.push stack id
    end
  in
  (* The nodes reachable from [start] (the exit aside), or [cap] when
     there are at least [cap]. *)
  let reach_below start cap =
    if reach.(start) >= 0 then min reach.(start) cap
    else begin
      incr stamp;
      Iarr.clear stack;
      count := 0;
      visit start;
      while !count < cap && not (Iarr.is_empty stack) do
        let id = Iarr.unsafe_get stack (Iarr.length stack - 1) in
        stack.Iarr.len <- stack.Iarr.len - 1;
        List.iter visit (Program.succs p id)
      done;
      if !count < cap then reach.(start) <- !count;
      min !count cap
    end
  in
  let rec race cands cap =
    let counted = List.map (fun s -> (s, reach_below s cap)) cands in
    match List.filter (fun (_, n) -> n >= cap) counted with
    | [ (s, _) ] -> s
    | [] ->
        fst
          (List.fold_left
             (fun (b, nb) (s, n) -> if n > nb then (s, n) else (b, nb))
             (List.hd counted) (List.tl counted))
    | big -> race (List.map fst big) (2 * cap)
  in
  let on_path = Bytes.make limit '\000' in
  let rec go acc id =
    if Program.is_exit p id || Bytes.get on_path id <> '\000' then List.rev acc
    else begin
      Bytes.set on_path id '\001';
      match List.filter (fun s -> not (Program.is_exit p s)) (Program.succs p id) with
      | [] -> List.rev (id :: acc)
      | [ s ] -> go (id :: acc) s
      | cands -> go (id :: acc) (race cands 16)
    end
  in
  go [] p.Program.entry

(** One rendered row: which (body position, iteration) pairs the
    instruction holds. *)
type row = { node : int; cells : (int * int) list (* (pos, iter) *) }

let compare_cell ((a, b) : int * int) (c, d) =
  let x = Int.compare a c in
  if x <> 0 then x else Int.compare b d

let rows (p : Program.t) =
  let cell acc (op : Operation.t) =
    if op.Operation.iter = Operation.no_iter then acc
    else (op.Operation.src_pos, op.Operation.iter) :: acc
  in
  List.filter_map
    (fun id ->
      let ctree = (Program.node p id).Node.ctree in
      let cells =
        Ctree.fold_cjumps cell (Program.fold_ops p id ~init:[] ~f:cell) ctree
        |> List.sort compare_cell
      in
      if cells = [] && Iarr.is_empty (Program.plain_ids p id) && Ctree.n_cjumps ctree = 0
      then None
      else Some { node = id; cells })
    (main_path p)

(** [pressures ~machine p] — (used slots, issue width) per
    internal-path row, the structured backend shared by {!occupancy}
    and the bottleneck profiler's per-cycle FU pressure.  On an
    unlimited machine the width reported is the widest row's demand
    (matching how {!occupancy} draws its bars). *)
let pressures ~machine (p : Program.t) =
  let module Machine = Vliw_machine.Machine in
  let demands =
    List.map
      (fun r ->
        match Program.node_opt p r.node with
        | Some _ -> Machine.slot_demand_packed machine (Program.counts_packed p r.node)
        | None -> 0)
      (rows p)
  in
  let width =
    if Machine.is_unlimited machine then
      List.fold_left (fun w d -> max w d) 1 demands
    else Machine.width machine
  in
  List.map (fun d -> (d, width)) demands

(** [occupancy ?window ~machine p] — an ASCII slot-occupancy timeline
    of [p]'s internal path: one line per instruction with a bar of
    [#] (used slots) padded with [.] to the issue width, the
    demand/width ratio, and the operations the instruction executes.
    [window] is a converged pattern as [(start, period, delta)] (see
    [Convergence.pattern], which lives above this module in the
    dependency order); its rows are flagged with [|] — the
    steady-state loop body whose utilisation the paper's efficiency
    argument is about.  On an unlimited machine the bar is drawn
    against the widest instruction instead of the issue width. *)
let occupancy ?(jump_pos = -1) ?window ~machine (p : Program.t) =
  let rws = rows p in
  let prs = pressures ~machine p in
  let bar_width = match prs with [] -> 1 | (_, w) :: _ -> w in
  let in_window ri =
    match window with
    | Some (start, period, _) -> ri >= start && ri < start + period
    | None -> false
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-5s %-*s %7s   ops\n" "row" (bar_width + 2) "occupancy"
       "used");
  List.iteri
    (fun ri (r, (d, _)) ->
      let used = min d bar_width in
      let bar =
        String.make used '#' ^ String.make (max 0 (bar_width - used)) '.'
      in
      let ops =
        String.concat " "
          (List.map
             (fun (pos, it) -> Printf.sprintf "%s%d" (letter ~jump_pos pos) it)
             r.cells)
      in
      Buffer.add_string buf
        (Printf.sprintf "%4d%s [%s] %3d/%-3d   %s\n" (ri + 1)
           (if in_window ri then "|" else " ")
           bar d bar_width ops))
    (List.combine rws prs);
  (match window with
  | Some (start, period, delta) ->
      Buffer.add_string buf
        (Printf.sprintf
           "rows %d..%d (|) repeat every %d iteration(s): the converged loop \
            body\n"
           (start + 1) (start + period) delta)
  | None -> Buffer.add_string buf "no converged pattern\n");
  Buffer.contents buf

(** [render ?jump_pos p] pretty-prints the iteration/instruction table
    of [p]'s internal path. *)
let render ?(jump_pos = -1) (p : Program.t) =
  let rws = rows p in
  let iters =
    List.concat_map (fun r -> List.map snd r.cells) rws
    |> List.sort_uniq Int.compare
  in
  let buf = Buffer.create 256 in
  let cell r it =
    let ops = List.filter (fun (_, i) -> i = it) r.cells |> List.map fst in
    String.concat "" (List.map (letter ~jump_pos) (List.sort compare ops))
  in
  let widths =
    List.map
      (fun it ->
        List.fold_left (fun w r -> max w (String.length (cell r it))) 2 rws)
      iters
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Buffer.add_string buf (pad "row" 6);
  List.iteri
    (fun i it -> Buffer.add_string buf (pad (Printf.sprintf "i%d" it) (List.nth widths i + 1)))
    iters;
  Buffer.add_char buf '\n';
  List.iteri
    (fun ri r ->
      Buffer.add_string buf (pad (string_of_int (ri + 1)) 6);
      List.iteri
        (fun i it -> Buffer.add_string buf (pad (cell r it) (List.nth widths i + 1)))
        iters;
      Buffer.add_char buf '\n')
    rws;
  Buffer.contents buf
