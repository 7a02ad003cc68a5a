(** Perfect-Pipelining convergence detection (section 2; Figure 13's
    "nodes 4 and 5 become the new loop body").

    After scheduling an unwound loop, the instructions along the
    internal path are fingerprinted by the multiset of
    (body position, iteration − base) pairs they execute.  The loop has
    converged when a window of [period] consecutive rows repeats with a
    constant iteration shift [delta]: making that window the new loop
    body yields a steady state executing [delta] iterations every
    [period] cycles. *)

type pattern = {
  start : int;  (** row index (0-based) where the repeating window begins *)
  period : int;  (** rows per repetition *)
  delta : int;  (** iterations retired per repetition *)
  repeats : int;  (** how many times the window was observed *)
}

(** Steady-state cost: cycles per loop iteration. *)
let cycles_per_iteration p = float_of_int p.period /. float_of_int p.delta

(* Do [ca] less [ba] and [cb] less [bb] hold the same (position,
   iteration − base) pairs, in order? *)
let rec same_cells ca ba cb bb =
  match ca, cb with
  | [], [] -> true
  | (q, i) :: ta, (q', i') :: tb -> q = q' && i - ba = i' - bb && same_cells ta ba tb bb
  | _ -> false

let hash_cells cells base =
  List.fold_left (fun h (q, i) -> (((h * 31) + q) * 31) + (i - base)) 17 cells
  land max_int

(** [detect ?body_positions rows] finds the earliest, shortest
    repeating window.  Rows whose window would overlap the final
    (horizon-truncated) iterations are not required to match, so
    [ignore_tail] rows at the end are excluded from the search.

    When [body_positions] is given, a window only counts as a
    converged loop body if it contains every body position at least
    [delta] times — a window that repeats but has shed part of the
    iteration (the growing-gap pathology of Figure 9) is rejected, so
    a schedule with unbounded gaps correctly reports
    "no convergence".

    Each non-empty row is fingerprinted once: its base (the least
    iteration it holds) and an id shared by the rows whose cells,
    iterations taken relative to the base, are equal; two rows repeat
    each other when their ids agree, and the window search compares
    ints (DESIGN.md §30). *)
let detect ?(ignore_tail = 2) ?body_positions rows =
  let arr =
    Array.of_list
      (List.filter_map
         (fun (r : Schedule_table.row) ->
           if r.Schedule_table.cells = [] then None else Some r.Schedule_table.cells)
         rows)
  in
  let n = Array.length arr in
  let len = n - ignore_tail in
  let base = Array.map (List.fold_left (fun b (_, i) -> min b i) max_int) arr in
  let id = Array.make n 0 in
  let seen = Hashtbl.create 64 in
  for r = 0 to n - 1 do
    let h = hash_cells arr.(r) base.(r) in
    let same = Option.value (Hashtbl.find_opt seen h) ~default:[] in
    match List.find_opt (fun q -> same_cells arr.(q) base.(q) arr.(r) base.(r)) same with
    | Some q -> id.(r) <- id.(q)
    | None ->
        id.(r) <- r;
        Hashtbl.replace seen h (r :: same)
  done;
  (* Positions that must appear in a window: body positions still
     present in the schedule's steady region.  Redundancy removal can
     legitimately delete a position entirely (LL1's overlapping loads,
     LL11's reload), so only positions that survive for most iterations
     are demanded: those present in more than half as many iterations
     as the highest iteration any row holds.  One pass over every
     cell marks each (position, iteration) pair in a flat table. *)
  let nb = Option.value body_positions ~default:0 in
  let required =
    let max_iter = ref 0 and lo = ref max_int in
    Array.iter
      (List.iter (fun (q, i) ->
           max_iter := max !max_iter i;
           if q >= 0 && q < nb then lo := min !lo i))
      arr;
    let span = !max_iter - !lo + 1 in
    let marks = Bytes.make (if !lo = max_int then 0 else nb * span) '\000' in
    let iters = Array.make nb 0 in
    Array.iter
      (List.iter (fun (q, i) ->
           if q >= 0 && q < nb then begin
             let at = (q * span) + (i - !lo) in
             if Bytes.get marks at = '\000' then begin
               Bytes.set marks at '\001';
               iters.(q) <- iters.(q) + 1
             end
           end))
      arr;
    List.filter (fun pos -> 2 * iters.(pos) > !max_iter) (List.init nb Fun.id)
  in
  let counts = Array.make nb 0 in
  let window_complete s p d =
    Array.fill counts 0 nb 0;
    for t = s to s + p - 1 do
      List.iter (fun (q, _) -> if q >= 0 && q < nb then counts.(q) <- counts.(q) + 1) arr.(t)
    done;
    List.for_all (fun pos -> counts.(pos) >= d) required
  in
  let matches s p =
    (* rows s..s+p-1 must equal rows s+p..s+2p-1 with constant delta *)
    if s + (2 * p) > len then None
    else
      let d = base.(s + p) - base.(s) in
      let rec same t =
        t = p
        || id.(s + t) = id.(s + t + p)
           && base.(s + t + p) - base.(s + t) = d
           && same (t + 1)
      in
      if d > 0 && same 0 && window_complete s p d then Some d else None
  in
  let best = ref None in
  (try
     for s = 0 to max 0 (len - 2) do
       for p = 1 to (len - s) / 2 do
         match matches s p with
         | Some d ->
             (* count repetitions *)
             let reps = ref 1 in
             let t = ref (s + p) in
             while matches !t p <> None do
               incr reps;
               t := !t + p
             done;
             best := Some { start = s; period = p; delta = d; repeats = !reps + 1 };
             raise Exit
         | None -> ()
       done
     done
   with Exit -> ());
  !best

(** [gaps rows] counts empty rows strictly between the first and last
    non-empty rows — the artifact gap prevention exists to avoid
    (Figure 9 vs Figure 13). *)
let gaps rows =
  let flags = List.map (fun r -> r.Schedule_table.cells = []) rows in
  let arr = Array.of_list flags in
  let n = Array.length arr in
  let first = ref n and last = ref (-1) in
  Array.iteri (fun i empty -> if not empty then begin
        if !first = n then first := i;
        last := i
      end) arr;
  let count = ref 0 in
  for i = !first to !last do
    if arr.(i) then incr count
  done;
  !count
