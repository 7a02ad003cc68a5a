(* Convergence detection as it was before it became array passes: the
   internal path by a fresh [Hashtbl] walk per compared successor and
   [List.mem] over the path, rows from op lists under polymorphic
   [compare], and a window search over fingerprint lists compared with
   polymorphic [=], whose required positions fold every row once per
   body position.  Kept as the oracle [Schedule_table.main_path],
   [Schedule_table.rows] and [Convergence.detect] are checked against
   (test_grip.ml, "convergence oracle"). *)

open Vliw_ir
module Schedule_table = Grip.Schedule_table
module Convergence = Grip.Convergence

let main_path (p : Program.t) =
  let reach_count =
    let memo = Hashtbl.create 64 in
    fun start ->
      match Hashtbl.find_opt memo start with
      | Some c -> c
      | None ->
          let seen = Hashtbl.create 64 in
          let rec go id =
            if (not (Hashtbl.mem seen id)) && not (Program.is_exit p id) then begin
              Hashtbl.replace seen id ();
              List.iter go (Program.succs p id)
            end
          in
          go start;
          let c = Hashtbl.length seen in
          Hashtbl.replace memo start c;
          c
  in
  let rec go acc id =
    if Program.is_exit p id || List.mem id acc then List.rev acc
    else
      let nexts =
        List.filter (fun s -> not (Program.is_exit p s)) (Program.succs p id)
      in
      match nexts with
      | [] -> List.rev (id :: acc)
      | _ ->
          let best =
            List.fold_left
              (fun b s -> if reach_count s > reach_count b then s else b)
              (List.hd nexts) (List.tl nexts)
          in
          go (id :: acc) best
  in
  go [] p.Program.entry

let rows (p : Program.t) =
  List.filter_map
    (fun id ->
      let ctree = (Program.node p id).Node.ctree in
      let ops = Program.ops p id in
      let cells =
        List.filter_map
          (fun (op : Operation.t) ->
            if op.Operation.iter = Operation.no_iter then None
            else Some (op.Operation.src_pos, op.Operation.iter))
          (ops @ Ctree.cjumps ctree)
        |> List.sort compare
      in
      if cells = [] && ops = [] && Ctree.n_cjumps ctree = 0 then
        None
      else Some { Schedule_table.node = id; cells })
    (main_path p)

type fingerprint = { cells : (int * int) list; base : int }

let fingerprint (r : Schedule_table.row) =
  match r.Schedule_table.cells with
  | [] -> None
  | cells ->
      let base = List.fold_left (fun b (_, i) -> min b i) max_int cells in
      Some { cells = List.map (fun (p, i) -> (p, i - base)) cells; base }

let detect ?(ignore_tail = 2) ?body_positions rows =
  let fps = List.filter_map fingerprint rows in
  let arr = Array.of_list fps in
  let len = Array.length arr - ignore_tail in
  let required_positions =
    match body_positions with
    | None -> []
    | Some nb ->
        let iters_of pos =
          Array.fold_left
            (fun acc fp ->
              List.fold_left
                (fun acc (q, rel) ->
                  if q = pos then
                    List.sort_uniq Int.compare ((fp.base + rel) :: acc)
                  else acc)
                acc fp.cells)
            [] arr
        in
        let max_iter =
          Array.fold_left
            (fun m fp ->
              List.fold_left (fun m (_, rel) -> max m (fp.base + rel)) m fp.cells)
            0 arr
        in
        List.filter
          (fun pos -> 2 * List.length (iters_of pos) > max_iter)
          (List.init nb (fun i -> i))
  in
  let window_complete s p d =
    match body_positions with
    | None -> true
    | Some _ ->
        let count pos =
          List.fold_left
            (fun acc t ->
              acc
              + List.length
                  (List.filter (fun (q, _) -> q = pos) arr.(s + t).cells))
            0
            (List.init p (fun t -> t))
        in
        List.for_all (fun pos -> count pos >= d) required_positions
  in
  let matches s p =
    if s + (2 * p) > len then None
    else
      let deltas =
        List.init p (fun t ->
            let a = arr.(s + t) and b = arr.(s + t + p) in
            if a.cells = b.cells then Some (b.base - a.base) else None)
      in
      match deltas with
      | Some d :: rest
        when d > 0
             && List.for_all (function Some d' -> d' = d | None -> false) rest
             && window_complete s p d ->
          Some d
      | _ -> None
  in
  let best = ref None in
  (try
     for s = 0 to max 0 (len - 2) do
       for p = 1 to (len - s) / 2 do
         match !best, matches s p with
         | None, Some d ->
             let reps = ref 1 in
             let t = ref (s + p) in
             while matches !t p <> None do
               incr reps;
               t := !t + p
             done;
             best :=
               Some
                 { Convergence.start = s; period = p; delta = d; repeats = !reps + 1 };
             raise Exit
         | _ -> ()
       done
     done
   with Exit -> ());
  !best
