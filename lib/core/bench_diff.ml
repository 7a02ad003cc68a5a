(** Diffing two Table 1 bench artifacts (BENCH_table1.json).

    Reads cells only through {!Bench_artifact.project}, so artifacts of
    any schema /N with [N >= 1] stay comparable across schema bumps.
    Cells only in the new artifact, and POST cells only in the old one,
    are reported, not treated as regressions (a new loop or FU
    configuration is not a slowdown).  A GRiP cell of the old artifact
    without a numeric speedup in the new one is {e missing} and fails
    the diff, as a regression does: a run that lost cells must not
    pass the gate.

    The report also lists, per compared cell, the work counters that
    differ ({!Bench_artifact.view.work}), names once the counters that
    only one artifact's cells carry (schema skew, which the per-cell
    comparison skips), and ends with how many cells did the same work.
    A counter that differs fails the diff: a change in the work a sweep
    does must come with a regenerated artifact. *)

type cell = {
  loop : string;
  fu : string;  (** e.g. ["fu4"] *)
  tech : string;  (** ["grip"] or ["post"] *)
  old_ : Bench_artifact.view;
  new_ : Bench_artifact.view;
  work : (string * int * int) list;
      (** ["block.field"], old and new value of every work counter the
          two cells both carry and disagree on *)
}

type result = {
  cells : cell list;  (** artifact order of the new file *)
  only_old : string list;  (** "LL3/fu8/grip"-style labels *)
  only_new : string list;
  missing : string list;  (** the GRiP cells of [only_old] *)
  counters_only_old : string list;
      (** sorted ["block.field"] counters some compared cell carries
          in the old artifact but not in the new one *)
  counters_only_new : string list;  (** the converse *)
}

let cell_label c = Printf.sprintf "%s/%s/%s" c.loop c.fu c.tech
let delta c = c.new_.speedup -. c.old_.speedup

(* The counters both cells carry and disagree on; a counter only one
   schema has is skew, not work. *)
let work_diff (o : Bench_artifact.view) (n : Bench_artifact.view) =
  List.filter_map
    (fun (k, x) ->
      match List.assoc_opt k n.work with
      | Some y when y <> x -> Some (k, int_of_float x, int_of_float y)
      | _ -> None)
    o.work

(* The counters of [a]'s cell that [b]'s lacks. *)
let counters_missing (a : Bench_artifact.view) (b : Bench_artifact.view) =
  List.filter_map
    (fun (k, _) -> if List.mem_assoc k b.work then None else Some k)
    a.work

(** [diff ~old_ ~new_] — both arguments are raw file contents. *)
let diff ~old_ ~new_ =
  let side label text =
    Result.map_error (fun e -> label ^ ": " ^ e) (Bench_artifact.project text)
  in
  match (side "old" old_, side "new" new_) with
  | Error e, _ | _, Error e -> Error e
  | Ok ocells, Ok ncells ->
      let label (l, f, t) = Printf.sprintf "%s/%s/%s" l f t in
      let cells =
        List.filter_map
          (fun (((loop, fu, tech) as key), new_) ->
            Option.map
              (fun old_ ->
                { loop; fu; tech; old_; new_; work = work_diff old_ new_ })
              (List.assoc_opt key ocells))
          ncells
      in
      let skew f =
        List.sort_uniq String.compare
          (List.concat_map (fun c -> f c.old_ c.new_) cells)
      in
      let only_in a b =
        List.filter_map
          (fun (key, _) ->
            if List.mem_assoc key b then None else Some (label key))
          a
      in
      let only_old = only_in ocells ncells in
      Ok
        {
          cells;
          only_old;
          only_new = only_in ncells ocells;
          missing = List.filter (String.ends_with ~suffix:"/grip") only_old;
          counters_only_old = skew counters_missing;
          counters_only_new = skew (fun o n -> counters_missing n o);
        }

(* A GRiP speedup that dropped by more than print rounding. *)
let regressed c = c.tech = "grip" && delta c < -1e-9

(** GRiP cells whose speedup dropped — the regression gate only guards
    the paper's own technique; POST swings are reported in the table
    but never fail the diff. *)
let regressions r = List.filter regressed r.cells

(** [work_changed r] — the compared cells whose work counters differ. *)
let work_changed r = List.filter (fun c -> c.work <> []) r.cells

(** [passes r] — the gate: no GRiP speedup regression, no GRiP cell
    missing from the new artifact, and no compared cell whose work
    counters differ. *)
let passes r = regressions r = [] && r.missing = [] && work_changed r = []

let pp_mb ppf = function
  | Some b -> Format.fprintf ppf "%9.2f" (b /. 1048576.0)
  | None -> Format.fprintf ppf "%9s" "-"

let pp_result ppf r =
  Format.fprintf ppf "%-6s %-5s %-5s %9s %9s %9s %9s %9s@." "loop" "fu" "tech"
    "old" "new" "delta" "oldMB" "newMB";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-6s %-5s %-5s %9.3f %9.3f %+9.3f %a %a%s@." c.loop
        c.fu c.tech c.old_.speedup c.new_.speedup (delta c) pp_mb
        c.old_.alloc_bytes pp_mb c.new_.alloc_bytes
        (if regressed c then "  REGRESSION" else "");
      if c.work <> [] then
        Format.fprintf ppf "       work: %s@."
          (String.concat ", "
             (List.map
                (fun (k, o, n) -> Printf.sprintf "%s %d -> %d" k o n)
                c.work)))
    r.cells;
  let skew side = function
    | [] -> ()
    | ks ->
        Format.fprintf ppf "counters only in %s artifact: %s@." side
          (String.concat ", " ks)
  in
  skew "old" r.counters_only_old;
  skew "new" r.counters_only_new;
  List.iter
    (fun l ->
      Format.fprintf ppf "only in old artifact: %s%s@." l
        (if List.mem l r.missing then "  MISSING" else ""))
    r.only_old;
  List.iter
    (fun l -> Format.fprintf ppf "only in new artifact: %s@." l)
    r.only_new;
  let regs = regressions r in
  if regs = [] && r.missing = [] then
    Format.fprintf ppf "%d cell(s) compared; no GRiP regressions@."
      (List.length r.cells)
  else
    Format.fprintf ppf
      "%d cell(s) compared; %d GRiP regression(s); %d GRiP cell(s) missing \
       from the new artifact@."
      (List.length r.cells) (List.length regs) (List.length r.missing);
  let changed = List.length (work_changed r) in
  Format.fprintf ppf "work identical on %d/%d cells%s@."
    (List.length r.cells - changed)
    (List.length r.cells)
    (if changed > 0 then "; differing work fails the diff" else "")
