(** Diffing two Table 1 bench artifacts (BENCH_table1.json).

    Works at the {!Json} level against any [grip.bench.table1/N] schema
    with [N >= 1] — the per-cell [speedup] field and the
    [loops[].name] / [fuW.{grip,post}] layout have been stable since
    /1, so old artifacts stay comparable across schema bumps.  Cells
    only in the new artifact, and POST cells only in the old one, are
    reported, not treated as regressions (a new loop or FU
    configuration is not a slowdown).  A GRiP cell of the old artifact
    without a numeric speedup in the new one is {e missing} and fails
    the diff, as a regression does: a run that lost cells must not
    pass the gate.

    The report also lists, per compared cell, the integer counters of
    its [stats] and [legality] blocks that differ (the scheduler's
    work; the timing [check_seconds] is not a counter), names once the
    counters that only one artifact's cells carry (schema skew, which
    the per-cell comparison skips), and ends with how many cells did
    the same work.  A counter
    that differs fails the diff: a change in the work a sweep does
    must come with a regenerated artifact. *)

type cell = {
  loop : string;
  fu : string;  (** e.g. ["fu4"] *)
  tech : string;  (** ["grip"] or ["post"] *)
  old_speedup : float;
  new_speedup : float;
  old_alloc : float option;  (** per-cell [gc.alloc_bytes], when present *)
  new_alloc : float option;
  work : (string * int * int) list;
      (** ["block.field"], old and new value of every integer [stats] or
          [legality] counter the two cells both carry and disagree on *)
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
let delta c = c.new_speedup -. c.old_speedup

let schema_version doc =
  let prefix = "grip.bench.table1/" in
  match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when String.length s > String.length prefix
                && String.sub s 0 (String.length prefix) = prefix ->
      int_of_string_opt
        (String.sub s (String.length prefix)
           (String.length s - String.length prefix))
  | _ -> None

(* Flatten an artifact into ordered ((loop, fu, tech), (speedup,
   alloc_bytes option, cell)) cells.  [gc.alloc_bytes] appeared in
   schema /6; older artifacts diff fine, they just can't gate on
   allocation. *)
let cells_of doc =
  let loops =
    Option.value ~default:[]
      (Option.bind (Json.member "loops" doc) Json.to_list)
  in
  List.concat_map
    (fun loop ->
      match Option.bind (Json.member "name" loop) Json.to_str with
      | None -> []
      | Some name ->
          let fields = match loop with Json.Obj kvs -> kvs | _ -> [] in
          List.concat_map
            (fun (field, v) ->
              if String.length field > 2 && String.sub field 0 2 = "fu" then
                List.filter_map
                  (fun tech ->
                    Option.bind (Json.member tech v) (fun c ->
                        let alloc =
                          Option.bind (Json.member "gc" c) (fun g ->
                              Option.bind (Json.member "alloc_bytes" g)
                                Json.to_float)
                        in
                        Option.map
                          (fun s -> ((name, field, tech), (s, alloc, c)))
                          (Option.bind (Json.member "speedup" c) Json.to_float)))
                  [ "grip"; "post" ]
              else [])
            fields)
    loops

(* Fields of those blocks that measure rather than count. *)
let not_counters = [ "legality.check_seconds" ]

(* A cell's integer counters in its [stats] and [legality] blocks, as
   ("block.field", value). *)
let work_counters c =
  List.concat_map
    (fun block ->
      match Json.member block c with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) ->
              let key = block ^ "." ^ k in
              match v with
              | Json.Num x
                when Float.is_integer x && not (List.mem key not_counters) ->
                  Some (key, x)
              | _ -> None)
            kvs
      | _ -> [])
    [ "stats"; "legality" ]

(* The counters both cells carry and disagree on; a counter only one
   schema has is skew, not work. *)
let work_diff old_c new_c =
  let counters = work_counters new_c in
  List.filter_map
    (fun (k, o) ->
      match List.assoc_opt k counters with
      | Some n when n <> o -> Some (k, int_of_float o, int_of_float n)
      | _ -> None)
    (work_counters old_c)

(* The counters of [a]'s cell that [b]'s lacks. *)
let counters_missing a b =
  let kb = work_counters b in
  List.filter_map
    (fun (k, _) -> if List.mem_assoc k kb then None else Some k)
    (work_counters a)

let parse_artifact label contents =
  match Json.parse contents with
  | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" label e)
  | Ok doc -> (
      match schema_version doc with
      | Some v when v >= 1 -> Ok doc
      | Some v -> Error (Printf.sprintf "%s: unsupported schema version %d" label v)
      | None -> Error (Printf.sprintf "%s: not a grip.bench.table1 artifact" label))

(** [diff ~old_ ~new_] — both arguments are raw file contents. *)
let diff ~old_ ~new_ =
  match (parse_artifact "old" old_, parse_artifact "new" new_) with
  | Error e, _ | _, Error e -> Error e
  | Ok od, Ok nd ->
      let ocells = cells_of od and ncells = cells_of nd in
      let label (l, f, t) = Printf.sprintf "%s/%s/%s" l f t in
      let pairs =
        List.filter_map
          (fun (key, (new_speedup, new_alloc, new_cell)) ->
            Option.map
              (fun (old_speedup, old_alloc, old_cell) ->
                let loop, fu, tech = key in
                ( { loop; fu; tech; old_speedup; new_speedup; old_alloc;
                    new_alloc; work = work_diff old_cell new_cell },
                  old_cell,
                  new_cell ))
              (List.assoc_opt key ocells))
          ncells
      in
      let cells = List.map (fun (c, _, _) -> c) pairs in
      let skew f =
        List.sort_uniq String.compare
          (List.concat_map (fun (_, o, n) -> f o n) pairs)
      in
      let only_in a b =
        List.filter_map
          (fun (key, _) ->
            if List.mem_assoc key b then None else Some (label key))
          a
      in
      let only_old = only_in ocells ncells in
      let missing =
        List.filter_map
          (fun (((_, _, tech) as key), _) ->
            if tech = "grip" && not (List.mem_assoc key ncells) then
              Some (label key)
            else None)
          ocells
      in
      Ok
        {
          cells;
          only_old;
          only_new = only_in ncells ocells;
          missing;
          counters_only_old = skew counters_missing;
          counters_only_new = skew (fun o n -> counters_missing n o);
        }

(** GRiP cells whose speedup dropped by more than [tolerance] — the
    regression gate only guards the paper's own technique; POST swings
    are reported in the table but never fail the diff. *)
let regressions ?(tolerance = 1e-9) r =
  List.filter
    (fun c -> c.tech = "grip" && c.old_speedup -. c.new_speedup > tolerance)
    r.cells

(* Did a cell's scheduling-time allocation grow past the allowed
   fraction?  Cells without a gc block on either side never trip. *)
let alloc_regressed ~gc_tolerance c =
  match (c.old_alloc, c.new_alloc) with
  | Some o, Some n -> n > o *. (1.0 +. gc_tolerance)
  | _ -> false

(** [gc_regressions ~gc_tolerance r] — GRiP cells whose per-cell
    [gc.alloc_bytes] grew by more than the fraction [gc_tolerance]
    (e.g. [0.25] allows +25%).  A separate gate from the speedup one:
    allocation creep degrades multicore GC behaviour long before it
    shows in single-cell speedups. *)
let gc_regressions ~gc_tolerance r =
  List.filter (fun c -> c.tech = "grip" && alloc_regressed ~gc_tolerance c) r.cells

(** [work_changed r] — the compared cells whose work counters differ. *)
let work_changed r = List.filter (fun c -> c.work <> []) r.cells

(** [passes ?tolerance ?gc_tolerance r] — the gate: no GRiP speedup
    regression beyond [tolerance], no GRiP cell missing from the new
    artifact, no compared cell whose work counters differ and, with
    [gc_tolerance], no GRiP allocation regression. *)
let passes ?(tolerance = 1e-9) ?gc_tolerance r =
  regressions ~tolerance r = []
  && r.missing = []
  && work_changed r = []
  &&
  match gc_tolerance with
  | Some g -> gc_regressions ~gc_tolerance:g r = []
  | None -> true

let pp_mb ppf = function
  | Some b -> Format.fprintf ppf "%9.2f" (b /. 1048576.0)
  | None -> Format.fprintf ppf "%9s" "-"

let pp_result ?(tolerance = 1e-9) ?gc_tolerance ppf r =
  Format.fprintf ppf "%-6s %-5s %-5s %9s %9s %9s %9s %9s@." "loop" "fu" "tech"
    "old" "new" "delta" "oldMB" "newMB";
  List.iter
    (fun c ->
      let speedup_reg = c.tech = "grip" && c.old_speedup -. c.new_speedup > tolerance in
      let alloc_reg =
        match gc_tolerance with
        | Some g -> c.tech = "grip" && alloc_regressed ~gc_tolerance:g c
        | None -> false
      in
      Format.fprintf ppf "%-6s %-5s %-5s %9.3f %9.3f %+9.3f %a %a%s%s@." c.loop
        c.fu c.tech c.old_speedup c.new_speedup (delta c) pp_mb c.old_alloc
        pp_mb c.new_alloc
        (if speedup_reg then "  REGRESSION" else "")
        (if alloc_reg then "  ALLOC-REGRESSION" else "");
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
  let regs = regressions ~tolerance r in
  if regs = [] && r.missing = [] then
    Format.fprintf ppf "%d cell(s) compared; no GRiP regressions (tolerance %g)@."
      (List.length r.cells) tolerance
  else
    Format.fprintf ppf
      "%d cell(s) compared; %d GRiP regression(s) beyond tolerance %g; %d \
       GRiP cell(s) missing from the new artifact@."
      (List.length r.cells) (List.length regs) tolerance
      (List.length r.missing);
  (match gc_tolerance with
  | None -> ()
  | Some g -> (
      match gc_regressions ~gc_tolerance:g r with
      | [] ->
          Format.fprintf ppf "allocation gate clean (gc-tolerance +%g%%)@."
            (100.0 *. g)
      | aregs ->
          Format.fprintf ppf
            "%d GRiP cell(s) allocating beyond gc-tolerance +%g%%@."
            (List.length aregs) (100.0 *. g)));
  let changed = List.length (work_changed r) in
  Format.fprintf ppf "work identical on %d/%d cells%s@."
    (List.length r.cells - changed)
    (List.length r.cells)
    (if changed > 0 then "; differing work fails the diff" else "")
