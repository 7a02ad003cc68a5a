(* Spans for the traced run, recorded by the benchmark around its own
   calls into each layer of the program (spans inside the program are
   not used).  A span has a name ("<layer>" or "<layer>.<call>"), a
   start and an end, the index of the span that encloses it, the id of
   the cell or request it belongs to, and the minor-heap words and
   minor collections that happened while it was open.  Spans stay in
   memory and are written out once, at the end of the run.

   A layer's self time is the time of its spans minus the time of the
   spans nested inside them. *)

type span = {
  name : string;
  rid : int;
  parent : int;  (** index of the enclosing span; -1 at the root *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable words : float;
  g0 : int;
  mutable gcs : int;
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack = ref []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count

let minor_gcs () = (Gc.quick_stat ()).Gc.minor_collections

(** [run name ~rid f] — [f ()] inside a span when tracing is on; a
    plain call otherwise. *)
let run name ~rid f =
  if not !on then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let s =
      {
        name;
        rid;
        parent;
        t0 = Unix.gettimeofday ();
        t1 = nan;
        w0 = Gc.minor_words ();
        words = 0.0;
        g0 = minor_gcs ();
        gcs = 0;
      }
    in
    stack := !count :: !stack;
    push s;
    let close () =
      s.t1 <- Unix.gettimeofday ();
      s.words <- Gc.minor_words () -. s.w0;
      s.gcs <- minor_gcs () - s.g0;
      stack := List.tl !stack
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

type agg = {
  mutable calls : int;
  mutable total : float;  (** seconds, children included *)
  mutable self : float;  (** seconds, children excluded *)
  mutable self_words : float;
  mutable self_gcs : int;
}

(* Per span name: calls, total and self time, self allocation. *)
let summary () =
  let n = !count and a = !spans in
  let child_t = Array.make n 0.0
  and child_w = Array.make n 0.0
  and child_g = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    if s.parent >= 0 then begin
      child_t.(s.parent) <- child_t.(s.parent) +. (s.t1 -. s.t0);
      child_w.(s.parent) <- child_w.(s.parent) +. s.words;
      child_g.(s.parent) <- child_g.(s.parent) + s.gcs
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = a.(i) in
    let g =
      match Hashtbl.find_opt tbl s.name with
      | Some g -> g
      | None ->
          let g = { calls = 0; total = 0.0; self = 0.0; self_words = 0.0; self_gcs = 0 } in
          Hashtbl.replace tbl s.name g;
          g
    in
    let dur = s.t1 -. s.t0 in
    g.calls <- g.calls + 1;
    g.total <- g.total +. dur;
    g.self <- g.self +. (dur -. child_t.(i));
    g.self_words <- g.self_words +. (s.words -. child_w.(i));
    g.self_gcs <- g.self_gcs + (s.gcs - child_g.(i))
  done;
  tbl

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* [f] summed over the span names of [layer]. *)
let fold_layer tbl ~layer f =
  Hashtbl.fold
    (fun name g acc -> if layer_of name = layer then acc +. f g else acc)
    tbl 0.0

let find tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; total = 0.0; self = 0.0; self_words = 0.0; self_gcs = 0 }

(* Mean self time of one call of [name], in [scale] units per second. *)
let mean_self tbl name ~scale =
  let g = find tbl name in
  if g.calls = 0 then 0.0 else g.self /. float_of_int g.calls *. scale

(* Chrome trace-event JSON of every span (complete "X" events). *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let base = if !count > 0 then !spans.(0).t0 else 0.0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"rid\": %d, \"parent\": %d, \"minor_words\": \
       %.0f, \"minor_gcs\": %d}}\n"
      (if i = 0 then "" else ",")
      s.name
      ((s.t0 -. base) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      s.rid s.parent s.words s.gcs
  done;
  output_string oc "]}\n";
  close_out oc
