(** OpenMetrics / Prometheus text exposition of a {!Metrics} registry.

    {!render} turns every counter, timing, gauge and histogram of a
    registry into the OpenMetrics text format: one [# TYPE family kind]
    line per family, samples below it, and the mandatory [# EOF]
    terminator.  Metric names are sanitized ([a-zA-Z0-9_:] only) and
    prefixed (default ["grip"]); timings render as [_seconds] counters,
    histograms ({!Hdr}) as cumulative [le] bucket series, one bucket per
    non-empty sub-bucket at its inclusive upper bound, with
    [_sum]/[_count].

    {!parse} is the matching structural reader — enough of the format
    to validate an exposition end-to-end (the [@serve] smoke asserts
    the daemon's metrics response parses and {!covers} every registry
    entry) without claiming to be a full scraper. *)

type family = {
  fname : string;
  ftype : string;  (** counter | gauge | histogram | untyped *)
  samples : (string * float) list;
      (** sample name (suffix + labels included) and value *)
}

(* -- rendering ------------------------------------------------------------ *)

let sanitize name =
  String.init (String.length name) (fun i ->
      match name.[i] with
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')

let family_name ~prefix name = prefix ^ "_" ^ sanitize name

let add_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%.9g" v)

let add_sample buf name v =
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  add_float buf v;
  Buffer.add_char buf '\n'

let add_type buf name kind =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* a histogram as cumulative le-bucket series *)
let add_histogram buf fam h =
  add_type buf fam "histogram";
  let cum = ref 0 in
  List.iter
    (fun (_, le, c) ->
      cum := !cum + c;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" fam le !cum))
    (Hdr.buckets h);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" fam (Hdr.count h));
  Buffer.add_string buf fam;
  Buffer.add_string buf "_sum ";
  add_float buf (float_of_int h.Hdr.sum);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" fam (Hdr.count h))

(** [render ?prefix metrics] — the full registry as an OpenMetrics text
    document ending in [# EOF]. *)
let render ?(prefix = "grip") (m : Metrics.t) =
  let buf = Buffer.create 4096 in
  let sorted tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare
  in
  List.iter
    (fun k ->
      let fam = family_name ~prefix k in
      add_type buf fam "counter";
      add_sample buf (fam ^ "_total") (float_of_int (Metrics.counter m k)))
    (sorted m.Metrics.counters);
  List.iter
    (fun k ->
      let fam = family_name ~prefix k ^ "_seconds" in
      add_type buf fam "counter";
      add_sample buf (fam ^ "_total") (Metrics.time m k))
    (sorted m.Metrics.times);
  List.iter
    (fun k ->
      let fam = family_name ~prefix k in
      add_type buf fam "gauge";
      add_sample buf fam (Metrics.gauge m k))
    (sorted m.Metrics.gauges);
  List.iter
    (fun k ->
      add_histogram buf (family_name ~prefix k)
        (Hashtbl.find m.Metrics.hists k))
    (sorted m.Metrics.hists);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* -- structural parser ---------------------------------------------------- *)

let base_of sample =
  (* strip a {labels} suffix and the conventional sample suffixes back
     to the family name *)
  let name =
    match String.index_opt sample '{' with
    | Some i -> String.sub sample 0 i
    | None -> sample
  in
  let strip suffix name =
    if String.length name > String.length suffix
       && String.sub name
            (String.length name - String.length suffix)
            (String.length suffix)
          = suffix
    then Some (String.sub name 0 (String.length name - String.length suffix))
    else None
  in
  match
    List.find_map (fun s -> strip s name) [ "_total"; "_bucket"; "_sum"; "_count" ]
  with
  | Some base -> base
  | None -> name

(** [parse text] — split an exposition into typed families with their
    samples.  Checks: every sample line is [name value] with a finite
    float value, every sample belongs to a declared family, and the
    document ends with [# EOF]. *)
let parse text =
  let lines = String.split_on_char '\n' text in
  let families = Hashtbl.create 64 in
  let order = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let saw_eof = ref false in
  List.iteri
    (fun lineno line ->
      let lineno = lineno + 1 in
      if line = "" || !saw_eof then ()
      else if line = "# EOF" then saw_eof := true
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
            if Hashtbl.mem families name then
              fail (Printf.sprintf "line %d: duplicate family %s" lineno name)
            else begin
              Hashtbl.replace families name (kind, ref []);
              order := name :: !order
            end
        | _ -> fail (Printf.sprintf "line %d: malformed TYPE line" lineno)
      end
      else if String.length line > 0 && line.[0] = '#' then ()
      else
        match String.rindex_opt line ' ' with
        | None -> fail (Printf.sprintf "line %d: no value" lineno)
        | Some i -> (
            let name = String.sub line 0 i in
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt value with
            | None -> fail (Printf.sprintf "line %d: bad value %S" lineno value)
            | Some v -> (
                match Hashtbl.find_opt families (base_of name) with
                | None ->
                    fail
                      (Printf.sprintf "line %d: sample %s has no TYPE" lineno
                         name)
                | Some (_, samples) -> samples := (name, v) :: !samples)))
    lines;
  if not !saw_eof then fail "missing # EOF terminator";
  match !err with
  | Some msg -> Error msg
  | None ->
      Ok
        (List.rev_map
           (fun name ->
             let kind, samples = Hashtbl.find families name in
             { fname = name; ftype = kind; samples = List.rev !samples })
           !order)

(** [covers ?prefix metrics text] — the registry entries that [text]
    fails to expose; [[]] means the exposition covers everything. *)
let covers ?(prefix = "grip") (m : Metrics.t) text =
  match parse text with
  | Error msg -> [ "unparseable: " ^ msg ]
  | Ok families ->
      let have = Hashtbl.create 64 in
      List.iter
        (fun f -> if f.samples <> [] then Hashtbl.replace have f.fname ())
        families;
      let missing = ref [] in
      let check ?(suffix = "") k =
        if not (Hashtbl.mem have (family_name ~prefix k ^ suffix)) then
          missing := k :: !missing
      in
      Hashtbl.iter (fun k _ -> check k) m.Metrics.counters;
      Hashtbl.iter (fun k _ -> check ~suffix:"_seconds" k) m.Metrics.times;
      Hashtbl.iter (fun k _ -> check k) m.Metrics.gauges;
      Hashtbl.iter (fun k _ -> check k) m.Metrics.hists;
      List.sort String.compare !missing
