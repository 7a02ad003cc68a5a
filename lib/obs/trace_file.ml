(** Chrome trace files, with the one track scheme every writer uses
    (the [grip] CLI's schedule, stress and profile runs and the
    scheduling daemon): tid 0 is the coordinating domain, [1 + w] pool
    worker [w], and [100 + d] the GC track of domain [d] from the
    runtime-events consumer, so merged traces land on stable, labelled
    rows across runs. *)

(** [tracks ?main ~workers rt] — the tracks of one run: [main], a label
    and the coordinator's events, on tid 0; one track per pool worker,
    whose event lists in [workers] (worker, events) are merged by
    timestamp; and with [rt], one GC track per domain it saw. *)
let tracks ?main ~workers rt =
  let main =
    match main with
    | Some (label, events) -> [ { Trace.tid = 0; label; events } ]
    | None -> []
  in
  let by_worker = Hashtbl.create 8 in
  List.iter
    (fun (w, events) ->
      let prev = Option.value (Hashtbl.find_opt by_worker w) ~default:[] in
      Hashtbl.replace by_worker w (events :: prev))
    workers;
  let workers =
    Hashtbl.fold
      (fun w evss acc ->
        {
          Trace.tid = 1 + w;
          label =
            (if w = 0 then "worker 0 (main)" else Printf.sprintf "worker %d" w);
          events = Trace.merge_events evss;
        }
        :: acc)
      by_worker []
    |> List.sort (fun a b -> compare a.Trace.tid b.Trace.tid)
  in
  let gc =
    match rt with
    | None -> []
    | Some rt ->
        List.map
          (fun d ->
            {
              Trace.tid = 100 + d;
              label = Printf.sprintf "gc domain %d" d;
              events = Runtime.trace_events ~domain:d rt;
            })
          (Runtime.domains rt)
  in
  main @ workers @ gc

(** [warn_dropped ~dropped path] — on stderr, that [dropped] events
    were overwritten before the trace in [path] was written (nothing
    when none were). *)
let warn_dropped ~dropped path =
  if dropped > 0 then
    Format.eprintf
      "grip: warning: the trace ring overwrote %d event(s); %s is truncated \
       (earliest events lost)@."
      dropped path

(** [write path tracks] — [tracks] as one Chrome trace document
    ({!Trace.chrome_tracks}) in [path]; [Error] carries the
    [Sys_error] message. *)
let write path tracks =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Trace.chrome_tracks tracks);
        output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error m -> Error m
