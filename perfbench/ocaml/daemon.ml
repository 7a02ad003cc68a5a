(* Lifecycle of the [grip serve] child process.

   The daemon is the repository's own CLI binary, started with default
   cache sizes and [--jobs 1] on a Unix socket in a fresh directory
   under the benchmark's output directory (a relative path, so the
   socket name stays short whatever the checkout path is).  Set-up
   time runs from spawn through the first answered ping and the
   caller's warm-up.  Before shutdown the benchmark reads the daemon's
   peak resident set (VmHWM) and its OpenMetrics exposition; a
   non-zero exit after [Shutdown_req] fails the run. *)

module Protocol = Grip_serve.Protocol

type t = { pid : int; dir : string; conn : Load.conn; mutable alive : bool }

let live : t list ref = ref []

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    Load.close d.conn
  end

(* A benchmark that dies early must not leave a daemon behind. *)
let () = at_exit (fun () -> List.iter kill !live)

let counter = ref 0

let spawn ~cli ~out =
  incr counter;
  let dir = Filename.concat out (Printf.sprintf "d%d-%d" (Unix.getpid ()) !counter) in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat dir "s" in
  let log = Unix.openfile (Filename.concat dir "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  match Load.connect ~sock ~timeout:30.0 with
  | Error msg ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Error msg
  | Ok conn -> (
      let d = { pid; dir; conn; alive = true } in
      live := d :: !live;
      match Load.call conn Protocol.Ping_req "" with
      | Ok (Protocol.Pong_resp, _) -> Ok d
      | Ok (k, _) ->
          kill d;
          Error ("ping answered with " ^ Protocol.kind_name k)
      | Error msg ->
          kill d;
          Error ("ping: " ^ msg))

let peak_rss_mb d = Util.vm_hwm_mb (string_of_int d.pid)

(* The exposition as (sample name, value) pairs. *)
let exposition d =
  match Load.call d.conn Protocol.Metrics_req "" with
  | Ok (Protocol.Metrics_resp, payload) -> (
      match Grip_obs.Json.parse payload with
      | Ok j -> (
          match Grip_obs.Json.member "text" j with
          | Some (Grip_obs.Json.Str text) -> (
              match Grip_obs.Openmetrics.parse text with
              | Ok fams ->
                  Ok (List.concat_map (fun f -> f.Grip_obs.Openmetrics.samples) fams)
              | Error msg -> Error ("exposition: " ^ msg))
          | _ -> Error "metrics reply without text")
      | Error msg -> Error ("metrics reply: " ^ msg))
  | Ok (k, _) -> Error ("metrics answered with " ^ Protocol.kind_name k)
  | Error msg -> Error ("metrics: " ^ msg)

(* [shutdown d] — [Shutdown_req], then wait for a clean exit. *)
let shutdown d =
  let reply = Load.call d.conn Protocol.Shutdown_req "" in
  Load.close d.conn;
  let status =
    let deadline = Util.now () +. 30.0 in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Util.now () < deadline ->
          Unix.sleepf 0.01;
          go ()
      | 0, _ -> None
      | _, st -> Some st
    in
    go ()
  in
  d.alive <- status = None;
  live := List.filter (fun x -> x != d) !live;
  let result =
    match (reply, status) with
    | Ok (Protocol.Shutdown_resp, _), Some (Unix.WEXITED 0) -> Ok ()
    | Error msg, _ -> Error ("shutdown: " ^ msg)
    | Ok (k, _), _ when k <> Protocol.Shutdown_resp ->
        Error ("shutdown answered with " ^ Protocol.kind_name k)
    | _, Some (Unix.WEXITED c) -> Error (Printf.sprintf "daemon exited with code %d" c)
    | _, Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "daemon stopped by signal %d" s)
    | _, None -> Error "daemon did not exit after shutdown"
  in
  if d.alive then kill d;
  (match result with
  | Ok () -> (
      (try Sys.remove (Filename.concat d.dir "log") with Sys_error _ -> ());
      try Unix.rmdir d.dir with Unix.Unix_error _ -> ())
  | Error _ -> ());
  result

(* Sample value by exact name, 0 when absent (a counter the daemon has
   not touched yet is not exposed). *)
let sample samples name = Option.value (List.assoc_opt name samples) ~default:0.0

(* An HDR histogram family as the count in each [le] bucket, by upper
   bound (the exposition's buckets are cumulative). *)
let hdr samples fam =
  let prefix = fam ^ "_bucket{le=\"" in
  let n = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.length name > n && String.sub name 0 n = prefix then
        let le = String.sub name n (String.length name - n - 2) in
        Option.map (fun ub -> (ub, v)) (float_of_string_opt le)
      else None)
    samples
  |> List.sort compare
  |> List.fold_left_map (fun below (ub, cum) -> (cum, (ub, cum -. below))) 0.0
  |> snd

(* [hdr_add a b] — bucket-wise sum; [hdr_sub a b] — what was recorded
   between a scrape [b] and a later scrape [a]. *)
let hdr_merge op a b =
  let bounds = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  let count h ub = Option.value (List.assoc_opt ub h) ~default:0.0 in
  List.map (fun ub -> (ub, op (count a ub) (count b ub))) bounds

let hdr_add a b = hdr_merge ( +. ) a b
let hdr_sub a b = hdr_merge ( -. ) a b

(* Quantile [q] of a histogram: the upper bound of the first bucket
   reaching it; 0 for an empty histogram. *)
let hdr_quantile h q =
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 h in
  let rec go cum = function
    | [] -> 0.0
    | (ub, c) :: rest -> if cum +. c >= q *. total then ub else go (cum +. c) rest
  in
  if total <= 0.0 then 0.0 else go 0.0 h
