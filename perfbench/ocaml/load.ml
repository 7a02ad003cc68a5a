(* The benchmark's own load driver: one connection, one thread.

   It does not use the program's load generator, so a change to that
   generator cannot move the measuring tool; it speaks the daemon's
   wire format through [Protocol.encode] and [Protocol.decode_header]
   only.  Request frames are encoded in set-up, with the request's
   index in the stream as its frame id.

   Open loop: request [i] of a phase is due at [start + i / rate]; it
   is sent as soon as it is due, its latency runs from when it was due
   (so a stall also charges the requests queued behind it), and how
   late the driver sent it is its lag.  The socket is non-blocking,
   so the driver never blocks writing while the daemon blocks writing
   replies back.  Closed loop: send, wait for the reply, send the
   next. *)

module Protocol = Grip_serve.Protocol

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable wbuf : Bytes.t;  (** bytes accepted for sending ... *)
  mutable wstart : int;
  mutable wend : int;  (** ... not yet written: [wstart, wend) *)
}

let connect ~sock ~timeout =
  let deadline = Util.now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.set_nonblock fd;
        Ok
          {
            fd;
            rbuf = Bytes.create 65536;
            rlen = 0;
            wbuf = Bytes.create 65536;
            wstart = 0;
            wend = 0;
          }
    | exception Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        if Util.now () > deadline then
          Error ("connect: " ^ Unix.error_message err)
        else begin
          Unix.sleepf 0.01;
          go ()
        end
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let pending c = c.wend > c.wstart

(* Write as much of the pending bytes as the socket takes now. *)
let flush c =
  if pending c then
    match Unix.write c.fd c.wbuf c.wstart (c.wend - c.wstart) with
    | n -> c.wstart <- c.wstart + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let queue c s =
  let len = String.length s in
  if c.wend + len > Bytes.length c.wbuf then begin
    let live = c.wend - c.wstart in
    let buf =
      if live + len > Bytes.length c.wbuf then
        Bytes.create (2 * (live + len))
      else c.wbuf
    in
    Bytes.blit c.wbuf c.wstart buf 0 live;
    c.wbuf <- buf;
    c.wstart <- 0;
    c.wend <- live
  end;
  Bytes.blit_string s 0 c.wbuf c.wend len;
  c.wend <- c.wend + len;
  flush c

(* Read what is available and hand every complete frame to
   [on_frame kind id buf off len], its payload being [buf.[off ..
   off+len-1]] (valid during the call only).  [Error] on a malformed
   header, or once the daemon has closed the connection (after the
   frames it sent before closing). *)
let drain c ~on_frame =
  let rec read () =
    if c.rlen = Bytes.length c.rbuf then begin
      let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 bigger 0 c.rlen;
      c.rbuf <- bigger
    end;
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> Some "daemon closed the connection"
    | n ->
        c.rlen <- c.rlen + n;
        read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    | exception Unix.Unix_error (err, _, _) -> Some (Unix.error_message err)
  in
  let rec frames off =
    if c.rlen - off < Protocol.header_len then Ok off
    else
      match Protocol.decode_header (Bytes.sub_string c.rbuf off Protocol.header_len) with
      | Error msg -> Error ("bad reply header: " ^ msg)
      | Ok (kind, id, len) ->
          let total = Protocol.header_len + len in
          if c.rlen - off < total then Ok off
          else begin
            on_frame kind id c.rbuf (off + Protocol.header_len) len;
            frames (off + total)
          end
  in
  let closed = read () in
  match frames 0 with
  | Error _ as e -> e
  | Ok off -> (
      Bytes.blit c.rbuf off c.rbuf 0 (c.rlen - off);
      c.rlen <- c.rlen - off;
      match closed with Some msg -> Error msg | None -> Ok ())

let wait c ~timeout =
  let w = if pending c then [ c.fd ] else [] in
  match Unix.select [ c.fd ] w [] (Float.max 0.0 timeout) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* [request c ~id frame] — send one encoded frame and wait for the
   reply that carries [id]. *)
let request c ?(timeout = 60.0) ~id frame =
  queue c frame;
  let deadline = Util.now () +. timeout in
  let reply = ref None in
  let on_frame kind fid buf off len =
    if fid = id then reply := Some (kind, Bytes.sub_string buf off len)
  in
  let rec loop () =
    match !reply with
    | Some r -> Ok r
    | None -> (
        if Util.now () > deadline then Error "timed out waiting for a reply"
        else begin
          wait c ~timeout:(deadline -. Util.now ());
          flush c;
          match drain c ~on_frame with
          | Error _ as e when !reply = None -> e
          | Error _ | Ok () -> loop ()
        end)
  in
  loop ()

(* [call c kind payload] — one synchronous request (ping, metrics,
   shutdown, warm-up), with an id no stream index reaches. *)
let call c ?timeout kind payload =
  let id = 0x7fffffff in
  request c ?timeout ~id (Protocol.encode { Protocol.id; kind; payload })

(* -- reply store --------------------------------------------------------------- *)

(* Replies of a timed phase, kept without a heap block per reply (one
   growing byte arena plus int arrays) so that holding tens of
   thousands of them does not make the driver's own GC pause the
   measurement.  They are checked after the phase. *)
type replies = {
  kinds : int array;  (** frame kind code; -1 = no reply *)
  offs : int array;
  lens : int array;
  mutable arena : Bytes.t;
  mutable used : int;
}

let replies n ~bytes =
  { kinds = Array.make n (-1); offs = Array.make n 0; lens = Array.make n 0;
    arena = Bytes.create bytes; used = 0 }

let store r i kind buf off len =
  if r.used + len > Bytes.length r.arena then begin
    let bigger = Bytes.create (2 * (r.used + len)) in
    Bytes.blit r.arena 0 bigger 0 r.used;
    r.arena <- bigger
  end;
  Bytes.blit buf off r.arena r.used len;
  r.kinds.(i) <- Protocol.kind_code kind;
  r.offs.(i) <- r.used;
  r.lens.(i) <- len;
  r.used <- r.used + len

let has_reply r i = r.kinds.(i) >= 0

let reply r i =
  if r.kinds.(i) < 0 then None
  else
    Option.map
      (fun k -> (k, Bytes.sub_string r.arena r.offs.(i) r.lens.(i)))
      (Protocol.kind_of_code r.kinds.(i))

(* -- open loop ------------------------------------------------------------------ *)

type phase = {
  sent : int;
  latencies : float array;  (** seconds from due time; [infinity] = failed *)
  lags : float array;  (** seconds the send ran late *)
  replies : replies;
  backlog : int;  (** replies still outstanding when the phase window ended *)
}

(* [open_loop c ~frames ~first ~rate ~duration ~grace] — send
   [frames.(first ..)] (cyclically) at [rate] for [duration] seconds,
   then wait up to [grace] seconds for the last replies.  Frame [j]
   carries id [j], so at most [Array.length frames] requests may be in
   one phase. *)
let open_loop c ~frames ~first ~rate ~duration ~grace =
  let nframes = Array.length frames in
  let n = min nframes (max 1 (int_of_float (rate *. duration))) in
  let slot i = (first + i) mod nframes in
  let index_of_slot = Array.make nframes (-1) in
  let latencies = Array.make n infinity and lags = Array.make n 0.0 in
  (* sized for the whole phase up front: growing the arena mid-phase
     would copy megabytes while requests are due *)
  let replies = replies n ~bytes:(n * 192) in
  let start = Util.now () +. 0.01 in
  let due i = start +. (float_of_int i /. rate) in
  let next = ref 0 and received = ref 0 and backlog = ref (-1) in
  let window_end = due n in
  let give_up = window_end +. grace in
  let failure = ref None in
  let on_frame kind id buf off len =
    let t = Util.now () in
    if id >= 0 && id < nframes then begin
      let i = index_of_slot.(id) in
      if i >= 0 && not (has_reply replies i) then begin
        store replies i kind buf off len;
        incr received;
        if kind = Protocol.Schedule_resp then latencies.(i) <- t -. due i
      end
    end
  in
  let buf = Buffer.create 65536 in
  while !failure = None && (!next < n || !received < !next) && Util.now () < give_up do
    let t = Util.now () in
    Buffer.clear buf;
    while !next < n && due !next <= t do
      let s = slot !next in
      index_of_slot.(s) <- !next;
      lags.(!next) <- t -. due !next;
      Buffer.add_string buf frames.(s);
      incr next
    done;
    if Buffer.length buf > 0 then queue c (Buffer.contents buf) else flush c;
    if !backlog < 0 && t >= window_end then backlog := !next - !received;
    let timeout = if !next < n then due !next -. Util.now () else give_up -. Util.now () in
    wait c ~timeout;
    match drain c ~on_frame with Error msg -> failure := Some msg | Ok () -> ()
  done;
  ( {
      sent = !next;
      latencies;
      lags;
      replies;
      backlog = (if !backlog < 0 then !next - !received else !backlog);
    },
    !failure )

(* -- saturation ------------------------------------------------------------- *)

(* [saturate c ~frames ~first ~window ~duration] — keep [window]
   requests in flight for [duration] seconds (a reply releases the next
   request), then collect the stragglers.  Returns the replies, the
   number sent, and the completion rate of each whole half second
   after the first one, once the daemon is saturated. *)
let saturate c ~frames ~first ~window ~duration =
  let nframes = Array.length frames in
  let slot i = (first + i) mod nframes in
  let index_of_slot = Array.make nframes (-1) in
  (* well above any rate a single connection reaches *)
  let cap = max window (int_of_float (duration *. 100_000.0)) in
  let replies = replies cap ~bytes:(1 lsl 22) in
  let next = ref 0 and received = ref 0 in
  let start = Util.now () in
  let stop = start +. duration in
  let buckets = Array.make (max 1 (int_of_float ((duration -. 0.5) /. 0.5))) 0 in
  let failure = ref None in
  let send () =
    let s = slot !next in
    index_of_slot.(s) <- !next;
    queue c frames.(s);
    incr next
  in
  let on_frame kind id buf off len =
    if id >= 0 && id < nframes && index_of_slot.(id) >= 0 then begin
      let i = index_of_slot.(id) in
      index_of_slot.(id) <- -1;
      store replies i kind buf off len;
      incr received;
      let t = Util.now () in
      let b = int_of_float ((t -. start -. 0.5) /. 0.5) in
      if t >= start +. 0.5 && b < Array.length buckets then buckets.(b) <- buckets.(b) + 1;
      if t < stop && !next < cap then send ()
    end
  in
  while !next < min window cap do
    send ()
  done;
  let give_up = stop +. 10.0 in
  while !failure = None && !received < !next && Util.now () < give_up do
    wait c ~timeout:0.05;
    flush c;
    match drain c ~on_frame with Error msg -> failure := Some msg | Ok () -> ()
  done;
  (replies, !next, Array.to_list (Array.map (fun n -> float_of_int n /. 0.5) buckets), !failure)
