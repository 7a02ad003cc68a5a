(* Host speed reference.

   The benchmark shares its host with other tenants, and the host's
   speed drifts with their load: on a 2-vCPU Xeon VM, one Table 1 sweep
   took 11-22 s of wall time within an hour, and a wall-clock version
   of this benchmark spread by 29-40% of its median over ten runs.  A wall-clock time of
   the program carries that drift whole.  So a fixed piece of
   benchmark-owned work, the reference, is timed between the measured
   items (Table 1 cells, cold requests, set-ups), and an item's time is
   reported at reference speed: multiplied by [nominal_s /. r], where
   [r] is the mean time of the references taken around it.  The
   reference mixes what the scheduler spends its time on: short-lived
   allocation, a balanced map, a hash table, and trees that survive
   minor collections and are then dropped for the major collector.

   The reference runs in a child forked before the workload starts,
   over a pair of pipes, so its heap is its own: nothing the program
   allocates or keeps alive changes the work it times, and a change
   to the program moves the scaled time by the same factor as the
   wall time. *)

module IM = Map.Make (Int)

type tree = Leaf of int | Node of tree * int * tree

let work () =
  let m = ref IM.empty in
  for i = 0 to 9999 do
    m := IM.add ((i * 7919) land 16383) i !m
  done;
  let h = Hashtbl.create 16 in
  IM.iter (fun k v -> Hashtbl.replace h (k, v) [ v; k ]) !m;
  let rec build d = if d = 0 then Leaf d else Node (build (d - 1), d, build (d - 1)) in
  let rec sum = function Leaf x -> x | Node (a, d, b) -> sum a + d + sum b in
  let acc = ref (Hashtbl.length h) in
  for _ = 1 to 2 do
    acc := !acc + sum (build 14)
  done;
  !acc

(* The reference's time at reference speed: about its time on that VM
   when no other tenant is busy (5-6 ms), so that scaled times read
   close to wall times on a quiet host. *)
let nominal_s = 0.006

type t = {
  pid : int;
  req : Unix.file_descr;
  resp : Unix.file_descr;
  buf : Bytes.t;
  mutable samples : float list;
}

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | n -> really_read fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len

let rec really_write fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> really_write fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf off len

(* The child: one reference per byte received, its time sent back;
   it exits when the parent closes the request pipe.  [_exit], so the
   parent's [at_exit] handlers (which stop its daemons) never run
   here. *)
let serve req resp =
  let buf = Bytes.create 8 in
  (try
     while true do
       really_read req buf 0 1;
       let t0 = Util.now () in
       ignore (Sys.opaque_identity (work ()));
       Bytes.set_int64_le buf 0 (Int64.bits_of_float (Util.now () -. t0));
       really_write resp buf 0 8
     done
   with _ -> ());
  Unix._exit 0

(* [measure t] — seconds the reference took, run now in the child. *)
let measure t =
  really_write t.req t.buf 0 1;
  really_read t.resp t.buf 0 8;
  let r = Int64.float_of_bits (Bytes.get_int64_le t.buf 0) in
  t.samples <- r :: t.samples;
  r

(* Fork the child (before the workload allocates, so the child's heap
   starts small) and run the reference a few times untimed. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      serve req_r resp_w
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      let t = { pid; req = req_w; resp = resp_r; buf = Bytes.create 8; samples = [] } in
      for _ = 1 to 5 do
        ignore (measure t)
      done;
      t.samples <- [];
      t

let stop t =
  (try Unix.close t.req with Unix.Unix_error _ -> ());
  (try Unix.close t.resp with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()

(* [with_pace f] — [f] with a running reference child, stopped and
   waited for on every way out; then a row with the reference times,
   whose spread is the host's. *)
let with_pace f =
  let t = start () in
  let x = Fun.protect ~finally:(fun () -> stop t) (fun () -> f t) in
  Util.row "pace reference_ms n=%d min=%.3f p50=%.3f max=%.3f nominal=%.3f"
    (List.length t.samples)
    (1e3 *. Util.quantile t.samples 0.0)
    (1e3 *. Util.median t.samples)
    (1e3 *. Util.quantile t.samples 1.0)
    (1e3 *. nominal_s);
  x

(* [scale r wall] — [wall] seconds at reference speed, where the
   reference took [r] seconds at the time. *)
let scale r wall = wall *. nominal_s /. r

(* [timed t f] — [f ()], its wall seconds, and those seconds at
   reference speed. *)
let timed t f =
  let before = measure t in
  let t0 = Util.now () in
  let x = f () in
  let wall = Util.now () -. t0 in
  (x, wall, scale ((before +. measure t) /. 2.0) wall)

(* Items of a series are scaled by the mean of the references within
   [half] items of theirs (2 * half + 2 of them): one reference sample
   varies by 10-20% on its own, and a single slow one next to a 2 s
   cell would otherwise move a whole sweep. *)
let half = 3

(* [series t n ~prepare ~finish f] — for i = 0 .. n-1 in turn: an
   untimed [prepare i], a reference, the timed [f i], and an untimed
   [finish i] of its result, given with its wall and reference-speed
   seconds; a last reference closes the series. *)
let series t n ~prepare ~finish f =
  let refs = Array.make (n + 1) 0.0 and walls = Array.make n 0.0 in
  let xs =
    Array.init n (fun i ->
        prepare i;
        refs.(i) <- measure t;
        let t0 = Util.now () in
        let x = f i in
        walls.(i) <- Util.now () -. t0;
        finish i x)
  in
  refs.(n) <- measure t;
  let near i =
    let lo = max 0 (i - half) and hi = min n (i + 1 + half) in
    Util.mean (Array.to_list (Array.sub refs lo (hi - lo + 1)))
  in
  Array.mapi (fun i x -> (x, walls.(i), scale (near i) walls.(i))) xs
