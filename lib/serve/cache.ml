(** Content-addressed schedule cache.

    The daemon keys cached schedules by {e what is being scheduled},
    not what it is called: the key digests the lowered IR of the kernel
    (preamble and body operation kinds, induction/step/bound,
    observables, arrays, parameters) together with the machine
    configuration and the requested technique.  Two requests that
    lower to the same scheduling problem — a named Livermore kernel
    and the same loop submitted as minic source — therefore share one
    cache line, while renaming a kernel cannot poison a hit.

    Eviction is LRU over a fixed capacity; hits, misses and evictions
    are the caller's to count (the daemon surfaces them as
    [serve.cache.*] counters in the OpenMetrics exposition). *)

type entry = {
  rung : string;  (** winning degradation-ladder rung *)
  digest : string;  (** {!schedule_digest} of the served program *)
  speedup : float;
  mutable last_use : int;  (** LRU clock reading *)
  inserted_at : float;  (** wall clock, for the age gauge *)
  entry_bytes : int;
      (** resident heap bytes of this line {e including} its key and
          metadata (measured with [Obj.reachable_words] at insert —
          the record is immutable apart from the LRU clock, so the
          figure stays exact) *)
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable resident_bytes : int;
      (** sum of [entry_bytes] over the table — the [cache.bytes]
          gauge.  Counting entries alone understates pressure: the key
          strings and per-entry metadata dominate for small digests *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  { capacity; tbl = Hashtbl.create (2 * capacity); clock = 0; resident_bytes = 0 }

let size t = Hashtbl.length t.tbl
let bytes t = t.resident_bytes

let word_bytes = Sys.word_size / 8

(** [measure_bytes v] — resident heap bytes reachable from [v]
    (shared substructure is counted once per call, so measuring the
    [(key, entry)] pair charges the line its key and metadata too). *)
let measure_bytes v = (1 + Obj.reachable_words (Obj.repr v)) * word_bytes

(* The content address of the lowered kernel alone: everything that
   determines the scheduling problem except the machine and technique.
   The kernel's [name] and [description] are deliberately excluded. *)
let kernel_content ppf (k : Grip.Kernel.t) =
  let ops which l =
    Format.fprintf ppf "%s:" which;
    List.iter (fun op -> Format.fprintf ppf "%a;" Vliw_ir.Operation.pp_kind op) l
  in
  ops "pre" k.Grip.Kernel.pre;
  ops "body" k.Grip.Kernel.body;
  Format.fprintf ppf "ivar=%a;step=%d;bound=%a;" Vliw_ir.Reg.pp
    k.Grip.Kernel.ivar k.Grip.Kernel.step Vliw_ir.Operand.pp
    k.Grip.Kernel.bound;
  List.iter
    (fun r -> Format.fprintf ppf "obs=%a;" Vliw_ir.Reg.pp r)
    k.Grip.Kernel.observable;
  List.iter
    (fun (sym, n) -> Format.fprintf ppf "arr=%s[%d];" sym n)
    k.Grip.Kernel.arrays;
  List.iter
    (fun (r, v) ->
      Format.fprintf ppf "param=%a=%a;" Vliw_ir.Reg.pp r Vliw_ir.Value.pp v)
    k.Grip.Kernel.params

(** [kernel_key kernel] — digest of the lowered kernel content alone
    (no FU count, no technique), shared by every request that lowers to
    the same scheduling problem whatever machine it targets: the
    identity to dedupe kernel sources by. *)
let kernel_key (k : Grip.Kernel.t) =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  kernel_content ppf k;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** [key ~fus ~method_ kernel] — the content address: a digest over
    the kernel's lowered form and the machine/technique pair.  The
    kernel's [name] and [description] are deliberately excluded. *)
let key ~fus ~method_ (k : Grip.Kernel.t) =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  kernel_content ppf k;
  Format.fprintf ppf "fus=%d;method=%s" fus method_;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** [schedule_digest program] — hex digest of the fully rendered
    schedule (every node, operation, guard and conditional tree): the
    byte-identity contract between the daemon and the offline
    [grip schedule --digest] path. *)
let schedule_digest program =
  let buf = Buffer.create 8192 in
  Vliw_ir.Program.write buf program;
  Buffer.add_char buf '\n';
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** [find t key] — the cached entry, refreshing its LRU position. *)
let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some e ->
      t.clock <- t.clock + 1;
      e.last_use <- t.clock;
      Some e

(** [add t key ~rung ~digest ~speedup ~now] — insert (or refresh) an
    entry, evicting the least recently used line when over capacity.
    Returns the number of evictions performed (0 or 1). *)
let add t key ~rung ~digest ~speedup ~now =
  t.clock <- t.clock + 1;
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
      t.resident_bytes <- t.resident_bytes - old.entry_bytes;
      Hashtbl.remove t.tbl key
  | None -> ());
  let e =
    {
      rung;
      digest;
      speedup;
      last_use = t.clock;
      inserted_at = now;
      entry_bytes = 0;
    }
  in
  let e = { e with entry_bytes = measure_bytes (key, e) } in
  t.resident_bytes <- t.resident_bytes + e.entry_bytes;
  Hashtbl.replace t.tbl key e;
  if Hashtbl.length t.tbl <= t.capacity then 0
  else begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.last_use <= e.last_use -> acc
          | _ -> Some (k, e))
        t.tbl None
    in
    match victim with
    | Some (k, v) ->
        t.resident_bytes <- t.resident_bytes - v.entry_bytes;
        Hashtbl.remove t.tbl k;
        1
    | None -> 0
  end

(** [oldest_age t ~now] — seconds since the oldest resident entry was
    inserted; 0 on an empty cache.  Exposed as the [serve.cache.age]
    gauge. *)
let oldest_age t ~now =
  Hashtbl.fold
    (fun _ e acc -> Float.max acc (now -. e.inserted_at))
    t.tbl 0.0
