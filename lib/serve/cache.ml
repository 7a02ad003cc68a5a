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
   The kernel's [name] and [description] are deliberately excluded.
   Written straight into the buffer with the IR's text writers, so a
   request's key costs no [Format]; the bytes are those of the
   [Format] renderer it replaced, which the tests keep as the oracle. *)
let write_kernel_content buf (k : Grip.Kernel.t) =
  let add = Buffer.add_string buf and sep () = Buffer.add_char buf ';' in
  let ops which l =
    add which;
    Buffer.add_char buf ':';
    List.iter
      (fun op ->
        Vliw_ir.Operation.write_kind buf op;
        sep ())
      l
  in
  ops "pre" k.Grip.Kernel.pre;
  ops "body" k.Grip.Kernel.body;
  add "ivar=";
  add (Vliw_ir.Reg.to_string k.Grip.Kernel.ivar);
  add ";step=";
  add (Int.to_string k.Grip.Kernel.step);
  add ";bound=";
  add (Vliw_ir.Operand.to_string k.Grip.Kernel.bound);
  sep ();
  List.iter
    (fun r ->
      add "obs=";
      add (Vliw_ir.Reg.to_string r);
      sep ())
    k.Grip.Kernel.observable;
  List.iter
    (fun (sym, n) ->
      add "arr=";
      add sym;
      Buffer.add_char buf '[';
      add (Int.to_string n);
      add "];")
    k.Grip.Kernel.arrays;
  List.iter
    (fun (r, v) ->
      add "param=";
      add (Vliw_ir.Reg.to_string r);
      Buffer.add_char buf '=';
      add (Vliw_ir.Value.to_string v);
      sep ())
    k.Grip.Kernel.params

(** [kernel_key kernel] — digest of the lowered kernel content alone
    (no FU count, no technique), shared by every request that lowers to
    the same scheduling problem whatever machine it targets: the
    identity to dedupe kernel sources by. *)
let kernel_key (k : Grip.Kernel.t) =
  let buf = Buffer.create 512 in
  write_kernel_content buf k;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** [key ~fus ~method_ kernel] — the content address: a digest over
    the kernel's lowered form and the machine/technique pair.  The
    kernel's [name] and [description] are deliberately excluded. *)
let key ~fus ~method_ (k : Grip.Kernel.t) =
  let buf = Buffer.create 512 in
  write_kernel_content buf k;
  Buffer.add_string buf "fus=";
  Buffer.add_string buf (Int.to_string fus);
  Buffer.add_string buf ";method=";
  Buffer.add_string buf method_;
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
