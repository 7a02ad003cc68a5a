(** Growable int arrays with explicit lengths.

    The flat-IR stores ([Program]'s per-node op-id sequences) are
    [Iarr.t]s held in an [Itbl]: reads never allocate, appends amortise
    to O(1), and a freed node's buffers go back to an arena pool
    instead of the minor heap.

    A single shared {!sentinel} (empty, zero-capacity) serves as the
    [Itbl] default so absent entries can be iterated without an option
    box.  The sentinel must never be mutated — [push] raises if handed
    it; writers must install a real instance first (see [Program]'s
    [seq_for] helpers). *)

type t = { mutable a : int array; mutable len : int }

let sentinel = { a = [||]; len = 0 }

let create ?(capacity = 8) () = { a = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(** [unsafe_get] skips the bounds check — for hot loops that already
    iterate [0 .. length - 1]. *)
let unsafe_get t i = Array.unsafe_get t.a i

let push t v =
  if t == sentinel then invalid_arg "Iarr.push: sentinel";
  let cap = Array.length t.a in
  if t.len >= cap then begin
    let a = Array.make (max 8 (2 * cap)) 0 in
    Array.blit t.a 0 a 0 cap;
    t.a <- a
  end;
  Array.unsafe_set t.a t.len v;
  t.len <- t.len + 1

let clear t = t.len <- 0

(** [remove_first t v] deletes the first occurrence of [v], shifting
    the tail left (order-preserving).  Returns [true] when found. *)
let remove_first t v =
  let n = t.len in
  let rec find i = if i >= n then -1 else if t.a.(i) = v then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then false
  else begin
    Array.blit t.a (i + 1) t.a i (n - i - 1);
    t.len <- n - 1;
    true
  end

let mem t v =
  let n = t.len in
  let rec go i = i < n && (Array.unsafe_get t.a i = v || go (i + 1)) in
  go 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.a i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.a i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get t.a i :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.a 0 t.len
