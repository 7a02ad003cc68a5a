(** Log-linear HDR-style histograms with a bounded relative error: the
    one histogram type.  Every {!Metrics} histogram is one, and so is
    every latency surface the CLI and the daemon print.

    Every recorded value lands in a sub-bucket whose width is at most
    [2^(1-precision)] of its lower bound, so any quantile read back
    from the histogram is within that relative error of the exact
    nearest-rank quantile of the recorded multiset — without keeping
    the samples.  The configuration is fixed: {!precision} 7 (relative
    error 1/64 ≈ 1.6%) and values up to {!max_value_cap} = 2^30
    (≈ 17.9 minutes in microseconds).  Layout:

    - bucket 0 covers [0, 128) with 128 unit sub-buckets (this region
      is {e exact}: a small count, such as hops per migration, is
      counted per value);
    - bucket [i >= 1] covers [2^(6+i), 2^(7+i)) with 64 sub-buckets of
      width [2^i].

    The count array starts at the exact region and grows on demand to
    the highest bucket recorded.  Values are non-negative integers:
    negative values clamp to 0, values above {!max_value_cap} saturate
    into its sub-bucket (the true maximum is still tracked exactly).

    Two histograms {!merge} by adding their count arrays.  The merge is
    {e exact} and cannot fail: the merged histogram is
    indistinguishable from one that recorded the concatenated
    multisets, which is what lets per-worker registries collapse into
    one service-wide quantile surface. *)

let precision = 7
let max_value_cap = 1 lsl 30

(* the exact region's size, and the sub-buckets of every later bucket *)
let exact = 1 lsl precision
let half = 1 lsl (precision - 1)

type t = {
  mutable counts : int array;  (** grows on demand, a multiple of [half] *)
  mutable n : int;
  mutable sum : int;  (** sum of recorded (clamped) values *)
  mutable vmax : int;  (** exact maximum recorded, pre-saturation *)
  mutable vmin : int;  (** exact minimum recorded (after 0-clamp) *)
}

let create () =
  { counts = Array.make exact 0; n = 0; sum = 0; vmax = 0; vmin = max_int }

(** Guaranteed relative quantile error: [2^(1-precision)]. *)
let rel_error = 2.0 ** float_of_int (1 - precision)

(* position of the highest set bit + 1; [bits 0 = 0] *)
let bits v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index v =
  if v < exact then v
  else
    let i = bits v - precision in
    exact + ((i - 1) * half) + ((v - (1 lsl (precision + i - 1))) lsr i)

(* [lower, upper] value bounds (inclusive) of sub-bucket [idx] *)
let bounds idx =
  if idx < exact then (idx, idx)
  else
    let i = 1 + ((idx - exact) / half) in
    let off = (idx - exact) mod half in
    let lower = (1 lsl (precision + i - 1)) + (off lsl i) in
    (lower, lower + (1 lsl i) - 1)

(* Widen [t.counts] to the end of the bucket holding [idx]. *)
let grow t idx =
  let a = Array.make (((idx / half) + 1) * half) 0 in
  Array.blit t.counts 0 a 0 (Array.length t.counts);
  t.counts <- a

(** [record_n t v k] — [k > 0] observations of [v], in one add. *)
let record_n t v k =
  let v = if v < 0 then 0 else v in
  if v > t.vmax then t.vmax <- v;
  if v < t.vmin then t.vmin <- v;
  let clamped = if v > max_value_cap then max_value_cap else v in
  let idx = index clamped in
  if idx >= Array.length t.counts then grow t idx;
  t.counts.(idx) <- t.counts.(idx) + k;
  t.n <- t.n + k;
  t.sum <- t.sum + (k * clamped)

let record t v = record_n t v 1
let count t = t.n
let max_value t = if t.n = 0 then 0 else t.vmax
let min_value t = if t.n = 0 then 0 else t.vmin
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

(** [quantile t q] — the nearest-rank [q]-quantile (rank [ceil (q*n)],
    clamped to [1, n]).  Returns the upper bound of the sub-bucket the
    ranked value fell into (capped at the exact maximum), so the
    estimate [e] of an exact value [x] satisfies
    [x <= e <= x * (1 + rel_error)] — the property the test suite
    pins. *)
let quantile t q =
  if t.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      max 1 (min t.n r)
    in
    let rec go idx seen =
      let seen = seen + t.counts.(idx) in
      if seen >= rank then min (snd (bounds idx)) t.vmax
      else go (idx + 1) seen
    in
    go 0 0
  end

(** [merge ~into src] — fold [src]'s counts into [into]; exact (see
    module doc). *)
let merge ~into src =
  let len = Array.length src.counts in
  if len > Array.length into.counts then grow into (len - 1);
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.vmax > into.vmax then into.vmax <- src.vmax;
    if src.vmin < into.vmin then into.vmin <- src.vmin
  end

(** [buckets t] — the non-empty sub-buckets as (inclusive lower bound,
    inclusive upper bound, count) in ascending order; the OpenMetrics
    exposition renders them as cumulative [le] buckets, the registry
    dump as one entry per value range. *)
let buckets t =
  let acc = ref [] in
  for idx = Array.length t.counts - 1 downto 0 do
    if t.counts.(idx) > 0 then
      let lo, hi = bounds idx in
      acc := (lo, hi, t.counts.(idx)) :: !acc
  done;
  !acc

(* -- nearest-rank over raw samples ---------------------------------------- *)

(** [nearest_rank sorted q] — the exact nearest-rank quantile of an
    ascending-sorted array: element at rank [ceil (q * n)] (1-based,
    clamped to [1, n]); 0 on the empty array.  This is the definition
    the histogram's {!quantile} approximates. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      max 1 (min n r)
    in
    sorted.(rank - 1)
  end

let pp ppf t =
  Format.fprintf ppf
    "n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d p999=%d max=%d (rel.err \
     %.2f%%)"
    t.n (mean t) (min_value t) (quantile t 0.50) (quantile t 0.90)
    (quantile t 0.99) (quantile t 0.999) (max_value t)
    (100.0 *. rel_error)
