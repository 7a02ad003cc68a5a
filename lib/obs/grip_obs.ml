(** Observability for the GRiP stack: typed tracing into a ring
    ({!Trace}), counters / HDR histograms ({!Hdr}) / timings
    ({!Metrics}), per-operation
    provenance journals ({!Provenance}), the post-schedule bottleneck
    analyzer ({!Bottleneck}), and the minimal JSON layer they all
    share ({!Json}).

    A {!t} bundles one tracer, one metrics registry and one provenance
    recorder, and is threaded through the percolation context
    ([Vliw_percolation.Ctx]) and the pipeline drivers.  {!null} — the
    default everywhere — disables all three: instrumented hot paths
    guard on [enabled] so an unobserved run pays a boolean test per
    site and nothing else. *)

module Json = Json
module Trace = Trace
module Metrics = Metrics
module Provenance = Provenance
module Bottleneck = Bottleneck
module Runtime = Runtime
module Trace_file = Trace_file
module Profile = Profile
module Hdr = Hdr
module Openmetrics = Openmetrics

type t = { trace : Trace.t; metrics : Metrics.t; prov : Provenance.t }

let null =
  { trace = Trace.null; metrics = Metrics.disabled; prov = Provenance.null }

let make ?(trace = Trace.null) ?(metrics = Metrics.disabled)
    ?(prov = Provenance.null) () =
  { trace; metrics; prov }

let enabled t =
  Trace.enabled t.trace || Metrics.enabled t.metrics
  || Provenance.enabled t.prov

(** [allocated_bytes ()] — the bytes this domain has allocated so
    far, exact to the word: the minor words from [Gc.minor_words], plus
    the words allocated directly in the major heap, less those promoted
    there from the minor heap (counted twice otherwise).  The major and
    promoted terms come from [Gc.counters], which counts a direct major
    allocation at once ([Gc.quick_stat]'s major term does not).  On
    OCaml 5.1, [Gc.counters]' own minor term and [Gc.allocated_bytes]
    count the part of the minor heap allocated since the last minor
    collection at one eighth and make up the rest at the next one, so a
    span read through them follows where collections fall, not what it
    allocated (DESIGN.md §37). *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(** [timed t phase f] — run [f] inside a [phase] span, accumulate its
    wall time under [phase.<name>], and return (result, seconds).  The
    timing pair is returned even when [t] is {!null}, so drivers can
    report per-phase seconds without enabling observability.

    When metrics are enabled, the span boundaries also sample the
    domain-local GC and accumulate the deltas under
    [gc.alloc_bytes.phase.<name>] (read by {!allocated_bytes}),
    [gc.minor.phase.<name>] and [gc.major.phase.<name>] (collections,
    from [Gc.quick_stat]), plus the [gc.top_heap_words] high-water
    gauge.  Valid per phase because a task runs entirely on one domain;
    on the null registry the extra cost is the existing boolean
    test. *)
let timed t phase f =
  Trace.emit t.trace (Trace.Span_begin phase);
  let sample = Metrics.enabled t.metrics in
  let q0 = if sample then Some (Gc.quick_stat ()) else None in
  let a0 = if sample then allocated_bytes () else 0.0 in
  let t0 = Unix.gettimeofday () in
  let finish () = Unix.gettimeofday () -. t0 in
  let record dt =
    Trace.emit t.trace (Trace.Span_end phase);
    let name = Trace.phase_name phase in
    Metrics.add_time t.metrics ("phase." ^ name) dt;
    match q0 with
    | None -> ()
    | Some q0 ->
        let a1 = allocated_bytes () in
        let q1 = Gc.quick_stat () in
        Metrics.add t.metrics ("gc.alloc_bytes.phase." ^ name)
          (int_of_float (a1 -. a0));
        Metrics.add t.metrics ("gc.minor.phase." ^ name)
          (q1.Gc.minor_collections - q0.Gc.minor_collections);
        Metrics.add t.metrics ("gc.major.phase." ^ name)
          (q1.Gc.major_collections - q0.Gc.major_collections);
        Metrics.gauge_max t.metrics "gc.top_heap_words"
          (float_of_int q1.Gc.top_heap_words)
  in
  match f () with
  | v ->
      let dt = finish () in
      record dt;
      (v, dt)
  | exception e ->
      let dt = finish () in
      record dt;
      raise e
