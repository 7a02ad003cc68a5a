(* Service observability plane: frame codec properties, HDR histogram
   error-bound and merge-law properties, OpenMetrics render/parse,
   cache LRU behaviour, the structured obs-merge degradation, the pure
   open-loop arrival schedule, and an in-process loopback smoke of the
   daemon itself. *)

module Protocol = Grip_serve.Protocol
module Cache = Grip_serve.Cache
module Server = Grip_serve.Server
module Client = Grip_serve.Client
module Loadgen = Grip_serve.Loadgen
module Hdr = Grip_obs.Hdr
module Metrics = Grip_obs.Metrics
module Openmetrics = Grip_obs.Openmetrics
module Grip_error = Grip_robust.Grip_error

(* -- frame codec ----------------------------------------------------------- *)

let kinds =
  [
    Protocol.Schedule_req; Protocol.Metrics_req; Protocol.Ping_req;
    Protocol.Shutdown_req; Protocol.Schedule_resp; Protocol.Metrics_resp;
    Protocol.Pong_resp; Protocol.Shutdown_resp; Protocol.Error_resp;
  ]

let frame_gen =
  QCheck2.Gen.(
    let* id = int_range 0 0xFFFFFFFF in
    let* kind = oneofl kinds in
    let* payload = string_size (int_range 0 200) in
    return { Protocol.id; kind; payload })

let print_frame (f : Protocol.frame) =
  Printf.sprintf "{id=%d; kind=%s; payload=%S}" f.Protocol.id
    (Protocol.kind_name f.Protocol.kind)
    f.Protocol.payload

let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"frame encode/decode roundtrip" ~count:500
    ~print:print_frame frame_gen (fun f ->
      match Protocol.decode (Protocol.encode f) with
      | Ok f' -> f = f'
      | Error _ -> false)

let prop_frame_truncated =
  QCheck2.Test.make ~name:"truncated frames are rejected" ~count:200
    ~print:print_frame frame_gen (fun f ->
      let s = Protocol.encode f in
      (* every strict prefix must fail to decode as a whole frame *)
      List.for_all
        (fun cut -> Result.is_error (Protocol.decode (String.sub s 0 cut)))
        [ 0; 1; Protocol.header_len - 1; String.length s - 1 ]
      (* decode requires the exact frame: trailing garbage also fails *)
      && Result.is_error (Protocol.decode (s ^ "x")))

let oversized_rejected () =
  let s = Protocol.encode { Protocol.id = 7; kind = Protocol.Ping_req; payload = "" } in
  let b = Bytes.of_string s in
  Bytes.set_int32_be b 8 (Int32.of_int (Protocol.max_payload + 1));
  (match Protocol.decode_header (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length accepted");
  (* bad magic, bad version, unknown kind *)
  let patch i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Protocol.decode_header (Bytes.to_string b)
  in
  Alcotest.(check bool) "bad magic" true (Result.is_error (patch 0 'X'));
  Alcotest.(check bool) "bad version" true (Result.is_error (patch 2 '\007'));
  Alcotest.(check bool) "unknown kind" true (Result.is_error (patch 3 '\042'))

let request_roundtrip () =
  let r =
    { Protocol.kernel = Some "LL3"; source = None; fus = 8; method_ = "post" }
  in
  let back =
    Protocol.request_of_payload
      (Grip_obs.Json.to_string (Protocol.request_to_json r))
  in
  Alcotest.(check bool) "roundtrip" true (back = Ok r);
  let neither =
    Protocol.request_of_payload {|{"fus": 4, "method": "grip"}|}
  in
  Alcotest.(check bool) "neither kernel nor source rejected" true
    (Result.is_error neither);
  let both =
    Protocol.request_of_payload
      {|{"kernel": "LL1", "source": "x", "fus": 4, "method": "grip"}|}
  in
  Alcotest.(check bool) "both kernel and source rejected" true
    (Result.is_error both)

(* -- malformed wire input ---------------------------------------------------- *)

(* Frames of every kind with the payloads the daemon and its clients
   exchange: what the mutation property starts from. *)
let valid_frames =
  let request r = Grip_obs.Json.to_string (Protocol.request_to_json r) in
  List.mapi
    (fun id (kind, payload) -> Protocol.encode { Protocol.id; kind; payload })
    [
      ( Protocol.Schedule_req,
        request { Protocol.kernel = Some "LL3"; source = None; fus = 4; method_ = "grip" } );
      ( Protocol.Schedule_req,
        request
          {
            Protocol.kernel = None;
            source = Some "kernel k { array x[64]; for k = 1 to n { x[k] = x[k] + 1.0; } }";
            fus = 2;
            method_ = "post";
          } );
      ( Protocol.Schedule_resp,
        Grip_obs.Json.to_string
          (Protocol.reply_to_json
             {
               Protocol.rkernel = "LL3";
               rung = "GRiP";
               digest = "0123456789abcdef0123456789abcdef";
               cache = "miss";
               speedup = 4.8;
               wall_ms = 1.25;
             }) );
      (Protocol.Error_resp, Protocol.error_payload ~stage:"serve" "bad \"frame\"");
      (Protocol.Metrics_resp, {|{"text":"# TYPE x counter\nx_total 1\n"}|});
      (Protocol.Ping_req, "");
    ]

(* One byte of [s] replaced, inserted or deleted at [i] (modulo its
   length). *)
let mutate s (i, c, how) =
  let n = String.length s in
  match how with
  | 0 when n > 0 -> String.mapi (fun j d -> if j = i mod n then c else d) s
  | 1 ->
      let i = i mod (n + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | _ when n > 0 ->
      let i = i mod n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | _ -> s

(* Random bytes, or a valid frame with one to four bytes mutated. *)
let wire_gen =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 64);
        (let* frame = oneofl valid_frames
         and* edits =
           list_size (int_range 1 4) (triple (int_bound 4096) char (int_bound 2))
         in
         return (List.fold_left mutate frame edits));
      ])

(* The wire boundary answers every input without raising: [decode]
   returns [Ok] or [Error], and so do the payload readers, on a decoded
   frame's payload and on the raw bytes alike ([error_of_payload]
   always answers a pair). *)
let prop_malformed_wire =
  QCheck2.Test.make ~name:"malformed wire input: Ok or Error" ~count:3000
    ~print:String.escaped wire_gen (fun s ->
      let payloads =
        match Protocol.decode s with
        | Ok f -> [ f.Protocol.payload; s ]
        | Error _ -> [ s ]
      in
      List.for_all
        (fun p ->
          ignore (Protocol.error_of_payload p);
          (match Protocol.request_of_payload p with Ok _ | Error _ -> true)
          && match Protocol.reply_of_payload p with Ok _ | Error _ -> true)
        payloads)

(* A payload of nothing but [[], as long as a frame may carry: the
   parser stops at the first bracket past [Json.max_depth], and the
   error names the depth.  Nesting [max_depth] deep still parses. *)
let deep_payload_rejected () =
  let deep = String.make Protocol.max_payload '[' in
  (match Protocol.request_of_payload deep with
  | Ok _ -> Alcotest.fail "a 1 MiB nest was accepted"
  | Error msg ->
      Alcotest.(check string) "stopped at the bound"
        (Printf.sprintf
           "request payload is not JSON: nesting deeper than %d levels at offset %d"
           Grip_obs.Json.max_depth Grip_obs.Json.max_depth)
        msg);
  let nest k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "max_depth levels parse" true
    (Result.is_ok (Grip_obs.Json.parse (nest Grip_obs.Json.max_depth)));
  Alcotest.(check bool) "one more does not" true
    (Result.is_error (Grip_obs.Json.parse (nest (Grip_obs.Json.max_depth + 1))))

(* -- HDR histogram ---------------------------------------------------------- *)

let samples_gen =
  QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 (1 lsl 22)))

let print_samples l = QCheck2.Print.(list int) l

(* the estimate of the nearest-rank quantile must satisfy
   x <= est <= x * (1 + rel_error) *)
let prop_hdr_error_bound =
  QCheck2.Test.make ~name:"hdr quantile within relative error bound"
    ~count:300 ~print:print_samples samples_gen (fun samples ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) samples;
      let sorted = Array.of_list (List.map float_of_int samples) in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let exact = Hdr.nearest_rank sorted q in
          let est = float_of_int (Hdr.quantile h q) in
          exact <= est && est <= (exact *. (1.0 +. Hdr.rel_error)) +. 1e-9)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* merging two histograms is indistinguishable from recording the
   concatenated multiset *)
let prop_hdr_merge_law =
  QCheck2.Test.make ~name:"hdr merge equals concatenated recording"
    ~count:200
    ~print:(QCheck2.Print.pair print_samples print_samples)
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (a, b) ->
      let ha = Hdr.create () and hb = Hdr.create () and hab = Hdr.create () in
      List.iter (Hdr.record ha) a;
      List.iter (Hdr.record hb) b;
      List.iter (Hdr.record hab) (a @ b);
      Hdr.merge ~into:ha hb;
      Hdr.buckets ha = Hdr.buckets hab
      && Hdr.count ha = Hdr.count hab
      && Hdr.max_value ha = Hdr.max_value hab
      && Hdr.min_value ha = Hdr.min_value hab
      && List.for_all
           (fun q -> Hdr.quantile ha q = Hdr.quantile hab q)
           [ 0.5; 0.99; 0.999; 1.0 ])

(* The count array covers the exact region until a value needs more,
   then exactly the buckets up to that value's; a merge widens the
   target to the source. *)
let hdr_growth () =
  let h = Hdr.create () in
  Alcotest.(check int) "exact region" 128 (Array.length h.Hdr.counts);
  Hdr.record h 127;
  Alcotest.(check int) "127 is exact" 128 (Array.length h.Hdr.counts);
  Hdr.record h 1000;
  (* 1000 lies in [512, 1024), the third 64-sub-bucket band *)
  Alcotest.(check int) "grown to 1000's bucket" (128 + (3 * 64))
    (Array.length h.Hdr.counts);
  Hdr.record h (1 lsl 40);
  Alcotest.(check int) "saturation caps the array" (128 + (24 * 64))
    (Array.length h.Hdr.counts);
  Alcotest.(check int) "true maximum kept" (1 lsl 40) (Hdr.max_value h);
  let small = Hdr.create () in
  Hdr.merge ~into:small h;
  Alcotest.(check int) "merge widens" (Array.length h.Hdr.counts)
    (Array.length small.Hdr.counts);
  Alcotest.(check int) "merged quantile" (Hdr.quantile h 0.5)
    (Hdr.quantile small 0.5)

let nearest_rank_units () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (float 0.0)) "p25" 10.0 (Hdr.nearest_rank sorted 0.25);
  Alcotest.(check (float 0.0)) "p26 rounds up" 20.0 (Hdr.nearest_rank sorted 0.26);
  Alcotest.(check (float 0.0)) "p50" 20.0 (Hdr.nearest_rank sorted 0.50);
  Alcotest.(check (float 0.0)) "p100" 40.0 (Hdr.nearest_rank sorted 1.0);
  Alcotest.(check (float 0.0)) "q=0 clamps to rank 1" 10.0
    (Hdr.nearest_rank sorted 0.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Hdr.nearest_rank [||] 0.5)

(* -- worker registry merge ------------------------------------------------ *)

(* A worker's registry folds into the daemon's: counters add, and
   histograms whose values reach different magnitudes merge. *)
let metrics_merge_ok () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c";
  Metrics.incr b "c";
  Metrics.observe a "h" 3;
  Metrics.observe b "h" 5_000_000;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters added" 2 (Metrics.counter a "c");
  match Metrics.histogram a "h" with
  | Some h ->
      Alcotest.(check int) "histogram n" 2 (Hdr.count h);
      Alcotest.(check int) "histogram max" 5_000_000 (Hdr.max_value h)
  | None -> Alcotest.fail "merged histogram missing"

(* -- OpenMetrics ------------------------------------------------------------ *)

let openmetrics_roundtrip () =
  let m = Metrics.create () in
  Metrics.add m "serve.requests" 42;
  Metrics.add_time m "phase.schedule" 0.125;
  Metrics.gauge_set m "pool.queue_depth" 3.0;
  Metrics.observe m "pool.task_us" 3;
  List.iter (Metrics.observe m "serve.latency_us") [ 5; 50; 500; 5000 ];
  let text = Openmetrics.render m in
  (match Openmetrics.parse text with
  | Ok families -> Alcotest.(check bool) "families" true (families <> [])
  | Error msg -> Alcotest.fail ("exposition does not parse: " ^ msg));
  Alcotest.(check (list string))
    "exposition covers the registry" []
    (Openmetrics.covers m text);
  (* cumulative buckets at each sub-bucket's upper bound *)
  List.iter
    (fun sample ->
      Alcotest.(check bool) sample true
        (List.mem sample (String.split_on_char '\n' text)))
    [
      {|grip_serve_latency_us_bucket{le="5"} 1|};
      {|grip_serve_latency_us_bucket{le="50"} 2|};
      {|grip_serve_latency_us_bucket{le="503"} 3|};
      {|grip_serve_latency_us_bucket{le="5055"} 4|};
      {|grip_serve_latency_us_bucket{le="+Inf"} 4|};
      "grip_serve_latency_us_count 4";
    ];
  (* missing EOF and junk samples are rejected *)
  Alcotest.(check bool) "missing EOF rejected" true
    (Result.is_error (Openmetrics.parse "# TYPE grip_x counter\ngrip_x_total 1\n"));
  Alcotest.(check bool) "orphan sample rejected" true
    (Result.is_error (Openmetrics.parse "nosuch_total 1\n# EOF\n"))

(* -- cache ------------------------------------------------------------------ *)

let cache_lru () =
  let c = Cache.create ~capacity:2 in
  let add k =
    ignore (Cache.add c k ~rung:"GRiP" ~digest:k ~speedup:1.0 ~now:0.0)
  in
  add "a";
  add "b";
  (* touch a so b is the LRU victim *)
  Alcotest.(check bool) "a hits" true (Cache.find c "a" <> None);
  let evicted = Cache.add c "c" ~rung:"GRiP" ~digest:"c" ~speedup:1.0 ~now:0.0 in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find c "a" <> None);
  Alcotest.(check bool) "c resident" true (Cache.find c "c" <> None);
  Alcotest.(check int) "size bounded" 2 (Cache.size c)

let cache_key_content_addressed () =
  let e = List.hd Workloads.Livermore.all in
  let k = e.Workloads.Livermore.kernel in
  let renamed = { k with Grip.Kernel.name = "other-name" } in
  Alcotest.(check string) "rename does not change the key"
    (Cache.key ~fus:4 ~method_:"grip" k)
    (Cache.key ~fus:4 ~method_:"grip" renamed);
  Alcotest.(check bool) "fus changes the key" true
    (Cache.key ~fus:4 ~method_:"grip" k <> Cache.key ~fus:8 ~method_:"grip" k)

(* The cache keys' content text as it was rendered through [Format]
   before [Cache] wrote it into a buffer: the oracle the keys must keep
   matching byte for byte. *)
let format_kernel_content ppf (k : Grip.Kernel.t) =
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

let format_digest render =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  render ppf;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let format_kernel_key k = format_digest (fun ppf -> format_kernel_content ppf k)

let format_key ~fus ~method_ k =
  format_digest (fun ppf ->
      format_kernel_content ppf k;
      Format.fprintf ppf "fus=%d;method=%s" fus method_)

(* [key] and [kernel_key] against the [Format] oracle on the fourteen
   Livermore kernels at 2, 4 and 8 FU, for both techniques, and on
   random [Synthetic] kernels (parameters, float immediates). *)
let cache_key_matches_format () =
  let kernels =
    List.map (fun (e : Workloads.Livermore.entry) -> e.Workloads.Livermore.kernel)
      Workloads.Livermore.all
    @ List.init 8 (fun i ->
          Workloads.Synthetic.generate
            {
              Workloads.Synthetic.seed = 1000 + (37 * i);
              n_ops = 4 + i;
              n_arrays = 1 + (i mod 3);
              p_load = 0.3;
              p_store = 0.2;
              p_recurrence = 0.3;
            })
  in
  List.iter
    (fun (k : Grip.Kernel.t) ->
      Alcotest.(check string)
        (k.Grip.Kernel.name ^ " kernel_key")
        (format_kernel_key k) (Cache.kernel_key k);
      List.iter
        (fun fus ->
          List.iter
            (fun method_ ->
              Alcotest.(check string)
                (Printf.sprintf "%s key at %d FU, %s" k.Grip.Kernel.name fus method_)
                (format_key ~fus ~method_ k)
                (Cache.key ~fus ~method_ k))
            [ "grip"; "post" ])
        [ 2; 4; 8 ])
    kernels

(* -- open-loop arrival schedule --------------------------------------------- *)

let arrivals_shape () =
  let a = Loadgen.arrivals ~rate:100.0 ~period:1.0 ~duty:0.5 250 in
  Alcotest.(check int) "n" 250 (Array.length a);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 a.(0);
  (* 100 per cycle, packed into the first 0.5s of each 1s cycle *)
  Alcotest.(check (float 1e-9)) "last of cycle 0" (99.0 *. 0.005) a.(99);
  Alcotest.(check (float 1e-9)) "cycle 1 starts on the period" 1.0 a.(100);
  Alcotest.(check (float 1e-9)) "cycle 2" 2.0 a.(200);
  let nondecreasing = ref true in
  Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then nondecreasing := false) a;
  Alcotest.(check bool) "nondecreasing" true !nondecreasing

(* -- in-process loopback smoke ---------------------------------------------- *)

let loopback_smoke () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grip-test-%d.sock" (Unix.getpid ()))
  in
  let addr = Server.Unix_sock sock in
  let config =
    { (Server.default_config ~addr) with Server.jobs = 1; queue_limit = 8 }
  in
  let daemon = Domain.spawn (fun () -> Server.run config) in
  let client =
    match Client.connect addr with
    | Ok c -> c
    | Error msg -> Alcotest.fail ("connect: " ^ msg)
  in
  (match Client.ping client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ping: " ^ msg));
  let req =
    { Protocol.kernel = Some "LL1"; source = None; fus = 2; method_ = "grip" }
  in
  let r1 =
    match Client.schedule client req with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("schedule: " ^ msg)
  in
  Alcotest.(check string) "first is a miss" "miss" r1.Protocol.cache;
  let r2 =
    match Client.schedule client req with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("schedule: " ^ msg)
  in
  Alcotest.(check string) "repeat hits" "hit" r2.Protocol.cache;
  Alcotest.(check string) "hit digest matches" r1.Protocol.digest
    r2.Protocol.digest;
  (* served digest is byte-identical to the offline pipeline *)
  let e = List.hd Workloads.Livermore.all in
  let offline =
    match
      Grip.Pipeline.run_robust ~data:e.Workloads.Livermore.data
        e.Workloads.Livermore.kernel
        ~machine:(Vliw_machine.Machine.homogeneous 2)
    with
    | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
    | Error e -> Alcotest.fail (Grip_error.to_string e)
  in
  Alcotest.(check string) "served digest = offline digest" offline
    r1.Protocol.digest;
  (* a malformed request degrades to a structured error, not a closed
     connection *)
  (match
     Client.schedule client
       { Protocol.kernel = Some "nosuch"; source = None; fus = 2;
         method_ = "grip" }
   with
  | Ok _ -> Alcotest.fail "unknown kernel accepted"
  | Error _ -> ());
  (match Client.ping client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ping after error: " ^ msg));
  (* exposition: parses and carries the serve counters *)
  (match Client.metrics client with
  | Error msg -> Alcotest.fail ("metrics: " ^ msg)
  | Ok text -> (
      match Openmetrics.parse text with
      | Error msg -> Alcotest.fail ("metrics do not parse: " ^ msg)
      | Ok families ->
          let have name =
            List.exists (fun f -> f.Openmetrics.fname = name) families
          in
          List.iter
            (fun name ->
              Alcotest.(check bool) (name ^ " exposed") true (have name))
            [
              "grip_serve_requests"; "grip_serve_cache_hits";
              "grip_serve_cache_misses"; "grip_serve_latency_us";
            ]));
  (match Client.shutdown client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("shutdown: " ^ msg));
  Client.close client;
  match Domain.join daemon with
  | Ok served ->
      (* miss + hit + unknown-kernel error = 3 schedule requests *)
      Alcotest.(check int) "served three requests" 3 served
  | Error e -> Alcotest.fail (Grip_error.to_string e)

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20261019";
  Alcotest.run "serve"
    [
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frame_roundtrip; prop_frame_truncated; prop_malformed_wire ]
        @ [
            Alcotest.test_case "deep payload rejected" `Quick
              deep_payload_rejected;
            Alcotest.test_case "oversized/bad header rejected" `Quick
              oversized_rejected;
            Alcotest.test_case "request json roundtrip" `Quick
              request_roundtrip;
          ] );
      ( "hdr",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hdr_error_bound; prop_hdr_merge_law ]
        @ [
            Alcotest.test_case "counts grow on demand" `Quick hdr_growth;
            Alcotest.test_case "nearest-rank units" `Quick nearest_rank_units;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "clean merge" `Quick metrics_merge_ok;
          Alcotest.test_case "openmetrics roundtrip" `Quick
            openmetrics_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick cache_lru;
          Alcotest.test_case "content addressing" `Quick
            cache_key_content_addressed;
          Alcotest.test_case "keys match the Format renderer" `Quick
            cache_key_matches_format;
        ] );
      ( "loadgen",
        [ Alcotest.test_case "arrival schedule shape" `Quick arrivals_shape ] );
      ( "loopback",
        [ Alcotest.test_case "daemon smoke" `Quick loopback_smoke ] );
    ]
