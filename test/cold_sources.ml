(* The 18 generated minic sources test_minic pins as cold requests:
   three per statement template of perfbench's serve-cold stream, with
   what [Pipeline.run_robust] serves each at 2, 4 and 8 FU.  Shared with
   test_grip, whose out-tree property schedules them. *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The shape of the sources perfbench's serve-cold stream sends (the
   six statement templates of perfbench/ocaml/kgen.ml, each hole a load
   of x, y or z or a parameter): three float parameters, the three
   input arrays, and the scalar, gather arrays and outputs its
   statements use. *)
let generated ~name (p0, p1, p2) stmts =
  let uses sub = List.exists (fun s -> contains s sub) stmts in
  let b = Buffer.create 512 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "kernel %s {" name;
  line "  param p0 : float = %.3f;" p0;
  line "  param p1 : float = %.3f;" p1;
  line "  param p2 : float = %.3f;" p2;
  if uses "s = " then line "  var s : float = 0.0;";
  List.iter (fun a -> line "  array %s[64];" a) [ "x"; "y"; "z" ];
  if uses "g[" then begin
    line "  array ix[64] : int;";
    line "  array g[64];"
  end;
  List.iter (fun o -> if uses (o ^ "[") then line "  array %s[64];" o) [ "o0"; "o1" ];
  line "  for k = 1 to n {";
  List.iter (fun s -> line "    %s" s) stmts;
  line "  }";
  line "}";
  Buffer.contents b

(* Three sources per template, in template order, with what
   [Pipeline.run_robust] serves each at 2, 4 and 8 FU: the rung, the
   schedule digest and the speedup ([%.17g]).  Templates 0 and 3 find
   no repeating pattern under GRiP at some widths and descend the
   ladder. *)
let cold_pins =
  [
    ( "gen0",
      (0.500, 0.500, 0.750),
      [ "o0[k] = ((p2 * x[k+1]) + y[k+2]);" ],
      [ (2, "GRiP", "53afaddf9d5f57faf1b022e16c555b95", "2.3333333333333335");
          (4, "GRiP", "14afbcb5dad5fe395bbca0065f4bc468", "4.666666666666667");
          (8, "GRiP(no-gap)", "4bf1198a39ba8cf47c1c7927e7348f3c", "10.5") ] );
    ( "gen24",
      (0.375, 0.125, 0.750),
      [ "o0[k] = ((p0 * z[k+1]) + z[k+2]);" ],
      [ (2, "GRiP", "ab50731b162178175ceb09f0e3f682c1", "2.7999999999999998");
          (4, "GRiP(no-gap)", "35d633809c2e12db626a3b745409f752", "5.25");
          (8, "POST", "9ef203dd7d5c3d28f544bcc707d1a814", "10.5") ] );
    ( "gen30",
      (0.250, 0.250, 0.750),
      [ "o0[k] = ((p2 * x[k+2]) + x[k+3]);" ],
      [ (2, "GRiP", "6a318099eb459733800f163e8fbcd86a", "2.7999999999999998");
          (4, "GRiP(no-gap)", "674617ca79dc23f7e50dddb0a7dac424", "5.25");
          (8, "POST", "5e939112ff2ede8741d3497e95bc3e26", "10.5") ] );
    ( "gen1",
      (0.625, 0.125, 1.000),
      [ "o0[k] = o0[k-1] * p0 + (p1 + z[k+3]);" ],
      [ (2, "GRiP", "d14b71364dd61ccda044b4fea79da0cc", "2");
          (4, "GRiP", "3a58e959cf25378d0d6a91e93c9cbecf", "4");
          (8, "GRiP", "bf8c794922d3d9b88399e2f6debd8574", "4") ] );
    ( "gen7",
      (0.250, 0.250, 1.125),
      [ "o0[k] = o0[k-1] * p0 + (p2 + x[k+3]);" ],
      [ (2, "GRiP", "d00a4acdd3c9f702f88a3a537be9881e", "2");
          (4, "GRiP", "b4a2066a6e046cdbf13fe243f4272863", "4");
          (8, "GRiP", "c260a45ef802dde10616523e140360c3", "4") ] );
    ( "gen13",
      (0.500, 0.125, 1.125),
      [ "o0[k] = o0[k-1] * p0 + (p1 + z[k+2]);" ],
      [ (2, "GRiP", "2287c694829a8ff79f8b71d0196192a3", "2");
          (4, "GRiP", "dbdb5d9aefce7e78847f5ef53da81fc4", "4");
          (8, "GRiP", "a7c9f9e105aceb4ada7389829c867a76", "4") ] );
    ( "gen2",
      (0.250, 0.500, 1.125),
      [ "o0[k] = ((z[k+0] + p2) - g[ix[k]]);";
          "s = s + (z[k+2] + p0);" ],
      [ (2, "GRiP", "3b5e91d77528bf919af65150d53f6363", "2.4444444444444446");
          (4, "GRiP", "a408b64bd505dc4aedefc4170a5b6ccf", "4.8888888888888893");
          (8, "GRiP", "3995a3cadf605068129bcf5ce34e231b", "9.4285714285714288") ] );
    ( "gen8",
      (0.250, 0.375, 0.875),
      [ "o0[k] = ((x[k+0] + p2) - g[ix[k]]);";
          "s = s + (y[k+0] + p1);" ],
      [ (2, "GRiP", "30a89a49355d692624acdb9ff62bd293", "2.2000000000000002");
          (4, "GRiP", "37111075abb9d87d103d1f8e0d3c6dca", "4.5517241379310347");
          (8, "GRiP", "788b2dc10320f03f9365a0068896981f", "8.8000000000000007") ] );
    ( "gen14",
      (0.375, 0.250, 0.750),
      [ "o0[k] = ((z[k+2] + p0) - g[ix[k]]);";
          "s = s + (y[k+0] + p2);" ],
      [ (2, "GRiP", "a4d73f915be5d1be3f2b37aa42331d00", "2.2000000000000002");
          (4, "GRiP", "da82cba4d14a64cfa6a245d12e31f060", "4.5517241379310347");
          (8, "GRiP", "5bb58e610d580f9c3f7e0cfaf1ccac5a", "8.8000000000000007") ] );
    ( "gen15",
      (0.500, 0.125, 0.875),
      [ "o0[k] = (z[k+3] - p2);";
          "o1[k] = (p0 * z[k+0]);";
          "s = s + (p0 + y[k+3]);" ],
      [ (2, "GRiP", "cfa8306f8d60379548bd429075117867", "2.4444444444444446");
          (4, "GRiP", "b374fa14dcd973b09bca8c91a75ddaf0", "4.5517241379310347");
          (8, "GRiP(no-gap)", "9e673d1532fb03792aa4c47dd207618b", "10.153846153846155") ] );
    ( "gen21",
      (0.500, 0.625, 0.875),
      [ "o0[k] = (y[k+3] - p2);";
          "o1[k] = (p1 * y[k+2]);";
          "s = s + (p1 + x[k+3]);" ],
      [ (2, "GRiP", "1ecae57e417ffe85952f8ba2681162ad", "2.4444444444444446");
          (4, "GRiP", "39dc5e2a9ee2829dfc607ae89e18e2ab", "4.7142857142857144");
          (8, "GRiP(no-gap)", "6c7cf43c036e70c8fd9d8c65e9c1f082", "9.4285714285714288") ] );
    ( "gen51",
      (0.500, 0.375, 0.875),
      [ "o0[k] = (x[k+1] - p2);";
          "o1[k] = (p1 * z[k+3]);";
          "s = s + (p0 + z[k+1]);" ],
      [ (2, "GRiP", "c158d8ae69fe42240cd5f67922d2c30e", "2.4444444444444446");
          (4, "GRiP(no-gap)", "1ae79f02a4cd72cef94a4365fb59d8c1", "4.8888888888888893");
          (8, "POST", "250befda1267afffb8ac865582dd54a4", "8.8000000000000007") ] );
    ( "gen4",
      (0.375, 0.625, 1.125),
      [ "o0[k] = o0[k-1] * p0 + ((z[k+3] + p0) + g[ix[k]]);" ],
      [ (2, "GRiP", "a0c9be2cab75674773a909007fa025f0", "2.2000000000000002");
          (4, "GRiP", "2455d62cc27f3f957e9c6bd0a508ab8f", "4.8888888888888893");
          (8, "GRiP", "cc991eb02a97a879f2b25f35a7ae4509", "5.5") ] );
    ( "gen10",
      (0.375, 0.625, 0.750),
      [ "o0[k] = o0[k-1] * p0 + ((y[k+1] + p2) + g[ix[k]]);" ],
      [ (2, "GRiP", "9932ff5cc6c50d11699e5f2f918f03ff", "2.2000000000000002");
          (4, "GRiP", "94787ad27a6d7c3d70fea6d96df3cb7b", "4.8888888888888893");
          (8, "GRiP", "ee1e5d0a7d173e9e2b118409ab09353a", "5.5") ] );
    ( "gen16",
      (0.250, 0.500, 1.000),
      [ "o0[k] = o0[k-1] * p0 + ((x[k+2] + p2) + g[ix[k]]);" ],
      [ (2, "GRiP", "b40db747526b9c6f4afac987d0043eb2", "2.2000000000000002");
          (4, "GRiP", "b2acf9c81dd7a543346b4d3c1fad8cb9", "4.8888888888888893");
          (8, "GRiP", "a02dcea39cc6b23dd2b4ab010616465e", "5.5") ] );
    ( "gen5",
      (0.250, 0.625, 1.000),
      [ "o0[k] = (p2 * g[ix[k]]);";
          "o1[k] = (y[k+3] - p2);" ],
      [ (2, "GRiP", "4eb49d016911c41167005055a59ef73a", "2.25");
          (4, "GRiP", "8201e5065853ba620c71b9ae5767e116", "4.5");
          (8, "GRiP", "fae9d6b98c40d0681ee7d1889ceed9fa", "9") ] );
    ( "gen11",
      (0.500, 0.500, 0.750),
      [ "o0[k] = (p1 * g[ix[k]]);";
          "o1[k] = (x[k+2] - p0);" ],
      [ (2, "GRiP", "e97e6d52b72dedbee4f4083df890dfbc", "2.25");
          (4, "GRiP", "68ec9815badfb1b0d364dbbdef97d860", "4.5");
          (8, "GRiP", "e57c91de98741700c4b43266dce10cad", "9") ] );
    ( "gen17",
      (0.500, 0.375, 1.125),
      [ "o0[k] = (p2 * g[ix[k]]);";
          "o1[k] = (y[k+3] - p2);" ],
      [ (2, "GRiP", "4d828644178c0e6f6331a567afc07ae2", "2.25");
          (4, "GRiP", "052969adf56c7ede6ef4ec9a7a882328", "4.5");
          (8, "GRiP", "2cf5f150f3e9f41cb5c4cf67acbc7035", "9") ] );
  ]
