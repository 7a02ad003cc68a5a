(* Seeded minic kernel generator for the serving workloads.

   Every source is one counted loop over float arrays, built from one
   of the templates below: the templates vary the statement count, the
   expression depth, scalar recurrences ([s = s + e]), loop-carried
   memory references ([o0[k-1]]) and int-array gathers ([g[ix[k]]]).
   The seed fills each template's holes — [A]: a load [x|y|z[k+0..3]],
   no two alike in one source, [P]: a parameter [p0|p1|p2], whose
   values are seeded too — so sources differ (the workloads drop the
   rare one that lowers to the same kernel as an earlier one), while
   the operators, the loads per iteration and the dependence shape
   stay fixed.  (With loads drawn independently, a repeated load
   changed a source's op count, and over repeated runs one seed's cold
   requests cost 7% more than another's.)  Scheduling cost
   follows the shape, so with the templates taken in a fixed cycle
   every seed sends the same cost mix: a few tens of ms per cold
   request at 2 FU, what a build driver compiling small loops would
   see. *)

let templates =
  [|
    [ "o0[k] = ((P * A) + A);" ];
    [ "o0[k] = o0[k-1] * p0 + (P + A);" ];
    [ "o0[k] = ((A + P) - g[ix[k]]);"; "s = s + (A + P);" ];
    [ "o0[k] = (A - P);"; "o1[k] = (P * A);"; "s = s + (P + A);" ];
    [ "o0[k] = o0[k-1] * p0 + ((A + P) + g[ix[k]]);" ];
    [ "o0[k] = (P * g[ix[k]]);"; "o1[k] = (A - P);" ];
  |]

type t = { name : string; source : string }

let pick rng a = a.(Random.State.int rng (Array.length a))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [fill rng loads stmt] — [stmt] with its holes filled, each [A]
   taking the next of [loads] (a template has at most three). *)
let fill rng loads stmt =
  String.to_seq stmt
  |> Seq.map (function
       | 'A' -> (
           match !loads with
           | a :: rest ->
               loads := rest;
               a
           | [] -> invalid_arg "Kgen.fill: more than twelve loads")
       | 'P' -> pick rng [| "p0"; "p1"; "p2" |]
       | c -> String.make 1 c)
  |> List.of_seq |> String.concat ""

(* The twelve loads, in a seeded order. *)
let loads rng =
  ref
    (Util.shuffle rng
       (List.concat_map
          (fun a -> List.init 4 (fun d -> Printf.sprintf "%s[k+%d]" a d))
          [ "x"; "y"; "z" ]))

(** [make rng ~index] — source number [index] of a stream, built from
    [templates.(index mod 6)]. *)
let make rng ~index =
  let stmts = templates.(index mod Array.length templates) in
  let uses sub = List.exists (fun s -> contains s sub) stmts in
  let name = Printf.sprintf "gen%d" index in
  let b = Buffer.create 512 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "kernel %s {" name;
  line "  param p0 : float = %.3f;" (0.25 +. (0.125 *. float_of_int (Random.State.int rng 4)));
  line "  param p1 : float = %.3f;" (0.125 *. float_of_int (1 + Random.State.int rng 6));
  line "  param p2 : float = %.3f;" (0.75 +. (0.125 *. float_of_int (Random.State.int rng 4)));
  if uses "s = " then line "  var s : float = 0.0;";
  List.iter (fun a -> line "  array %s[64];" a) [ "x"; "y"; "z" ];
  if uses "g[" then begin
    line "  array ix[64] : int;";
    line "  array g[64];"
  end;
  List.iter (fun o -> if uses (o ^ "[") then line "  array %s[64];" o) [ "o0"; "o1" ];
  line "  for k = 1 to n {";
  let loads = loads rng in
  List.iter (fun s -> line "    %s" (fill rng loads s)) stmts;
  line "  }";
  line "}";
  { name; source = Buffer.contents b }
