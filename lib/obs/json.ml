(** Minimal JSON: a value type, a renderer, a recursive-descent
    parser and a shape checker.  Hand-rolled so the observability layer
    stays free of external dependencies; used for the Chrome trace
    file, the metrics dump, the [bench json] artifact and its
    validator.

    Numbers are carried as [float].  Rendering emits integers without a
    fractional part and maps non-finite floats to [null] (JSON has no
    NaN/infinity), so a NaN speedup degrades to an absent value rather
    than an unparseable artifact. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

(* -- rendering ----------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* only called on finite floats; non-finite values render as null *)
let add_num buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let rec add ?(indent = None) buf v =
  let nl depth =
    match indent with
    | None -> ()
    | Some unit_ ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (unit_ * depth) ' ')
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x ->
        if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then
          Buffer.add_string buf "null"
        else add_num buf x
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            go (depth + 1) item)
          items;
        nl depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            escape buf k;
            Buffer.add_char buf ':';
            if indent <> None then Buffer.add_char buf ' ';
            go (depth + 1) item)
          fields;
        nl depth;
        Buffer.add_char buf '}'
  in
  go 0 v

and to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  add ~indent:(if pretty then Some 2 else None) buf v;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------- *)

exception Parse_error of string

(** The deepest nesting {!parse} accepts: objects and arrays at most
    [max_depth] levels inside one another.  The deepest document the
    repository writes, the Table 1 artifact, nests 8 levels.  The bound
    keeps the recursive descent's stack small, and with it the time a
    hostile payload costs the daemon's select loop: deeper input is a
    parse error, found at the first bracket past the bound. *)
let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf u =
    (* encode a Unicode scalar value as UTF-8 *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "invalid \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'u' ->
              advance ();
              let u = hex4 () in
              let u =
                (* surrogate pair *)
                if u >= 0xD800 && u <= 0xDBFF && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                  else fail "invalid surrogate pair"
                end
                else u
              in
              utf8_of_code buf u
          | _ -> fail "invalid escape");
          go ())
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "invalid number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors (for the validator and tests) ----------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* -- shapes ---------------------------------------------------------------- *)

(** What a reader accepts at a value. *)
type shape =
  | Number  (** a finite number *)
  | Count  (** a non-negative integer *)
  | Flag  (** a boolean *)
  | One_of of t list  (** one of these values *)
  | Maybe of shape  (** [null] or the shape *)
  | Each of shape  (** a list whose every element has the shape *)
  | Seq of shape list  (** a list of exactly these elements *)
  | Fields of (string * shape) list
      (** an object with exactly these members, each once *)

(* The first [f i x] over [l]'s elements that is not [None]. *)
let rec first_some f i = function
  | [] -> None
  | x :: rest -> (
      match f i x with None -> first_some f (i + 1) rest | found -> found)

(* The first value that does not fit, as its path from the checked
   value (member names and [[i]] list positions) and what was
   expected there. *)
let rec misfit shape v =
  let expected what = Some ([], "expected " ^ what) in
  let within seg = Option.map (fun (path, msg) -> (seg :: path, msg)) in
  let item s i x = within (Printf.sprintf "[%d]" i) (misfit s x) in
  match (shape, v) with
  | Number, Num x when Float.is_finite x -> None
  | Count, Num x when Float.is_integer x && x >= 0.0 -> None
  | (Flag, Bool _) | (Maybe _, Null) -> None
  | One_of vs, v when List.mem v vs -> None
  | Maybe s, v -> misfit s v
  | Each s, List items -> first_some (item s) 0 items
  | Seq ss, List items when List.compare_lengths ss items = 0 ->
      first_some (fun i (s, x) -> item s i x) 0 (List.combine ss items)
  | Fields fs, Obj kvs -> (
      let member _ (k, s) =
        match List.assoc_opt k kvs with
        | None -> Some ([ k ], "missing")
        | Some x -> within k (misfit s x)
      in
      let stray _ (k, _) =
        if not (List.mem_assoc k fs) then Some ([ k ], "unexpected member")
        else if List.length (List.filter (fun (k', _) -> k' = k) kvs) > 1 then
          Some ([ k ], "duplicate member")
        else None
      in
      match first_some member 0 fs with
      | None -> first_some stray 0 kvs
      | found -> found)
  | Number, _ -> expected "a number"
  | Count, _ -> expected "a non-negative integer"
  | Flag, _ -> expected "true or false"
  | One_of vs, _ -> expected (String.concat " or " (List.map to_string vs))
  | Seq ss, List _ -> expected (Printf.sprintf "a list of %d" (List.length ss))
  | (Each _ | Seq _), _ -> expected "a list"
  | Fields _, _ -> expected "an object"

(** [check shape v] — [Ok ()] when [v] has [shape], else the path to
    the first value that does not fit and what was expected there,
    e.g. ["loops[0].fu2.grip.speedup: expected a number"]. *)
let check shape v =
  match misfit shape v with
  | None -> Ok ()
  | Some (path, msg) ->
      let at i seg = if i = 0 || seg.[0] = '[' then seg else "." ^ seg in
      Error
        (match path with
        | [] -> msg
        | _ -> String.concat "" (List.mapi at path) ^ ": " ^ msg)
