(** Runtime values.

    Operations compute over machine words that are either integers (loop
    counters, indices) or floats (the Livermore kernels' data).  The
    interpreter in [Vliw_sim] is dynamically typed over this universe; the
    [Minic] front end guarantees type sanity statically. *)

type t =
  | I of int
  | F of float

let equal a b =
  match a, b with
  | I x, I y -> Int.equal x y
  | F x, F y -> Float.equal x y
  | I _, F _ | F _, I _ -> false

let compare a b =
  match a, b with
  | I x, I y -> Int.compare x y
  | F x, F y -> Float.compare x y
  | I _, F _ -> -1
  | F _, I _ -> 1

(** [to_float v] widens [v] to a float. *)
let to_float = function
  | I n -> float_of_int n
  | F f -> f

let to_string = function
  | I n -> Int.to_string n
  | F f -> Printf.sprintf "%g" f

let pp ppf v = Format.pp_print_string ppf (to_string v)
