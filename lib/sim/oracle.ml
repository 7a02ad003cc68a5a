(** Semantic-equivalence oracle.

    Percolation Scheduling's transformations are semantics-preserving;
    the test suite checks this by running the original and transformed
    programs from identical initial states and comparing the observable
    outcome: all arrays, plus a caller-chosen set of result registers.
    (Scratch registers differ by construction — renaming introduces
    fresh ones — so only observable registers are compared.) *)

open Vliw_ir

type mismatch = {
  what : string;
  expected : string;
  got : string;
}

let pp_mismatch ppf m =
  Format.fprintf ppf "%s: expected %s, got %s" m.what m.expected m.got

let value_close a b =
  match a, b with
  | Value.F x, Value.F y ->
      if Float.is_finite x && Float.is_finite y then
        (* float math is re-associated by front-end folding in places;
           compare with a tight relative tolerance *)
        let d = Float.abs (x -. y) in
        d <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
      else
        (* identical non-finite classes: two NaNs, or two infinities of
           one sign, where the difference above would be NaN *)
        Float.classify_float x = Float.classify_float y
        && (Float.is_nan x || Float.sign_bit x = Float.sign_bit y)
  | _ -> Value.equal a b

(** [equivalent ~observable ~init p1 p2] runs both programs from copies
    of [init]; [Ok (o1, o2)] carries the two outcomes on success. *)
let equivalent ~observable ~init p1 p2 =
  let st1 = State.copy init and st2 = State.copy init in
  match Exec.run p1 st1, Exec.run p2 st2 with
  | exception State.Fault msg -> Error [ { what = "fault"; expected = "clean run"; got = msg } ]
  | o1, o2 ->
      let errs = ref [] in
      List.iter
        (fun r ->
          let v1 = State.reg_opt st1 r and v2 = State.reg_opt st2 r in
          let ok =
            match v1, v2 with
            | Some a, Some b -> value_close a b
            | None, None -> true
            | _ -> false
          in
          if not ok then
            errs :=
              {
                what = Format.asprintf "register %a" Reg.pp r;
                expected =
                  (match v1 with Some v -> Value.to_string v | None -> "unset");
                got =
                  (match v2 with Some v -> Value.to_string v | None -> "unset");
              }
              :: !errs)
        observable;
      State.iter_arrays st1
        (fun sym a1 ->
          let a2 = State.array st2 sym in
          Array.iteri
            (fun i v1 ->
              if not (value_close v1 a2.(i)) then
                errs :=
                  {
                    what = Printf.sprintf "%s[%d]" sym i;
                    expected = Value.to_string v1;
                    got = Value.to_string a2.(i);
                  }
                  :: !errs)
            a1);
      if !errs = [] then Ok (o1, o2) else Error (List.rev !errs)
