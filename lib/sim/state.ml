(** Machine state for the simulators: a register file and a set of
    named word-addressed arrays.

    Registers live in an array indexed by {!Reg.to_int}, grown on a
    write past its end; a register never written holds [unset], a
    value no operation computes, so reading it faults.  Arrays are
    held in declaration order and found by name in a short scan with
    [String.equal]: no access hashes. *)

open Vliw_ir

type t = {
  mutable regs : Value.t array;
  names : string array;
  arrays : Value.t array array;  (** the array named [names.(i)] *)
}

(* Compared by physical equality only; built at run time so no
   constant elsewhere can share its block. *)
let unset = Value.F (Sys.opaque_identity Float.nan)

(** [init ~regs ~arrays] builds a state.  Arrays are copied so callers
    can reuse initial data across runs; of two values given for one
    register, the later wins. *)
let init ~regs ~arrays =
  let n = List.fold_left (fun n (r, _) -> max n (Reg.to_int r + 1)) 16 regs in
  let t =
    {
      regs = Array.make n unset;
      names = Array.of_list (List.map fst arrays);
      arrays = Array.of_list (List.map (fun (_, a) -> Array.copy a) arrays);
    }
  in
  List.iter (fun (r, v) -> t.regs.(Reg.to_int r) <- v) regs;
  t

(** [copy t] is a deep copy (used by the equivalence oracle to run two
    programs from identical states). *)
let copy t =
  { regs = Array.copy t.regs; names = t.names; arrays = Array.map Array.copy t.arrays }

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

(** [read_reg t r] — uninitialised registers fault, which catches
    scheduling bugs that let a use overtake its def. *)
let read_reg t r =
  let i = Reg.to_int r in
  let v = if i < Array.length t.regs then Array.unsafe_get t.regs i else unset in
  if v == unset then fault "read of uninitialised register %s" (Reg.to_string r) else v

let write_reg t r v =
  let i = Reg.to_int r in
  if i >= Array.length t.regs then begin
    let a = Array.make (max (i + 1) (2 * Array.length t.regs)) unset in
    Array.blit t.regs 0 a 0 (Array.length t.regs);
    t.regs <- a
  end;
  Array.unsafe_set t.regs i v

let rec find_array t sym i =
  if i >= Array.length t.names then fault "unknown array %s" sym
  else if String.equal (Array.unsafe_get t.names i) sym then Array.unsafe_get t.arrays i
  else find_array t sym (i + 1)

(** [array t sym] — the array named [sym]. *)
let array t sym = find_array t sym 0

let read_mem t sym idx =
  let a = array t sym in
  if idx < 0 || idx >= Array.length a then
    fault "out-of-bounds read %s[%d] (length %d)" sym idx (Array.length a)
  else a.(idx)

let write_mem t sym idx v =
  let a = array t sym in
  if idx < 0 || idx >= Array.length a then
    fault "out-of-bounds write %s[%d] (length %d)" sym idx (Array.length a)
  else a.(idx) <- v

(** [reg_opt t r] reads a register without faulting. *)
let reg_opt t r =
  let i = Reg.to_int r in
  if i < Array.length t.regs && t.regs.(i) != unset then Some t.regs.(i) else None

(** [iter_arrays t f] applies [f] to every array with its name, in the
    order [init] was given them. *)
let iter_arrays t f = Array.iteri (fun i a -> f t.names.(i) a) t.arrays
