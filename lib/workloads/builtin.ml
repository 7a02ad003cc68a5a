(** The built-in kernels a name resolves to, for the [grip] CLI and the
    scheduling daemon alike: the fourteen Livermore loops and the
    paper's two running examples, each with its data generator. *)

(** [find name] — "LL1".."LL14", "abc" or "abcdefg" with its data;
    [None] for any other name. *)
let find name =
  match Livermore.find name with
  | Some e -> Some (e.Livermore.kernel, e.Livermore.data)
  | None -> (
      match name with
      | "abc" -> Some (Paper_examples.abc, Grip.Kernel.default_data)
      | "abcdefg" -> Some (Paper_examples.abcdefg, Grip.Kernel.default_data)
      | _ -> None)
