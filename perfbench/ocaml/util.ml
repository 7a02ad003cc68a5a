(* Shared helpers: order statistics, seeded shuffles, process memory,
   and the result line every workload ends with. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile; [nan] on an empty sample so a missing
   measurement can never pass for a fast one. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set (VmHWM) of process [pid] ("self" for this one), MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> go ())
      in
      let v = go () in
      close_in ic;
      v

let failf fmt = Printf.ksprintf (fun msg -> prerr_endline ("gripbench: " ^ msg)) fmt

(* A row of per-item output, printed before the result line so the
   slowest cells and widths can be cited. *)
let row fmt = Printf.printf ("row " ^^ fmt ^^ "\n%!")

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Every metric by name with its unit, then the one-line JSON result
   (the last line of standard output).  A non-finite value cannot be
   written as JSON and means the measurement is broken: it fails the
   run. *)
let print_result r =
  let finite m = Float.is_finite m.value in
  List.iter
    (fun m -> Printf.printf "metric %-32s %14.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  List.iter
    (fun m -> if not (finite m) then failf "metric %s is not finite" m.name)
    r.metrics;
  let correct = r.correct && List.for_all finite r.metrics in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
          (if finite m then m.value else 0.0)
          m.unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " metrics)
