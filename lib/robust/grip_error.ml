(** Structured pipeline errors.

    Every failure mode of the scheduling stack — front-end rejection,
    fuel or deadline exhaustion, non-convergence, structural damage,
    resource overflow, oracle mismatch — is carried as a [t] instead of
    a [failwith]/[exit 1], so drivers can decide whether to abort, warn,
    or fall down the degradation ladder ({!Guard},
    [Grip.Pipeline.run_robust]).  The payload names the pipeline stage
    that failed and, when known, the kernel and machine being
    scheduled. *)

(** Pipeline stage in which the failure was detected. *)
type stage =
  | Frontend of string  (** minic: "lexical", "syntax" or "type" *)
  | Unwind
  | Redundancy
  | Scheduling
  | Convergence
  | Validation  (** a post-stage guard: well-formedness / resources / oracle *)
  | Io  (** file handling in the drivers *)
  | Parallel  (** a worker task of the domain pool failed *)
  | Serve  (** the scheduling daemon's request path *)

let stage_name = function
  | Frontend s -> s
  | Unwind -> "unwind"
  | Redundancy -> "redundancy"
  | Scheduling -> "scheduling"
  | Convergence -> "convergence"
  | Validation -> "validation"
  | Io -> "io"
  | Parallel -> "parallel"
  | Serve -> "serve"

type cause =
  | Fuel_exhausted of { migrations : int; budget : int }
      (** the scheduler hit its migration budget and truncated *)
  | Deadline_exceeded of { elapsed : float; budget : float }
      (** wall-clock budget for the stage ran out *)
  | Cancelled of { after : float; reason : string }
      (** the task's cancellation token was tripped externally (the
          supervisor's watchdog, shutdown) after [after] seconds *)
  | Worker of { worker : int; task : int; detail : string }
      (** a domain-pool worker failed outside a structured error: the
          payload names the worker (domain id) and the batch task index
          so a crashed worker is never an anonymous [Message] *)
  | Non_convergent of { horizon : int }
      (** no repeating pattern within the unwind horizon *)
  | Oracle_mismatch of { count : int; first : string }
      (** the schedule disagrees with the sequential reference *)
  | Malformed of string list  (** well-formedness violations *)
  | Resource_overflow of { node : int; demand : int; width : int }
      (** an instruction exceeds the issue width *)
  | Io_failure of string
  | Protocol_violation of string
      (** a serve-protocol frame could not be decoded (bad magic,
          oversized payload, unknown kind, malformed request body) *)
  | Message of string

type t = {
  stage : stage;
  kernel : string option;  (** kernel name, when scheduling one *)
  machine : string option;  (** rendered machine description *)
  cause : cause;
}

exception Error of t

let make ?kernel ?machine stage cause = { stage; kernel; machine; cause }
let raise_ ?kernel ?machine stage cause =
  raise (Error (make ?kernel ?machine stage cause))

let pp_cause ppf = function
  | Fuel_exhausted { migrations; budget } ->
      Format.fprintf ppf "migration fuel exhausted (%d of %d)" migrations
        budget
  | Deadline_exceeded { elapsed; budget } ->
      Format.fprintf ppf "deadline exceeded (%.3fs of %.3fs)" elapsed budget
  | Cancelled { after; reason } ->
      Format.fprintf ppf "cancelled after %.3fs: %s" after reason
  | Worker { worker; task; detail } ->
      Format.fprintf ppf "worker %d, task %d: %s" worker task detail
  | Non_convergent { horizon } ->
      Format.fprintf ppf "no repeating pattern within horizon %d" horizon
  | Oracle_mismatch { count; first } ->
      Format.fprintf ppf "oracle found %d mismatch%s (first: %s)" count
        (if count = 1 then "" else "es")
        first
  | Malformed violations ->
      Format.fprintf ppf "program malformed: %s"
        (String.concat "; " violations)
  | Resource_overflow { node; demand; width } ->
      Format.fprintf ppf "node %d demands %d slots on a %d-wide machine" node
        demand width
  | Io_failure msg -> Format.fprintf ppf "%s" msg
  | Protocol_violation msg ->
      Format.fprintf ppf "protocol violation: %s" msg
  | Message msg -> Format.pp_print_string ppf msg

let pp ppf e =
  Format.fprintf ppf "%s error" (stage_name e.stage);
  (match e.kernel with
  | Some k -> Format.fprintf ppf " [%s" k
  | None -> ());
  (match e.kernel, e.machine with
  | Some _, Some m -> Format.fprintf ppf " on %s]" m
  | Some _, None -> Format.fprintf ppf "]"
  | None, Some m -> Format.fprintf ppf " [%s]" m
  | None, None -> ());
  Format.fprintf ppf ": %a" pp_cause e.cause

let to_string e = Format.asprintf "%a" pp e

(** [guard f] — run [f], capturing a raised {!Error} as [Error t]. *)
let guard f = match f () with v -> Ok v | exception Error e -> Error e
