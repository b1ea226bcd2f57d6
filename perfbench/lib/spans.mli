(** In-memory spans recorded by the benchmark around its own calls into
    each layer.

    A span has a name, a start and an end, the span that was innermost
    when it opened (its parent), and a request id shared by every span
    of one request.  Spans stay in memory until the run ends.  A
    disabled tracer records nothing, so the untraced run pays only a
    flag test per call. *)

type span = {
  id : int;
  parent : int option;
  req : int;
  name : string;
  start : float;
  stop : float;
}

type t

val create : ?clock:(unit -> float) -> enabled:bool -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. *)

val set_enabled : t -> bool -> unit

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the function inside a span.  A span opened with no open parent
    is a root and takes a fresh request id; a nested span inherits its
    parent's.  The span is closed even when the function raises. *)

val add : t -> name:string -> start:float -> stop:float -> unit
(** Record an already-finished interval as a child of the innermost open
    span — for boundaries the benchmark only learns through callbacks.
    Ignored when disabled or when no span is open. *)

val spans : t -> span list
(** Every closed span, ordered by start time (ties by id). *)

val self_time : span -> children:span list -> float
(** The span's duration minus the part of it that the children's
    intervals cover (their union, clipped to the span). *)

val layer_self_times : root_label:string -> span list -> (string * float) list
(** Total self time per span name, sorted by name.  Roots are renamed
    [root_label]: a root's self time is the part of a request no layer
    span covers, so it is reported rather than dropped. *)
