(** A small discrete-event simulation engine.

    Work is a fixed set of tasks with precedence constraints; a task starts
    as soon as all its predecessors have completed (greedy schedule) and
    runs for a duration drawn when it starts.  Events (task completions)
    are processed in simulated-time order through a binary heap, so the
    execution trace is a genuine discrete-event simulation — used as an
    implementation of the pipeline semantics independent from the Petri
    net code path.

    The precedence graph is given by functions rather than stored, so a
    client whose graph has arithmetic structure (as {!Pipeline_sim}'s
    does) allocates nothing per edge. *)

type graph = {
  n_tasks : int;  (** tasks are [0 .. n_tasks - 1] *)
  predecessors : int -> int;
      (** number of precedence edges into a task; a duplicated edge counts
          twice *)
  iter_dependents : int -> (int -> unit) -> unit;
      (** [iter_dependents task f] calls [f] once per edge out of [task],
          on the task at its head.  The order is part of the result: it
          decides which of several simultaneously released tasks starts
          first, hence the order of the [duration] calls. *)
}

val run : graph -> earliest:(int -> float) -> duration:(int -> float) -> float array
(** Completion time of every task.

    [earliest task] is a lower bound on the task's start time (a release
    date); it is called once per task, in task order, before anything
    starts, and raises [Invalid_argument] if negative.

    [duration] is called exactly once per task, in simulated start order:
    first every task without predecessors, in task order; then, as each
    completion is taken off the heap (earliest first), the dependents it
    releases, in [iter_dependents] order.  A task is released by the
    visit that brings its outstanding predecessor count to zero.

    Raises [Failure] if the dependency graph has a cycle (some task never
    becomes ready). *)
