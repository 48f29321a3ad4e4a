(** Howard's policy iteration for the maximum cycle ratio.

    Maintain one outgoing edge per node (a "policy"), evaluate the cycles
    of the policy graph, and switch a node's edge whenever a neighbour
    offers a better ratio — or an equal ratio with a better potential.
    This is the search behind {!Cycle_ratio.max_cycle_ratio}, which
    certifies the cycle returned here; call that instead unless the
    uncertified policy cycle is what you want.

    Restrictions: a cycle with positive weight and no token makes the
    ratio infinite ({!Unbounded}). *)

exception Unbounded
(** A zero-token cycle exists; re-exported as {!Cycle_ratio.Unbounded}. *)

type result = { ratio : float; cycle : Digraph.edge list }
(** [cycle] is the best cycle of the final policy, as a closed walk of
    graph edges; [ratio] is its Σ weight / Σ tokens summed in list order. *)

val max_cycle_ratio : Digraph.t -> result option
(** [None] when the graph is acyclic.  Raises {!Unbounded} on a zero-token
    positive-weight cycle. *)
