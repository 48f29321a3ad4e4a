(** Maximum cycle ratio of a weighted, token-carrying digraph.

    For a timed event graph, the steady-state period is
    max over cycles C of (sum of firing times on C) / (sum of tokens on C)
    (Baccelli et al., "Synchronization and Linearity").  {!max_cycle_ratio}
    takes a critical-cycle candidate from {!Howard}'s policy iteration and
    certifies it: λ is an upper bound iff the reweighted graph
    (weight − λ·tokens) has no positive cycle, so a Bellman–Ford search at
    λ = the candidate's own ratio either finds no positive cycle (the
    candidate is critical) or yields a strictly better cycle to try next.
    The answer is always the exact rational ratio of a cycle of the graph.

    Lawler's parametric search ({!lawler_max_cycle_ratio}) and Karp's
    algorithm ({!karp_max_cycle_mean}) are independent solvers kept as
    test oracles; no production path calls them. *)

exception Unbounded
(** Raised when a cycle carries positive weight but no token: the event
    graph is not live and the ratio is +∞.  The same exception as
    {!Howard.Unbounded}. *)

type result = Howard.result = {
  ratio : float;  (** the maximum cycle ratio *)
  cycle : Digraph.edge list;  (** a critical cycle achieving it *)
}

val max_cycle_ratio : Digraph.t -> result option
(** [None] when the graph has no cycle at all.  Raises {!Unbounded} if a
    zero-token cycle with positive weight exists.  [ratio] is
    [cycle_ratio_of cycle], bit for bit. *)

val cycle_ratio_of : Digraph.edge list -> float
(** Σ weight / Σ tokens of a cycle, summed in list order.  Raises
    {!Unbounded} when the cycle carries no token. *)

val lawler_max_cycle_ratio : Digraph.t -> result option
(** Test oracle: the same maximum found by bisection on λ (up to 200
    Bellman–Ford passes), then snapped and certified as in
    {!max_cycle_ratio}.  Ratios agree with {!max_cycle_ratio} to within
    rounding; a critical cycle summed from a different start can differ in
    the last ulps. *)

val karp_max_cycle_mean : Digraph.t -> float option
(** Karp's algorithm for the maximum cycle *mean* (every edge counted as
    one token); used as an independent cross-check when all edges carry
    exactly one token. [None] when acyclic. *)
