(** Consistent hashing of canonical solve keys onto workers.

    The placement is a pure function of the key and the worker count —
    no PRNG, no process state — so the router, the tests and the chaos
    harness all agree on which worker owns which key. *)

type t

val create : ?vnodes:int -> int -> t
(** [create n] builds a ring over workers [0..n-1], each contributing
    [vnodes] (default 64) points on the circle. *)

val size : t -> int

val lookup : t -> string -> int
(** The worker owning [key]: the first ring point clockwise from the
    key's hash. *)

val preference : t -> string -> int list
(** All workers in fallback order for [key], starting with
    [lookup t key]: the router walks this list when the owner is dead or
    its breaker is open.  Distinct keys get different orders, so a dead
    worker's load spreads instead of dogpiling one neighbour. *)

val hash_string : string -> int
(** The ring's stable string hash (non-negative), exposed for tests: a
    fixed avalanche over the string's 8-byte little-endian words and its
    byte tail, seeded with its length — one mix step per 8 bytes.  The
    top bit of every eighth byte is ignored, so keys should be text. *)
