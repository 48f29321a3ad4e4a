(** Discrete-event simulation of the pipeline's operational semantics —
    the role played by SimGrid in §7, independent of the Petri-net code.

    Every data set [n] follows its round-robin path: at stage [i] it is
    received (over the link from the previous stage's processor), computed
    and sent forward.  Resources serve their operations in data-set order:
    under {!Streaming.Model.Overlap} a processor's compute unit, input
    port and output port are three independent servers; under
    {!Streaming.Model.Strict} the receive–compute–send triple of a data
    set occupies the processor exclusively.

    Two stochastic regimes are supported (§2.4): the *independent* case
    draws every operation duration from its resource's law; the
    *associated* case draws one work size [w_i(n)] and one file size
    [delta_i(n)] per (stage, data set) and divides by the (constant)
    speeds and bandwidths, so the durations of the same data set on
    different resources are positively correlated. *)

type timing =
  | Independent of Streaming.Laws.t
  | Associated of { work : int -> Dist.t; files : int -> Dist.t }
      (** [work i] is the law of the size of stage [i]'s computation;
          [files i] the law of file [i]'s size.  Means are interpreted as
          the nominal sizes of the application. *)
  | Scaled of Dist.t
      (** One positive factor per data set, multiplying every nominal
          duration of that data set: the strongest form of association
          (§6.2/Theorem 8) — a "large" data set is large on every
          resource it touches.  Use a law of mean 1 to preserve the
          nominal means. *)

val graph : Streaming.Mapping.t -> Streaming.Model.t -> data_sets:int -> Engine.graph
(** The precedence graph the simulation runs: task [data_set * (2n − 1) +
    col] is data set [data_set]'s operation in column [col] of its path
    (column [2i] computes stage [i], column [2i+1] transfers file [i]).
    Computed by arithmetic on the replication factors; nothing is stored
    per edge. *)

val completions :
  ?release:(int -> float) ->
  Streaming.Mapping.t ->
  Streaming.Model.t ->
  timing:timing ->
  seed:int ->
  data_sets:int ->
  float array
(** Completion time of data sets 0, 1, …, sorted.  [release n] (default:
    all 0, a saturated source) is the instant data set [n] becomes
    available at the entry of the pipeline. *)

val latencies :
  release:(int -> float) ->
  Streaming.Mapping.t ->
  Streaming.Model.t ->
  timing:timing ->
  seed:int ->
  data_sets:int ->
  float array
(** Per data set, completion time minus release time — the end-to-end
    latency under the given admission process.  With a saturated source
    the latency diverges for any data set not on the bottleneck, so a
    meaningful study admits data sets at a fraction of the maximum
    throughput (see examples/latency_study.ml). *)

val throughput :
  ?warmup_fraction:float ->
  ?release:(int -> float) ->
  Streaming.Mapping.t ->
  Streaming.Model.t ->
  timing:timing ->
  seed:int ->
  data_sets:int ->
  float

val replicated_throughputs :
  ?pool:Parallel.Pool.t ->
  ?warmup_fraction:float ->
  ?release:(int -> float) ->
  Streaming.Mapping.t ->
  Streaming.Model.t ->
  timing:timing ->
  seeds:int list ->
  data_sets:int ->
  float list
(** One {!throughput} estimate per seed, in seed order, the independent
    replications running on [pool] (default {!Parallel.Pool.get}).  Each
    replica draws from its own generator seeded by its own seed, so the
    result list is identical for every pool size. *)
