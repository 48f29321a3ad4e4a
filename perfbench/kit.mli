(** Pure pieces of the repository benchmark: the metric catalogue that
    [BENCHMARK.json] must match, the Zipf request sampler, nearest-rank
    percentiles, layer-sum reconciliation and the [BENCHMARK.json]
    validator.  Everything here is deterministic and tested by
    [test_kit.ml]; the measuring itself lives in [main.ml]. *)

(** {1 Catalogue} *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** regression bound (end-to-end metrics only) *)
}

val workloads : (string * string) list
(** [(name, why)] of every workload, in [BENCHMARK.json] order. *)

val end_to_end : metric list
(** Reported by every untraced run, whatever the workload. *)

val registry_ids : string list
(** The experiment registry ids, one [experiments.<id>_s] layer each. *)

val query_workloads : string list
(** [query_hot] and [query_zipf]. *)

val per_layer : metric list
(** Reported by every traced run: the whole layer table. *)

(** {1 Zipf sampler} *)

type zipf

val zipf : n:int -> s:float -> zipf
(** Ranks [0 .. n-1], rank [k] drawn with probability proportional to
    [(k+1)^-s].  Raises [Invalid_argument] unless [n >= 1], [s >= 0]. *)

val zipf_mass : zipf -> int -> float
(** Probability of one rank. *)

val zipf_draw : zipf -> Prng.t -> int
(** Inverse-CDF draw: one uniform from the generator, so the same
    generator state yields the same rank. *)

(** {1 Order statistics} *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] is the smallest sample with at least [p] of
    the samples at or below it: [sorted.(ceil (p * n) - 1)], clamped to
    the first sample.  [sorted] must be sorted ascending and non-empty. *)

val beyond : n:int -> float -> int
(** Samples strictly above the nearest-rank [p] percentile of [n]. *)

val reportable : n:int -> float -> bool
(** At least ten samples lie beyond the percentile, the rule under which
    a tail percentile is reported as measured rather than as the maximum
    of too few samples. *)

val median : float array -> float
(** Nearest-rank median of an unsorted, non-empty array. *)

val mean : float array -> float

(** {1 Layer sums} *)

type reconciliation = {
  parts : float;  (** sum of the layer timings *)
  total : float;  (** the timing they should add up to *)
  residual : float;  (** [total - parts] *)
  residual_frac : float;  (** [residual / total] *)
  tolerance : float;  (** largest accepted [|residual_frac|] *)
  within : bool;
}

val reconcile : tolerance:float -> total:float -> float list -> reconciliation

(** {1 BENCHMARK.json} *)

val valid_name : string -> bool
(** A letter or digit, then letters, digits, [_], [.], [-]; at most 64. *)

val valid_unit : string -> bool
(** At most 16 of letters, digits, [_], [/], [%], [.], [-]. *)

val check_benchmark_json : string -> (unit, string) result
(** Checks the text of [BENCHMARK.json] against the benchmark contract
    (keys, limits, name and unit syntax, unique names, at most 16
    end-to-end and 128 per-layer metrics, a [setup_s] metric with the
    largest bound) and against this catalogue: the workloads and both
    metric lists must match it exactly. *)
