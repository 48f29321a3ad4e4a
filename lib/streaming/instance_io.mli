(** A small textual format for problem instances, so that the command-line
    tool can analyse user-provided mappings.

    Example:
    {v
    # four stages on seven processors
    stages    4
    work      52 48 72 32
    files     24 36 28
    processors 7
    speeds    2 0.8 1.1 0.9 1.3 0.7 1.6
    bandwidth default 0.5
    bandwidth 0 1 0.35        # src dst value, overrides the default
    team 0                    # one line per stage, processor ids
    team 1 2
    team 3 4 5
    team 6
    v}

    Lines starting with [#] (or trailing [#] comments) are ignored. *)

val parse : string -> (Mapping.t, string) result
(** Parse the contents of an instance description.  Numeric values are
    vetted where they are read: work sizes, speeds and bandwidths must be
    finite and positive, file sizes finite and non-negative, and a
    bandwidth override must name processors that exist — violations are
    reported with the offending line number. *)

val parse_file : string -> (Mapping.t, string) result

val print : Format.formatter -> Mapping.t -> unit
(** Write a mapping back in the same format: {!to_string}. *)

val to_string : Mapping.t -> string
(** The canonical rendering of a mapping.  Two instance texts that parse
    to the same mapping render identically (whatever their spacing,
    comments, line order or float spellings), and the rendering parses
    back to the same mapping — [parse ∘ to_string = id].  Floats are
    written as the shortest decimal that parses back to the same value;
    the default bandwidth is the [0 -> 1] link, and every other
    off-diagonal link that differs from it gets an override line. *)

val key : Mapping.t -> string
(** A bit-exact cache key: the same lines as {!to_string}, with every
    float written as its 16 hex IEEE-754 digits instead of a decimal.
    [key m1 = key m2] exactly when [to_string m1 = to_string m2] (both
    float encodings are injective, [-0] and [0] included), so equivalent
    instance texts share a key and a one-ulp difference does not.  It is
    not an instance text: it does not parse.  The query service's cache
    keys and ring placement are built on it. *)

(** {1 Multi-tenant instances}

    Version 1 of the multi-tenant block: one shared platform, then [K]
    tenant declarations, each a pipeline mapped onto the shared
    processors.  Declaration order is significant — it is the admission
    order of the tenancy tier.

    {v
    tenancy 1
    processors 4
    speeds    2 1 1 1.5
    bandwidth default 0.5
    bandwidth 0 1 0.35
    tenant a weight 2 floor 0.05
    stages 2
    work   3 4
    files  2
    team 0
    team 1 2
    tenant b weight 1 floor 0.01
    stages 1
    work   5
    team 3
    v}

    Different tenants may (and, for contention to matter, should) map
    teams onto the same processors; within one tenant the usual
    one-team-per-processor rule of {!Mapping.create} holds. *)

type tenant_decl = {
  tenant_id : string;  (** non-empty, no whitespace, unique in a block *)
  weight : float;  (** relative share weight; finite and positive *)
  floor : float;
      (** declared throughput floor for admission; finite, non-negative *)
  tenant_mapping : Mapping.t;  (** the tenant's pipeline on the shared platform *)
}

val parse_multi : string -> (tenant_decl list, string) result
(** Parse a versioned [tenancy] block.  The shared platform lines must
    precede the first [tenant] line; every tenant's mapping is built on
    the one shared {!Platform.t} (physically shared, so downstream code
    may compare platforms with [==]).  Validations mirror {!parse} and
    add: a leading [tenancy 1] version line, unique tenant ids, finite
    positive weights, finite non-negative floors, at least one tenant. *)

val parse_multi_file : string -> (tenant_decl list, string) result

val multi_to_string : tenant_decl list -> string
(** Canonical rendering of a tenant block; [parse_multi ∘ multi_to_string
    = id].  Raises [Invalid_argument] if the declarations do not share one
    platform. *)

val multi_key : tenant_decl list -> string
(** The bit-exact key of a tenant block, related to {!multi_to_string}
    as {!key} is to {!to_string}; the tenancy service tier keys its cache
    on it.  Raises [Invalid_argument] like {!multi_to_string}. *)
