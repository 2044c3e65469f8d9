(** The keyed query path: one candidate, one metered answer.

    A [Batcher.t] sits between a sequential attacker and a metered
    {!Oracle.t}.  Each {!query} names the candidate the attacker is
    posing now by its {!Score_cache.key} identity and resolves exactly
    that candidate: a cache lookup, on a miss one forward pass of that
    one image ({!Oracle.eval_batch}), the cache add, then one charge
    through {!Oracle.meter}.  Every uncached charged query therefore
    costs exactly one forward image, and query counts, success flags,
    [Budget_exhausted] indices and synthesizer traces are bit-identical
    with and without a cache.

    Candidate keys must uniquely identify the perturbed input within the
    attacked image, exactly as cache keys must ({!Score_cache.key}); the
    same keys serve both purposes.  (The module keeps its name and its
    {!stats} record for [e2ebench/], which reads them.) *)

type candidate = {
  key : Score_cache.key;  (** identity of the perturbed input *)
  input : unit -> Tensor.t;  (** builds the input; called only on miss *)
}

type t

val create : ?cache:Score_cache.t -> Oracle.t -> t
(** [create oracle]: a query path over [oracle], using [cache] (default:
    the oracle's attached cache, see {!Oracle.set_cache}) to answer
    known candidates without a forward pass and to store new ones. *)

val query : t -> candidate -> Tensor.t
(** One metered query.  Meters exactly like {!Oracle.scores}: same
    counter increment, same {!Oracle.Budget_exhausted} at the same query
    index.  A query the budget refuses raises before any cache lookup or
    forward pass. *)

(** {1 Statistics}

    Counters are global (atomic, summed across all batchers and
    domains).  The record keeps the fields [e2ebench/] reads: a query
    resolves one candidate on its own, so [batches] and [prepared]
    equal [queries], and [buffer_hits] and [discarded] are always 0. *)

type stats = {
  queries : int;  (** metered queries served *)
  batches : int;  (** candidates resolved one at a time: [queries] *)
  prepared : int;  (** candidates resolved: [queries] *)
  buffer_hits : int;  (** always 0 *)
  discarded : int;  (** always 0 *)
}

val global_stats : unit -> stats
val reset_global_stats : unit -> unit
