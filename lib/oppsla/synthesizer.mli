(** OPPSLA: the Metropolis-Hastings program synthesizer (Algorithm 2).

    Starting from a random instantiation of the sketch, each iteration
    mutates the current program's AST ({!Gen.mutate}), evaluates the
    proposal's average query count on the training set, and accepts it
    with probability [min 1 (S(P') / S(P))].  The chain position after the
    last iteration is returned, together with the best program seen and a
    full trace (used by the Figure 4 experiment, which plots the quality
    of intermediate accepted programs against cumulative synthesis
    queries). *)

type iteration = {
  index : int;  (** 0 is the initial random program *)
  program : Condition.program;
  avg_queries : float;
      (** training-set average of the proposal; for a pruned proposal,
          the early-stop lower bound that killed it *)
  accepted : bool;
  pruned : bool;
      (** the proposal was abandoned by PAC early stopping before the
          full training set was evaluated (implies [not accepted]) *)
  synth_queries_total : int;
      (** cumulative oracle queries spent by the synthesis so far *)
}

type outcome = {
  final : Condition.program;  (** the chain position — Algorithm 2's output *)
  final_avg_queries : float;
  best : Condition.program;  (** lowest training average seen *)
  best_avg_queries : float;
  trace : iteration list;  (** chronological *)
  synth_queries : int;
}

type config = {
  beta : float;  (** score temperature; default 0.02 *)
  max_iters : int;  (** MH iterations; default 210, as in Appendix C *)
  goal : Sketch.goal;
      (** attack goal the programs are optimized for; default untargeted *)
  max_queries_per_image : int option;
      (** per-attack cap during evaluation; [None] = full space *)
  max_synth_queries : int option;
      (** stop early once this many synthesis queries were spent *)
  batch : int;
      (** kept only for [e2ebench/]; default 1.  {!synthesize} raises
          [Invalid_argument] below 1 and otherwise ignores it. *)
  on_iteration : iteration -> unit;  (** progress hook *)
  evaluator :
    (Condition.program -> (Tensor.t * int) array -> Score.evaluation) option;
      (** custom program evaluator (e.g. a parallel one); when [None], a
          sequential {!Score.evaluate} against the given oracle is used.
          Synthesis query accounting always comes from the returned
          evaluations' [total_queries]. *)
  early_stop : Score.pac option;
      (** when set (and [evaluator] is [None]), proposals are scored with
          {!Score.evaluate_pac}: each candidate is evaluated in a
          per-iteration permuted order drawn from a dedicated
          [named_stream] of the chain seed, and abandoned once its
          early-stop lower bound exceeds the incumbent's average.  Pruned
          proposals are rejected without an acceptance draw, so the chain
          stream [g] sees one fewer draw on those iterations — early
          stopping trades exact MH semantics for queries, which is why
          [None] (the default, and the [--no-early-stop] CLI hatch)
          restores bit-exact scoring.  Given the same seed, early-stopped
          synthesis is itself fully deterministic. *)
}

val default_config : config

val synthesize :
  ?config:config ->
  ?pool:Domain_pool.Pool.t ->
  ?caches:Score_cache.store ->
  Prng.t ->
  Oracle.t ->
  training:(Tensor.t * int) array ->
  outcome
(** [synthesize g oracle ~training].  The image dimensions (for threshold
    ranges) are read from the first training image.  Raises
    [Invalid_argument] on an empty training set.

    When [pool] is given (and no [config.evaluator] overrides it), every
    Metropolis-Hastings proposal is evaluated with
    {!Score.evaluate_parallel} over the pool — per-image {!Oracle.clone}s
    of [oracle], results merged in image order — which leaves the
    accepted-program trace and all query accounting bit-identical to the
    sequential default for any pool size.  An explicit [config.evaluator]
    always wins over [pool].

    [caches] (one {!Score_cache.t} per training image, shared across
    every candidate program of the run) memoizes the perturbation forward
    passes that successive MH proposals re-pose; because metering stays
    above the cache, the trace, query spend and outcome are bit-identical
    with and without it — this is the synthesis wall-clock lever, not a
    semantics knob.  Ignored when [config.evaluator] is set (a custom
    evaluator owns its own caching). *)
