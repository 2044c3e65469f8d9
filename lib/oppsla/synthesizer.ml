type iteration = {
  index : int;
  program : Condition.program;
  avg_queries : float;
  accepted : bool;
  pruned : bool;
  synth_queries_total : int;
}

type outcome = {
  final : Condition.program;
  final_avg_queries : float;
  best : Condition.program;
  best_avg_queries : float;
  trace : iteration list;
  synth_queries : int;
}

type config = {
  beta : float;
  max_iters : int;
  goal : Sketch.goal;
  max_queries_per_image : int option;
  max_synth_queries : int option;
  batch : int;
  on_iteration : iteration -> unit;
  evaluator :
    (Condition.program -> (Tensor.t * int) array -> Score.evaluation) option;
  early_stop : Score.pac option;
}

(* MH-loop telemetry: iteration/acceptance counters, per-node-class
   proposal counters, and one instant trace event per iteration carrying
   the score trajectory.  Observation only — the proposal slot is drawn
   exactly where [Gen.mutate] would draw it, so the RNG stream (and
   therefore the synthesizer trace) is bit-identical with telemetry on
   or off. *)
let m_iterations = Telemetry.Metrics.counter "synth.iterations"
let m_accepted = Telemetry.Metrics.counter "synth.accepted"
let m_pruned = Telemetry.Metrics.counter "synth.pruned"
let m_prop_root = Telemetry.Metrics.counter "synth.proposals.root"
let m_prop_condition = Telemetry.Metrics.counter "synth.proposals.condition"
let m_prop_function = Telemetry.Metrics.counter "synth.proposals.function"
let m_prop_constant = Telemetry.Metrics.counter "synth.proposals.constant"

let proposal_counter = function
  | "root" -> m_prop_root
  | "condition" -> m_prop_condition
  | "function" -> m_prop_function
  | _ -> m_prop_constant

(* Heartbeat: one beat per recorded MH iteration.  A full-scale
   iteration evaluates hundreds of training images, so the stall
   threshold for this loop is effectively per-evaluation — the
   per-query beats inside Sketch.attack cover the inner progress. *)
let wd_synth = Telemetry.Watchdog.loop "synth.mh"

let default_config =
  {
    beta = 0.02;
    max_iters = 210;
    goal = Sketch.Untargeted;
    max_queries_per_image = None;
    max_synth_queries = None;
    batch = 1;
    on_iteration = (fun _ -> ());
    evaluator = None;
    early_stop = None;
  }

let synthesize ?(config = default_config) ?pool ?caches g oracle ~training =
  if Array.length training = 0 then
    invalid_arg "Synthesizer.synthesize: empty training set";
  if config.batch < 1 then invalid_arg "Synthesizer.synthesize: batch < 1";
  let gen_config = Gen.config_for_image (fst training.(0)) in
  let evaluate =
    match (config.evaluator, pool) with
    | Some f, _ -> f
    | None, Some pool ->
        fun program samples ->
          Score.evaluate_parallel ?max_queries:config.max_queries_per_image
            ~goal:config.goal ?caches ~pool oracle program samples
    | None, None ->
        fun program samples ->
          Score.evaluate ?max_queries:config.max_queries_per_image
            ~goal:config.goal ?caches oracle program samples
  in
  let synth_queries = ref 0 in
  let eval_counted program =
    let avg = ref nan in
    let queries = ref 0 in
    Telemetry.Trace.span "synth.evaluate" ~cat:"synth"
      ~args:(fun () ->
        [
          ("samples", Telemetry.Trace.Int (Array.length training));
          ("avg_queries", Telemetry.Trace.Float !avg);
          ("queries", Telemetry.Trace.Int !queries);
        ])
    @@ fun () ->
    let e = evaluate program training in
    synth_queries := !synth_queries + e.Score.total_queries;
    avg := e.Score.avg_queries;
    queries := e.Score.total_queries;
    e.Score.avg_queries
  in
  (* PAC early stopping: active only when no custom evaluator owns the
     scoring.  The visiting permutation comes from a named stream of [g]'s
     root, so it depends only on the seed — not on how far the MH chain
     has advanced — and the chain stream [g] itself is never perturbed by
     the early-stop machinery. *)
  let early_stop =
    match (config.early_stop, config.evaluator) with
    | Some pac, None -> Some (pac, Prng.named_stream g "synth/early-stop")
    | _ -> None
  in
  let staged_counted ~threshold proposal =
    match early_stop with
    | None -> `Avg (eval_counted proposal)
    | Some (pac, es_g) ->
        let order = Prng.permutation es_g (Array.length training) in
        let avg = ref nan and queries = ref 0 and pruned = ref false in
        Telemetry.Trace.span "synth.evaluate" ~cat:"synth"
          ~args:(fun () ->
            [
              ("samples", Telemetry.Trace.Int (Array.length training));
              ("avg_queries", Telemetry.Trace.Float !avg);
              ("queries", Telemetry.Trace.Int !queries);
              ("pruned", Telemetry.Trace.Bool !pruned);
            ])
        @@ fun () ->
        match
          Score.evaluate_pac ?max_queries:config.max_queries_per_image
            ~goal:config.goal ?caches ?pool ~pac ~threshold ~order oracle
            proposal training
        with
        | Score.Complete e ->
            synth_queries := !synth_queries + e.Score.total_queries;
            avg := e.Score.avg_queries;
            queries := e.Score.total_queries;
            `Avg e.Score.avg_queries
        | Score.Pruned p ->
            synth_queries := !synth_queries + p.Score.queries_spent;
            avg := p.Score.lower_bound;
            queries := p.Score.queries_spent;
            pruned := true;
            `Cut p.Score.lower_bound
  in
  Telemetry.Journal.with_default_site "synth" @@ fun () ->
  Telemetry.Watchdog.with_loop wd_synth @@ fun () ->
  let current = ref (Gen.random_program gen_config g) in
  let current_avg = ref (eval_counted !current) in
  let best = ref !current and best_avg = ref !current_avg in
  let trace = ref [] in
  let record ~kind ?(pruned = false) index program avg_queries accepted =
    let it =
      {
        index;
        program;
        avg_queries;
        accepted;
        pruned;
        synth_queries_total = !synth_queries;
      }
    in
    Telemetry.Counter.incr m_iterations;
    if accepted then Telemetry.Counter.incr m_accepted;
    if pruned then Telemetry.Counter.incr m_pruned;
    Telemetry.Watchdog.beat ~iteration:index ~queries:!synth_queries wd_synth;
    Telemetry.Trace.instant "synth.iteration" ~cat:"synth"
      ~args:(fun () ->
        [
          ("index", Telemetry.Trace.Int index);
          ("kind", Telemetry.Trace.Str kind);
          ("avg_queries", Telemetry.Trace.Float avg_queries);
          ("accepted", Telemetry.Trace.Bool accepted);
          ("pruned", Telemetry.Trace.Bool pruned);
          ("synth_queries_total", Telemetry.Trace.Int !synth_queries);
        ]);
    config.on_iteration it;
    trace := it :: !trace
  in
  record ~kind:"seed" 0 !current !current_avg true;
  let budget_left () =
    match config.max_synth_queries with
    | None -> true
    | Some b -> !synth_queries < b
  in
  let iter = ref 1 in
  while !iter <= config.max_iters && budget_left () do
    (* Same draw [Gen.mutate] performs, pulled up so the proposal's node
       class can be counted without a second RNG draw. *)
    let slot = Prng.int g 13 in
    let kind = Gen.slot_kind slot in
    Telemetry.Counter.incr (proposal_counter kind);
    let proposal = Gen.mutate_slot gen_config g !current ~slot in
    (match staged_counted ~threshold:!current_avg proposal with
    | `Avg proposal_avg ->
        let ratio =
          Score.acceptance_ratio ~beta:config.beta ~current:!current_avg
            ~proposal:proposal_avg
        in
        let accepted = Prng.uniform g < ratio in
        if accepted then begin
          current := proposal;
          current_avg := proposal_avg
        end;
        if proposal_avg < !best_avg then begin
          best := proposal;
          best_avg := proposal_avg
        end;
        record ~kind !iter proposal proposal_avg accepted
    | `Cut lower_bound ->
        (* A pruned proposal is rejected outright: no acceptance draw is
           spent on it, it can never displace the incumbent or the best,
           and the recorded average is the lower bound that killed it. *)
        record ~kind ~pruned:true !iter proposal lower_bound false);
    incr iter
  done;
  {
    final = !current;
    final_avg_queries = !current_avg;
    best = !best;
    best_avg_queries = !best_avg;
    trace = List.rev !trace;
    synth_queries = !synth_queries;
  }
