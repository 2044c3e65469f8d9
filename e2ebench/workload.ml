(* The three workloads, driven through the library's public API only.

   Untraced units run exactly the code paths of [oppsla synthesize] and
   [oppsla attack]; traced units swap in a forward-pass wrapper
   ([Oracle.of_fn] around the real oracle) and, for synthesis, an
   evaluator rebuilt from public pieces, so spans can be recorded around
   every call into each layer without touching the library.  Both must
   charge the same queries: [Main] compares their exact counters. *)

module W = Evalharness.Workbench
module Pool = Domain_pool.Pool
module Attackers = Evalharness.Attackers

(* ------------------------------------------------------------------ *)
(* Set-up *)

let arch = "vgg_tiny"

type size = {
  data : W.config;  (** dataset sizes and training schedule *)
  synth_iters : int;  (** MH iterations per class on [synth*] *)
  program_iters : int;  (** MH iterations of the [attack] set-up's synthesis *)
  requests : int;  (** per [attack] unit *)
  program_cap : int;  (** per-image query cap of that short synthesis *)
  setups : int;  (** set-up repetitions behind the [setup_s] median *)
}

(* Program defaults, minus the on-disk artifact cache: the dataset,
   weights and programs are rebuilt on every set-up, never read from or
   written to [_artifacts/].  The dataset and the classifier are the
   program's defaults (data seed 42) whatever the benchmark seed: a
   seed that regenerated them changed the attackable share of the
   images, and with it the work of a run, by more than any bound a gate
   could hold (see README.md).  The benchmark seed drives the
   pipeline's own random choices instead. *)
let full =
  {
    data = { W.default_config with artifacts_dir = None };
    synth_iters = 10;
    program_iters = 1;
    requests = 100;
    program_cap = 256;
    setups = 2;
  }

(* Seconds-long sizes for the self-test. *)
let smoke =
  {
    data =
      {
        full.data with
        train_per_class = 12;
        test_per_class = 2;
        synth_per_class = 3;
        epochs = 2;
      };
    synth_iters = 2;
    program_iters = 1;
    requests = 12;
    program_cap = 64;
    setups = 1;
  }

let classifier size = W.load_classifier size.data Dataset.synth_cifar arch

(* ------------------------------------------------------------------ *)
(* Forward-pass wrapper *)

let traced_oracle real =
  Oracle.of_fn ~name:(Oracle.name real) ~num_classes:(Oracle.num_classes real)
    ~batch_fn:(fun xs ->
      Span.with_ ~n:(Array.length xs) "nn.forward" (fun () ->
          Oracle.eval_batch real xs))
    (fun x -> Span.with_ ~n:1 "nn.forward" (fun () -> Oracle.unmetered_scores real x))

let oracle_factory ~traced c =
  if traced then fun () -> traced_oracle (W.oracle_factory c ())
  else W.oracle_factory c

(* ------------------------------------------------------------------ *)
(* Synthesis (Algorithm 2) *)

(* The program default per-image cap of every synthesis attack. *)
let synth_cap = W.default_synth_params.W.synth_max_queries_per_image

type class_run = {
  class_id : int;
  training : (Tensor.t * int) array;
  outcome : Oppsla.Synthesizer.outcome;
  store : Score_cache.store;
  wall_s : float;  (** the class's synthesis, start to finish *)
}

type synth_run = { runs : class_run list; failed_classes : int }

(* [Score.evaluate_parallel] rebuilt from [Pool.map], [Oracle.clone],
   [Sketch.attack] and [Score.of_results], with a span around each
   call.  Each image keeps its own cache slot, as the library's
   evaluator does. *)
let traced_evaluator ~cap ~pool ~store oracle program samples =
  Span.with_ "score.eval" @@ fun () ->
  let site = Telemetry.Journal.site () in
  Span.with_ "pool.map" @@ fun () ->
  let parent = Span.current () in
  Oppsla.Score.of_results
    (Pool.map pool
       (fun (i, (image, true_class)) ->
         Span.with_ ~parent "sketch.attack" @@ fun () ->
         Telemetry.Journal.with_site site @@ fun () ->
         Telemetry.Journal.with_image i @@ fun () ->
         Oppsla.Sketch.attack ~max_queries:cap
           ~cache:(Score_cache.image_cache store i)
           ~batch:W.default_synth_params.W.batch (Oracle.clone oracle) program
           ~image ~true_class)
       (Array.mapi (fun i s -> (i, s)) samples))

let synth_class ~traced ~pool ~iters ~cap ~seed (c : W.classifier) class_id =
  let training = c.W.synth_sets.(class_id) in
  let store = Score_cache.store (Array.length training) in
  let oracle = oracle_factory ~traced c () in
  let config =
    {
      Oppsla.Synthesizer.default_config with
      beta = W.default_synth_params.W.beta;
      max_iters = iters;
      max_queries_per_image = Some cap;
      batch = W.default_synth_params.W.batch;
      early_stop = None;
      evaluator =
        (if traced then Some (traced_evaluator ~cap ~pool ~store oracle) else None);
    }
  in
  let g =
    Prng.named_stream (Prng.of_int seed)
      (Printf.sprintf "synth/%s/%s/%d" c.W.spec.Dataset.name arch class_id)
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Span.with_ ~req:class_id "synthesizer.synthesize" (fun () ->
        Oppsla.Synthesizer.synthesize ~config ~pool ~caches:store g oracle
          ~training)
  in
  { class_id; training; outcome; store; wall_s = Unix.gettimeofday () -. t0 }

(* Every class with a non-empty synthesis set (a class whose every
   synthesis image is misclassified has nothing to attack). *)
let synth ?(cap = synth_cap) ~traced ~pool ~iters ~seed c =
  let failed = ref 0 in
  let runs =
    List.filter_map
      (fun class_id ->
        if Array.length c.W.synth_sets.(class_id) = 0 then None
        else
          match synth_class ~traced ~pool ~iters ~cap ~seed c class_id with
          | r -> Some r
          | exception e ->
              Printf.eprintf "[e2ebench] class %d raised %s\n%!" class_id
                (Printexc.to_string e);
              incr failed;
              None)
      (List.init c.W.spec.Dataset.num_classes Fun.id)
  in
  { runs; failed_classes = !failed }

let synth_queries r =
  List.fold_left (fun a cr -> a + cr.outcome.Oppsla.Synthesizer.synth_queries) 0 r.runs

let evaluations r =
  List.fold_left
    (fun a cr -> a + List.length cr.outcome.Oppsla.Synthesizer.trace)
    0 r.runs

let accepted r =
  List.fold_left
    (fun a cr ->
      a
      + List.length
          (List.filter
             (fun (it : Oppsla.Synthesizer.iteration) ->
               it.index > 0 && it.accepted)
             cr.outcome.Oppsla.Synthesizer.trace))
    0 r.runs

let sketch_attacks r =
  List.fold_left
    (fun a cr ->
      a
      + List.length cr.outcome.Oppsla.Synthesizer.trace
        * Array.length cr.training)
    0 r.runs

(* The paper's quantity on the synthesis side: the mean over classes of
   the final program's training average.  A class none of whose
   synthesis images falls within the cap carries the no-success
   penalty instead of an average, and is left out. *)
let synth_avg_queries r =
  let avgs =
    List.filter_map
      (fun cr ->
        let a = cr.outcome.Oppsla.Synthesizer.final_avg_queries in
        if a >= Oppsla.Score.no_success_penalty then None else Some a)
      r.runs
  in
  List.fold_left ( +. ) 0. avgs /. float_of_int (max 1 (List.length avgs))

let cache_mb r =
  List.fold_left
    (fun a cr -> a + (Score_cache.store_stats cr.store).Score_cache.bytes)
    0 r.runs
  |> fun b -> float_of_int b /. 1e6

(* Everything a second run of the same seed must reproduce exactly. *)
let synth_signature r =
  List.map
    (fun cr ->
      ( cr.class_id,
        Oppsla.Dsl.print_program cr.outcome.Oppsla.Synthesizer.final,
        cr.outcome.Oppsla.Synthesizer.final_avg_queries,
        cr.outcome.Oppsla.Synthesizer.synth_queries ))
    r.runs

(* ------------------------------------------------------------------ *)
(* Attack: a closed loop of [Pool.size pool] clients *)

type attacker = Oppsla_program | Sparse_rs

type request = {
  id : int;
  image_index : int;  (** into the classifier's attackable test set *)
  image : Tensor.t;
  true_class : int;
  attacker : attacker;
}

type response = {
  request : request;
  result : Oppsla.Sketch.result option;  (** [None]: the attack raised *)
  latency_s : float;
}

(* [count] requests (100 at full size, so the p90 latency has ten
   samples beyond it): the first [count / 2] attackable test images
   (cycling if there are fewer), each once per attacker, issued in a
   seed-drawn order. *)
let requests ~count ~seed (c : W.classifier) =
  let test = c.W.test in
  let n = Array.length test in
  if n = 0 then invalid_arg "e2ebench: no attackable test image";
  let order = Prng.permutation (Prng.named_stream (Prng.of_int seed) "e2e/requests") count in
  Array.init count (fun id ->
      let slot = order.(id) in
      let image_index = slot / 2 mod n in
      let image, true_class = test.(image_index) in
      {
        id;
        image_index;
        image;
        true_class;
        attacker = (if slot mod 2 = 0 then Oppsla_program else Sparse_rs);
      })

let full_allowance image = 8 * Tensor.dim image 1 * Tensor.dim image 2

let attack ~traced ~pool ~seed ~programs c reqs =
  let factory = oracle_factory ~traced c in
  let oppsla = Attackers.oppsla ~programs in
  Span.with_ "pool.map" @@ fun () ->
  let parent = Span.current () in
  Pool.map pool
    (fun r ->
      let t, span =
        match r.attacker with
        | Oppsla_program -> (oppsla, "sketch.attack")
        | Sparse_rs -> (Attackers.sparse_rs, "sparse_rs.attack")
      in
      let t0 = Unix.gettimeofday () in
      let result =
        match
          Span.with_ ~parent ~req:r.id span (fun () ->
              Attackers.run_one t
                ~seed:((seed * 100_003) + r.image_index)
                ~oracle_factory:factory ~max_queries:(full_allowance r.image)
                ~image:r.image ~true_class:r.true_class)
        with
        | res -> Some res
        | exception e ->
            Printf.eprintf "[e2ebench] request %d raised %s\n%!" r.id
              (Printexc.to_string e);
            None
      in
      { request = r; result; latency_s = Unix.gettimeofday () -. t0 })
    reqs

let attack_queries responses =
  Array.fold_left
    (fun a r ->
      match r.result with Some res -> a + res.Oppsla.Sketch.queries | None -> a)
    0 responses

let attack_failed responses =
  Array.fold_left
    (fun a r -> if r.result = None then a + 1 else a)
    0 responses

let oppsla_results responses =
  Array.to_list responses
  |> List.filter_map (fun r ->
         match (r.request.attacker, r.result) with
         | Oppsla_program, Some res -> Some res
         | _ -> None)

let success_rate responses =
  let rs = oppsla_results responses in
  let wins =
    List.filter (fun r -> r.Oppsla.Sketch.adversarial <> None) rs
  in
  float_of_int (List.length wins) /. float_of_int (max 1 (List.length rs))

(* Mean queries per successful OPPSLA attack: Fig. 3's quantity. *)
let attack_avg_queries responses =
  let wins =
    List.filter
      (fun r -> r.Oppsla.Sketch.adversarial <> None)
      (oppsla_results responses)
  in
  float_of_int
    (List.fold_left (fun a r -> a + r.Oppsla.Sketch.queries) 0 wins)
  /. float_of_int (max 1 (List.length wins))

let attack_signature responses =
  Array.to_list responses
  |> List.map (fun r ->
         match r.result with
         | None -> (r.request.id, -1, false)
         | Some res ->
             ( r.request.id,
               res.Oppsla.Sketch.queries,
               res.Oppsla.Sketch.adversarial <> None ))
