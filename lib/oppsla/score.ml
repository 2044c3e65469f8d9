type image_eval = { queries : int; success : bool }

type evaluation = {
  avg_queries : float;
  successes : int;
  attempts : int;
  total_queries : int;
  per_image : image_eval array;
}

let no_success_penalty = 1e9

(* Merging attack results into an evaluation always walks the results in
   image (index) order, so the parallel evaluator is bit-identical to the
   sequential one: same integer sums, same float division, same flags. *)
let of_results results =
  let per_image =
    Array.map
      (fun (r : Sketch.result) ->
        { queries = r.Sketch.queries; success = r.Sketch.adversarial <> None })
      results
  in
  let successes = ref 0 and success_queries = ref 0 and total = ref 0 in
  Array.iter
    (fun r ->
      total := !total + r.queries;
      if r.success then begin
        incr successes;
        success_queries := !success_queries + r.queries
      end)
    per_image;
  let avg_queries =
    if !successes = 0 then no_success_penalty
    else float_of_int !success_queries /. float_of_int !successes
  in
  {
    avg_queries;
    successes = !successes;
    attempts = Array.length results;
    total_queries = !total;
    per_image;
  }

(* Cache plumbing shared by both evaluators: a store is strictly
   per-image (slot i memoizes sample i), and an oracle handle carrying an
   *attached* per-image cache must not be fanned over a batch — that
   would alias one image's table across every sample.  Fail loudly
   instead of silently returning wrong scores. *)
let check_caches name caches oracle samples =
  (match caches with
  | Some store when Score_cache.store_size store <> Array.length samples ->
      invalid_arg
        (Printf.sprintf "%s: cache store has %d slots for %d samples" name
           (Score_cache.store_size store)
           (Array.length samples))
  | _ -> ());
  if Oracle.cache oracle <> None then
    invalid_arg
      (name
     ^ ": oracle has an attached per-image cache (Oracle.set_cache); pass \
        ~caches so each sample gets its own slot")

let slot caches i = Option.map (fun s -> Score_cache.image_cache s i) caches

(* Same heartbeat slot Sketch.attack beats per query; the evaluators
   stamp the image index onto it so /healthz shows which sample a
   wedged evaluation was working on (last-writer-wins across domains). *)
let wd_attack = Telemetry.Watchdog.loop "sketch.attack"

let evaluate ?max_queries ?goal ?caches ?batch oracle program samples =
  (match batch with
  | Some b when b < 1 -> invalid_arg "Score.evaluate: batch < 1"
  | _ -> ());
  check_caches "Score.evaluate" caches oracle samples;
  of_results
    (Array.mapi
       (fun i (image, true_class) ->
         Telemetry.Watchdog.beat ~image:i wd_attack;
         Telemetry.Journal.with_image i @@ fun () ->
         Sketch.attack ?max_queries ?goal ?cache:(slot caches i) oracle
           program ~image ~true_class)
       samples)

let evaluate_parallel ?max_queries ?goal ?caches ~pool oracle program
    samples =
  check_caches "Score.evaluate_parallel" caches oracle samples;
  (* Journal context is domain-local; a pool worker starts with an empty
     one.  Capture the caller's charge-site tag here and re-apply it in
     the worker so parallel charges attribute identically to sequential
     ones. *)
  let site = Telemetry.Journal.site () in
  of_results
    (Domain_pool.Pool.map pool
       (fun (i, (image, true_class)) ->
         (* The clone has no attached cache by construction; the image's
            own slot is re-attached explicitly, so a cache is only ever
            touched by the one domain attacking its image. *)
         Telemetry.Watchdog.beat ~image:i wd_attack;
         Telemetry.Journal.with_site site @@ fun () ->
         Telemetry.Journal.with_image i @@ fun () ->
         Sketch.attack ?max_queries ?goal ?cache:(slot caches i)
           (Oracle.clone oracle) program ~image ~true_class)
       (Array.mapi (fun i s -> (i, s)) samples))

(* PAC early stopping (ROADMAP item 3): evaluate a candidate on a
   permuted prefix of the training set and abandon it as soon as a lower
   bound on its final average exceeds the incumbent's.  Two bounds are
   combined; whichever is larger prunes:

   - a *certified* optimistic-completion bound: every unevaluated image
     could still succeed in one query, so the final average over
     successes is at least (sq + n_rem) / (succ + n_rem) — monotone
     algebra, no probability involved;
   - a Hoeffding bound on the mean over successes: with [succ] success
     samples in [0, range], the empirical mean overestimates the true
     mean by more than range * sqrt(ln(1/delta) / (2 succ)) with
     probability at most delta.

   A candidate that is never pruned completes on every image, and the
   integer per-image results are merged in input order by [of_results],
   so [Complete] is bit-identical to the exact evaluators regardless of
   the visiting order. *)

type pac = { delta : float; min_images : int; stage : int; range : float option }

let default_pac = { delta = 0.05; min_images = 10; stage = 10; range = None }

type pruned_stats = {
  lower_bound : float;
  images_seen : int;
  queries_spent : int;
}

type staged = Complete of evaluation | Pruned of pruned_stats

let evaluate_pac ?max_queries ?goal ?caches ?pool ~pac ~threshold ~order oracle
    program samples =
  check_caches "Score.evaluate_pac" caches oracle samples;
  let n = Array.length samples in
  if Array.length order <> n then
    invalid_arg
      (Printf.sprintf "Score.evaluate_pac: order has %d entries for %d samples"
         (Array.length order) n);
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Score.evaluate_pac: order is not a permutation";
      seen.(i) <- true)
    order;
  let range =
    match (pac.range, max_queries) with
    | Some r, _ -> r
    | None, Some cap -> float_of_int cap
    | None, None ->
        invalid_arg
          "Score.evaluate_pac: the Hoeffding bound needs pac.range or \
           max_queries"
  in
  if pac.stage <= 0 then invalid_arg "Score.evaluate_pac: stage must be positive";
  let results = Array.make n None in
  (* Same capture as [evaluate_parallel]: [fill] may run in a pool
     worker whose journal context is empty. *)
  let site = Telemetry.Journal.site () in
  let fill k =
    let i = order.(k) in
    let image, true_class = samples.(i) in
    Telemetry.Watchdog.beat ~image:i wd_attack;
    let o = match pool with None -> oracle | Some _ -> Oracle.clone oracle in
    ( i,
      Telemetry.Journal.with_site site @@ fun () ->
      Telemetry.Journal.with_image i @@ fun () ->
      Sketch.attack ?max_queries ?goal ?cache:(slot caches i) o program ~image
        ~true_class )
  in
  let run_stage lo hi =
    match pool with
    | None ->
        for k = lo to hi - 1 do
          let i, r = fill k in
          results.(i) <- Some r
        done
    | Some pool ->
        Array.iter
          (fun (i, r) -> results.(i) <- Some r)
          (Domain_pool.Pool.map pool fill
             (Array.init (hi - lo) (fun j -> lo + j)))
  in
  let evaluated = ref 0 in
  let verdict = ref None in
  while !verdict = None && !evaluated < n do
    let hi = min n (!evaluated + pac.stage) in
    run_stage !evaluated hi;
    evaluated := hi;
    if !evaluated < n && !evaluated >= pac.min_images then begin
      let succ = ref 0 and sq = ref 0 and spent = ref 0 in
      for k = 0 to !evaluated - 1 do
        match results.(order.(k)) with
        | Some (r : Sketch.result) ->
            spent := !spent + r.Sketch.queries;
            if r.Sketch.adversarial <> None then begin
              incr succ;
              sq := !sq + r.Sketch.queries
            end
        | None -> assert false
      done;
      let n_rem = n - !evaluated in
      let certified =
        (* succ + n_rem > 0 here because n_rem >= 1. *)
        float_of_int (!sq + n_rem) /. float_of_int (!succ + n_rem)
      in
      let statistical =
        if !succ = 0 then neg_infinity
        else
          (float_of_int !sq /. float_of_int !succ)
          -. (range
             *. sqrt (log (1. /. pac.delta) /. (2. *. float_of_int !succ)))
      in
      let lower_bound = Float.max certified statistical in
      if lower_bound > threshold then
        verdict :=
          Some
            (Pruned
               {
                 lower_bound;
                 images_seen = !evaluated;
                 queries_spent = !spent;
               })
    end
  done;
  match !verdict with
  | Some v -> v
  | None ->
      Complete
        (of_results
           (Array.map
              (function Some r -> r | None -> assert false)
              results))

let score ~beta avg_queries = exp (-.beta *. avg_queries)

let acceptance_ratio ~beta ~current ~proposal =
  exp (beta *. (current -. proposal))
