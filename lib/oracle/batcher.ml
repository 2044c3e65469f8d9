(* The keyed query path: one candidate in, one metered answer out.

   The attack is a sequential decision process — each answer may reorder
   what comes next — so a query resolves exactly the candidate it is
   posed: the budget check, a cache lookup, on a miss one forward pass
   of that one image, the cache add, then the charge.  An uncached
   charged query therefore costs exactly one forward image, and a query
   the budget refuses costs none. *)

type candidate = { key : Score_cache.key; input : unit -> Tensor.t }

type t = { oracle : Oracle.t; cache : Score_cache.t option }

type stats = {
  queries : int;
  batches : int;
  prepared : int;
  buffer_hits : int;
  discarded : int;
}

(* Charged queries, aggregated across every batcher and domain (attacks
   under the pool run concurrently, hence the atomic registry counter).
   Each query resolves one candidate on its own, so it is also one
   chunk and one prepared candidate. *)
let g_queries = Telemetry.Metrics.counter "batcher.queries"

let global_stats () =
  let q = Telemetry.Counter.get g_queries in
  { queries = q; batches = q; prepared = q; buffer_hits = 0; discarded = 0 }

let reset_global_stats () = Telemetry.Counter.reset g_queries

let create ?cache oracle =
  let cache = match cache with Some _ as c -> c | None -> Oracle.cache oracle in
  { oracle; cache }

let forward t cand = (Oracle.eval_batch t.oracle [| cand.input () |]).(0)

let query t cand =
  (* Refuse before any work: an exhausted budget raises at the same
     index as {!Oracle.scores}, with no lookup and no forward. *)
  (match Oracle.budget t.oracle with
  | Some b when Oracle.exhausted t.oracle -> raise (Oracle.Budget_exhausted b)
  | _ -> ());
  let score, hit =
    match t.cache with
    | None -> (forward t cand, false)
    | Some c -> (
        match Score_cache.find_counted c cand.key with
        | Some s -> (s, true)
        | None ->
            let s = forward t cand in
            Score_cache.add c cand.key s;
            (s, false))
  in
  Oracle.meter ~kind:(Score_cache.key_kind cand.key) ~ckey:cand.key ~hit
    t.oracle;
  Telemetry.Counter.incr g_queries;
  score
