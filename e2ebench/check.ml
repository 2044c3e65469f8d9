(* Output checks that do not trust the code under test.  They run after
   the timed phase, use fresh oracles and plain domains (not the pool),
   and return a list of error messages: empty means correct. *)

module W = Evalharness.Workbench

(* Order-preserving map over two plain domains: one spawned for the
   odd indices, the caller for the even ones. *)
let map2 f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  let run parity =
    let i = ref parity in
    while !i < n do
      out.(!i) <- Some (f xs.(!i));
      i := !i + 2
    done
  in
  let d = Domain.spawn (fun () -> run 1) in
  Fun.protect ~finally:(fun () -> Domain.join d) (fun () -> run 0);
  Array.map Option.get out

(* Re-score every final program with the sequential evaluator (no pool,
   no cache, batch width 1) and require the synthesizer's reported
   average bit for bit.  Returns the errors and the re-scored
   (successes, attempts) over all classes. *)
let synth (c : W.classifier) (r : Workload.synth_run) =
  let rescored =
    map2
      (fun (cr : Workload.class_run) ->
        ( cr,
          Oppsla.Score.evaluate ~max_queries:Workload.synth_cap ~batch:1
            (W.oracle_factory c ()) cr.outcome.Oppsla.Synthesizer.final
            cr.training ))
      (Array.of_list r.Workload.runs)
  in
  let errors =
    Array.to_list rescored
    |> List.filter_map (fun ((cr : Workload.class_run), (e : Oppsla.Score.evaluation)) ->
           let reported = cr.outcome.Oppsla.Synthesizer.final_avg_queries in
           if e.Oppsla.Score.avg_queries = reported then None
           else
             Some
               (Printf.sprintf
                  "synth class %d: reported avg %.17g, sequential re-score %.17g"
                  cr.class_id reported e.Oppsla.Score.avg_queries))
  in
  let successes, attempts =
    Array.fold_left
      (fun (s, a) (_, (e : Oppsla.Score.evaluation)) ->
        (s + e.Oppsla.Score.successes, a + e.Oppsla.Score.attempts))
      (0, 0) rescored
  in
  (errors, successes, attempts)

(* Every claimed success must flip the unmetered classification of the
   claimed pixel perturbation; every request stays within its
   allowance; and each OPPSLA outcome must equal the exhaustive
   unmetered scan ([Sketch.success_exists]) — a verified success is its
   own witness, so only the misses need the scan. *)
let attack (c : W.classifier) (responses : Workload.response array) =
  let oracle () = W.oracle_factory c () in
  let per_response =
    Array.to_list responses
    |> List.filter_map (fun (resp : Workload.response) ->
           let r = resp.Workload.request in
           match resp.Workload.result with
           | None -> None
           | Some res ->
               let allowance = Workload.full_allowance r.Workload.image in
               if
                 res.Oppsla.Sketch.queries < 0
                 || res.Oppsla.Sketch.queries > allowance
               then
                 Some
                   (Printf.sprintf "request %d: %d queries outside [0, %d]"
                      r.Workload.id res.Oppsla.Sketch.queries allowance)
               else
                 match res.Oppsla.Sketch.adversarial with
                 | None -> None
                 | Some (pair, _) ->
                     let label =
                       Oracle.unmetered_classify (oracle ())
                         (Oppsla.Sketch.perturb r.Workload.image pair)
                     in
                     if label <> r.Workload.true_class then None
                     else
                       Some
                         (Printf.sprintf
                            "request %d: claimed pixel %s leaves class %d"
                            r.Workload.id (Oppsla.Pair.to_string pair) label))
  in
  let missed =
    Array.to_list responses
    |> List.filter_map (fun (resp : Workload.response) ->
           let r = resp.Workload.request in
           match (r.Workload.attacker, resp.Workload.result) with
           | Workload.Oppsla_program, Some { Oppsla.Sketch.adversarial = None; _ }
             ->
               Some r
           | _ -> None)
    |> List.sort_uniq (fun a b ->
           compare a.Workload.image_index b.Workload.image_index)
    |> Array.of_list
  in
  let exists =
    map2
      (fun (r : Workload.request) ->
        ( r,
          Oppsla.Sketch.success_exists (oracle ()) ~image:r.Workload.image
            ~true_class:r.Workload.true_class ))
      missed
  in
  let scan =
    Array.to_list exists
    |> List.filter_map (fun ((r : Workload.request), found) ->
           if found then
             Some
               (Printf.sprintf
                  "image %d: OPPSLA found nothing at the full allowance but \
                   an adversarial pixel exists"
                  r.Workload.image_index)
           else None)
  in
  per_response @ scan

(* The journal must pass the strict offline audit (framing and
   per-record checksums) and hold exactly one record per charged
   query. *)
let journal path ~queries =
  match Evalharness.Audit.load_strict path with
  | j ->
      let n = List.length j.Evalharness.Audit.records in
      ( (if n = queries then []
         else
           [
             Printf.sprintf "journal %s: %d records for %d charged queries"
               path n queries;
           ]),
        n )
  | exception Evalharness.Audit.Invalid msg ->
      ([ Printf.sprintf "journal %s: audit failed: %s" path msg ], 0)
