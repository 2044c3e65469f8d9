(* End-to-end OPPSLA benchmark: one workload, one seed, one JSON line.

     main.exe --workload synth|attack|synth_journal --seed N --seconds S
              --trace 0|1 [--domains D] [--out DIR]
     main.exe --self-test [--out DIR]
     main.exe --compare A.json B.json

   A run sets up (generates the program-default SynthCIFAR inputs and
   trains vgg_tiny, plus a short synthesis for [attack]) [setups] times,
   then repeats the workload's fixed unit of work until [--seconds] have
   passed, checks the last unit's outputs, and prints every metric as
   "name value unit" followed by one JSON object as the last line.  The
   seed drives the pipeline's random choices: MH chains, Sparse-RS and
   the order of attack requests.
   [--trace 0] reports the end-to-end metrics; [--trace 1] alternates
   untraced and traced units and reports the per-layer ledger, whose
   spans are written as a Chrome trace that [tools/traceprof.exe]
   reads.  Exit 1 when an output check fails, 2 on bad arguments. *)

module W = Evalharness.Workbench
module Pool = Domain_pool.Pool
module Stats = Evalharness.Stats
module Traceprof = Evalharness.Traceprof

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs = Stats.median (Array.of_list xs)
let quantile xs q = Stats.quantile (Array.of_list xs) q
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* Host fingerprint *)

type fingerprint = { nproc : int; ocaml : string; probe_images_per_s : float }

(* Forward images per second of a fixed, untrained vgg_tiny on a fixed
   16-image batch: the median of ten 0.1 s windows. *)
let fingerprint () =
  let net =
    Nn.Zoo.vgg_tiny (Prng.of_int 1) ~image_size:16 ~num_classes:10
  in
  let oracle = Oracle.of_network net in
  let g = Prng.of_int 2 in
  let batch =
    Array.init 16 (fun i ->
        Dataset.generate Dataset.synth_cifar g ~class_id:(i mod 10))
  in
  let window () =
    let t0 = now () and images = ref 0 in
    while now () -. t0 < 0.1 do
      ignore (Oracle.eval_batch oracle batch);
      images := !images + Array.length batch
    done;
    fi !images /. (now () -. t0)
  in
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    probe_images_per_s = median (List.init 10 (fun _ -> window ()));
  }

(* ------------------------------------------------------------------ *)
(* Units of work *)

type workload = Synth | Attack | Synth_journal

let workload_of_string = function
  | "synth" -> Some Synth
  | "attack" -> Some Attack
  | "synth_journal" -> Some Synth_journal
  | _ -> None

let workload_name = function
  | Synth -> "synth"
  | Attack -> "attack"
  | Synth_journal -> "synth_journal"

type ctx = {
  workload : workload;
  size : Workload.size;
  seed : int;
  classifier : W.classifier;
  programs : Oppsla.Condition.program array;  (** [attack] only *)
  requests : Workload.request array;  (** [attack] only *)
  pool : Pool.t;
  out : string;
}

type outcome =
  | Synth_out of Workload.synth_run
  | Attack_out of Workload.response array

type journal = { path : string; close_s : float }

type unit_run = {
  traced : bool;
  wall : float;
  cpu : float;
  outcome : outcome;
  queries : int;
  attempted : int;
  failed : int;
  latencies : float list;
      (** seconds: per attack request, or per class synthesized *)
  signature : string;  (** digest of every exact per-item result *)
  gc_minor : int;
  gc_major : int;
  minor_words : float;
  major_words : float;
  batcher : Batcher.stats;
  pool_jobs : int;
  pool_tasks : int;
  pool_steals : int;
  pool_busy : float;
  cache_hits : int;
  cache_misses : int;
  journal : journal option;
  spans : Span.t list;
}

(* The score cache's own public counters: global across every store,
   so they also prove that [attack] never consults a cache. *)
let cache_hits = Telemetry.Metrics.counter "cache.hits"
let cache_misses = Telemetry.Metrics.counter "cache.misses"

let run_unit ctx ~traced =
  let journal_path =
    Filename.concat ctx.out
      (if traced then "journal-traced.jsonl" else "journal.jsonl")
  in
  if ctx.workload = Synth_journal then begin
    if Sys.file_exists journal_path then Sys.remove journal_path;
    Telemetry.Journal.to_file journal_path
  end;
  Batcher.reset_global_stats ();
  let p0 = Pool.stats ctx.pool in
  let h0 = Telemetry.Counter.get cache_hits
  and m0 = Telemetry.Counter.get cache_misses in
  let g0 = Gc.quick_stat () in
  if traced then Span.start ();
  let t0 = now () and c0 = cpu_now () in
  let outcome =
    match ctx.workload with
    | Synth | Synth_journal ->
        Synth_out
          (Workload.synth ~traced ~pool:ctx.pool ~iters:ctx.size.synth_iters
             ~seed:ctx.seed ctx.classifier)
    | Attack ->
        Attack_out
          (Workload.attack ~traced ~pool:ctx.pool ~seed:ctx.seed
             ~programs:ctx.programs ctx.classifier ctx.requests)
  in
  let journal =
    if ctx.workload = Synth_journal then begin
      let t = now () in
      Telemetry.Journal.close ();
      Some { path = journal_path; close_s = now () -. t }
    end
    else None
  in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let spans = if traced then Span.stop () else [] in
  let g1 = Gc.quick_stat () in
  let p1 = Pool.stats ctx.pool in
  let queries, attempted, failed, latencies, signature =
    match outcome with
    | Synth_out r ->
        ( Workload.synth_queries r,
          Workload.evaluations r + r.Workload.failed_classes,
          r.Workload.failed_classes,
          List.map (fun cr -> cr.Workload.wall_s) r.Workload.runs,
          Digest.string (Marshal.to_string (Workload.synth_signature r) []) )
    | Attack_out rs ->
        ( Workload.attack_queries rs,
          Array.length rs,
          Workload.attack_failed rs,
          Array.to_list (Array.map (fun r -> r.Workload.latency_s) rs),
          Digest.string (Marshal.to_string (Workload.attack_signature rs) []) )
  in
  {
    traced;
    wall;
    cpu;
    outcome;
    queries;
    attempted;
    failed;
    latencies;
    signature;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    batcher = Batcher.global_stats ();
    pool_jobs = p1.Pool.jobs - p0.Pool.jobs;
    pool_tasks = p1.Pool.tasks - p0.Pool.tasks;
    pool_steals = p1.Pool.steals - p0.Pool.steals;
    pool_busy = p1.Pool.busy_seconds -. p0.Pool.busy_seconds;
    cache_hits = Telemetry.Counter.get cache_hits - h0;
    cache_misses = Telemetry.Counter.get cache_misses - m0;
    journal;
    spans;
  }

(* Counters that do not depend on timing or scheduling: every unit of
   one seed must reproduce them, traced or not. *)
let exact u =
  let b = u.batcher in
  [
    ("signature", Hashtbl.hash u.signature);
    ("queries", u.queries);
    ("attempted", u.attempted);
    ("failed", u.failed);
    ("score_cache.hits", u.cache_hits);
    ("score_cache.misses", u.cache_misses);
    ("batcher.queries", b.Batcher.queries);
    ("batcher.chunks", b.Batcher.batches);
    ("batcher.prepared", b.Batcher.prepared);
    ("batcher.buffer_hits", b.Batcher.buffer_hits);
    ("batcher.discarded", b.Batcher.discarded);
    ("domain_pool.jobs", u.pool_jobs);
    ("domain_pool.tasks", u.pool_tasks);
  ]

let exact_mismatches units =
  match units with
  | [] -> []
  | first :: rest ->
      List.concat_map
        (fun u ->
          List.filter_map
            (fun ((name, a), (_, b)) ->
              if a = b then None
              else
                Some
                  (Printf.sprintf "%s: %s unit reads %d, first unit %d" name
                     (if u.traced then "traced" else "untraced")
                     b a))
            (List.combine (exact first) (exact u)))
        rest

(* ------------------------------------------------------------------ *)
(* Set-up *)

let setup ~workload ~size ~seed ~domains ~out ~reps =
  let once () =
    let t0 = now () in
    let classifier = Workload.classifier size in
    let programs =
      if workload <> Attack then [||]
      else
        Pool.with_pool ~domains @@ fun pool ->
        (* The programs' MH chains start from the data seed, not the
           benchmark seed: their structure sets how much speculative
           batching each OPPSLA attack wastes, and programs drawn per
           seed moved [attack]'s wall time by half at equal queries. *)
        let r =
          Workload.synth ~cap:size.Workload.program_cap ~traced:false ~pool
            ~iters:size.Workload.program_iters ~seed:size.Workload.data.W.seed
            classifier
        in
        (* Classes with no synthesis image keep the fixed
           prioritization, as [oppsla synthesize] does. *)
        let programs =
          Array.make classifier.W.spec.Dataset.num_classes
            Oppsla.Condition.const_false_program
        in
        List.iter
          (fun cr ->
            programs.(cr.Workload.class_id) <-
              cr.Workload.outcome.Oppsla.Synthesizer.final)
          r.Workload.runs;
        programs
    in
    ((classifier, programs), now () -. t0)
  in
  let runs = List.init reps (fun _ -> once ()) in
  let (classifier, programs), _ = List.hd (List.rev runs) in
  let requests =
    if workload = Attack then
      Workload.requests ~count:size.Workload.requests ~seed classifier
    else [||]
  in
  let pool = Pool.create ~domains () in
  ( { workload; size; seed; classifier; programs; requests; pool; out },
    List.map snd runs )

(* ------------------------------------------------------------------ *)
(* Checks *)

type checked = {
  errors : string list;
  success_rate : float;
  journal_records : int;
  audit_s : float;
}

let check_journal u =
  match u.journal with
  | None -> ([], 0, 0.)
  | Some j ->
      let t = now () in
      let errs, n = Check.journal j.path ~queries:u.queries in
      (errs, n, now () -. t)

let check ctx u =
  let c = ctx.classifier in
  let errors, success_rate =
    match u.outcome with
    | Synth_out r ->
        let errors, successes, attempts = Check.synth c r in
        (errors, ratio (fi successes) (fi attempts))
    | Attack_out rs -> (Check.attack c rs, Workload.success_rate rs)
  in
  let journal_errors, journal_records, audit_s = check_journal u in
  { errors = errors @ journal_errors; success_rate; journal_records; audit_s }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let avg_queries u =
  match u.outcome with
  | Synth_out r -> Workload.synth_avg_queries r
  | Attack_out rs -> Workload.attack_avg_queries rs

(* On [attack] a unit attacks every request once; on [synth*] it runs
   one sketch attack per synthesis image per MH evaluation. *)
let attacks u =
  match u.outcome with
  | Synth_out r -> Workload.sketch_attacks r
  | Attack_out rs -> Array.length rs

(* The end-to-end metrics, as (gated, reported): the gated ones are
   those BENCHMARK.json bounds and the JSON result line carries; the
   reported ones are printed and recorded too, but spread across seeds
   (latency over 10 per-class samples on synth*, avg_queries,
   peak_heap_mb) or read zero (failed_fraction) too much for a relative
   bound. *)
let end_to_end ~setup_times ~units ~(checked : checked) =
  let last = List.hd (List.rev units) in
  let wall = median (List.map (fun u -> u.wall) units) in
  let lat = List.concat_map (fun u -> u.latencies) units in
  let attempted = List.fold_left (fun a u -> a + u.attempted) 0 units in
  let failed = List.fold_left (fun a u -> a + u.failed) 0 units in
  ( [
      m "setup_s" "s" (median setup_times);
      m "wall_s" "s" wall;
      m "cpu_s" "s" (median (List.map (fun u -> u.cpu) units));
      m "queries" "count" (fi last.queries);
      m "queries_per_s" "1/s" (fi last.queries /. wall);
      m "attacks_per_s" "1/s" (fi (attacks last) /. wall);
      m "success_rate" "fraction" checked.success_rate;
    ],
    [
      m "latency_p50_ms" "ms" (1e3 *. quantile lat 0.5);
      m "latency_p90_ms" "ms" (1e3 *. quantile lat 0.9);
      m "avg_queries" "queries" (avg_queries last);
      m "peak_heap_mb" "MB"
        (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1e6);
      m "failed_fraction" "fraction" (ratio (fi failed) (fi attempted));
    ] )

let per_layer ctx ~trace_path ~(untraced : unit_run) ~(traced : unit_run)
    ~overhead ~(checked : checked) =
  let spans = traced.spans in
  let named n = List.filter (fun (s : Span.t) -> s.Span.name = n) spans in
  let total n = List.fold_left (fun a s -> a +. Span.duration s) 0. (named n) in
  let p50_ms n =
    match named n with
    | [] -> 0.
    | l -> 1e3 *. median (List.map Span.duration l)
  in
  let analysis = Traceprof.analyze (Traceprof.parse_file trace_path) in
  let self_s n =
    match
      List.find_opt
        (fun (s : Traceprof.span_stat) -> s.Traceprof.stat_name = n)
        analysis.Traceprof.stats
    with
    | Some s -> s.Traceprof.self_us /. 1e6
    | None -> 0.
  in
  let forwards = named "nn.forward" in
  let fwd_calls = List.length forwards in
  let fwd_images = List.fold_left (fun a (s : Span.t) -> a + s.Span.n) 0 forwards in
  let fwd_s = total "nn.forward" in
  let pool_maps =
    List.filter_map
      (fun (s : Span.t) -> if s.Span.name = "pool.map" then Some s.Span.id else None)
      spans
  in
  let task_s =
    List.fold_left
      (fun a (s : Span.t) ->
        if List.mem s.Span.parent pool_maps then a +. Span.duration s else a)
      0. spans
  in
  let domains = fi (Pool.size ctx.pool) in
  let b = traced.batcher in
  let q = fi untraced.queries in
  let proposals, accepted =
    match traced.outcome with
    | Synth_out r -> (Workload.evaluations r - List.length r.Workload.runs, Workload.accepted r)
    | Attack_out _ -> (0, 0)
  in
  let srs_attacks, srs_queries =
    match traced.outcome with
    | Synth_out _ -> (0, 0)
    | Attack_out rs ->
        Array.fold_left
          (fun (n, qs) (r : Workload.response) ->
            match (r.Workload.request.Workload.attacker, r.Workload.result) with
            | Workload.Sparse_rs, Some res -> (n + 1, qs + res.Oppsla.Sketch.queries)
            | _ -> (n, qs))
          (0, 0) rs
  in
  let cache_mb =
    match traced.outcome with
    | Synth_out r -> Workload.cache_mb r
    | Attack_out _ -> 0.
  in
  let journal_bytes =
    match traced.journal with
    | Some j -> fi (Unix.stat j.path).Unix.st_size
    | None -> 0.
  in
  [
    m "nn.forward_calls" "count" (fi fwd_calls);
    m "nn.forward_images" "count" (fi fwd_images);
    m "nn.images_per_call" "images" (ratio (fi fwd_images) (fi fwd_calls));
    m "nn.forward_s" "s" fwd_s;
    m "nn.us_per_image" "us" (1e6 *. ratio fwd_s (fi fwd_images));
    m "nn.capacity_share" "fraction" (ratio fwd_s (domains *. traced.wall));
    m "oracle.queries" "count" (fi traced.queries);
    m "oracle.queries_per_forward_image" "queries"
      (ratio (fi traced.queries) (fi fwd_images));
    m "score_cache.hits" "count" (fi traced.cache_hits);
    m "score_cache.misses" "count" (fi traced.cache_misses);
    m "score_cache.hit_rate" "fraction"
      (ratio (fi traced.cache_hits) (fi (traced.cache_hits + traced.cache_misses)));
    m "score_cache.mb" "MB" cache_mb;
    m "batcher.chunks" "count" (fi b.Batcher.batches);
    m "batcher.prepared" "count" (fi b.Batcher.prepared);
    m "batcher.discarded" "count" (fi b.Batcher.discarded);
    m "batcher.discard_ratio" "fraction"
      (ratio (fi b.Batcher.discarded) (fi b.Batcher.prepared));
    m "domain_pool.jobs" "count" (fi traced.pool_jobs);
    m "domain_pool.tasks" "count" (fi traced.pool_tasks);
    m "domain_pool.steals" "count" (fi traced.pool_steals);
    m "domain_pool.busy_s" "s" traced.pool_busy;
    m "domain_pool.utilization" "fraction"
      (ratio task_s (domains *. traced.pool_busy));
    m "sketch.attacks" "count" (fi (List.length (named "sketch.attack")));
    m "sketch.self_s" "s" (self_s "sketch.attack");
    m "sketch.attack_ms_p50" "ms" (p50_ms "sketch.attack");
    m "synthesizer.proposals" "count" (fi proposals);
    m "synthesizer.accepted" "count" (fi accepted);
    m "score.eval_s" "s" (total "score.eval");
    m "score.eval_ms_p50" "ms" (p50_ms "score.eval");
    m "sparse_rs.attacks" "count" (fi srs_attacks);
    m "sparse_rs.queries" "count" (fi srs_queries);
    m "sparse_rs.self_s" "s" (self_s "sparse_rs.attack");
    (* GC figures come from the untraced unit: span recording allocates. *)
    m "gc.minor_collections" "count" (fi untraced.gc_minor);
    m "gc.major_collections" "count" (fi untraced.gc_major);
    m "gc.minor_words_per_query" "words" (ratio untraced.minor_words q);
    m "gc.major_words_per_query" "words" (ratio untraced.major_words q);
    m "journal.records" "count" (fi checked.journal_records);
    m "journal.bytes_per_record" "bytes"
      (ratio journal_bytes (fi checked.journal_records));
    m "journal.close_s" "s"
      (match traced.journal with Some j -> j.close_s | None -> 0.);
    m "audit.verify_s" "s" checked.audit_s;
    m "trace.overhead_fraction" "fraction" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (json_number x.value) x.unit_)
         metrics)
  ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (json_metrics metrics)

let write_result ~path ~ctx ~fp ~trace ~seconds ~units ~latency_samples
    ~reported line =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
         \"domains\": %d, \"units\": %d, \"latency_samples\": %d,\n\
        \ \"fingerprint\": {\"nproc\": %d, \"ocaml\": \"%s\", \
         \"probe_images_per_s\": %.17g},\n\
        \ \"artifacts\": \"none reused: inputs, weights and programs are \
         rebuilt on every set-up; _artifacts/ is never read or written\",\n\
        \ \"reported\": %s,\n\
        \ \"result\": %s}\n"
        (workload_name ctx.workload) ctx.seed seconds trace (Pool.size ctx.pool)
        units latency_samples fp.nproc fp.ocaml fp.probe_images_per_s
        (json_metrics reported) line)

let print_metrics metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %s %s\n" x.name (json_number x.value) x.unit_)
    metrics

(* ------------------------------------------------------------------ *)
(* A benchmark run *)

let run ~workload ~size ~seed ~seconds ~trace ~domains ~out =
  mkdir_p out;
  let fp = fingerprint () in
  Printf.printf "host: nproc %d, OCaml %s, probe %.0f forward images/s\n%!"
    fp.nproc fp.ocaml fp.probe_images_per_s;
  let ctx, setup_times =
    setup ~workload ~size ~seed ~domains ~out
      ~reps:(if trace then 1 else size.Workload.setups)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown ctx.pool) @@ fun () ->
  let t_start = now () in
  let rec loop acc =
    let acc =
      if trace then
        let u = run_unit ctx ~traced:false in
        run_unit ctx ~traced:true :: u :: acc
      else run_unit ctx ~traced:false :: acc
    in
    if now () -. t_start >= fi seconds then List.rev acc else loop acc
  in
  let units = loop [] in
  let untraced = List.filter (fun u -> not u.traced) units in
  let last = List.hd (List.rev untraced) in
  let timed_s = now () -. t_start in
  let checked =
    let c = check ctx last in
    { c with errors = exact_mismatches units @ c.errors }
  in
  Printf.printf "phases: set-up %s s, timed %.1f s, checks %.1f s\n"
    (String.concat "/" (List.map (Printf.sprintf "%.1f") setup_times))
    timed_s (now () -. t_start -. timed_s);
  let traced_units = List.filter (fun u -> u.traced) units in
  let metrics, reported =
    if not trace then end_to_end ~setup_times ~units ~checked
    else begin
      let traced = List.hd (List.rev traced_units) in
      let trace_path =
        Filename.concat out
          (Printf.sprintf "trace-%s-s%d.json" (workload_name workload) seed)
      in
      Span.write_chrome trace_path traced.spans;
      (* The traced unit's journal, audited for its own record count. *)
      let checked =
        let errs, journal_records, audit_s = check_journal traced in
        { checked with errors = checked.errors @ errs; journal_records; audit_s }
      in
      let overhead =
        median (List.map (fun u -> u.wall) traced_units)
        /. median (List.map (fun u -> u.wall) untraced)
        -. 1.
      in
      (per_layer ctx ~trace_path ~untraced:last ~traced ~overhead ~checked, [])
    end
  in
  List.iter
    (fun u ->
      Option.iter
        (fun j -> if Sys.file_exists j.path then Sys.remove j.path)
        u.journal)
    units;
  let correct = checked.errors = [] in
  List.iter (fun e -> Printf.eprintf "[e2ebench] CHECK FAILED: %s\n%!" e) checked.errors;
  let attempted = List.fold_left (fun a u -> a + u.attempted) 0 units in
  let failed = List.fold_left (fun a u -> a + u.failed) 0 units in
  let latency_samples =
    List.length (List.concat_map (fun u -> u.latencies) untraced)
  in
  Printf.printf "workload %s, seed %d: %d units (%d latency samples, %s), domains %d\n"
    (workload_name workload) seed (List.length units) latency_samples
    (if workload = Attack then "one per request" else "one per class")
    (Pool.size ctx.pool);
  print_metrics metrics;
  if reported <> [] then begin
    print_endline "reported, not gated:";
    print_metrics reported
  end;
  let line = result_line ~correct ~attempted ~failed metrics in
  write_result
    ~path:
      (Filename.concat out
         (Printf.sprintf "%s-s%d-trace%d.json" (workload_name workload) seed
            (if trace then 1 else 0)))
    ~ctx ~fp ~trace:(if trace then 1 else 0) ~seconds
    ~units:(List.length units) ~latency_samples ~reported line;
  print_endline line;
  correct

(* ------------------------------------------------------------------ *)
(* Self-test: each workload at smoke size must pass its checks with
   identical exact counters traced and untraced, write a trace the
   analyzer reads, and fail its checks once its output is tampered
   with. *)

let tamper_journal path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string body in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = 'a' then 'b' else 'a');
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* Every OPPSLA outcome inverted: a success reported as a miss (the
   exhaustive scan then finds a pixel), a miss reported as a success on
   a pixel that cannot flip the image. *)
let tamper_attack rs =
  Array.map
    (fun (r : Workload.response) ->
      match (r.Workload.request.Workload.attacker, r.Workload.result) with
      | Workload.Oppsla_program, Some res ->
          let adversarial =
            match res.Oppsla.Sketch.adversarial with
            | Some _ -> None
            | None ->
                let pair =
                  Oppsla.Pair.make
                    ~loc:(List.hd (Oppsla.Location.all ~d1:1 ~d2:1))
                    ~corner:0
                in
                Some (pair, r.Workload.request.Workload.image)
          in
          { r with Workload.result = Some { res with adversarial } }
      | _ -> r)
    rs

let tamper_synth (r : Workload.synth_run) =
  match r.Workload.runs with
  | [] -> r
  | cr :: rest ->
      let o = cr.Workload.outcome in
      let outcome =
        {
          o with
          Oppsla.Synthesizer.final_avg_queries =
            o.Oppsla.Synthesizer.final_avg_queries +. 1.;
        }
      in
      { r with Workload.runs = { cr with Workload.outcome } :: rest }

let self_test ~out ~domains =
  mkdir_p out;
  let failures = ref [] in
  let expect ok fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
        if not ok then failures := msg :: !failures)
      fmt
  in
  let detail = function [] -> "" | l -> ": " ^ String.concat "; " l in
  List.iter
    (fun workload ->
      let name = workload_name workload in
      let ctx, _ =
        setup ~workload ~size:Workload.smoke ~seed:1 ~domains ~out ~reps:1
      in
      Fun.protect ~finally:(fun () -> Pool.shutdown ctx.pool) @@ fun () ->
      let u = run_unit ctx ~traced:false in
      let t = run_unit ctx ~traced:true in
      let c = check ctx u in
      expect (c.errors = []) "%s: checks pass%s" name (detail c.errors);
      let mismatches = exact_mismatches [ u; t ] in
      expect (mismatches = []) "%s: traced counters equal untraced%s" name
        (detail mismatches);
      let path = Filename.concat out ("selftest-trace-" ^ name ^ ".json") in
      Span.write_chrome path t.spans;
      let a = Traceprof.analyze (Traceprof.parse_file path) in
      expect
        (a.Traceprof.skipped = 0
        && List.exists
             (fun (s : Traceprof.span_stat) -> s.Traceprof.stat_name = "nn.forward")
             a.Traceprof.stats)
        "%s: trace parses with forward spans (%d events skipped)" name
        a.Traceprof.skipped;
      let tampered =
        match (workload, u.outcome) with
        | Synth_journal, _ ->
            let over, _, _ = check_journal { u with queries = u.queries + 1 } in
            Option.iter (fun j -> tamper_journal j.path) u.journal;
            let corrupt, _, _ = check_journal u in
            [ ("record count", over); ("corrupted byte", corrupt) ]
        | _, Synth_out r ->
            [ ("average", (check ctx { u with outcome = Synth_out (tamper_synth r) }).errors) ]
        | _, Attack_out rs ->
            [ ("outcomes", (check ctx { u with outcome = Attack_out (tamper_attack rs) }).errors) ]
      in
      List.iter
        (fun (what, errors) ->
          expect (errors <> []) "%s: tampered %s fails its check" name what)
        tampered;
      List.iter
        (fun x ->
          Option.iter (fun j -> if Sys.file_exists j.path then Sys.remove j.path) x.journal)
        [ u; t ])
    [ Synth; Attack; Synth_journal ];
  if !failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Comparing two result files *)

let compare_results a b =
  let load path =
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Evalharness.Regress.parse_json body
  in
  let module R = Evalharness.Regress in
  let field k = function R.Obj kv -> List.assoc_opt k kv | _ -> None in
  let num k j = match field k j with Some (R.Num f) -> f | _ -> nan in
  let str k j = match field k j with Some (R.Str s) -> s | _ -> "" in
  let ja = load a and jb = load b in
  let fa = Option.get (field "fingerprint" ja)
  and fb = Option.get (field "fingerprint" jb) in
  let probe_a = num "probe_images_per_s" fa and probe_b = num "probe_images_per_s" fb in
  if
    num "nproc" fa <> num "nproc" fb
    || str "ocaml" fa <> str "ocaml" fb
    || Float.abs (probe_a -. probe_b) > 0.25 *. Float.min probe_a probe_b
  then begin
    Printf.printf
      "not comparable: fingerprints differ (nproc %g vs %g, OCaml %s vs %s, \
       probe %.0f vs %.0f images/s)\n"
      (num "nproc" fa) (num "nproc" fb) (str "ocaml" fa) (str "ocaml" fb)
      probe_a probe_b;
    exit 3
  end;
  let metrics j =
    match Option.bind (field "result" j) (field "metrics") with
    | Some (R.Obj kv) -> kv
    | _ -> []
  in
  let mb = metrics jb in
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name mb with
      | Some vb ->
          let x = num "value" va and y = num "value" vb in
          Printf.printf "%-34s %14.6g %14.6g %8.3fx %s\n" name x y (ratio y x)
            (str "unit" va)
      | None -> ())
    (metrics ja)

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and domains = ref (Domain.recommended_domain_count ()) in
  let out = ref "e2ebench/_results" and self = ref false and cmp = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME synth | attack | synth_journal");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
      ("--domains", Arg.Set_int domains, "D pool width (default: nproc)");
      ("--out", Arg.Set_string out, "DIR result, trace and journal directory");
      ("--self-test", Arg.Set self, " smoke-size checks and tamper tests");
      ("--compare", Arg.Unit (fun () -> ()), " A.json B.json: compare two result files");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("e2ebench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> cmp := a :: !cmp) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if Array.mem "--compare" Sys.argv then
    match List.rev !cmp with
    | [ a; b ] -> compare_results a b
    | _ -> bad "--compare takes two result files"
  else if !self then self_test ~out:!out ~domains:!domains
  else
    match workload_of_string !workload with
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
    | Some _ when !trace <> 0 && !trace <> 1 -> bad "--trace takes 0 or 1"
    | Some _ when !seconds < 1 -> bad "--seconds must be >= 1"
    | Some _ when !domains < 1 -> bad "--domains must be >= 1"
    | Some workload ->
        (* Exit only once [run] has shut its pool down. *)
        if
          not
            (run ~workload ~size:Workload.full ~seed:!seed ~seconds:!seconds
               ~trace:(!trace = 1) ~domains:!domains ~out:!out)
        then exit 1
