(* The inference-engine and query-path suite.

   Two contracts are enforced here.  First, the im2col+GEMM engine is a
   pure reformulation: matmul agrees with the naive triple loop exactly,
   conv2d_gemm_batch agrees with the direct conv2d bit-for-bit for one
   image and for n, and row [i] of a compiled boxed plan's scores_batch
   equals the single-image Network.scores of image [i]
   element-for-element.  Second, the keyed query path resolves exactly
   the candidate it is posed: every uncached charged query costs one
   forward image, a cached one costs a forward only on a miss, and a
   query the budget refuses costs neither a lookup nor a forward. *)

module Sketch = Oppsla.Sketch
module C = Oppsla.Condition

let size = 4

(* {1 Kernels} *)

let matmul_golden () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Alcotest.(check (array (float 0.)))
    "2x3 * 3x2" [| 58.; 64.; 139.; 154. |] (Tensor.matmul a b).Tensor.data;
  Alcotest.(check (list int))
    "result shape" [ 2; 2 ]
    (Array.to_list (Tensor.shape (Tensor.matmul a b)));
  let raises f =
    try
      ignore (f ());
      false
    with Tensor.Shape_mismatch _ -> true
  in
  let bad = Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check bool) "matmul inner mismatch" true
    (raises (fun () -> Tensor.matmul a bad));
  Alcotest.(check bool) "matmul_nt inner mismatch" true
    (raises (fun () -> Tensor.matmul_nt a bad));
  Alcotest.(check bool) "matvec mismatch" true
    (raises (fun () -> Tensor.matvec a (Tensor.of_array [| 2 |] [| 1.; 2. |])))

(* The blocked/tiled GEMM must agree exactly with the textbook triple
   loop: every output element accumulates in ascending-k order whatever
   the tiling, so there is no tolerance here. *)
let matmul_matches_naive () =
  let g = Prng.of_int 7 in
  List.iter
    (fun (m, k, n) ->
      let a = Tensor.randn g [| m; k |] in
      let b = Tensor.randn g [| k; n |] in
      let naive =
        Tensor.init [| m; n |] (fun o ->
            let i = o / n and j = o mod n in
            let acc = ref 0. in
            for p = 0 to k - 1 do
              acc :=
                !acc
                +. (Tensor.get_flat a ((i * k) + p)
                   *. Tensor.get_flat b ((p * n) + j))
            done;
            !acc)
      in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "matmul %dx%dx%d = naive" m k n)
        naive.Tensor.data
        (Tensor.matmul a b).Tensor.data)
    (* Sizes straddling the 4x4 register tile and the column blocking:
       remainders in every dimension, plus a k large enough to force
       multiple j-blocks. *)
    [ (1, 1, 1); (3, 5, 7); (4, 4, 4); (6, 9, 5); (17, 33, 19); (2, 700, 70) ]

let matmul_nt_rows_are_matvec () =
  let g = Prng.of_int 8 in
  let m = 5 and k = 11 and n = 6 in
  let a = Tensor.randn g [| m; k |] in
  let b = Tensor.randn g [| n; k |] in
  let out = Tensor.matmul_nt a b in
  for i = 0 to m - 1 do
    let row =
      Tensor.init [| k |] (fun p -> Tensor.get_flat a ((i * k) + p))
    in
    let mv = Tensor.matvec b row in
    for j = 0 to n - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "row %d col %d" i j)
        (Tensor.get_flat mv j)
        (Tensor.get_flat out ((i * n) + j))
    done
  done

let im2col_batch_blocks () =
  let g = Prng.of_int 9 in
  let n = 3 and c = 2 and h = 5 and w = 4 in
  let batch = Tensor.randn g [| n; c; h; w |] in
  let image = c * h * w in
  List.iter
    (fun (stride, pad, kh, kw) ->
      let big = Tensor.im2col_batch ~stride ~pad ~kh ~kw batch in
      let rows = Tensor.dim big 0 and total = Tensor.dim big 1 in
      let cols = total / n in
      Alcotest.(check int) "patch rows" (c * kh * kw) rows;
      for img = 0 to n - 1 do
        let x =
          Tensor.init [| c; h; w |] (fun o ->
              Tensor.get_flat batch ((img * image) + o))
        in
        let one = Tensor.im2col ~stride ~pad ~kh ~kw x in
        Alcotest.(check int) "column block width" cols (Tensor.dim one 1);
        for r = 0 to rows - 1 do
          for o = 0 to cols - 1 do
            Alcotest.(check (float 0.))
              (Printf.sprintf "s%d p%d img %d (%d,%d)" stride pad img r o)
              (Tensor.get_flat one ((r * cols) + o))
              (Tensor.get_flat big ((r * total) + (img * cols) + o))
          done
        done
      done)
    [ (1, 0, 3, 3); (1, 1, 3, 3); (2, 1, 3, 3); (1, 2, 2, 2) ]

let conv_gemm_agrees () =
  let g = Prng.of_int 10 in
  let n = 3 and in_c = 2 and h = 6 and w = 5 and out_c = 4 in
  let image = in_c * h * w in
  let batch = Tensor.randn g [| n; in_c; h; w |] in
  List.iter
    (fun (stride, pad, k, with_bias) ->
      let weight = Tensor.randn g [| out_c; in_c; k; k |] in
      let bias =
        if with_bias then Some (Tensor.randn g [| out_c |]) else None
      in
      let name =
        Printf.sprintf "k%d s%d p%d bias:%b" k stride pad with_bias
      in
      let batched =
        Tensor.conv2d_gemm_batch ~stride ~pad batch ~weight ~bias
      in
      let ostride = Tensor.numel batched / n in
      for img = 0 to n - 1 do
        let x =
          Tensor.init [| in_c; h; w |] (fun o ->
              Tensor.get_flat batch ((img * image) + o))
        in
        let direct = Tensor.conv2d ~stride ~pad x ~weight ~bias in
        let gemm =
          Tensor.conv2d_gemm_batch ~stride ~pad
            (Tensor.reshape x [| 1; in_c; h; w |])
            ~weight ~bias
        in
        Alcotest.(check (array (float 0.)))
          (name ^ ": width-1 gemm = direct") direct.Tensor.data
          gemm.Tensor.data;
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "%s: batched image %d = direct" name img)
          direct.Tensor.data
          (Array.sub batched.Tensor.data (img * ostride) ostride)
      done)
    [
      (1, 0, 3, true);
      (1, 1, 3, true);
      (1, 1, 3, false);
      (2, 1, 3, true);
      (1, 2, 2, true);
      (2, 0, 1, false);
    ]

(* {1 Network engine} *)

(* Property test: on a real (randomly initialised) conv net, row [i] of
   the boxed plan's scores_batch is element-for-element equal to the
   single-image scores of image [i], for every batch width tried. *)
let qcheck_scores_batch_matches_single =
  QCheck.Test.make ~name:"Boxed_engine.scores_batch = per-image scores"
    ~count:25
    QCheck.(pair (int_range 0 9999) (int_range 1 5))
    (fun (seed, n) ->
      let g = Prng.of_int seed in
      let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size:8 ~num_classes:4 in
      let image = 3 * 8 * 8 in
      let batch = Tensor.rand_uniform g [| n; 3; 8; 8 |] in
      let plan =
        Nn.Backend.Boxed_engine.compile ~name:"vgg_tiny" net.Nn.Network.stack
      in
      let out = Nn.Backend.Boxed_engine.scores_batch plan batch in
      let classes = Tensor.dim out 1 in
      let ok = ref (classes = 4) in
      for i = 0 to n - 1 do
        let x =
          Tensor.init [| 3; 8; 8 |] (fun o ->
              Tensor.get_flat batch ((i * image) + o))
        in
        let single = Nn.Network.scores net x in
        for j = 0 to classes - 1 do
          if
            Tensor.get_flat single j
            <> Tensor.get_flat out ((i * classes) + j)
          then ok := false
        done
      done;
      !ok)

(* {1 Batcher mechanics} *)

let counting_oracle ?budget calls =
  Oracle.of_fn ?budget ~name:"counting" ~num_classes:2 (fun x ->
      incr calls;
      let m = Tensor.mean x in
      Tensor.of_array [| 2 |] [| 1. -. m; m |])

let cand v =
  {
    Batcher.key = Score_cache.Custom (string_of_int v);
    input = (fun () -> Tensor.create [| 2; 2 |] (float_of_int v /. 10.));
  }

let batcher_one_forward_per_query () =
  Batcher.reset_global_stats ();
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let t = Batcher.create oracle in
  List.iteri
    (fun i v ->
      let s = Batcher.query t (cand v) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "answer for candidate %d" v)
        (float_of_int v /. 10.)
        (Tensor.get_flat s 1);
      Alcotest.(check int) "one forward per query" (i + 1) !calls;
      Alcotest.(check int) "one metered query" (i + 1) (Oracle.queries oracle))
    [ 1; 2; 9; 2 ];
  let s = Batcher.global_stats () in
  Alcotest.(check int) "stats: queries" 4 s.Batcher.queries;
  Alcotest.(check int) "stats: chunks" 4 s.Batcher.batches;
  Alcotest.(check int) "stats: prepared" 4 s.Batcher.prepared;
  Alcotest.(check int) "stats: buffer hits" 0 s.Batcher.buffer_hits;
  Alcotest.(check int) "stats: discarded" 0 s.Batcher.discarded

let batcher_cache_excludes_hits () =
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let cache = Score_cache.create () in
  (* Pre-resolve candidate 2: its query must skip the forward pass. *)
  ignore
    (Score_cache.find_or_add cache (cand 2).Batcher.key ~compute:(fun () ->
         Tensor.of_array [| 2 |] [| 0.8; 0.2 |]));
  let t = Batcher.create ~cache oracle in
  ignore (Batcher.query t (cand 1));
  Alcotest.(check int) "miss forwards" 1 !calls;
  let s2 = Batcher.query t (cand 2) in
  Alcotest.(check (float 0.)) "cached answer served" 0.2
    (Tensor.get_flat s2 1);
  Alcotest.(check int) "hit skips the forward" 1 !calls;
  ignore (Batcher.query t (cand 3));
  Alcotest.(check int) "hits are still metered" 3 (Oracle.queries oracle);
  Alcotest.(check int) "forwards = misses" 2 !calls;
  (* Newly computed answers were stored for later reuse. *)
  Alcotest.(check bool) "misses were cached" true
    (Score_cache.mem cache (cand 1).Batcher.key
    && Score_cache.mem cache (cand 3).Batcher.key)

(* Budget exhaustion fires at exactly the sequential query index, and
   the refused query does no work: no cache lookup, no forward pass, no
   new cache entry. *)
let batcher_budget_exact_index () =
  let calls = ref 0 in
  let oracle = counting_oracle ~budget:2 calls in
  let cache = Score_cache.create () in
  let t = Batcher.create ~cache oracle in
  ignore (Batcher.query t (cand 1));
  ignore (Batcher.query t (cand 1));
  Alcotest.(check int) "budget spent" 2 (Oracle.queries oracle);
  let before = Score_cache.stats cache in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate %d refused at index 2" v)
        true
        (try
           ignore (Batcher.query t (cand v));
           false
         with Oracle.Budget_exhausted 2 -> true))
    [ 1; 3 ];
  let after = Score_cache.stats cache in
  Alcotest.(check int) "no forward after exhaustion" 1 !calls;
  Alcotest.(check int) "no lookup after exhaustion"
    (before.Score_cache.hits + before.Score_cache.misses)
    (after.Score_cache.hits + after.Score_cache.misses);
  Alcotest.(check bool) "refused candidate not cached" false
    (Score_cache.mem cache (cand 3).Batcher.key)

(* {1 Forward images per query, attack level} *)

(* A two-class oracle no one-pixel perturbation flips (class 1 needs a
   mean above 2), counting forward images per path: [batch_images]
   counts the query path's forwards ({!Oracle.eval_batch}),
   [single_images] the unmetered single-image reads such as the
   sketch's clean scores. *)
let counting_net_oracle () =
  let batch_images = ref 0 and single_images = ref 0 in
  let score x =
    let z = 40. *. (Tensor.mean x -. 2.) in
    let p1 = 1. /. (1. +. exp (-.z)) in
    Tensor.of_array [| 2 |] [| 1. -. p1; p1 |]
  in
  let oracle =
    Oracle.of_fn ~name:"counting-net" ~num_classes:2
      ~batch_fn:(fun xs ->
        batch_images := !batch_images + Array.length xs;
        Array.map score xs)
      (fun x ->
        incr single_images;
        score x)
  in
  (oracle, batch_images, single_images)

(* A program whose conditions fire on about half the candidates: B1
   pushes same-corner neighbours back after bright corners, B4 eagerly
   checks the front-most pair at the location after dark ones. *)
let firing_program =
  {
    C.b1 = C.Cmp { func = C.Avg C.Pert; cmp = C.Gt; threshold = 0.5 };
    b2 = C.Const false;
    b3 = C.Const false;
    b4 = C.Cmp { func = C.Avg C.Pert; cmp = C.Lt; threshold = 0.4 };
  }

let forward_images_match_queries () =
  let size = 6 in
  let image =
    Tensor.rand_uniform (Prng.of_int 41) ~lo:0.2 ~hi:0.8 [| 3; size; size |]
  in
  let attacks =
    [
      ( "sketch",
        fun oracle ->
          (Sketch.attack ~max_queries:120 oracle firing_program ~image
             ~true_class:0)
            .Sketch.queries );
      ( "sparse_rs",
        fun oracle ->
          let config =
            { Baselines.Sparse_rs.max_queries = 120; min_explore = 0.1 }
          in
          (Baselines.Sparse_rs.attack ~config (Prng.of_int 5) oracle ~image
             ~true_class:0)
            .Sketch.queries );
      ( "su_opa",
        fun oracle ->
          let config =
            { Baselines.Su_opa.population = 8; f = 0.5; max_queries = 120 }
          in
          (Baselines.Su_opa.attack ~config (Prng.of_int 13) oracle ~image
             ~true_class:0)
            .Sketch.queries );
    ]
  in
  List.iter
    (fun (name, attack) ->
      let oracle, forwarded, _ = counting_net_oracle () in
      let queries = attack oracle in
      Alcotest.(check int) (name ^ ": streamed to the cap") 120 queries;
      Alcotest.(check int)
        (name ^ ": uncached forward images = charged queries")
        queries !forwarded;
      let oracle, forwarded, single = counting_net_oracle () in
      let cache = Score_cache.create () in
      Oracle.set_cache oracle (Some cache);
      Alcotest.(check int) (name ^ ": cached run charges the same") queries
        (attack oracle);
      Alcotest.(check int)
        (name ^ ": cached forward images = cache misses")
        (Score_cache.stats cache).Score_cache.misses (!forwarded + !single))
    attacks;
  (* The program's conditions really fired: its query order differs from
     the fixed prioritization's. *)
  let order program =
    let log = ref [] in
    let oracle, _, _ = counting_net_oracle () in
    ignore
      (Sketch.attack ~max_queries:120
         ~on_query:(fun _ pair _ -> log := pair :: !log)
         oracle program ~image ~true_class:0);
    List.rev !log
  in
  Alcotest.(check bool) "conditions changed the query order" false
    (List.equal Oppsla.Pair.equal (order firing_program)
       (order C.const_false_program))

(* The width names kept for [e2ebench/] reject widths below 1 and ignore
   every other value. *)
let frozen_width_names () =
  let image = Helpers.flat_image ~size 0.49 in
  let program = C.const_false_program in
  let attack ?batch () =
    Sketch.attack ?batch ~max_queries:40 (Helpers.mean_threshold_oracle ())
      program ~image ~true_class:0
  in
  let rejects name f =
    Alcotest.(check bool) (name ^ " rejects 0") true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "Sketch.attack" (fun () -> attack ~batch:0 ());
  rejects "Score.evaluate" (fun () ->
      Oppsla.Score.evaluate ~batch:0 (Helpers.mean_threshold_oracle ())
        program [||]);
  rejects "Synthesizer.config.batch" (fun () ->
      Oppsla.Synthesizer.synthesize
        ~config:{ Oppsla.Synthesizer.default_config with batch = 0 }
        (Prng.of_int 1)
        (Helpers.mean_threshold_oracle ())
        ~training:[| (image, 0) |]);
  let plain = attack () and wide = attack ~batch:16 () in
  Alcotest.(check int) "width 16 ignored: queries" plain.Sketch.queries
    wide.Sketch.queries;
  Alcotest.(check bool) "width 16 ignored: success"
    (plain.Sketch.adversarial <> None)
    (wide.Sketch.adversarial <> None)

let suite =
  [
    Alcotest.test_case "matmul golden values and shape guards" `Quick
      matmul_golden;
    Alcotest.test_case "matmul = naive triple loop (exact)" `Quick
      matmul_matches_naive;
    Alcotest.test_case "matmul_nt rows = matvec" `Quick
      matmul_nt_rows_are_matvec;
    Alcotest.test_case "im2col_batch column blocks = per-image im2col" `Quick
      im2col_batch_blocks;
    Alcotest.test_case "conv2d_gemm/_batch = direct conv2d (exact)" `Quick
      conv_gemm_agrees;
    QCheck_alcotest.to_alcotest qcheck_scores_batch_matches_single;
    Alcotest.test_case "batcher: one forward per uncached query" `Quick
      batcher_one_forward_per_query;
    Alcotest.test_case "batcher: cache hits leave the forward pass" `Quick
      batcher_cache_excludes_hits;
    Alcotest.test_case "batcher: Budget_exhausted at the exact index" `Quick
      batcher_budget_exact_index;
    Alcotest.test_case
      "attacks: forward images = charged queries (sketch, Sparse-RS, Su-OPA)"
      `Quick forward_images_match_queries;
    Alcotest.test_case "frozen width names: reject < 1, ignore the rest"
      `Quick frozen_width_names;
  ]
