(* Property and golden tests for the two inference engines.

   The f32 kernels are checked three ways: the blocked GEMM against a
   naive float64 reference on the same float32-rounded operands (the
   kernel accumulates in float64 and rounds once at the store, so a
   tight tolerance holds at any size); the im2col panel against the
   patch layout computed by direct indexing (padding positions must
   read back as explicit zeros); and the fused conv→norm→relu epilogue
   against the unfused composition, which must be bit-identical — the
   fusion saves passes, never rounding.  The serialize golden loads one
   weight file into another network and checks the same argmax through
   Network.classify, the boxed plan and the f32 plan, and the boxed plan
   against the training forward bit for bit.

   The boxed arena plan is pinned bitwise ([Tensor.identical]): the
   implicit-GEMM conv against [conv2d_gemm_batch] and the fused
   norm→relu→max-pool against the three unfused kernels, both on
   regions placed in an arena padded with junk and including -0.0 and
   NaN; the first-layer scan and patch against the full conv for every
   diff shape; every zoo net's plan at batch 1 and 3 and over one-pixel
   oracle streams against the training forward; arena rebuilds across
   interleaved plans and shapes; the per-domain reference across weight
   updates, caller mutation and four domains; a real attack taking the
   patched path; and steady-state forwards allocating no major words. *)

(* Round to the nearest float32, as [of_tensor] does on the f32 path. *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

let argmax_row t ~row ~classes =
  let best = ref 0 in
  for j = 1 to classes - 1 do
    if
      Tensor.get_flat t ((row * classes) + j)
      > Tensor.get_flat t ((row * classes) + !best)
    then best := j
  done;
  !best

(* {1 GEMM vs naive float64 reference} *)

let qcheck_gemm_matches_naive =
  QCheck.Test.make ~name:"f32 blocked GEMM = naive f64 on rounded operands"
    ~count:60
    QCheck.(
      quad (int_range 0 99999) (int_range 1 13) (int_range 1 21)
        (int_range 1 19))
    (fun (seed, m, k, n) ->
      let g = Prng.of_int seed in
      let a = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| m; k |] in
      let b = Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1. [| k; n |] in
      let c = Tensor_f32.matmul (Tensor_f32.of_tensor a) (Tensor_f32.of_tensor b) in
      let ok = ref (Tensor_f32.shape c = [| m; n |]) in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc :=
              !acc
              +. round32 (Tensor.get_flat a ((i * k) + p))
                 *. round32 (Tensor.get_flat b ((p * n) + j))
          done;
          let got = Tensor_f32.get_flat c ((i * n) + j) in
          if Float.abs (got -. !acc) > 1e-5 *. (1. +. Float.abs !acc) then
            ok := false
        done
      done;
      !ok)

(* {1 im2col panel layout} *)

let qcheck_im2col_layout =
  QCheck.Test.make ~name:"f32 im2col panel matches direct patch indexing"
    ~count:80
    QCheck.(
      quad (int_range 0 99999)
        (pair (int_range 1 3) (pair (int_range 2 7) (int_range 2 7)))
        (pair (int_range 1 3) (int_range 1 3))
        (pair (int_range 1 2) (int_range 0 2)))
    (fun (seed, (in_c, (h, w)), (kh, kw), (stride, pad)) ->
      let oh = ((h + (2 * pad) - kh) / stride) + 1
      and ow = ((w + (2 * pad) - kw) / stride) + 1 in
      QCheck.assume (oh >= 1 && ow >= 1 && kh <= h + (2 * pad) && kw <= w + (2 * pad));
      let g = Prng.of_int seed in
      let x = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| in_c; h; w |] in
      let panel =
        Tensor_f32.im2col ~stride ~pad ~kh ~kw (Tensor_f32.of_tensor x)
      in
      let ok = ref (Tensor_f32.shape panel = [| in_c * kh * kw; oh * ow |]) in
      for ci = 0 to in_c - 1 do
        for ki = 0 to kh - 1 do
          for kj = 0 to kw - 1 do
            let r = (((ci * kh) + ki) * kw) + kj in
            for oy = 0 to oh - 1 do
              for ox = 0 to ow - 1 do
                let iy = (oy * stride) + ki - pad
                and ix = (ox * stride) + kj - pad in
                let expect =
                  if iy >= 0 && iy < h && ix >= 0 && ix < w then
                    round32 (Tensor.get x [| ci; iy; ix |])
                  else 0.
                in
                let got =
                  Tensor_f32.get_flat panel ((r * oh * ow) + (oy * ow) + ox)
                in
                if got <> expect then ok := false
              done
            done
          done
        done
      done;
      !ok)

(* {1 Shape-descriptor round-trip} *)

(* [of_tensor] then [to_tensor] must preserve the shape and (up to the
   backend's storage width) every element; [reshape] must relabel the
   descriptor without touching the flat data. *)
let roundtrip_case (type b) name
    (module B : Tensor_sig.S with type t = b) ~rounds () =
  let g = Prng.of_int 4242 in
  let t = Tensor.rand_uniform g ~lo:(-2.) ~hi:2. [| 2; 3; 4 |] in
  let b = B.of_tensor t in
  Alcotest.(check (array int)) (name ^ " shape survives of_tensor") [| 2; 3; 4 |]
    (B.shape b);
  let r = B.reshape b [| 4; 6 |] in
  Alcotest.(check (array int)) (name ^ " reshape relabels") [| 4; 6 |]
    (B.shape r);
  let back = B.to_tensor (B.reshape r [| 2; 3; 4 |]) in
  Alcotest.(check (array int)) (name ^ " shape survives round-trip")
    [| 2; 3; 4 |] (Tensor.shape back);
  for i = 0 to Tensor.numel t - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "%s element %d round-trips" name i)
      (rounds (Tensor.get_flat t i))
      (Tensor.get_flat back i)
  done

let f32_roundtrip = roundtrip_case "f32" (module Tensor_f32) ~rounds:round32

let qcheck_f32_reshape_preserves_flat =
  QCheck.Test.make ~name:"f32 reshape preserves flat storage" ~count:50
    QCheck.(triple (int_range 0 99999) (int_range 1 8) (int_range 1 8))
    (fun (seed, a, b) ->
      let g = Prng.of_int seed in
      let t = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| a * b |] in
      let x = Tensor_f32.of_tensor t in
      let r = Tensor_f32.reshape x [| a; b |] in
      let ok = ref (Tensor_f32.shape r = [| a; b |]) in
      for i = 0 to (a * b) - 1 do
        if Tensor_f32.get_flat r i <> Tensor_f32.get_flat x i then ok := false
      done;
      !ok)

(* {1 Fused conv epilogue = unfused composition, bit-exactly} *)

let fusion_case (type b) (module B : Tensor_sig.S with type t = b)
    (seed, batch, in_c, out_c, size) =
  let g = Prng.of_int seed in
  let weight = Tensor.randn g ~sigma:0.5 [| out_c; in_c; 3; 3 |] in
  let bias = Tensor.randn (Prng.split g) ~sigma:0.1 [| out_c |] in
  let gamma = Tensor.rand_uniform (Prng.split g) ~lo:0.5 ~hi:1.5 [| out_c |] in
  let beta = Tensor.randn (Prng.split g) ~sigma:0.2 [| out_c |] in
  let eps = 1e-5 in
  let x =
    B.of_tensor
      (Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1.
         [| batch; in_c; size; size |])
  in
  let w = B.of_tensor weight
  and bs = B.of_tensor bias
  and gm = B.of_tensor gamma
  and bt = B.of_tensor beta in
  let fused =
    B.conv2d_batch ~stride:1 ~pad:1 ~weight:w ~bias:bs ~norm:(gm, bt, eps)
      ~relu:true x
  in
  let unfused =
    B.relu
      (B.channel_norm_batch ~gamma:gm ~beta:bt ~eps
         (B.conv2d_batch ~stride:1 ~pad:1 ~weight:w ~bias:bs x))
  in
  let ft = B.to_tensor fused and ut = B.to_tensor unfused in
  Tensor.shape ft = Tensor.shape ut
  &&
  let ok = ref true in
  for i = 0 to Tensor.numel ft - 1 do
    if Tensor.get_flat ft i <> Tensor.get_flat ut i then ok := false
  done;
  !ok

let qcheck_fusion name case =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s fused conv/norm/relu = unfused, bitwise" name)
    ~count:20
    QCheck.(
      quad (int_range 0 99999) (int_range 1 3)
        (pair (int_range 1 3) (int_range 1 5))
        (int_range 3 7))
    (fun (seed, batch, (in_c, out_c), size) ->
      case (seed, batch, in_c, out_c, size))

let qcheck_fusion_f32 = qcheck_fusion "f32" (fusion_case (module Tensor_f32))

(* {1 Serialize golden: one weight file, every engine} *)

let golden_arch g =
  let width = 6 and size = 8 and classes = 4 in
  Nn.Network.create ~name:"backend_golden" ~input_shape:[| 3; size; size |]
    ~num_classes:classes
    [
      Nn.Layer.conv2d g ~pad:1 ~in_c:3 ~out_c:width ~k:3 ();
      Nn.Layer.channel_norm ~channels:width;
      Nn.Layer.relu ();
      Nn.Layer.max_pool ~size:2 ();
      Nn.Layer.flatten ();
      Nn.Layer.dense g ~in_dim:(width * 4 * 4) ~out_dim:classes ();
    ]

let serialize_cross_backend () =
  let source = golden_arch (Prng.of_int 7) in
  (* Different seed: the target starts with genuinely different weights,
     so agreement below proves the load, not the initialisation. *)
  let target = golden_arch (Prng.of_int 9001) in
  let path = Filename.temp_file "backend_golden" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Nn.Serialize.save path source;
      Nn.Serialize.load path target);
  let name = target.Nn.Network.name and stack = target.Nn.Network.stack in
  let boxed = Nn.Backend.Boxed_engine.compile ~name stack in
  let f32 = Nn.Backend.F32_engine.compile ~name stack in
  let g = ref (Prng.of_int 515) in
  for i = 0 to 9 do
    g := Prng.split !g;
    let x = Tensor.rand_uniform !g [| 3; 8; 8 |] in
    let batch =
      Tensor.init [| 1; 3; 8; 8 |] (fun o -> Tensor.get_flat x o)
    in
    let reference = Nn.Network.classify source x in
    Alcotest.(check int)
      (Printf.sprintf "image %d: loaded network = source argmax" i)
      reference
      (Nn.Network.classify target x);
    let bscores = Nn.Backend.Boxed_engine.scores_batch boxed batch in
    let fscores = Nn.Backend.F32_engine.scores_batch f32 batch in
    Alcotest.(check int)
      (Printf.sprintf "image %d: boxed plan argmax" i)
      reference
      (argmax_row bscores ~row:0 ~classes:4);
    Alcotest.(check int)
      (Printf.sprintf "image %d: f32 plan argmax" i)
      reference
      (argmax_row fscores ~row:0 ~classes:4);
    (* The boxed plan is bit-identical to the training forward; the f32
       plan is held to the cross-backend tolerance policy. *)
    let direct = Tensor.softmax (Nn.Layer.forward ~train:false stack x) in
    for c = 0 to 3 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "image %d class %d: boxed scores bit-equal" i c)
        (Tensor.get_flat direct c)
        (Tensor.get_flat bscores c);
      let d = Float.abs (Tensor.get_flat fscores c -. Tensor.get_flat direct c) in
      if d > Nn.Backend.score_tol then
        Alcotest.failf "image %d class %d: f32 delta %.3e above tolerance %.0e"
          i c d Nn.Backend.score_tol
    done
  done

(* {1 Boxed plan = training forward, on every zoo architecture} *)

(* The compiled boxed plan is the only inference engine; the training
   forward ([Layer.forward ~train:false], direct convolution loops) is
   the independent reference it must match bit for bit — every row of a
   multi-image batch, on every architecture family the zoo builds. *)
let boxed_plan_matches_training_forward () =
  let size = 8 in
  List.iter
    (fun arch ->
      let build = Option.get (Nn.Zoo.by_name arch) in
      let net = build (Prng.of_int 77) ~image_size:size ~num_classes:5 in
      let plan =
        Nn.Backend.Boxed_engine.compile ~name:arch net.Nn.Network.stack
      in
      List.iter
        (fun n ->
          let batch =
            Tensor.rand_uniform (Prng.of_int (78 + n)) [| n; 3; size; size |]
          in
          let out = Nn.Backend.Boxed_engine.scores_batch plan batch in
          let image = 3 * size * size in
          for i = 0 to n - 1 do
            let x =
              Tensor.init [| 3; size; size |] (fun o ->
                  Tensor.get_flat batch ((i * image) + o))
            in
            let reference =
              Tensor.softmax
                (Nn.Layer.forward ~train:false net.Nn.Network.stack x)
            in
            let row = Tensor.of_array [| 5 |] (Array.sub out.Tensor.data (i * 5) 5) in
            Alcotest.(check bool)
              (Printf.sprintf "%s batch %d image %d: plan scores = training forward"
                 arch n i)
              true (Tensor.identical reference row);
            Alcotest.(check bool)
              (Printf.sprintf "%s image %d: Network.scores = training forward" arch
                 i)
              true
              (Tensor.identical reference (Nn.Network.scores net x))
          done)
        [ 1; 3 ])
    Nn.Zoo.names

(* {1 Arena kernels} *)

let full_conv ~stride ~pad ~weight ~bias x =
  Tensor.conv2d_gemm_batch ~stride ~pad x ~weight ~bias:(Some bias)

(* A one-image NCHW tensor laid into a fresh arena as a region at [off]
   with a zero border, the rest of the arena filled with [junk] so a
   kernel that reads outside its regions shows up in the result. *)
let junk = 1e300

let embed ?(off = 5) ~border x =
  let s = Tensor.shape x in
  let r = { Tensor.off; c = s.(1); h = s.(2); w = s.(3); border } in
  let a = Array.make (off + Tensor.region_size r + 7) junk in
  let row = r.w + (2 * border) and plane = (r.h + (2 * border)) * (r.w + (2 * border)) in
  Array.fill a off (Tensor.region_size r) 0.;
  for ch = 0 to r.c - 1 do
    for y = 0 to r.h - 1 do
      for x' = 0 to r.w - 1 do
        a.(off + (ch * plane) + ((y + border) * row) + x' + border) <-
          Tensor.get_flat x ((((ch * r.h) + y) * r.w) + x')
      done
    done
  done;
  (a, r)

(* A destination region after the source in a grown arena. *)
let with_dst a (src : Tensor.region) ~c ~h ~w ~border =
  let off = src.off + Tensor.region_size src + 3 in
  let r = { Tensor.off; c; h; w; border } in
  let a' = Array.make (off + Tensor.region_size r + 7) junk in
  Array.blit a 0 a' 0 (Array.length a);
  Array.fill a' off (Tensor.region_size r) 0.;
  (a', r)

let extract a (r : Tensor.region) =
  let row = r.w + (2 * r.border) in
  let plane = (r.h + (2 * r.border)) * row in
  Tensor.init [| 1; r.c; r.h; r.w |] (fun i ->
      let ch = i / (r.h * r.w) and y = i / r.w mod r.h and x = i mod r.w in
      a.(r.off + (ch * plane) + ((y + r.border) * row) + x + r.border))

(* Borders must still read as zeros after a kernel ran. *)
let border_clean a (r : Tensor.region) =
  let row = r.w + (2 * r.border) in
  let plane = (r.h + (2 * r.border)) * row in
  let ok = ref true in
  for ch = 0 to r.c - 1 do
    for y = 0 to r.h + (2 * r.border) - 1 do
      for x = 0 to row - 1 do
        let inside =
          y >= r.border && y < r.h + r.border && x >= r.border && x < r.w + r.border
        in
        if (not inside) && a.(r.off + (ch * plane) + (y * row) + x) <> 0. then
          ok := false
      done
    done
  done;
  !ok

(* Random values with signed zeros and NaNs mixed in. *)
let spiky g shape =
  Tensor.init shape (fun _ ->
      match Prng.int g 12 with
      | 0 -> 0.
      | 1 -> -0.
      | 2 -> Float.nan
      | _ -> Prng.float_in g (-1.) 1.)

let conv_case g ~k ~stride ~pad ~extra ~nasty =
  let in_c = 1 + Prng.int g 3 and out_c = 1 + Prng.int g 9 in
  let lo = max 1 (k - (2 * pad)) in
  let h = lo + Prng.int g (13 - lo) and w = lo + Prng.int g (13 - lo) in
  let weight = Tensor.randn g ~sigma:0.5 [| out_c; in_c; k; k |] in
  let bias = Tensor.randn g ~sigma:0.1 [| out_c |] in
  let x =
    if nasty then spiky g [| 1; in_c; h; w |]
    else Tensor.rand_uniform g [| 1; in_c; h; w |]
  in
  let a, src = embed ~border:(pad + extra) x in
  let oh = ((h + (2 * pad) - k) / stride) + 1
  and ow = ((w + (2 * pad) - k) / stride) + 1 in
  let a, dst = with_dst a src ~c:out_c ~h:oh ~w:ow ~border:(Prng.int g 2) in
  let taps = Tensor.conv2d_taps ~src ~kh:k ~kw:k in
  (x, weight, bias, a, src, dst, taps)

let qcheck_implicit_conv =
  QCheck.Test.make ~name:"implicit-GEMM conv2d_into = conv2d_gemm_batch, bitwise"
    ~count:400
    QCheck.(
      quad (int_range 0 99999) (int_range 0 2)
        (pair (int_range 1 2) (int_range 0 2))
        (pair (int_range 0 2) bool))
    (fun (seed, ki, (stride, pad), (extra, nasty)) ->
      let k = [| 1; 3; 5 |].(ki) in
      let g = Prng.of_int seed in
      let x, weight, bias, a, src, dst, taps =
        conv_case g ~k ~stride ~pad ~extra ~nasty
      in
      Tensor.conv2d_into a ~taps ~stride ~pad ~weight ~bias ~src ~dst;
      Tensor.identical (extract a dst) (full_conv ~stride ~pad ~weight ~bias x)
      && border_clean a src && border_clean a dst)

let qcheck_fused_epilogue =
  QCheck.Test.make
    ~name:"norm_relu_max_pool_into = max_pool2d_batch (relu (channel_norm_batch))"
    ~count:300
    QCheck.(
      quad (int_range 0 99999)
        (pair (int_range 1 4) (pair (int_range 1 9) (int_range 1 9)))
        (pair (int_range 1 3) (int_range 1 3))
        (pair (int_range 0 2) bool))
    (fun (seed, (c, (h, w)), (size, stride), (border, nasty)) ->
      QCheck.assume (size <= h && size <= w);
      let g = Prng.of_int seed in
      let x =
        if nasty then spiky g [| 1; c; h; w |]
        else Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| 1; c; h; w |]
      in
      let gamma = Tensor.rand_uniform g ~lo:(-1.5) ~hi:1.5 [| c |] in
      let beta =
        Tensor.init [| c |] (fun i -> if i = 0 then -0. else Prng.float_in g (-0.5) 0.5)
      in
      let eps = 1e-5 in
      let a, src = embed ~border x in
      let oh = ((h - size) / stride) + 1 and ow = ((w - size) / stride) + 1 in
      let a, dst = with_dst a src ~c ~h:oh ~w:ow ~border:(Prng.int g 3) in
      Tensor.norm_relu_max_pool_into a ~gamma ~beta ~eps ~size ~stride ~src ~dst;
      let expect =
        Tensor.max_pool2d_batch ~stride ~size
          (Tensor.relu (Tensor.channel_norm_batch ~gamma ~beta ~eps x))
      in
      Tensor.identical (extract a dst) expect && border_clean a dst)

(* Output positions whose window holds a changed element, by direct
   indexing: the independent count the scan is checked against. *)
let naive_changed ~stride ~pad ~kh ~kw ~reference x =
  let s = Tensor.shape x in
  let in_c = s.(1) and h = s.(2) and w = s.(3) in
  let oh = ((h + (2 * pad) - kh) / stride) + 1
  and ow = ((w + (2 * pad) - kw) / stride) + 1 in
  let changed c iy ix =
    let o = (((c * h) + iy) * w) + ix in
    not
      (Int64.equal
         (Int64.bits_of_float (Tensor.get_flat x o))
         (Int64.bits_of_float (Tensor.get_flat reference o)))
  in
  let marked = ref [] in
  for oy = oh - 1 downto 0 do
    for ox = ow - 1 downto 0 do
      let hit = ref false in
      for c = 0 to in_c - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let iy = (oy * stride) - pad + ky and ix = (ox * stride) - pad + kx in
            if iy >= 0 && iy < h && ix >= 0 && ix < w && changed c iy ix then
              hit := true
          done
        done
      done;
      if !hit then marked := ((oy * ow) + ox) :: !marked
    done
  done;
  (Array.of_list !marked, oh * ow)

(* Diff shapes: 0 one pixel (all channels, corner values as the sketch
   sets them), 1 k <= 14 pixels, 2 a square patch, 3 one element turned
   from 0.0 into -0.0 or NaN (equal as floats, or never equal). *)
let perturb_case g ~mode x =
  let s = Tensor.shape x in
  let in_c = s.(1) and h = s.(2) and w = s.(3) in
  let x0 = Tensor.copy x and x1 = Tensor.copy x in
  let set_pixel t iy ix v =
    for c = 0 to in_c - 1 do
      Tensor.set t [| 0; c; iy; ix |] (v c)
    done
  in
  let corner _ = if Prng.bool g then 1. else 0. in
  (match mode with
  | 0 -> set_pixel x1 (Prng.int g h) (Prng.int g w) corner
  | 1 ->
      for _ = 1 to 2 + Prng.int g 13 do
        set_pixel x1 (Prng.int g h) (Prng.int g w) corner
      done
  | 2 ->
      let r = 1 + Prng.int g 3 in
      let y0 = Prng.int g h and x0' = Prng.int g w in
      for iy = y0 to min (h - 1) (y0 + r - 1) do
        for ix = x0' to min (w - 1) (x0' + r - 1) do
          set_pixel x1 iy ix (fun _ -> Prng.float g 1.)
        done
      done
  | _ ->
      let idx = [| 0; Prng.int g in_c; Prng.int g h; Prng.int g w |] in
      Tensor.set x0 idx 0.;
      Tensor.set x1 idx (if Prng.bool g then -0. else Float.nan));
  (x0, x1)

(* Scan [x1] against [x0] and, when it stays under half, patch the
   reference output [conv x0] at the marked positions from [x1] laid
   out in an arena: returns the scan's columns and the patched map. *)
let scan_and_patch ~stride ~pad ~weight ~bias x0 x1 =
  let ws = Tensor.shape weight and s = Tensor.shape x1 in
  let k = ws.(2) in
  let y0 = full_conv ~stride ~pad ~weight ~bias x0 in
  let ys = Tensor.shape y0 in
  let cols = ys.(2) * ys.(3) in
  let marks = Bytes.make cols '\001' and columns = Array.make cols (-1) in
  let count =
    Tensor.conv2d_changed_columns ~stride ~pad ~kh:k ~kw:k ~c:s.(1) ~h:s.(2)
      ~w:s.(3) ~marks ~columns x1.Tensor.data ~xoff:0 x0.Tensor.data ~roff:0
  in
  if count < 0 then (None, None)
  else begin
    let a, src = embed ~border:pad x1 in
    let a, dst = with_dst a src ~c:ys.(1) ~h:ys.(2) ~w:ys.(3) ~border:1 in
    let a', _ = embed ~off:dst.off ~border:1 y0 in
    Array.blit a' dst.off a dst.off (Tensor.region_size dst);
    Tensor.conv2d_patch_into a
      ~taps:(Tensor.conv2d_taps ~src ~kh:k ~kw:k)
      ~stride ~pad ~weight ~bias ~src ~dst ~columns ~count;
    (Some (Array.sub columns 0 count), Some (extract a dst))
  end

let qcheck_patch_matches_full_conv =
  QCheck.Test.make ~name:"boxed conv2d_patch = conv2d_gemm_batch, bitwise"
    ~count:300
    QCheck.(
      quad (int_range 0 99999) (int_range 0 2) (pair (int_range 1 2) (int_range 0 2))
        (int_range 0 3))
    (fun (seed, ki, (stride, pad), mode) ->
      let k = [| 1; 3; 5 |].(ki) in
      let g = Prng.of_int seed in
      let in_c = 1 + Prng.int g 3 and out_c = 1 + Prng.int g 9 in
      let lo = max 1 (k - (2 * pad)) in
      let h = lo + Prng.int g (13 - lo) and w = lo + Prng.int g (13 - lo) in
      let weight = Tensor.randn g ~sigma:0.5 [| out_c; in_c; k; k |] in
      let bias = Tensor.randn g ~sigma:0.1 [| out_c |] in
      let x0, x1 =
        perturb_case g ~mode (Tensor.rand_uniform g [| 1; in_c; h; w |])
      in
      let expect, cols = naive_changed ~stride ~pad ~kh:k ~kw:k ~reference:x0 x1 in
      let scanned, patched = scan_and_patch ~stride ~pad ~weight ~bias x0 x1 in
      if 2 * Array.length expect <= cols then
        scanned = Some expect
        &&
        match patched with
        | Some y -> Tensor.identical y (full_conv ~stride ~pad ~weight ~bias x1)
        | None -> false
      else scanned = None)

(* A signed zero must reach the output: with bias -0.0 and a 1x1
   identity kernel, an input of -0.0 yields -0.0 where +0.0 yields
   +0.0, so a scan that took -0.0 for 0.0 would return the stale +0.0. *)
let patch_sees_signed_zero () =
  let weight = Tensor.ones [| 1; 1; 1; 1 |] and bias = Tensor.create [| 1 |] (-0.) in
  let x0 = Tensor.zeros [| 1; 1; 4; 4 |] in
  let y0 = full_conv ~stride:1 ~pad:0 ~weight ~bias x0 in
  let x1 = Tensor.copy x0 in
  Tensor.set x1 [| 0; 0; 2; 1 |] (-0.);
  match scan_and_patch ~stride:1 ~pad:0 ~weight ~bias x0 x1 with
  | _, None -> Alcotest.fail "a one-element change must patch"
  | _, Some y ->
      Alcotest.(check bool) "patched output keeps the -0.0" true
        (Tensor.identical y (full_conv ~stride:1 ~pad:0 ~weight ~bias x1));
      Alcotest.(check bool) "and differs from the reference there" false
        (Tensor.identical y y0)

let zoo_net ?(classes = 5) arch seed =
  (Option.get (Nn.Zoo.by_name arch)) (Prng.of_int seed) ~image_size:8
    ~num_classes:classes

let training_scores net x =
  Tensor.softmax (Nn.Layer.forward ~train:false net.Nn.Network.stack x)

let patch_counter name = Telemetry.Metrics.counter ("backend.boxed." ^ name)

let check_scores what expected got =
  Alcotest.(check bool) what true (Tensor.identical expected got)

(* Attack-shaped streams: a clean read, then queries that each change one
   pixel of it to a corner value, with an occasional clean re-read and a
   two-pixel query. *)
let one_pixel_stream ~size ~seed n =
  let g = Prng.of_int seed in
  let clean = Tensor.rand_uniform g [| 3; size; size |] in
  Array.init n (fun i ->
      let x = Tensor.copy clean in
      let touched = if i = 0 || i mod 17 = 0 then 0 else if i mod 11 = 0 then 2 else 1 in
      for _ = 1 to touched do
        let r = Prng.int g size and c = Prng.int g size in
        for ch = 0 to 2 do
          Tensor.set x [| ch; r; c |] (if Prng.bool g then 1. else 0.)
        done
      done;
      x)

let oracle_stream_matches_training_forward () =
  List.iter
    (fun arch ->
      let net = zoo_net arch 91 in
      let oracle = Oracle.of_network net in
      let patched0 = Telemetry.Counter.get (patch_counter "patched")
      and fallbacks0 = Telemetry.Counter.get (patch_counter "patch_fallbacks") in
      Array.iteri
        (fun i x ->
          check_scores
            (Printf.sprintf "%s query %d: oracle = training forward" arch i)
            (training_scores net x) (Oracle.scores oracle x))
        (one_pixel_stream ~size:8 ~seed:92 120);
      Alcotest.(check (pair int int))
        (arch ^ ": all but the first (new plan) query patched")
        (119, 1)
        ( Telemetry.Counter.get (patch_counter "patched") - patched0,
          Telemetry.Counter.get (patch_counter "patch_fallbacks") - fallbacks0 ))
    Nn.Zoo.names

(* The reference must not outlive what it describes: a first-layer
   weight updated in place (boxed plans alias live parameters) and an
   input tensor the caller mutates after its query both still give the
   training forward. *)
let reference_invalidation () =
  let net = zoo_net "vgg_tiny" 93 in
  let oracle = Oracle.of_network net in
  let xs = one_pixel_stream ~size:8 ~seed:94 4 in
  let check what x =
    check_scores what (training_scores net x) (Oracle.scores oracle x)
  in
  check "clean read" xs.(0);
  check "one-pixel query" xs.(1);
  let rec first_conv l =
    match Nn.Layer.view l with
    | Nn.Layer.V_conv { weight; _ } -> Some weight
    | Nn.Layer.V_seq ls -> List.find_map first_conv ls
    | _ -> None
  in
  let weight = Option.get (first_conv net.Nn.Network.stack) in
  Tensor.set_flat weight 4 (Tensor.get_flat weight 4 +. 0.25);
  check "after an in-place weight update" xs.(2);
  check "and the next one-pixel query" xs.(3);
  (* The caller's tensor becomes the reference on a full conv; mutating
     it afterwards must not move the kept copy. *)
  let mine = Tensor.rand_uniform (Prng.of_int 99) [| 3; 8; 8 |] in
  check "a fresh image (full conv)" mine;
  Tensor.set_flat mine 1 0.75;
  check "the same tensor, mutated by its caller" mine;
  Tensor.set_flat mine 1 0.25;
  Tensor.set_flat mine 2 0.125;
  check "mutated again" mine

(* One plan, four domains, three images interleaved in runs of four
   queries: each domain keeps its own reference, so every pooled answer
   equals the sequential one, and both the patched and the full path
   run on the workers. *)
let domains_interleave_images () =
  let size = 8 in
  let net = zoo_net "vgg_tiny" 95 in
  let plan =
    Nn.Backend.Boxed_engine.compile ~name:"vgg_tiny" net.Nn.Network.stack
  in
  let streams =
    Array.init 3 (fun i -> one_pixel_stream ~size ~seed:(96 + i) 40)
  in
  let jobs =
    Array.init 120 (fun j ->
        let run = j / 4 in
        streams.(run mod 3).((run / 3 * 4) + (j mod 4)))
  in
  let score x =
    Nn.Backend.Boxed_engine.scores_batch plan
      (Tensor.reshape x [| 1; 3; size; size |])
  in
  let patched0 = Telemetry.Counter.get (patch_counter "patched")
  and fallbacks0 = Telemetry.Counter.get (patch_counter "patch_fallbacks") in
  let pooled =
    Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
        Domain_pool.Pool.map pool score jobs)
  in
  Alcotest.(check bool) "the pooled run patched" true
    (Telemetry.Counter.get (patch_counter "patched") > patched0);
  Alcotest.(check bool) "and ran full convs" true
    (Telemetry.Counter.get (patch_counter "patch_fallbacks") > fallbacks0);
  Array.iteri
    (fun j x ->
      let seq = score x in
      check_scores
        (Printf.sprintf "job %d: pooled = sequential" j)
        seq pooled.(j);
      check_scores
        (Printf.sprintf "job %d: = training forward" j)
        (Tensor.reshape (training_scores net x) [| 1; 5 |])
        seq)
    jobs

(* The path fires on a real attack: every forward image of a vgg_tiny
   sketch attack is either patched or a counted fallback, and only the
   clean read runs the full first conv — a silent fallback fails here. *)
let sketch_attack_patches () =
  let size = 8 in
  let net = zoo_net ~classes:10 "vgg_tiny" 97 in
  let plan = Nn.Backend.Boxed_engine.compile ~name:"vgg_tiny" net.Nn.Network.stack in
  let images = ref 0 in
  let fwd x =
    incr images;
    Tensor.reshape
      (Nn.Backend.Boxed_engine.scores_batch plan
         (Tensor.reshape x [| 1; 3; size; size |]))
      [| 10 |]
  in
  let oracle =
    Oracle.of_fn ~name:"vgg_tiny" ~num_classes:10 ~batch_fn:(Array.map fwd) fwd
  in
  let image = Tensor.rand_uniform (Prng.of_int 98) [| 3; size; size |] in
  let true_class = Nn.Network.classify net image in
  let patched0 = Telemetry.Counter.get (patch_counter "patched")
  and fallbacks0 = Telemetry.Counter.get (patch_counter "patch_fallbacks") in
  let program =
    Oppsla.Condition.
      {
        b1 = Cmp { func = Avg Pert; cmp = Gt; threshold = 0.5 };
        b2 = Const false;
        b3 = Const false;
        b4 = Const true;
      }
  in
  let result =
    Oppsla.Sketch.attack ~max_queries:200 oracle program ~image ~true_class
  in
  let patched = Telemetry.Counter.get (patch_counter "patched") - patched0
  and fallbacks =
    Telemetry.Counter.get (patch_counter "patch_fallbacks") - fallbacks0
  in
  Alcotest.(check int) "forward images = charged queries + the clean read"
    (result.Oppsla.Sketch.queries + 1)
    !images;
  Alcotest.(check bool) "patched > 0" true (patched > 0);
  Alcotest.(check int) "patched + fallbacks = forward images" !images
    (patched + fallbacks);
  Alcotest.(check int) "only the clean read runs the full conv" 1 fallbacks

(* Two plans and two input shapes interleaved on one domain: every call
   lands on an arena laid out for another plan or another shape, so the
   arena is rebuilt again and again (and the first-layer reference
   dropped with it), and every answer must still be the training
   forward.  The second plan ends in a global average pool, so the same
   plan runs at 8x8 and at 12x12. *)
let arena_rebuilds_interleaved () =
  let g = Prng.of_int 101 in
  let vgg = (zoo_net "vgg_tiny" 102).Nn.Network.stack in
  let pooled =
    Nn.Layer.sequential
      [
        Nn.Layer.conv2d g ~pad:1 ~in_c:3 ~out_c:6 ~k:3 ();
        Nn.Layer.channel_norm ~channels:6;
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.conv2d g ~pad:2 ~in_c:6 ~out_c:5 ~k:5 ();
        Nn.Layer.global_avg_pool ();
        Nn.Layer.dense g ~in_dim:5 ~out_dim:5 ();
      ]
  in
  let compile = Nn.Backend.Boxed_engine.compile ~name:"interleave" in
  let vgg_plan = compile vgg and pooled_plan = compile pooled in
  let runs =
    [| (vgg, vgg_plan, 8); (pooled, pooled_plan, 8); (pooled, pooled_plan, 12) |]
  in
  let streams =
    Array.map (fun (_, _, size) -> one_pixel_stream ~size ~seed:(104 + size) 12) runs
  in
  for j = 0 to 35 do
    let which = j mod 3 in
    let stack, plan, size = runs.(which) in
    let x = streams.(which).(j / 3) in
    check_scores
      (Printf.sprintf "call %d (run %d): = training forward" j which)
      (Tensor.reshape
         (Tensor.softmax (Nn.Layer.forward ~train:false stack x))
         [| 1; 5 |])
      (Nn.Backend.Boxed_engine.scores_batch plan
         (Tensor.reshape x [| 1; 3; size; size |]))
  done

(* The arena plan allocates nothing per forward: after warm-up, 100
   one-pixel vgg_tiny queries through the network oracle add no major
   words beyond the score vectors they return (a few dozen words each,
   promoted only if a minor collection finds them alive).  A forward
   that allocated its activations would cost ~10k major words at this
   size. *)
let forwards_allocate_no_major_words () =
  let size = 16 in
  let net = Nn.Zoo.vgg_tiny (Prng.of_int 105) ~image_size:size ~num_classes:10 in
  let oracle = Oracle.of_network net in
  let xs = one_pixel_stream ~size ~seed:106 120 in
  for i = 0 to 19 do
    ignore (Oracle.eval_batch oracle [| xs.(i) |])
  done;
  let kept = Array.make 100 xs.(0) in
  let _, _, major0 = Gc.counters () in
  for i = 0 to 99 do
    kept.(i) <- (Oracle.eval_batch oracle [| xs.(20 + i) |]).(0)
  done;
  let _, _, major1 = Gc.counters () in
  let words = int_of_float (major1 -. major0) in
  if words > 100 * 64 then
    Alcotest.failf "100 forwards allocated %d major words (bound %d)" words
      (100 * 64);
  Array.iteri
    (fun i s ->
      check_scores
        (Printf.sprintf "query %d: = training forward" i)
        (training_scores net xs.(20 + i)) s)
    kept

let suite =
  [
    Alcotest.test_case "boxed plan = training forward on every zoo net" `Quick
      boxed_plan_matches_training_forward;
    Alcotest.test_case "f32 descriptor round-trip" `Quick f32_roundtrip;
    Alcotest.test_case "serialize cross-backend golden" `Quick
      serialize_cross_backend;
    QCheck_alcotest.to_alcotest qcheck_gemm_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_im2col_layout;
    QCheck_alcotest.to_alcotest qcheck_f32_reshape_preserves_flat;
    QCheck_alcotest.to_alcotest qcheck_fusion_f32;
    QCheck_alcotest.to_alcotest qcheck_implicit_conv;
    QCheck_alcotest.to_alcotest qcheck_fused_epilogue;
    QCheck_alcotest.to_alcotest qcheck_patch_matches_full_conv;
    Alcotest.test_case "patch keeps a signed zero" `Quick patch_sees_signed_zero;
    Alcotest.test_case "one-pixel oracle stream = training forward, every zoo net"
      `Quick oracle_stream_matches_training_forward;
    Alcotest.test_case "reference survives weight and input mutation" `Quick
      reference_invalidation;
    Alcotest.test_case "4 domains interleaving images = sequential" `Quick
      domains_interleave_images;
    Alcotest.test_case "vgg_tiny sketch attack takes the patched path" `Quick
      sketch_attack_patches;
    Alcotest.test_case "two plans, two shapes: arena rebuilds = training forward"
      `Quick arena_rebuilds_interleaved;
    Alcotest.test_case "100 one-pixel forwards allocate no major words" `Quick
      forwards_allocate_no_major_words;
  ]
