(* The inference engines: a layer stack is compiled once into a plan,
   which then runs without touching the [Layer] representation again.
   [Network.logits]/[scores]/[classify] and every network oracle run
   through a plan.

   [Boxed_engine] (below) is the default: float64, bit-identical to the
   training forward ([Layer.forward ~train:false] + [Tensor.softmax]) on
   every image, running each image inside one per-domain arena.
   [Make (B)] is the batched plan compiler over a [Tensor_sig.S]
   backend, instantiated once, for the float32 Bigarray engine
   ([F32_engine]), which is equal to the boxed one under the tolerance
   policy ([score_tol]): weights converted to backend storage up front
   via [B.of_tensor], conv→norm→relu collapsed into the fused conv
   epilogue where the backend allows ([B.fuse]). *)

let score_tol = 1e-4

type kind = Boxed | F32

let kind_name = function Boxed -> "boxed" | F32 -> "f32"

let kind_of_string = function
  | "boxed" -> Some Boxed
  | "f32" -> Some F32
  | _ -> None

let all_kinds = [ Boxed; F32 ]

module Make (B : Tensor_sig.S) = struct
  type step =
    | Conv of {
        stride : int;
        pad : int;
        weight : B.t;
        bias : B.t;
        norm : (B.t * B.t * float) option;
        relu : bool;
      }
    | Dense of { weight : B.t; bias : B.t }
    | Relu
    | Max_pool of { size : int; stride : int }
    | Avg_pool of { size : int; stride : int }
    | Global_avg_pool
    | Flatten
    | Norm of { gamma : B.t; beta : B.t }
    | Residual of { body : step list; projection : step list option }
    | Inception of step list list
    | Dense_block of step list list

  type plan = { net_name : string; steps : step list }

  let backend_name = B.name
  let exact = B.exact

  let rec steps_of_layer l =
    match Layer.view l with
    | Layer.V_seq layers -> List.concat_map steps_of_layer layers
    | Layer.V_conv { stride; pad; weight; bias } ->
        [
          Conv
            {
              stride;
              pad;
              weight = B.of_tensor weight;
              bias = B.of_tensor bias;
              norm = None;
              relu = false;
            };
        ]
    | Layer.V_dense { weight; bias } ->
        [ Dense { weight = B.of_tensor weight; bias = B.of_tensor bias } ]
    | Layer.V_relu -> [ Relu ]
    | Layer.V_max_pool { size; stride } -> [ Max_pool { size; stride } ]
    | Layer.V_avg_pool { size; stride } -> [ Avg_pool { size; stride } ]
    | Layer.V_global_avg_pool -> [ Global_avg_pool ]
    | Layer.V_flatten -> [ Flatten ]
    | Layer.V_norm { gamma; beta } ->
        [ Norm { gamma = B.of_tensor gamma; beta = B.of_tensor beta } ]
    | Layer.V_residual { body; projection } ->
        [
          Residual
            {
              body = steps_of_layer body;
              projection = Option.map steps_of_layer projection;
            };
        ]
    | Layer.V_inception branches ->
        [ Inception (List.map steps_of_layer branches) ]
    | Layer.V_dense_block convs ->
        [ Dense_block (List.map steps_of_layer convs) ]

  (* Fusion: conv;norm;relu / conv;norm / conv;relu collapse into the
     conv step's epilogue.  Only when the backend opts in — the result
     must equal the unfused composition exactly, a property
     [test_backend] pins per backend. *)
  let rec fuse_list = function
    | Conv ({ norm = None; relu = false; _ } as c)
      :: Norm { gamma; beta }
      :: Relu :: tl ->
        Conv { c with norm = Some (gamma, beta, Layer.norm_eps); relu = true }
        :: fuse_list tl
    | Conv ({ norm = None; relu = false; _ } as c) :: Norm { gamma; beta } :: tl
      ->
        Conv { c with norm = Some (gamma, beta, Layer.norm_eps) } :: fuse_list tl
    | Conv ({ relu = false; _ } as c) :: Relu :: tl ->
        Conv { c with relu = true } :: fuse_list tl
    | s :: tl -> fuse_step s :: fuse_list tl
    | [] -> []

  and fuse_step = function
    | Residual { body; projection } ->
        Residual
          { body = fuse_list body; projection = Option.map fuse_list projection }
    | Inception branches -> Inception (List.map fuse_list branches)
    | Dense_block convs -> Dense_block (List.map fuse_list convs)
    | s -> s

  let compile ~name stack =
    let steps = steps_of_layer stack in
    let steps = if B.fuse then fuse_list steps else steps in
    { net_name = name; steps }

  (* Per-step span: the name traceprof groups the forward by, with the
     batch width as its one argument (built only when tracing is on). *)
  let step_span name x f =
    Telemetry.Trace.span name ~cat:"tensor"
      ~args:(fun () -> [ ("n", Telemetry.Trace.Int (B.shape x).(0)) ])
      f

  let rec run ?pool steps x =
    List.fold_left (fun acc s -> run_step ?pool s acc) x steps

  and run_step ?pool s x =
    match s with
    | Conv { stride; pad; weight; bias; norm; relu } ->
        (* Per-layer timing: one span per batched conv, the breakdown
           the trace viewer and traceprof group the hot path by.  The
           disabled path is one branch; args are built lazily. *)
        Telemetry.Trace.span "conv2d_gemm_batch" ~cat:"tensor"
          ~args:(fun () ->
            let s = B.shape weight in
            [
              ("n", Telemetry.Trace.Int (B.shape x).(0));
              ("in_c", Telemetry.Trace.Int s.(1));
              ("out_c", Telemetry.Trace.Int s.(0));
              ("k", Telemetry.Trace.Int s.(2));
              ("stride", Telemetry.Trace.Int stride);
              ("pad", Telemetry.Trace.Int pad);
            ])
          (fun () ->
            B.conv2d_batch ?pool ~stride ~pad ~weight ~bias ?norm ~relu x)
    | Dense { weight; bias } ->
        Telemetry.Trace.span "dense_batch" ~cat:"tensor"
          ~args:(fun () ->
            let s = B.shape weight in
            [
              ("n", Telemetry.Trace.Int (B.shape x).(0));
              ("in_dim", Telemetry.Trace.Int s.(1));
              ("out_dim", Telemetry.Trace.Int s.(0));
            ])
          (fun () -> B.dense_batch ~weight ~bias x)
    | Relu -> step_span "relu" x (fun () -> B.relu x)
    | Max_pool { size; stride } ->
        step_span "max_pool2d_batch" x (fun () ->
            B.max_pool2d_batch ~stride ~size x)
    | Avg_pool { size; stride } ->
        step_span "avg_pool2d_batch" x (fun () ->
            B.avg_pool2d_batch ~stride ~size x)
    | Global_avg_pool ->
        step_span "global_avg_pool_batch" x (fun () ->
            B.global_avg_pool_batch x)
    | Flatten ->
        step_span "flatten" x (fun () ->
            let s = B.shape x in
            let n = s.(0) and total = Array.fold_left ( * ) 1 s in
            B.reshape x [| n; total / n |])
    | Norm { gamma; beta } ->
        step_span "channel_norm_batch" x (fun () ->
            B.channel_norm_batch ~gamma ~beta ~eps:Layer.norm_eps x)
    | Residual { body; projection } ->
        let skip =
          match projection with None -> x | Some p -> run ?pool p x
        in
        let y = run ?pool body x in
        step_span "residual_add" x (fun () -> B.add y skip)
    | Inception branches ->
        let ys = List.map (fun b -> run ?pool b x) branches in
        step_span "concat_channels_batch" x (fun () ->
            B.concat_channels_batch ys)
    | Dense_block convs ->
        List.fold_left
          (fun feat conv ->
            let y = run ?pool conv feat in
            step_span "concat_channels_batch" feat (fun () ->
                B.concat_channels_batch [ feat; y ]))
          x convs

  let forward ?pool plan x =
    Telemetry.Trace.span "backend.forward_batch" ~cat:"tensor"
      ~args:(fun () ->
        [
          ("backend", Telemetry.Trace.Str B.name);
          ("net", Telemetry.Trace.Str plan.net_name);
          ("n", Telemetry.Trace.Int (B.shape x).(0));
        ])
      (fun () -> run ?pool plan.steps x)

  let logits_batch ?pool plan xs =
    B.to_tensor (forward ?pool plan (B.of_tensor xs))

  let scores_batch ?pool plan xs =
    B.to_tensor (B.softmax_rows (forward ?pool plan (B.of_tensor xs)))
end

module F32_engine = Make (Tensor_f32)

(* The boxed engine: float64, bit-identical to the training forward
   ([Layer.forward ~train:false] + [Tensor.softmax]) on every image.

   [compile] lowers the layer stack to ops over numbered buffers (buffer
   0 is the input image); each buffer that feeds a conv records the
   widest pad among its conv readers as its zero border.
   [Norm; Relu; Max_pool] runs as one fused step.  The first run of a
   plan on an input shape lays every buffer out as a fixed region of
   one flat float array — the arena, held in one [Domain.DLS] slot and
   rebuilt whenever the plan or the input shape changes (a new plan is
   compiled per attack, so per-plan keys would leak) — and prebuilds
   one closure per op over those regions.  A batch runs that per-image
   plan once per image; steady state allocates nothing but the returned
   scores. *)
module Boxed_engine = struct
  let backend_name = "boxed"
  let stats = Tensor_sig.Stats.make backend_name

  type op =
    | Conv of {
        src : int;
        dst : int;
        stride : int;
        pad : int;
        weight : Tensor.t;
        bias : Tensor.t;
      }
    | Dense of { src : int; dst : int; weight : Tensor.t; bias : Tensor.t }
    | Relu of { src : int; dst : int }
    | Max_pool of { src : int; dst : int; size : int; stride : int }
    | Avg_pool of { src : int; dst : int; size : int; stride : int }
    | Global_avg_pool of { src : int; dst : int }
    | Flatten of { src : int; dst : int }
    | Norm of { src : int; dst : int; gamma : Tensor.t; beta : Tensor.t }
    | Norm_relu_max_pool of {
        src : int;
        dst : int;
        gamma : Tensor.t;
        beta : Tensor.t;
        size : int;
        stride : int;
      }
    | Add of { x : int; y : int; dst : int }
    | Concat of { srcs : int list; dst : int }

  type plan = {
    id : int;
    net_name : string;
    ops : op list;
    borders : int array;  (* per buffer *)
    output : int;
  }

  let next_id = Atomic.make 0

  let rec views l =
    match Layer.view l with
    | Layer.V_seq ls -> List.concat_map views ls
    | v -> [ v ]

  let compile ~name stack =
    let ops = ref [] and next = ref 1 in
    let emit f =
      let dst = !next in
      incr next;
      ops := f dst :: !ops;
      dst
    in
    let rec seq src = function
      | [] -> src
      | Layer.V_norm { gamma; beta }
        :: Layer.V_relu
        :: Layer.V_max_pool { size; stride }
        :: tl ->
          seq
            (emit (fun dst ->
                 Norm_relu_max_pool { src; dst; gamma; beta; size; stride }))
            tl
      | v :: tl -> seq (one src v) tl
    and one src = function
      | Layer.V_conv { stride; pad; weight; bias } ->
          emit (fun dst -> Conv { src; dst; stride; pad; weight; bias })
      | Layer.V_dense { weight; bias } ->
          emit (fun dst -> Dense { src; dst; weight; bias })
      | Layer.V_relu -> emit (fun dst -> Relu { src; dst })
      | Layer.V_max_pool { size; stride } ->
          emit (fun dst -> Max_pool { src; dst; size; stride })
      | Layer.V_avg_pool { size; stride } ->
          emit (fun dst -> Avg_pool { src; dst; size; stride })
      | Layer.V_global_avg_pool -> emit (fun dst -> Global_avg_pool { src; dst })
      | Layer.V_flatten -> emit (fun dst -> Flatten { src; dst })
      | Layer.V_norm { gamma; beta } ->
          emit (fun dst -> Norm { src; dst; gamma; beta })
      | Layer.V_seq ls -> seq src (List.concat_map views ls)
      | Layer.V_residual { body; projection } ->
          let skip =
            match projection with None -> src | Some p -> seq src (views p)
          in
          let y = seq src (views body) in
          emit (fun dst -> Add { x = y; y = skip; dst })
      | Layer.V_inception branches ->
          let srcs = List.map (fun b -> seq src (views b)) branches in
          emit (fun dst -> Concat { srcs; dst })
      | Layer.V_dense_block convs ->
          List.fold_left
            (fun feat conv ->
              let y = seq feat (views conv) in
              emit (fun dst -> Concat { srcs = [ feat; y ]; dst }))
            src convs
    in
    let output = seq 0 (views stack) in
    let ops = List.rev !ops in
    let borders = Array.make !next 0 in
    List.iter
      (function
        | Conv { src; pad; _ } -> borders.(src) <- max borders.(src) pad
        | _ -> ())
      ops;
    { id = Atomic.fetch_and_add next_id 1; net_name = name; ops; borders; output }

  (* {2 The arena} *)

  (* A laid-out buffer: its region, and whether it is a flat vector
     ([c = h = 1], the shape after [Flatten], [Global_avg_pool] and
     [Dense]) rather than a CHW map. *)
  type buf = { r : Tensor.region; flat : bool }

  type step = {
    name : string;
    args : (unit -> (string * Telemetry.Trace.arg) list) option;
    run : unit -> unit;
  }

  (* The incremental first layer.  Every query an attack poses is one
     image with a pixel or a few changed, so when the plan opens with a
     conv on the input, the arena keeps a reference: the last input
     that ran that conv in full, its output, and a snapshot of the
     conv's weight and bias (a boxed plan aliases the live parameters,
     which training updates in place).  The next image whose changed
     elements touch at most half of the output positions blits the
     reference output and recomputes only those positions; any other
     image runs the full conv and becomes the reference.  A patch
     equals the full conv bit for bit ({!Tensor.conv2d_patch_into}). *)
  type first = {
    src : Tensor.region;
    dst : Tensor.region;
    taps : int array;
    stride : int;
    pad : int;
    kh : int;
    kw : int;
    weight : Tensor.t;
    bias : Tensor.t;
    ref_in : int;
    ref_out : int;
    snap_w : int;
    snap_b : int;
    marks : Bytes.t;
    columns : int array;
    mutable x : float array;  (* the image being run, and its offset *)
    mutable xoff : int;
    mutable valid : bool;
    mutable patched : bool;
  }

  type arena = {
    plan_id : int;
    in_flat : bool;
    in_c : int;
    in_h : int;
    in_w : int;
    data : float array;
    input : Tensor.region;
    out : buf;
    scores : int;  (* softmax slice of a vector output, else -1 *)
    first : first option;
    steps : step array;
  }

  type slot = { mutable arena : arena option; mutable spare : float array }

  let slot : slot Domain.DLS.key =
    Domain.DLS.new_key (fun () -> { arena = None; spare = [||] })

  let fail plan fmt =
    Printf.ksprintf
      (fun m -> invalid_arg (Printf.sprintf "Backend(%s): %s" plan.net_name m))
      fmt

  let[@inline] observe_since t0 =
    Telemetry.Histogram.observe stats.Tensor_sig.Stats.seconds
      (Unix.gettimeofday () -. t0)

  let conv_flops ~weight ~positions =
    let ws = weight.Tensor.shape in
    2 * ws.(0) * ws.(1) * ws.(2) * ws.(3) * positions

  let same_bits_slice (src : float array) a off =
    let n = Array.length src in
    let i = ref 0 in
    while
      !i < n
      && Int64.equal
           (Int64.bits_of_float (Array.unsafe_get src !i))
           (Int64.bits_of_float (Array.unsafe_get a (off + !i)))
    do
      incr i
    done;
    !i = n

  (* A compact CHW image at [xoff] into [r]'s interior, or back out. *)
  let blit_in a ~x ~xoff (r : Tensor.region) =
    for ch = 0 to r.c - 1 do
      for y = 0 to r.h - 1 do
        Array.blit x
          (xoff + (((ch * r.h) + y) * r.w))
          a (Tensor.region_index r ch y) r.w
      done
    done

  let blit_out a (r : Tensor.region) ~dst ~doff =
    for ch = 0 to r.c - 1 do
      for y = 0 to r.h - 1 do
        Array.blit a (Tensor.region_index r ch y) dst
          (doff + (((ch * r.h) + y) * r.w))
          r.w
      done
    done

  let full_conv a ~taps ~stride ~pad ~weight ~bias ~(src : Tensor.region)
      ~(dst : Tensor.region) =
    let t0 = Unix.gettimeofday () in
    Tensor.conv2d_into a ~taps ~stride ~pad ~weight ~bias ~src ~dst;
    observe_since t0;
    Telemetry.Counter.incr stats.Tensor_sig.Stats.panels;
    Telemetry.Counter.add stats.Tensor_sig.Stats.flops
      (conv_flops ~weight ~positions:(dst.h * dst.w))

  let first_conv a f =
    let count =
      if
        f.valid
        && same_bits_slice f.weight.Tensor.data a f.snap_w
        && same_bits_slice f.bias.Tensor.data a f.snap_b
      then
        Tensor.conv2d_changed_columns ~stride:f.stride ~pad:f.pad ~kh:f.kh
          ~kw:f.kw ~c:f.src.c ~h:f.src.h ~w:f.src.w ~marks:f.marks
          ~columns:f.columns f.x ~xoff:f.xoff a ~roff:f.ref_in
      else -1
    in
    f.patched <- count >= 0;
    let size = Tensor.region_size f.dst in
    if f.patched then begin
      let t0 = Unix.gettimeofday () in
      Array.blit a f.ref_out a f.dst.off size;
      Tensor.conv2d_patch_into a ~taps:f.taps ~stride:f.stride ~pad:f.pad
        ~weight:f.weight ~bias:f.bias ~src:f.src ~dst:f.dst ~columns:f.columns
        ~count;
      observe_since t0;
      Telemetry.Counter.incr stats.Tensor_sig.Stats.patched;
      Telemetry.Counter.add stats.Tensor_sig.Stats.flops
        (conv_flops ~weight:f.weight ~positions:count)
    end
    else begin
      Telemetry.Counter.incr stats.Tensor_sig.Stats.patch_fallbacks;
      full_conv a ~taps:f.taps ~stride:f.stride ~pad:f.pad ~weight:f.weight
        ~bias:f.bias ~src:f.src ~dst:f.dst;
      Array.blit f.x f.xoff a f.ref_in (f.src.c * f.src.h * f.src.w);
      Array.blit a f.dst.off a f.ref_out size;
      let wd = f.weight.Tensor.data and bd = f.bias.Tensor.data in
      Array.blit wd 0 a f.snap_w (Array.length wd);
      Array.blit bd 0 a f.snap_b (Array.length bd);
      f.valid <- true
    end

  (* One pass over the ops for an input of [c; h; w] (or a vector):
     shape each buffer, checking the op the way the layer kernels would,
     place it (and the first-layer reference, and the softmax) at a fixed
     slice, and prebuild the op's step over those slices. *)
  let layout plan ~flat ~c ~h ~w ~spare =
    let bufs = Array.make (Array.length plan.borders) None in
    let size = ref 0 in
    let slice n =
      let off = !size in
      size := off + n;
      off
    in
    let place ?(flat = false) ?at b ~c ~h ~w =
      let border = if flat then 0 else plan.borders.(b) in
      let r = { Tensor.off = 0; c; h; w; border } in
      let off =
        match at with Some o -> o | None -> slice (Tensor.region_size r)
      in
      let r = { r with off } in
      bufs.(b) <- Some { r; flat };
      r
    in
    let get b = Option.get bufs.(b) in
    let map_of op b =
      let { r; flat } = get b in
      if flat then fail plan "%s needs a CHW input, got a vector" op;
      r
    in
    let vec_of op b =
      let { r; flat } = get b in
      if not flat then fail plan "%s needs a vector input, got a CHW map" op;
      r
    in
    let pool_dst op src dst ~size:k ~stride =
      let s = map_of op src in
      if k < 1 || stride < 1 || s.h < k || s.w < k then
        fail plan "%s: window %d larger than %dx%d" op k s.h s.w;
      let oh = ((s.h - k) / stride) + 1 and ow = ((s.w - k) / stride) + 1 in
      (s, place dst ~c:s.c ~h:oh ~w:ow)
    in
    let norm_src op src gamma =
      let s = map_of op src in
      if Tensor.numel gamma <> s.c then fail plan "%s: channel mismatch" op;
      s
    in
    (* The arena array exists only once every slice is placed, so the
       steps read it through this cell. *)
    let data = ref [||] and first = ref None and steps = ref [] in
    let step ?args name run = steps := { name; args; run } :: !steps in
    let input = place ~flat 0 ~c ~h ~w in
    List.iteri
      (fun i op ->
        match op with
        | Conv { src = b; dst; stride; pad; weight; bias } ->
            let s = map_of "conv" b and ws = weight.Tensor.shape in
            if ws.(1) <> s.c then
              fail plan "conv: %d input channels, weight expects %d" s.c ws.(1);
            if s.h + (2 * pad) < ws.(2) || s.w + (2 * pad) < ws.(3) then
              fail plan "conv: kernel larger than padded input";
            let d =
              place dst ~c:ws.(0)
                ~h:(((s.h + (2 * pad) - ws.(2)) / stride) + 1)
                ~w:(((s.w + (2 * pad) - ws.(3)) / stride) + 1)
            in
            let taps = Tensor.conv2d_taps ~src:s ~kh:ws.(2) ~kw:ws.(3) in
            if i = 0 && b = 0 then begin
              let f =
                {
                  src = s;
                  dst = d;
                  taps;
                  stride;
                  pad;
                  kh = ws.(2);
                  kw = ws.(3);
                  weight;
                  bias;
                  ref_in = slice (c * h * w);
                  ref_out = slice (Tensor.region_size d);
                  snap_w = slice (Tensor.numel weight);
                  snap_b = slice (Tensor.numel bias);
                  marks = Bytes.make (d.h * d.w) '\000';
                  columns = Array.make (d.h * d.w) 0;
                  x = [||];
                  xoff = 0;
                  valid = false;
                  patched = false;
                }
              in
              first := Some f;
              step "conv2d_patch"
                (fun () -> first_conv !data f)
                ~args:(fun () ->
                  [
                    ("reference", Telemetry.Trace.Bool f.valid);
                    ("patched", Telemetry.Trace.Bool f.patched);
                  ])
            end
            else
              step "conv2d"
                (fun () ->
                  full_conv !data ~taps ~stride ~pad ~weight ~bias ~src:s ~dst:d)
                ~args:(fun () ->
                  [
                    ("in_c", Telemetry.Trace.Int ws.(1));
                    ("out_c", Telemetry.Trace.Int ws.(0));
                    ("k", Telemetry.Trace.Int ws.(2));
                    ("stride", Telemetry.Trace.Int stride);
                    ("pad", Telemetry.Trace.Int pad);
                  ])
        | Dense { src; dst; weight; bias } ->
            let s = vec_of "dense" src and ws = weight.Tensor.shape in
            if ws.(1) <> s.w then
              fail plan "dense: %d inputs, weight expects %d" s.w ws.(1);
            let d = place ~flat:true dst ~c:1 ~h:1 ~w:ws.(0) in
            step "dense" (fun () ->
                let t0 = Unix.gettimeofday () in
                Tensor.dense_into !data ~weight ~bias ~src:s.off ~dst:d.off;
                observe_since t0;
                Telemetry.Counter.add stats.Tensor_sig.Stats.flops
                  (2 * ws.(0) * ws.(1)))
        | Relu { src; dst } ->
            let { r = s; flat } = get src in
            let d = place ~flat dst ~c:s.c ~h:s.h ~w:s.w in
            step "relu" (fun () -> Tensor.relu_into !data ~src:s ~dst:d)
        | Max_pool { src; dst; size; stride } ->
            let s, d = pool_dst "max_pool" src dst ~size ~stride in
            step "max_pool2d" (fun () ->
                Tensor.max_pool_into !data ~size ~stride ~src:s ~dst:d)
        | Avg_pool { src; dst; size; stride } ->
            let s, d = pool_dst "avg_pool" src dst ~size ~stride in
            step "avg_pool2d" (fun () ->
                Tensor.avg_pool_into !data ~size ~stride ~src:s ~dst:d)
        | Norm_relu_max_pool { src; dst; gamma; beta; size; stride } ->
            ignore (norm_src "norm" src gamma);
            let s, d = pool_dst "max_pool" src dst ~size ~stride in
            step "norm_relu_max_pool" (fun () ->
                Tensor.norm_relu_max_pool_into !data ~gamma ~beta
                  ~eps:Layer.norm_eps ~size ~stride ~src:s ~dst:d;
                Telemetry.Counter.incr stats.Tensor_sig.Stats.fusion_hits)
        | Global_avg_pool { src; dst } ->
            let s = map_of "global_avg_pool" src in
            let d = place ~flat:true dst ~c:1 ~h:1 ~w:s.c in
            step "global_avg_pool" (fun () ->
                Tensor.global_avg_pool_into !data ~src:s ~dst:d.off)
        | Flatten { src; dst } ->
            (* A border-free map is already its own flat vector. *)
            let s = (get src).r in
            let n = s.c * s.h * s.w in
            if s.border = 0 then
              ignore (place ~flat:true ~at:s.off dst ~c:1 ~h:1 ~w:n)
            else begin
              let d = place ~flat:true dst ~c:1 ~h:1 ~w:n in
              let d = { s with off = d.off; border = 0 } in
              step "flatten" (fun () ->
                  Tensor.blit_into !data ~src:s ~dst:d ~first:0)
            end
        | Norm { src; dst; gamma; beta } ->
            let s = norm_src "norm" src gamma in
            let d = place dst ~c:s.c ~h:s.h ~w:s.w in
            step "channel_norm" (fun () ->
                Tensor.channel_norm_into !data ~gamma ~beta ~eps:Layer.norm_eps
                  ~src:s ~dst:d)
        | Add { x; y; dst } ->
            let bx = get x and by = get y in
            if
              bx.flat <> by.flat || bx.r.c <> by.r.c || bx.r.h <> by.r.h
              || bx.r.w <> by.r.w
            then fail plan "residual add: shapes differ";
            let d = place ~flat:bx.flat dst ~c:bx.r.c ~h:bx.r.h ~w:bx.r.w in
            step "residual_add" (fun () ->
                Tensor.add_into !data ~x:bx.r ~y:by.r ~dst:d)
        | Concat { srcs; dst } ->
            let ss = Array.of_list (List.map (map_of "concat") srcs) in
            if ss = [||] then fail plan "concat: no inputs";
            if
              Array.exists
                (fun (s : Tensor.region) -> s.h <> ss.(0).h || s.w <> ss.(0).w)
                ss
            then fail plan "concat: spatial dims differ";
            let d =
              place dst
                ~c:(Array.fold_left (fun n (s : Tensor.region) -> n + s.c) 0 ss)
                ~h:ss.(0).h ~w:ss.(0).w
            in
            step "concat_channels" (fun () ->
                ignore
                  (Array.fold_left
                     (fun first (s : Tensor.region) ->
                       Tensor.blit_into !data ~src:s ~dst:d ~first;
                       first + s.c)
                     0 ss)))
      plan.ops;
    let out = get plan.output in
    let scores = if out.flat then slice out.r.w else -1 in
    data :=
      if Array.length spare >= !size then begin
        Array.fill spare 0 !size 0.;
        spare
      end
      else Array.make !size 0.;
    {
      plan_id = plan.id;
      in_flat = flat;
      in_c = c;
      in_h = h;
      in_w = w;
      data = !data;
      input;
      out;
      scores;
      first = !first;
      steps = Array.of_list (List.rev !steps);
    }

  let arena_for plan ~flat ~c ~h ~w =
    let s = Domain.DLS.get slot in
    match s.arena with
    | Some a
      when a.plan_id = plan.id && a.in_flat = flat && a.in_c = c && a.in_h = h
           && a.in_w = w ->
        a
    | _ ->
        let a = layout plan ~flat ~c ~h ~w ~spare:s.spare in
        s.arena <- Some a;
        s.spare <- a.data;
        a

  (* One image through the plan: copy it into the input region's
     interior, then every step in order, each under its span (free when
     no trace consumer is open: the closures are prebuilt). *)
  let run_image arena x xoff =
    blit_in arena.data ~x ~xoff arena.input;
    (match arena.first with
    | Some f ->
        f.x <- x;
        f.xoff <- xoff
    | None -> ());
    Array.iter
      (fun s -> Telemetry.Trace.span ~cat:"tensor" ?args:s.args s.name s.run)
      arena.steps;
    match arena.first with Some f -> f.x <- [||] | None -> ()

  (* Run [n] images of one shape, image [i] at [offset i] in [data i],
     handing each finished arena to [emit i]. *)
  let forward plan ~n ~flat ~c ~h ~w ~data ~offset emit =
    Telemetry.Trace.span "backend.forward_batch" ~cat:"tensor"
      ~args:(fun () ->
        [
          ("backend", Telemetry.Trace.Str backend_name);
          ("net", Telemetry.Trace.Str plan.net_name);
          ("n", Telemetry.Trace.Int n);
        ])
      (fun () ->
        for i = 0 to n - 1 do
          let arena = arena_for plan ~flat ~c ~h ~w in
          run_image arena (data i) (offset i);
          emit i arena
        done)

  (* An image's dims from its shape: CHW, or a flat vector (the input
     of a plan that starts after a [Flatten]). *)
  let image_dims name s =
    match s with
    | [| c; h; w |] -> (false, c, h, w)
    | [| m |] -> (true, 1, 1, m)
    | _ ->
        invalid_arg
          ("Backend.Boxed_engine." ^ name ^ ": images must be CHW or vectors")

  (* A batch's images, and the arena its shape runs in (laid out before
     the first image so an empty batch still knows its output shape). *)
  let batch name plan xs =
    let s = xs.Tensor.shape in
    if Array.length s < 1 then
      invalid_arg ("Backend.Boxed_engine." ^ name ^ ": expected a batch");
    let n = s.(0) in
    let flat, c, h, w = image_dims name (Array.sub s 1 (Array.length s - 1)) in
    let run emit =
      forward plan ~n ~flat ~c ~h ~w
        ~data:(fun _ -> xs.Tensor.data)
        ~offset:(fun i -> i * c * h * w)
        emit
    in
    (n, arena_for plan ~flat ~c ~h ~w, run)

  let logits_batch ?pool plan xs =
    ignore pool;
    let n, arena, run = batch "logits_batch" plan xs in
    let { r; flat } = arena.out in
    let m = r.c * r.h * r.w in
    let out = Array.make (n * m) 0. in
    run (fun i arena -> blit_out arena.data r ~dst:out ~doff:(i * m));
    Tensor.of_array (if flat then [| n; m |] else [| n; r.c; r.h; r.w |]) out

  let need_scores plan arena =
    if arena.scores < 0 then
      fail plan "scores need a vector output, the plan ends in a CHW map"

  (* The softmax of the output vector into [dst] at [doff]. *)
  let softmax_out arena ~dst ~doff =
    let n = arena.out.r.w in
    Tensor.softmax_into arena.data ~n ~src:arena.out.r.off ~dst:arena.scores;
    Array.blit arena.data arena.scores dst doff n

  let scores_batch ?pool plan xs =
    ignore pool;
    let n, arena, run = batch "scores_batch" plan xs in
    need_scores plan arena;
    let classes = arena.out.r.w in
    let out = Array.make (n * classes) 0. in
    run (fun i arena -> softmax_out arena ~dst:out ~doff:(i * classes));
    Tensor.of_array [| n; classes |] out

  let scores_each plan xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let s = xs.(0).Tensor.shape in
      let flat, c, h, w = image_dims "scores_each" s in
      Array.iter
        (fun x ->
          if x.Tensor.shape <> s then
            invalid_arg "Backend.Boxed_engine.scores_each: mixed shapes")
        xs;
      let out = Array.make n xs.(0) in
      forward plan ~n ~flat ~c ~h ~w
        ~data:(fun i -> xs.(i).Tensor.data)
        ~offset:(fun _ -> 0)
        (fun i arena ->
          need_scores plan arena;
          let v = Array.make arena.out.r.w 0. in
          softmax_out arena ~dst:v ~doff:0;
          out.(i) <- Tensor.of_array [| Array.length v |] v);
      out
    end
end
