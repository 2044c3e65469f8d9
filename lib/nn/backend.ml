(* Plan compiler: translate a layer stack once into a flat list of
   backend kernel steps — weights converted to backend storage up front
   via [B.of_tensor], conv→norm→relu collapsed into the fused conv
   epilogue where the backend allows ([B.fuse]) and the layer graph has
   the adjacency — then run the plan on whole batches without touching
   the [Layer] representation again.  This is the only inference engine:
   [Network.logits]/[scores]/[classify] and every network oracle run
   through it.

   [Make (Tensor_boxed)] is bit-identical to the training forward
   ([Layer.forward ~train:false] + [Tensor.softmax]) on every image;
   [Make (Tensor_f32)] is the float32 Bigarray engine, equal under the
   tolerance policy ([score_tol]). *)

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

  type plan = { id : int; net_name : string; steps : step list }

  let next_id = Atomic.make 0

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
    { id = Atomic.fetch_and_add next_id 1; net_name = name; steps }

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

  (* Incremental first layer.  Every query an attack poses is one image
     with a pixel or a few changed, so each domain keeps one reference
     for a plan whose first step is an unfused conv: the last input that
     ran that conv in full (a private copy — callers may mutate theirs),
     its output, and a snapshot of the step's weight and bias.  The next
     one-image call of the same plan asks the backend to patch that
     output where the input changed ({!Tensor_sig.S.conv2d_patch}); when
     the backend declines, the conv runs in full and the input becomes
     the new reference.  The snapshot is compared on every call because
     a boxed plan aliases the live parameters, which training updates
     in place.  Nothing here changes a result bit: a patch equals the
     full conv by the backend's contract. *)
  type reference = {
    plan_id : int;
    input : B.t;
    output : B.t;
    weight_snap : B.t;
    bias_snap : B.t;
  }

  let reference_slot : reference option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let first_conv ?pool plan step ~stride ~pad ~weight ~bias x =
    let slot = Domain.DLS.get reference_slot in
    let reference =
      match !slot with
      | Some r
        when r.plan_id = plan.id
             && B.shape r.input = B.shape x
             && B.identical r.weight_snap weight
             && B.identical r.bias_snap bias ->
          Some (r.input, r.output)
      | _ -> None
    in
    let patched = ref None in
    Telemetry.Trace.span "conv2d_patch" ~cat:"tensor"
      ~args:(fun () ->
        [
          ("reference", Telemetry.Trace.Bool (Option.is_some reference));
          ("patched", Telemetry.Trace.Bool (Option.is_some !patched));
        ])
      (fun () ->
        patched := B.conv2d_patch ~stride ~pad ~weight ~bias ~reference x);
    match !patched with
    | Some y -> y
    | None ->
        let y = run_step ?pool step x in
        slot :=
          Some
            {
              plan_id = plan.id;
              input = B.copy x;
              output = B.copy y;
              weight_snap = B.copy weight;
              bias_snap = B.copy bias;
            };
        y

  let forward ?pool plan x =
    Telemetry.Trace.span "backend.forward_batch" ~cat:"tensor"
      ~args:(fun () ->
        [
          ("backend", Telemetry.Trace.Str B.name);
          ("net", Telemetry.Trace.Str plan.net_name);
          ("n", Telemetry.Trace.Int (B.shape x).(0));
        ])
      (fun () ->
        match plan.steps with
        | (Conv { stride; pad; weight; bias; norm = None; relu = false } as
           first)
          :: rest
          when (B.shape x).(0) = 1 ->
            run ?pool rest
              (first_conv ?pool plan first ~stride ~pad ~weight ~bias x)
        | steps -> run ?pool steps x)

  let logits_batch ?pool plan xs =
    B.to_tensor (forward ?pool plan (B.of_tensor xs))

  let scores_batch ?pool plan xs =
    B.to_tensor (B.softmax_rows (forward ?pool plan (B.of_tensor xs)))
end

module Boxed_engine = Make (Tensor_boxed)
module F32_engine = Make (Tensor_f32)
