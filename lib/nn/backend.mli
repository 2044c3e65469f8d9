(** The inference engines.  A layer stack compiles once into a plan;
    [Network.logits]/[scores]/[classify] and every network oracle run
    through a compiled plan, and the only other forward pass is the
    training one ({!Layer.forward}).  {!Boxed_engine} (the default) is
    bit-identical to [Layer.forward ~train:false] followed by
    [Tensor.softmax], image by image.  [Make (B)] is the batched plan
    compiler over a {!Tensor_sig.S} backend, instantiated for the f32
    engine, which matches the boxed one under the tolerance policy:
    identical argmax, success and query counts, and per-logit deviation
    at most {!score_tol}. *)

val score_tol : float
(** Per-score absolute tolerance (1e-4) for cross-backend differentials
    on softmax outputs of non-[exact] backends. *)

(** Backend selection token, threaded from the CLI ([--backend
    boxed|f32]) through Workbench and Oracle. *)
type kind = Boxed | F32

val kind_name : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

module Make (B : Tensor_sig.S) : sig
  type plan

  val backend_name : string
  val exact : bool
  (** Mirrors [B.name] / [B.exact]. *)

  val compile : name:string -> Layer.t -> plan
  (** Translate a layer stack (a network's [stack], or any single layer)
      into backend storage; [name] labels the plan's trace spans.  Each
      weight enters the plan through [B.of_tensor], which for f32 copies
      it: recompile after any parameter update. *)

  val logits_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** NCHW batch in, [[|n; classes|]] logits out.  [?pool] lets the
      backend dispatch GEMM row panels onto an idle domain pool (safe to
      pass a pool that is mid-[map]: the backend falls back inline). *)

  val scores_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** Softmax of each {!logits_batch} row. *)
end

module F32_engine : module type of Make (Tensor_f32)

(** The boxed float64 engine, bit-identical to [Layer.forward
    ~train:false] + [Tensor.softmax] on every image.  [compile] lowers
    the stack to ops over numbered buffers and fuses [Norm; Relu;
    Max_pool] into one step.  A plan runs image by image inside one
    per-domain arena: the first run on an input shape lays every
    activation out as a fixed {!Tensor.region} of one flat float array
    (a buffer that feeds a conv gets that conv's zero border, so convs
    run implicit-GEMM with no im2col panel) and the arena is rebuilt
    when the plan or the input shape changes.  Steady state allocates
    only the returned scores.  When the plan opens with a conv, a
    one-pixel change patches that conv's output from the arena's
    reference instead of recomputing it (counted as
    [backend.boxed.patched] / [patch_fallbacks]). *)
module Boxed_engine : sig
  type plan

  val compile : name:string -> Layer.t -> plan
  (** Lower a layer stack (a network's [stack], or any single layer);
      [name] labels the plan's trace spans.  The plan aliases the live
      {!Param.t} values, which training updates in place, so it always
      computes with the current weights. *)

  val logits_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** NCHW batch in; [[|n; m|]] for a plan ending in a vector, else
      [[|n; c; h; w|]].  [?pool] is ignored. *)

  val scores_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** Softmax of each {!logits_batch} row. *)

  val scores_each : plan -> Tensor.t array -> Tensor.t array
  (** The scores of each CHW image (all of one shape), copied out of the
      arena straight into one fresh vector per image. *)
end
