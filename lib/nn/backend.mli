(** Plan compiler over pluggable tensor backends — the one inference
    engine.

    [Make (B)] translates a layer stack once into a list of [B] kernel
    steps (weights converted to backend storage at compile time,
    conv→norm→relu fused into the conv epilogue when [B.fuse]) and runs
    whole batches through it.  [Network.logits]/[scores]/[classify] and
    every network oracle run through a compiled plan; the only other
    forward pass is the training one ({!Layer.forward}).  The boxed
    instance is bit-identical to [Layer.forward ~train:false] followed by
    [Tensor.softmax], image by image; the f32 instance matches under the
    tolerance policy: identical argmax, success and query counts, and
    per-logit deviation at most {!score_tol}. *)

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
      weight enters the plan through [B.of_tensor].  For the boxed
      backend that is the identity, so the plan aliases the live
      {!Param.t} values, which training updates in place: a boxed plan
      always computes with the current weights.  Backends that convert
      storage (f32) copy the weights at compile time: recompile those
      after any parameter update. *)

  val logits_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** NCHW batch in, [[|n; classes|]] logits out.  [?pool] lets the
      backend dispatch GEMM row panels onto an idle domain pool (safe to
      pass a pool that is mid-[map]: the backend falls back inline). *)

  val scores_batch : ?pool:Domain_pool.Pool.t -> plan -> Tensor.t -> Tensor.t
  (** Softmax of each {!logits_batch} row. *)
end

module Boxed_engine : module type of Make (Tensor_boxed)
module F32_engine : module type of Make (Tensor_f32)
