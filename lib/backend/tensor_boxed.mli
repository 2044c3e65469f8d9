(** The reference tensor backend: float64 [Tensor.t] activations
    delegating to the batched [Tensor] kernels, so compiled plans are
    bit-identical to the training forward ([Nn.Layer.forward
    ~train:false] + [Tensor.softmax]).  [fuse] is off — every step runs
    the layer's own kernel, in layer order. *)

include Tensor_sig.S with type t = Tensor.t
