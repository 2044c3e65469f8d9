(** The reference tensor backend: float64 [Tensor.t] activations
    delegating to the batched [Tensor] kernels, so compiled plans are
    bit-identical to the training forward ([Nn.Layer.forward
    ~train:false] + [Tensor.softmax]).  [fuse] is off — every step runs
    the layer's own kernel, in layer order.  [conv2d_patch] scans with
    {!Tensor.conv2d_changed_columns} and patches with
    {!Tensor.conv2d_patch}, so a patched first layer is bit-equal to the
    full conv. *)

include Tensor_sig.S with type t = Tensor.t
