(** 2-D convolution and pooling kernels over {!Dense} tensors in NHWC layout,
    together with the backward kernels reverse-mode AD needs.

    The convolutions are im2col + blocked matmul: the patch matrix
    [\[n*oh*ow; kh*kw*cin\]] is materialized once (in parallel over patch
    rows) and the O(n^3) work runs through {!Dense.matmul}'s cache-blocked,
    {!Pool}-parallel kernel. 1x1 stride-1 unpadded convolutions skip the
    patch copy entirely. The backward-filter pass multiplies by the
    transposed patch matrix through {!Dense.matmul_tn}, which reads it with
    a column stride instead of building the transpose. Pooling
    parallelizes over the batch dimension.
    Small problems (under the matmul serial cutoff) stay on the calling
    domain, and all partitions are bit-deterministic per the {!Pool}
    contract. The original direct-loop kernels live on in {!Reference} as
    the test oracle and benchmark baseline. *)

type padding = Same | Valid

(** Output spatial size for one dimension. *)
val out_dim : padding -> size:int -> kernel:int -> stride:int -> int

(** [pad_amounts padding ~size ~kernel ~stride] is [(pad_before, pad_after)]. *)
val pad_amounts : padding -> size:int -> kernel:int -> stride:int -> int * int

(** [conv2d ~stride ~padding input filter] with [input : \[n;h;w;cin\]] and
    [filter : \[kh;kw;cin;cout\]] produces [\[n;h';w';cout\]]. [?domains]
    overrides the pool width for this call (benchmark scaling sweeps). *)
val conv2d :
  ?domains:int ->
  ?stride:int * int ->
  padding:padding ->
  Dense.t ->
  Dense.t ->
  Dense.t

(** Gradient of [conv2d] w.r.t. its input. *)
val conv2d_backward_input :
  ?domains:int ->
  ?stride:int * int ->
  padding:padding ->
  input_shape:Shape.t ->
  Dense.t (* filter *) ->
  Dense.t (* output gradient *) ->
  Dense.t

(** Gradient of [conv2d] w.r.t. its filter. *)
val conv2d_backward_filter :
  ?domains:int ->
  ?stride:int * int ->
  padding:padding ->
  filter_shape:Shape.t ->
  Dense.t (* input *) ->
  Dense.t (* output gradient *) ->
  Dense.t

(** [avg_pool2d ~size ~stride input] with [input : \[n;h;w;c\]]. Uses Valid
    padding, matching the paper's LeNet pools. *)
val avg_pool2d : size:int * int -> stride:int * int -> Dense.t -> Dense.t

val avg_pool2d_backward :
  size:int * int ->
  stride:int * int ->
  input_shape:Shape.t ->
  Dense.t (* output gradient *) ->
  Dense.t

val max_pool2d : size:int * int -> stride:int * int -> Dense.t -> Dense.t

(** Needs the forward input to locate each window's maximum. Ties route the
    gradient to the first (row-major) maximal element. *)
val max_pool2d_backward :
  size:int * int ->
  stride:int * int ->
  Dense.t (* forward input *) ->
  Dense.t (* output gradient *) ->
  Dense.t

(** Per-shape operation cost, used by the device cost models: floating-point
    operations of the forward convolution. *)
val conv2d_flops :
  ?stride:int * int -> padding:padding -> input:Shape.t -> Shape.t (* filter *) -> int
