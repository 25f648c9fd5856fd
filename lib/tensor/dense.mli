(** The Tensor compute substrate of §3.1: a multi-dimensional array backed by
    a flat C-layout float64 {!Bigarray.Array1}, with cache-blocked,
    optionally {!Domain}-parallel dense kernels (see {!Pool}).

    The API has {e value semantics}: every operation returns a fresh tensor
    and never aliases the argument buffers, so distinct values access
    logically disjoint data (§4). A small set of explicitly named
    [*_inplace] operations (plus {!blit}/{!fill}) mutate their first
    argument; they model Swift's [inout] unique borrow and must only be
    applied to values the caller uniquely owns (this is what the optimizer's
    in-place update path uses).

    Broadcasting binary operations, [broadcast_to], [transpose], [permute]
    and [sum_axes] share one strided walker: it merges the dimensions both
    operands traverse contiguously and hands each innermost run's base
    offsets and strides (1, or 0 on a stretched dimension) to a
    monomorphic loop, so a same-shape op is one flat loop and a bias add
    one short loop per row. Apart from {!map}/{!map2} and the unary ops
    built on {!map} ([exp], [log], [sqrt], [add_scalar], ...), which call
    a closure per element, no kernel's inner loop calls a closure,
    allocates, slices a Bigarray or uses polymorphic compare.
    [matmul]/[batch_matmul] are cache-blocked with a 2x4 register
    micro-kernel and partition output rows across the domain pool above a
    fixed work cutoff; the partition is contiguous, so results are
    bit-identical for every domain count. *)

type t

(** The flat row-major storage of every tensor. *)
type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Shape_error of string
(** Re-raised from {!Shape}[.Shape_error] for shape mismatches. *)

(** {1 Creation} *)

val create : Shape.t -> float -> t
val zeros : Shape.t -> t
val ones : Shape.t -> t

(** Uninitialized storage. Kernels only: the caller must write every
    element before the tensor escapes (used by im2col, which writes the
    padding zeros explicitly instead of paying a full pre-fill pass). *)
val uninit : Shape.t -> t

val scalar : float -> t

(** [of_array shape data] copies [data]; its length must equal
    [Shape.numel shape]. *)
val of_array : Shape.t -> float array -> t

(** [init shape f] fills element at multi-index [idx] with [f idx]. *)
val init : Shape.t -> (int array -> float) -> t

(** [init_flat shape f] fills flat position [i] with [f i], in increasing
    flat order (PRNG-fed initializers rely on the order). *)
val init_flat : Shape.t -> (int -> float) -> t

val arange : int -> t
val linspace : lo:float -> hi:float -> int -> t
val rand_uniform : Prng.t -> ?lo:float -> ?hi:float -> Shape.t -> t
val rand_normal : Prng.t -> ?mean:float -> ?stddev:float -> Shape.t -> t

(** {1 Access} *)

val shape : t -> Shape.t
val rank : t -> int
val numel : t -> int
val get : t -> int array -> float
val get_flat : t -> int -> float

(** Extracts the value of a rank-0 or single-element tensor. *)
val item : t -> float

(** Copy of the underlying buffer in row-major order, as a plain OCaml
    array (checkpointing, tests, interop). *)
val to_array : t -> float array

(** The underlying buffer itself, not a copy. Mutating it breaks value
    semantics; reserved for kernels and backends. *)
val unsafe_data : t -> buffer

val copy : t -> t

(** [with_shape t shape] reinterprets [t]'s buffer under a new shape of the
    same [numel] {e without copying} — the two values alias. Reserved for
    kernels that immediately drop one of the views (e.g. im2col matmul
    results); anything else breaks value semantics. *)
val with_shape : t -> Shape.t -> t

(** {1 Functional update} *)

(** [set t idx v] is a copy of [t] with element [idx] replaced. *)
val set : t -> int array -> float -> t

val set_flat : t -> int -> float -> t

(** {1 In-place (unique-borrow) operations} *)

(** [fill ?pos ?len t v] sets the flat range [\[pos, pos+len)] (default: the
    whole tensor) to [v]. *)
val fill : ?pos:int -> ?len:int -> t -> float -> unit

val fill_inplace : t -> float -> unit
(** [fill_inplace t v] = [fill t v]; the historical name. *)

(** [blit src dst] copies [src]'s contents into [dst]; both must have the
    same number of elements (shapes may differ — the copy is flat). *)
val blit : t -> t -> unit

(** [blit_flat ~src ~src_pos ~dst ~dst_pos ~len] copies the flat range
    [\[src_pos, src_pos+len)] of [src] onto [\[dst_pos, ...)] of [dst] —
    the primitive under batch padding and row stacking. *)
val blit_flat : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [add_inplace dst src]: [dst <- dst + src] (shapes must match). *)
val add_inplace : t -> t -> unit

(** [axpy_inplace ~alpha dst x]: [dst <- dst + alpha * x]. *)
val axpy_inplace : alpha:float -> t -> t -> unit

(** [scale_inplace t alpha]: [t <- alpha * t]. *)
val scale_inplace : t -> float -> unit

(** [add_at_inplace t idx v]: [t.(idx) <- t.(idx) + v] — the O(1) inout
    pullback primitive of Appendix B. *)
val add_at_inplace : t -> int array -> float -> unit

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t

(** Broadcasting binary map (NumPy rules) over the strided walker; [f] is
    still one indirect call per element — the named ops below are not. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** The per-element broadcast walker (multi-index carry, [f] called per
    element). Semantically identical to {!map2}; retained as the oracle and
    benchmark baseline for the run-based kernels. *)
val map2_strided : (float -> float -> float) -> t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val pow_scalar : t -> float -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val abs : t -> t
val sign : t -> t
val relu : t -> t

(** [relu_grad x g] is [g] where [x > 0], else [0] (broadcasting) — the
    ReLU pullback, shared by every backend. *)
val relu_grad : t -> t -> t
val sigmoid : t -> t
val tanh : t -> t
val maximum : t -> t -> t
val minimum : t -> t -> t
val clip : lo:float -> hi:float -> t -> t

(** {1 Comparison} *)

val equal : t -> t -> bool
val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool

(** [hash_contents ?prefix t] hashes shape plus (at most) the first [prefix]
    elements (default 64) of the buffer directly — no intermediate array
    copy, unlike [Hashtbl.hash (to_array t)]. Equal tensors hash equal;
    collisions are possible (confirm with {!equal}). *)
val hash_contents : ?prefix:int -> t -> int

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_value : t -> float
val min_value : t -> float

(** [sum_axes ?keep_dims t axes] sums over the given axes. *)
val sum_axes : ?keep_dims:bool -> t -> int list -> t

val mean_axes : ?keep_dims:bool -> t -> int list -> t

(** Row-wise argmax of a [\[n; c\]] tensor. *)
val argmax_rows : t -> int array

(** {1 Shape manipulation} *)

val reshape : t -> Shape.t -> t
val flatten_to_2d : t -> t
(** Collapses all but the first axis: [\[n; ...\]] to [\[n; rest\]]. *)

(** [broadcast_to t shape] materializes [t] broadcast to [shape]. *)
val broadcast_to : t -> Shape.t -> t

(** [unbroadcast t shape] sums [t] back down to [shape] — the adjoint of
    [broadcast_to], used by reverse-mode AD. *)
val unbroadcast : t -> Shape.t -> t

(** 2-D transpose. *)
val transpose : t -> t

(** General axis permutation. *)
val permute : t -> int array -> t

val concat : t -> t -> int -> t

(** [slice t ~axis ~start ~len]. *)
val slice : t -> axis:int -> start:int -> len:int -> t

(** [one_hot ~classes labels] maps [\[n\]] integer-valued entries to
    [\[n; classes\]]. *)
val one_hot : classes:int -> t -> t

(** {1 Linear algebra} *)

(** 2-D matrix product [\[m;k\] x \[k;n\] -> \[m;n\]]: cache-blocked with a
    2x4 register micro-kernel; rows are partitioned over the domain pool
    when [m*n*k] exceeds the serial cutoff. [?domains] overrides the pool's
    default width for this call (benchmarks use it to sweep scaling);
    results are bit-identical for every width. *)
val matmul : ?domains:int -> t -> t -> t

(** [matmul_tn a b] = [matmul (transpose a) b] for [a : \[k; m\]] and
    [b : \[k; n\]], bit for bit, without materializing the transpose: the
    kernel reads [a] through a column stride. Same blocking, partitioning
    and determinism as {!matmul}. *)
val matmul_tn : ?domains:int -> t -> t -> t

(** 1-D dot product. *)
val dot : t -> t -> float

(** {1 NN math} *)

(** Numerically-stable softmax over the last axis of a 2-D tensor. *)
val softmax : t -> t

val log_softmax : t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Batched linear algebra} *)

(** Batched matrix product [\[b;m;k\] x \[b;k;n\] -> \[b;m;n\]]; same
    blocking, partitioning and determinism as {!matmul}. *)
val batch_matmul : ?domains:int -> t -> t -> t

(** Transpose of the trailing two axes of a rank-3 tensor. *)
val batch_transpose : t -> t
