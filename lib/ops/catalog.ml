(** The operation catalog: one typed value per Tensor operation, and the one
    place that states each operation's identity, output-shape rule, cost
    metadata and kernel.

    Both accelerated runtimes consume this catalog — the eager runtime
    (§3.2) dispatches each op as one kernel the moment the user calls it;
    the lazy runtime (§3.3) records it into a trace node and defers
    execution to the XLA-style compiler, whose CSE, trace cache and HLO
    checker compare and re-check the same typed value. Keeping one catalog
    guarantees the backends agree exactly on semantics, shapes, and declared
    cost. *)

open S4o_tensor
module Op_info = S4o_device.Op_info

(** An operation together with every parameter that affects its result.
    Two ops are the same operation exactly when {!equal} holds. *)
type prim =
  | Add
  | Sub
  | Mul
  | Div
  | Neg
  | Exp
  | Log
  | Sqrt
  | Relu
  | Sigmoid
  | Tanh
  | Scale of float
  | Add_scalar of float
  | Relu_grad
  | Reshape of Shape.t
  | Transpose
  | Broadcast of Shape.t
  | Unbroadcast of Shape.t
  | Sum_axes of { axes : int list; keep_dims : bool }
  | Sum_all
  | Mean_all
  | Matmul
  | Batch_matmul
  | Batch_transpose
  | Conv2d of { stride : int * int; padding : Convolution.padding }
  | Conv2d_backward_input of {
      stride : int * int;
      padding : Convolution.padding;
      input_shape : Shape.t;
    }
  | Conv2d_backward_filter of {
      stride : int * int;
      padding : Convolution.padding;
      filter_shape : Shape.t;
    }
  | Avg_pool2d of { size : int * int; stride : int * int }
  | Avg_pool2d_backward of {
      size : int * int;
      stride : int * int;
      input_shape : Shape.t;
    }
  | Max_pool2d of { size : int * int; stride : int * int }
  | Max_pool2d_backward of { size : int * int; stride : int * int }
  | Softmax
  | Log_softmax

type op = {
  prim : prim;
  out_shape : Shape.t;
  info : Op_info.t;
}

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Neg -> "neg"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Scale _ -> "scale"
  | Add_scalar _ -> "add_scalar"
  | Relu_grad -> "relu_grad"
  | Reshape _ -> "reshape"
  | Transpose -> "transpose"
  | Broadcast _ -> "broadcast"
  | Unbroadcast _ -> "unbroadcast"
  | Sum_axes _ -> "sum_axes"
  | Sum_all -> "sum_all"
  | Mean_all -> "mean_all"
  | Matmul -> "matmul"
  | Batch_matmul -> "batch_matmul"
  | Batch_transpose -> "batch_transpose"
  | Conv2d _ -> "conv2d"
  | Conv2d_backward_input _ -> "conv2d_backward_input"
  | Conv2d_backward_filter _ -> "conv2d_backward_filter"
  | Avg_pool2d _ -> "avg_pool2d"
  | Avg_pool2d_backward _ -> "avg_pool2d_backward"
  | Max_pool2d _ -> "max_pool2d"
  | Max_pool2d_backward _ -> "max_pool2d_backward"
  | Softmax -> "softmax"
  | Log_softmax -> "log_softmax"

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(** Constants compare by their bits, so [0.0] and [-0.0] are different
    operations and a NaN constant equals itself. Every other parameter is
    ints, int lists, shapes and padding, where structural equality is
    exact. *)
let equal a b =
  a == b
  ||
  match (a, b) with
  | Scale x, Scale y | Add_scalar x, Add_scalar y -> same_bits x y
  | _, _ -> a = b

(* [Hashtbl.hash] maps 0.0 and -0.0 together, which only costs a collision
   that {!equal} then separates. *)
let hash (p : prim) = Hashtbl.hash p

(** {1 Printing} *)

(* The shortest decimal that reads back as the same float. *)
let float_repr c =
  let s = Printf.sprintf "%.15g" c in
  if same_bits (float_of_string s) c then s else Printf.sprintf "%.17g" c

let pair (a, b) = Printf.sprintf "%dx%d" a b

let padding_repr : Convolution.padding -> string = function
  | Same -> "same"
  | Valid -> "valid"

(** The parameters of an op, as printed after its {!name} in HLO dumps and
    in eager dispatch spans: [""] when it has none. *)
let attrs = function
  | Scale c | Add_scalar c -> "c=" ^ float_repr c
  | Reshape s | Broadcast s | Unbroadcast s -> Shape.to_string s
  | Sum_axes { axes; keep_dims } ->
      "axes="
      ^ String.concat "," (List.map string_of_int axes)
      ^ if keep_dims then ";keep" else ""
  | Conv2d { stride; padding } ->
      Printf.sprintf "stride=%s;pad=%s" (pair stride) (padding_repr padding)
  | Conv2d_backward_input { stride; padding; input_shape = s }
  | Conv2d_backward_filter { stride; padding; filter_shape = s } ->
      Printf.sprintf "stride=%s;pad=%s;shape=%s" (pair stride)
        (padding_repr padding) (Shape.to_string s)
  | Avg_pool2d { size; stride }
  | Max_pool2d { size; stride }
  | Max_pool2d_backward { size; stride } ->
      Printf.sprintf "size=%s;stride=%s" (pair size) (pair stride)
  | Avg_pool2d_backward { size; stride; input_shape } ->
      Printf.sprintf "size=%s;stride=%s;shape=%s" (pair size) (pair stride)
        (Shape.to_string input_shape)
  | Add | Sub | Mul | Div | Neg | Exp | Log | Sqrt | Relu | Sigmoid | Tanh
  | Relu_grad | Transpose | Sum_all | Mean_all | Matmul | Batch_matmul
  | Batch_transpose | Softmax | Log_softmax ->
      ""

(** {1 Shape rules} *)

let arity = function
  | Add | Sub | Mul | Div | Relu_grad | Matmul | Batch_matmul | Conv2d _
  | Conv2d_backward_input _ | Conv2d_backward_filter _ | Max_pool2d_backward _
    ->
      2
  | _ -> 1

(** [out_shape prim inputs] is the shape [prim] produces from operands of
    shapes [inputs]. Raises {!Shape.Shape_error}, naming the op, when the
    operands do not fit it. The op constructors below and the HLO checker
    both call it. *)
let out_shape prim (inputs : Shape.t list) =
  let fail fmt =
    Format.kasprintf
      (fun msg -> raise (Shape.Shape_error (name prim ^ ": " ^ msg)))
      fmt
  in
  let str = Shape.to_string in
  let rank r (s : Shape.t) =
    if Shape.rank s <> r then fail "expects rank %d, has %s" r (str s)
  in
  (* The shape conv2d gives from [input] and [filter]. *)
  let conv ~stride:(sh, sw) ~padding (input : Shape.t) (filter : Shape.t) =
    rank 4 input;
    rank 4 filter;
    if input.(3) <> filter.(2) then
      fail "input channels %d but filter takes %d" input.(3) filter.(2);
    let oh =
      Convolution.out_dim padding ~size:input.(1) ~kernel:filter.(0) ~stride:sh
    in
    let ow =
      Convolution.out_dim padding ~size:input.(2) ~kernel:filter.(1) ~stride:sw
    in
    [| input.(0); oh; ow; filter.(3) |]
  in
  let pool (input : Shape.t) (kh, kw) (sh, sw) =
    rank 4 input;
    let oh = Convolution.out_dim Valid ~size:input.(1) ~kernel:kh ~stride:sh in
    let ow = Convolution.out_dim Valid ~size:input.(2) ~kernel:kw ~stride:sw in
    [| input.(0); oh; ow; input.(3) |]
  in
  (* A backward op declares its result shape; forward through it must give
     the incoming gradient. *)
  let gives_grad forward grad =
    if not (Shape.equal forward grad) then
      fail "forward gives %s but grad is %s" (str forward) (str grad)
  in
  match (prim, inputs) with
  | (Add | Sub | Mul | Div | Relu_grad), [ a; b ] -> (
      try Shape.broadcast a b
      with Shape.Shape_error _ ->
        fail "inputs %s and %s do not broadcast" (str a) (str b))
  | ( ( Neg | Exp | Log | Sqrt | Relu | Sigmoid | Tanh | Scale _ | Add_scalar _
        ),
      [ a ] ) ->
      a
  | (Softmax | Log_softmax), [ a ] ->
      rank 2 a;
      a
  | Reshape target, [ a ] ->
      if not (Shape.can_reshape a target) then
        fail "element count mismatch: %s to %s" (str a) (str target);
      target
  | Transpose, [ a ] ->
      rank 2 a;
      [| a.(1); a.(0) |]
  | Batch_transpose, [ a ] ->
      rank 3 a;
      [| a.(0); a.(2); a.(1) |]
  | Broadcast target, [ a ] -> (
      try Shape.broadcast a target
      with Shape.Shape_error _ ->
        fail "%s does not broadcast to %s" (str a) (str target))
  | Unbroadcast target, [ a ] ->
      if not (Shape.broadcastable target a) then
        fail "%s is not an unbroadcast of %s" (str target) (str a);
      target
  | Sum_axes { axes; keep_dims }, [ a ] -> Shape.reduce_axes ~keep_dims a axes
  | (Sum_all | Mean_all), [ _ ] -> [||]
  | Matmul, [ a; b ] ->
      rank 2 a;
      rank 2 b;
      if a.(1) <> b.(0) then fail "%s x %s" (str a) (str b);
      [| a.(0); b.(1) |]
  | Batch_matmul, [ a; b ] ->
      rank 3 a;
      rank 3 b;
      if a.(0) <> b.(0) || a.(2) <> b.(1) then fail "%s x %s" (str a) (str b);
      [| a.(0); a.(1); b.(2) |]
  | Conv2d { stride; padding }, [ input; filter ] ->
      conv ~stride ~padding input filter
  | Conv2d_backward_input { stride; padding; input_shape }, [ filter; grad ] ->
      gives_grad (conv ~stride ~padding input_shape filter) grad;
      input_shape
  | Conv2d_backward_filter { stride; padding; filter_shape }, [ input; grad ]
    ->
      gives_grad (conv ~stride ~padding input filter_shape) grad;
      filter_shape
  | (Avg_pool2d { size; stride } | Max_pool2d { size; stride }), [ input ] ->
      pool input size stride
  | Avg_pool2d_backward { size; stride; input_shape }, [ grad ] ->
      gives_grad (pool input_shape size stride) grad;
      input_shape
  | Max_pool2d_backward { size; stride }, [ input; grad ] ->
      gives_grad (pool input size stride) grad;
      input
  | _, _ ->
      fail "expects %d input(s), has %d" (arity prim) (List.length inputs)

(** {1 Cost and kernels} *)

let info prim (inputs : Shape.t list) (out : Shape.t) : Op_info.t =
  let name = name prim in
  let elementwise ?flops_per_elem () =
    Op_info.elementwise name ~inputs ~output:out ?flops_per_elem ()
  in
  let first = List.hd inputs in
  let second () = List.nth inputs 1 in
  (* The two convolution backward kernels cost about one forward
     convolution each, which is how training lands near 3x forward flops. *)
  let conv ~stride ~padding ~input ~filter ~output =
    { (Op_info.conv2d ~stride ~padding ~input ~filter ~output ()) with name }
  in
  let pooled size =
    {
      (Op_info.reduction name ~input:first ~output:out) with
      flops = Shape.numel out * fst size * snd size;
    }
  in
  match prim with
  | Add | Sub | Mul | Div | Neg | Relu | Scale _ | Add_scalar _ | Relu_grad
  | Avg_pool2d_backward _ | Max_pool2d_backward _ ->
      elementwise ()
  | Exp | Log -> elementwise ~flops_per_elem:4 ()
  | Sqrt -> elementwise ~flops_per_elem:2 ()
  | Sigmoid | Tanh -> elementwise ~flops_per_elem:6 ()
  | Softmax | Log_softmax -> elementwise ~flops_per_elem:5 ()
  | Reshape _ | Transpose | Batch_transpose ->
      Op_info.data_movement name ~input:first ~output:out
  | Broadcast target -> Op_info.data_movement name ~input:first ~output:target
  | Unbroadcast _ | Sum_axes _ | Sum_all | Mean_all ->
      Op_info.reduction name ~input:first ~output:out
  | Matmul -> Op_info.matmul ~m:first.(0) ~k:first.(1) ~n:out.(1)
  | Batch_matmul ->
      let bs = first.(0) and m = first.(1) and k = first.(2) and n = out.(2) in
      {
        Op_info.name;
        kind = Op_info.Contraction;
        flops = 2 * bs * m * k * n;
        bytes_in = 4 * bs * ((m * k) + (k * n));
        bytes_out = 4 * bs * m * n;
      }
  | Conv2d { stride; padding } ->
      conv ~stride ~padding ~input:first ~filter:(second ()) ~output:out
  | Conv2d_backward_input { stride; padding; input_shape } ->
      conv ~stride ~padding ~input:input_shape ~filter:first
        ~output:(second ())
  | Conv2d_backward_filter { stride; padding; filter_shape } ->
      conv ~stride ~padding ~input:first ~filter:filter_shape
        ~output:(second ())
  | Avg_pool2d { size; _ } | Max_pool2d { size; _ } -> pooled size

(** Run [prim]'s kernel on its operands. *)
let apply prim (args : Dense.t array) =
  match prim with
  | Add -> Dense.add args.(0) args.(1)
  | Sub -> Dense.sub args.(0) args.(1)
  | Mul -> Dense.mul args.(0) args.(1)
  | Div -> Dense.div args.(0) args.(1)
  | Neg -> Dense.neg args.(0)
  | Exp -> Dense.exp args.(0)
  | Log -> Dense.log args.(0)
  | Sqrt -> Dense.sqrt args.(0)
  | Relu -> Dense.relu args.(0)
  | Sigmoid -> Dense.sigmoid args.(0)
  | Tanh -> Dense.tanh args.(0)
  | Scale c -> Dense.scale c args.(0)
  | Add_scalar c -> Dense.add_scalar c args.(0)
  | Relu_grad -> Dense.relu_grad args.(0) args.(1)
  | Reshape s -> Dense.reshape args.(0) s
  | Transpose -> Dense.transpose args.(0)
  | Broadcast s -> Dense.broadcast_to args.(0) s
  | Unbroadcast s -> Dense.unbroadcast args.(0) s
  | Sum_axes { axes; keep_dims } -> Dense.sum_axes ~keep_dims args.(0) axes
  | Sum_all -> Dense.scalar (Dense.sum args.(0))
  | Mean_all -> Dense.scalar (Dense.mean args.(0))
  | Matmul -> Dense.matmul args.(0) args.(1)
  | Batch_matmul -> Dense.batch_matmul args.(0) args.(1)
  | Batch_transpose -> Dense.batch_transpose args.(0)
  | Conv2d { stride; padding } ->
      Convolution.conv2d ~stride ~padding args.(0) args.(1)
  | Conv2d_backward_input { stride; padding; input_shape } ->
      Convolution.conv2d_backward_input ~stride ~padding ~input_shape args.(0)
        args.(1)
  | Conv2d_backward_filter { stride; padding; filter_shape } ->
      Convolution.conv2d_backward_filter ~stride ~padding ~filter_shape
        args.(0) args.(1)
  | Avg_pool2d { size; stride } -> Convolution.avg_pool2d ~size ~stride args.(0)
  | Avg_pool2d_backward { size; stride; input_shape } ->
      Convolution.avg_pool2d_backward ~size ~stride ~input_shape args.(0)
  | Max_pool2d { size; stride } -> Convolution.max_pool2d ~size ~stride args.(0)
  | Max_pool2d_backward { size; stride } ->
      Convolution.max_pool2d_backward ~size ~stride args.(0) args.(1)
  | Softmax -> Dense.softmax args.(0)
  | Log_softmax -> Dense.log_softmax args.(0)

(** {1 Constructors}

    [make prim inputs] checks the operand shapes with {!out_shape} and
    attaches the cost; the named constructors are its per-op spellings. *)

let make prim inputs =
  let out_shape = out_shape prim inputs in
  { prim; out_shape; info = info prim inputs out_shape }

let unary prim a = make prim [ a ]
let binary prim a b = make prim [ a; b ]
let add = binary Add
let sub = binary Sub
let mul = binary Mul
let div = binary Div
let neg = unary Neg
let exp = unary Exp
let log = unary Log
let sqrt = unary Sqrt
let relu = unary Relu
let sigmoid = unary Sigmoid
let tanh = unary Tanh
let scale c = unary (Scale c)
let add_scalar c = unary (Add_scalar c)
let relu_grad = binary Relu_grad
let reshape a target = unary (Reshape target) a
let transpose = unary Transpose
let broadcast_to a target = unary (Broadcast target) a
let unbroadcast a target = unary (Unbroadcast target) a

let sum_axes ?(keep_dims = false) a axes =
  unary (Sum_axes { axes; keep_dims }) a

let sum_all = unary Sum_all
let mean_all = unary Mean_all
let matmul = binary Matmul
let batch_matmul = binary Batch_matmul
let batch_transpose = unary Batch_transpose

let conv2d ?(stride = (1, 1)) ~padding input filter =
  binary (Conv2d { stride; padding }) input filter

let conv2d_backward_input ?(stride = (1, 1)) ~padding ~input_shape filter grad
    =
  binary (Conv2d_backward_input { stride; padding; input_shape }) filter grad

let conv2d_backward_filter ?(stride = (1, 1)) ~padding ~filter_shape input
    grad =
  binary (Conv2d_backward_filter { stride; padding; filter_shape }) input grad

let avg_pool2d ~size ~stride = unary (Avg_pool2d { size; stride })

let avg_pool2d_backward ~size ~stride ~input_shape =
  unary (Avg_pool2d_backward { size; stride; input_shape })

let max_pool2d ~size ~stride = unary (Max_pool2d { size; stride })
let max_pool2d_backward ~size ~stride =
  binary (Max_pool2d_backward { size; stride })
let softmax = unary Softmax
let log_softmax = unary Log_softmax
