(** Tests for the NN library (§4.1–4.2): layers, parameter slots, models
    (including the exact LeNet-5 of Figure 6), optimizers, and the training
    loop of Figure 7. *)

open S4o_tensor
module Bk = Naive_backend
module L = S4o_nn.Layer.Make (Bk)
module M = S4o_nn.Models.Make (Bk)
module O = S4o_nn.Optimizer.Make (Bk)
module T = S4o_nn.Train.Make (Bk)

let rng () = Prng.create 77

let forward layer x =
  let ctx = L.D.new_ctx () in
  L.D.value (L.apply layer ctx (L.D.const x))

(* {1 Layers} *)

let test_dense_layer_shapes () =
  let layer = L.dense (rng ()) ~inputs:4 ~outputs:3 () in
  let y = forward layer (Dense.zeros [| 2; 4 |]) in
  Test_util.check_true "output shape" (Dense.shape y = [| 2; 3 |]);
  Test_util.check_int "two slots" 2 (List.length (L.slots layer));
  Test_util.check_int "param count" ((4 * 3) + 3) (L.param_count layer)

let test_dense_layer_math () =
  let layer = L.dense (rng ()) ~inputs:2 ~outputs:1 () in
  (* overwrite weights with known values *)
  (match L.slots layer with
  | [ w; b ] ->
      L.Slot.set_data w (Dense.of_array [| 2; 1 |] [| 2.0; 3.0 |]);
      L.Slot.set_data b (Dense.of_array [| 1 |] [| 10.0 |])
  | _ -> Alcotest.fail "slots");
  let y = forward layer (Dense.of_array [| 1; 2 |] [| 1.0; 1.0 |]) in
  Test_util.check_close "wx + b" 15.0 (Dense.item y)

let test_conv_layer_shapes () =
  let layer =
    L.conv2d (rng ()) ~filter:(3, 3, 1, 4) ~padding:Convolution.Same ()
  in
  let y = forward layer (Dense.zeros [| 2; 8; 8; 1 |]) in
  Test_util.check_true "same conv shape" (Dense.shape y = [| 2; 8; 8; 4 |]);
  let strided =
    L.conv2d (rng ()) ~filter:(3, 3, 1, 4) ~stride:(2, 2)
      ~padding:Convolution.Same ~use_bias:false ()
  in
  let y2 = forward strided (Dense.zeros [| 2; 8; 8; 1 |]) in
  Test_util.check_true "strided shape" (Dense.shape y2 = [| 2; 4; 4; 4 |]);
  Test_util.check_int "no bias slot" 1 (List.length (L.slots strided))

let test_flatten_layer () =
  let y = forward L.flatten (Dense.zeros [| 2; 3; 4; 5 |]) in
  Test_util.check_true "flattened" (Dense.shape y = [| 2; 60 |])

let test_pool_layers () =
  let x = Dense.of_array [| 1; 2; 2; 1 |] [| 1.; 2.; 3.; 4. |] in
  let avg = forward (L.avg_pool2d ~size:(2, 2) ~stride:(2, 2)) x in
  Test_util.check_close "avg" 2.5 (Dense.item avg);
  let max_ = forward (L.max_pool2d ~size:(2, 2) ~stride:(2, 2)) x in
  Test_util.check_close "max" 4.0 (Dense.item max_)

let test_batch_norm_normalizes () =
  let layer = L.batch_norm ~features:2 () in
  let g = Prng.create 5 in
  let x =
    Dense.add
      (Dense.rand_normal g ~stddev:4.0 [| 64; 2 |])
      (Dense.of_array [| 2 |] [| 10.0; -5.0 |])
  in
  let y = forward layer x in
  (* with gamma=1, beta=0: output has ~zero mean and ~unit variance per
     channel *)
  let col j =
    Array.init 64 (fun i -> Dense.get y [| i; j |])
  in
  List.iter
    (fun j ->
      let c = col j in
      let mean = Array.fold_left ( +. ) 0.0 c /. 64.0 in
      let var = Array.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 c /. 64.0 in
      Test_util.check_close ~eps:1e-3 "zero mean" 0.0 mean;
      Test_util.check_close ~eps:1e-2 "unit variance" 1.0 var)
    [ 0; 1 ]

let test_dropout () =
  let g = Prng.create 6 in
  let layer = L.dropout g ~rate:0.5 in
  let x = Dense.ones [| 1000 |] in
  let y = forward layer x in
  (* kept elements are scaled by 1/keep; expectation preserved *)
  Test_util.check_close ~eps:0.1 "expectation preserved" 1.0 (Dense.mean y);
  let zeros = Array.fold_left (fun acc v -> if v = 0.0 then acc + 1 else acc) 0 (Dense.to_array y) in
  Test_util.check_true "roughly half dropped" (zeros > 400 && zeros < 600);
  Test_util.check_raises_any "invalid rate" (fun () -> L.dropout g ~rate:1.0)

let test_sequential_and_residual () =
  let double = L.activation "double" (fun x -> L.D.scale 2.0 x) in
  let seq = L.sequential [ double; double ] in
  Test_util.check_close "composition" 4.0 (Dense.item (forward seq (Dense.scalar 1.0)));
  let res = L.residual ~body:double ~shortcut:L.identity () in
  Test_util.check_close "residual" 3.0 (Dense.item (forward res (Dense.scalar 1.0)))

let test_slot_tracking_idempotent () =
  let layer = L.dense (rng ()) ~inputs:2 ~outputs:2 () in
  let ctx = L.D.new_ctx () in
  let slot = List.hd (L.slots layer) in
  let v1 = L.Slot.track ctx slot in
  let v2 = L.Slot.track ctx slot in
  Test_util.check_true "same var per tape" (v1 == v2);
  let ctx2 = L.D.new_ctx () in
  let v3 = L.Slot.track ctx2 slot in
  Test_util.check_true "fresh var per new tape" (v1 != v3)

let test_glorot_init_bounds () =
  let layer = L.dense (rng ()) ~inputs:100 ~outputs:100 () in
  let w = L.Slot.data (List.hd (L.slots layer)) in
  let limit = Float.sqrt (6.0 /. 200.0) in
  Test_util.check_true "within glorot bounds"
    (Dense.max_value w <= limit && Dense.min_value w >= -.limit)

(* {1 Models} *)

let test_lenet_structure () =
  let model = M.lenet (rng ()) in
  (* the canonical LeNet-5 parameter count *)
  Test_util.check_int "exactly 61706 parameters" 61706 (L.param_count model);
  let y = forward model (Dense.zeros [| 3; 28; 28; 1 |]) in
  Test_util.check_true "logits shape" (Dense.shape y = [| 3; 10 |])

let test_resnet_tiny_shapes () =
  let model = M.resnet (rng ()) ~in_channels:3 (M.resnet_tiny_config ~classes:10) in
  let y = forward model (Dense.zeros [| 2; 16; 16; 3 |]) in
  Test_util.check_true "logits shape" (Dense.shape y = [| 2; 10 |])

let test_resnet56_param_count () =
  let model = M.resnet56 (rng ()) in
  (* ~0.86M parameters, the canonical ResNet-56 size *)
  let n = L.param_count model in
  Test_util.check_true "about 0.86M params" (n > 840_000 && n < 870_000)

let test_mlp () =
  let model = M.mlp (rng ()) ~inputs:2 ~hidden:8 ~outputs:2 in
  let y = forward model (Dense.zeros [| 4; 1; 1; 2 |]) in
  Test_util.check_true "mlp shape" (Dense.shape y = [| 4; 2 |])

(* {1 Optimizers} *)

let one_param_layer value =
  let slot = L.Slot.create "p" (Bk.of_dense (Dense.scalar value)) in
  {
    L.name = "probe";
    slots = [ slot ];
    apply = (fun ctx _x -> L.Slot.track ctx slot);
  }

let run_step layer opt =
  let ctx = L.D.new_ctx () in
  (* loss = p^2: gradient 2p *)
  let p = L.apply layer ctx (L.D.const (Dense.scalar 0.0)) in
  let loss = L.D.mul p p in
  L.D.backward ctx loss;
  opt.O.step ()

let param_value layer =
  Dense.item (L.Slot.data (List.hd (L.slots layer)))

let test_sgd_step () =
  let layer = one_param_layer 3.0 in
  let opt = O.sgd ~lr:0.1 layer in
  run_step layer opt;
  (* p <- p - lr * 2p = 3 - 0.6 *)
  Test_util.check_close "sgd update" 2.4 (param_value layer)

let test_sgd_momentum_accumulates () =
  let layer = one_param_layer 1.0 in
  let opt = O.sgd ~momentum:0.5 ~lr:0.1 layer in
  run_step layer opt;
  (* v1 = lr*2 = 0.2 ; p = 0.8 *)
  Test_util.check_close "first step" 0.8 (param_value layer);
  run_step layer opt;
  (* g = 1.6; v2 = 0.5*0.2 + 0.16 = 0.26; p = 0.54 *)
  Test_util.check_close "momentum carries" 0.54 (param_value layer)

let test_adam_first_step_size () =
  let layer = one_param_layer 5.0 in
  let opt = O.adam ~lr:0.001 layer in
  run_step layer opt;
  (* Adam's bias-corrected first step is ~lr regardless of gradient scale *)
  Test_util.check_close ~eps:1e-6 "first step ~ lr" (5.0 -. 0.001) (param_value layer)

let test_optimizer_state_exposed () =
  let layer = one_param_layer 1.0 in
  let opt = O.sgd ~momentum:0.9 ~lr:0.1 layer in
  Test_util.check_int "no state before first step" 1
    (List.length (O.updated_params opt));
  run_step layer opt;
  Test_util.check_int "params + velocity" 2 (List.length (O.updated_params opt))

(* {1 Training loop (Figure 7)} *)

let test_training_reduces_loss () =
  let r = rng () in
  let data = S4o_data.Dataset.two_arcs r ~n:128 in
  let batches = S4o_data.Dataset.batches data ~batch_size:32 in
  let model = M.mlp r ~inputs:2 ~hidden:16 ~outputs:2 in
  let opt = O.adam ~lr:0.01 model in
  let losses = ref [] in
  let _ =
    T.fit ~epochs:8
      ~log:(fun _ s -> losses := s.T.mean_loss :: !losses)
      model opt batches
  in
  match !losses with
  | last :: _ ->
      let first = List.nth !losses (List.length !losses - 1) in
      Test_util.check_true "loss decreased by 2x" (last < first /. 2.0)
  | [] -> Alcotest.fail "no epochs ran"

let test_training_accuracy_improves () =
  let r = rng () in
  let data = S4o_data.Dataset.two_arcs r ~n:128 in
  let batches = S4o_data.Dataset.batches data ~batch_size:32 in
  let model = M.mlp r ~inputs:2 ~hidden:16 ~outputs:2 in
  let opt = O.adam ~lr:0.01 model in
  let stats = T.fit ~epochs:10 model opt batches in
  Test_util.check_true "above 90% on separable data" (stats.T.accuracy > 0.9)

let test_accuracy_of_logits () =
  let logits = Dense.of_array [| 2; 2 |] [| 0.9; 0.1; 0.2; 0.8 |] in
  Test_util.check_close "all correct" 1.0
    (T.accuracy_of_logits (Bk.of_dense logits) [| 0; 1 |]);
  Test_util.check_close "half correct" 0.5
    (T.accuracy_of_logits (Bk.of_dense logits) [| 0; 0 |])

let suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.layers",
      [
        tc "dense shapes" `Quick test_dense_layer_shapes;
        tc "dense math" `Quick test_dense_layer_math;
        tc "conv shapes" `Quick test_conv_layer_shapes;
        tc "flatten" `Quick test_flatten_layer;
        tc "pools" `Quick test_pool_layers;
        tc "batch norm normalizes" `Quick test_batch_norm_normalizes;
        tc "dropout" `Quick test_dropout;
        tc "sequential and residual" `Quick test_sequential_and_residual;
        tc "slot tracking idempotent" `Quick test_slot_tracking_idempotent;
        tc "glorot bounds" `Quick test_glorot_init_bounds;
      ] );
    ( "nn.models",
      [
        tc "LeNet-5 structure (Figure 6)" `Quick test_lenet_structure;
        tc "tiny resnet shapes" `Quick test_resnet_tiny_shapes;
        tc "resnet-56 param count" `Quick test_resnet56_param_count;
        tc "mlp" `Quick test_mlp;
      ] );
    ( "nn.optimizers",
      [
        tc "sgd" `Quick test_sgd_step;
        tc "sgd momentum" `Quick test_sgd_momentum_accumulates;
        tc "adam first step" `Quick test_adam_first_step_size;
        tc "state exposed for barrier" `Quick test_optimizer_state_exposed;
      ] );
    ( "nn.training",
      [
        tc "loss decreases" `Quick test_training_reduces_loss;
        tc "accuracy improves" `Quick test_training_accuracy_improves;
        tc "accuracy helper" `Quick test_accuracy_of_logits;
      ] );
  ]

(* {1 Checkpointing} *)

module Ckpt = S4o_nn.Checkpoint.Make (Bk)

let with_temp_file f =
  let path = Filename.temp_file "s4o_ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let logits_of model x =
  let ctx = L.D.new_ctx () in
  Bk.to_dense (L.D.value (L.apply model ctx (L.D.const x)))

let test_checkpoint_roundtrip () =
  with_temp_file (fun path ->
      let trained = M.mlp (Prng.create 1) ~inputs:2 ~hidden:8 ~outputs:2 in
      let fresh = M.mlp (Prng.create 999) ~inputs:2 ~hidden:8 ~outputs:2 in
      let x = Dense.rand_normal (Prng.create 2) [| 4; 1; 1; 2 |] in
      Test_util.check_true "models differ before load"
        (not (Dense.equal (logits_of trained x) (logits_of fresh x)));
      Ckpt.save path trained;
      Ckpt.load path fresh;
      (* exact restore: the %h format round-trips every bit *)
      Test_util.check_true "identical logits after load"
        (Dense.equal (logits_of trained x) (logits_of fresh x)))

let test_checkpoint_shape_mismatch_rejected () =
  with_temp_file (fun path ->
      let a = M.mlp (Prng.create 1) ~inputs:2 ~hidden:8 ~outputs:2 in
      let b = M.mlp (Prng.create 1) ~inputs:2 ~hidden:16 ~outputs:2 in
      Ckpt.save path a;
      Test_util.check_raises_any "shape mismatch" (fun () -> Ckpt.load path b))

let test_checkpoint_slot_count_mismatch_rejected () =
  with_temp_file (fun path ->
      let a = M.mlp (Prng.create 1) ~inputs:2 ~hidden:8 ~outputs:2 in
      let b = M.lenet (Prng.create 1) in
      Ckpt.save path a;
      Test_util.check_raises_any "slot count mismatch" (fun () -> Ckpt.load path b))

let test_checkpoint_garbage_rejected () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      let a = M.mlp (Prng.create 1) ~inputs:2 ~hidden:8 ~outputs:2 in
      Test_util.check_raises_any "bad magic" (fun () -> Ckpt.load path a))

let checkpoint_suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.checkpoint",
      [
        tc "round trip is exact" `Quick test_checkpoint_roundtrip;
        tc "shape mismatch rejected" `Quick test_checkpoint_shape_mismatch_rejected;
        tc "slot count mismatch rejected" `Quick test_checkpoint_slot_count_mismatch_rejected;
        tc "garbage rejected" `Quick test_checkpoint_garbage_rejected;
      ] );
  ]

let suite = suite @ checkpoint_suite

(* {1 Attention / transformer} *)

module At = S4o_nn.Attention.Make (Bk)

let test_layer_norm_normalizes_last_axis () =
  let layer = At.layer_norm ~features:6 () in
  let g = Prng.create 8 in
  let x = Dense.rand_normal g ~mean:5.0 ~stddev:3.0 [| 4; 6 |] in
  let ctx = At.D.new_ctx () in
  let y = At.D.value (At.L.apply layer ctx (At.D.const (Bk.of_dense x))) in
  for i = 0 to 3 do
    let row = Array.init 6 (fun j -> Dense.get y [| i; j |]) in
    let mean = Array.fold_left ( +. ) 0.0 row /. 6.0 in
    let var = Array.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 row /. 6.0 in
    Test_util.check_close ~eps:1e-4 "row mean 0" 0.0 mean;
    Test_util.check_close ~eps:1e-2 "row var 1" 1.0 var
  done

let test_attention_shapes () =
  let attn = At.self_attention (rng ()) ~d_model:8 () in
  let ctx = At.D.new_ctx () in
  let x = Bk.of_dense (Dense.rand_normal (Prng.create 9) [| 2; 5; 8 |]) in
  let y = At.D.value (At.L.apply attn ctx (At.D.const x)) in
  Test_util.check_true "shape preserved" (Dense.shape (Bk.to_dense y) = [| 2; 5; 8 |])

let test_attention_rows_are_convex_mixtures () =
  (* attention output rows lie within the convex hull of V's rows when V is
     an identity-projection: here check that constant-value sequences are
     preserved exactly (softmax weights sum to 1). *)
  let attn = At.self_attention (rng ()) ~d_model:4 () in
  (* force V and O projections to the identity, Q/K to zero -> uniform attn *)
  List.iter
    (fun slot ->
      let data = Bk.to_dense (At.L.Slot.data slot) in
      let shape = Dense.shape data in
      let label = At.L.Slot.label slot in
      let v =
        if label = "v_w" || label = "o_w" then
          Dense.init shape (fun i -> if i.(0) = i.(1) then 1.0 else 0.0)
        else Dense.zeros shape
      in
      At.L.Slot.set_data slot (Bk.of_dense v))
    (At.L.slots attn);
  let ctx = At.D.new_ctx () in
  let row = [| 1.0; -2.0; 3.0; 0.5 |] in
  let x =
    Dense.init [| 1; 3; 4 |] (fun i -> row.(i.(2)))
    (* same vector at every position *)
  in
  let y = Bk.to_dense (At.D.value (At.L.apply attn ctx (At.D.const (Bk.of_dense x)))) in
  for t = 0 to 2 do
    for d = 0 to 3 do
      Test_util.check_close "uniform attention over identical rows preserves them"
        row.(d)
        (Dense.get y [| 0; t; d |])
    done
  done

let test_transformer_block_gradcheck () =
  (* every parameter of a transformer block receives a finite-difference-
     correct gradient through attention, layer norm and the MLP *)
  let block = At.transformer_block (Prng.create 11) ~d_model:3 ~d_ff:5 () in
  let x = Dense.rand_normal (Prng.create 12) [| 2; 3; 3 |] in
  let loss_of () =
    let ctx = At.D.new_ctx () in
    let y = At.L.apply block ctx (At.D.const (Bk.of_dense x)) in
    let loss = At.D.mean_all (At.D.mul y y) in
    (ctx, loss)
  in
  let slot = List.hd (At.L.slots block) in
  let ctx, loss = loss_of () in
  At.D.backward ctx loss;
  let grad =
    match At.L.Slot.grad slot with
    | Some g -> Bk.to_dense g
    | None -> Alcotest.fail "no grad"
  in
  (* finite differences on two entries of that slot *)
  let base = Bk.to_dense (At.L.Slot.data slot) in
  List.iter
    (fun flat ->
      let h = 1e-5 in
      let eval v =
        At.L.Slot.set_data slot (Bk.of_dense (Dense.set_flat base flat v));
        let _, l = loss_of () in
        Dense.item (Bk.to_dense (At.D.value l))
      in
      let x0 = Dense.get_flat base flat in
      let fd = (eval (x0 +. h) -. eval (x0 -. h)) /. (2.0 *. h) in
      At.L.Slot.set_data slot (Bk.of_dense base);
      Test_util.check_close ~eps:1e-3 "fd matches" fd (Dense.get_flat grad flat))
    [ 0; 3 ]

let test_tiny_transformer_learns () =
  let r = Prng.create 21 in
  let data =
    S4o_data.Dataset.make_prototyped ~name:"seq" ~rng:r ~n:96 ~height:4 ~width:1
      ~channels:6 ~classes:3 ~noise:0.2
  in
  let batches = S4o_data.Dataset.batches data ~batch_size:32 in
  let model = At.tiny_transformer r ~seq_len:4 ~d_model:6 ~d_ff:12 ~blocks:1 ~classes:3 in
  let opt = O.adam ~lr:5e-3 model in
  let stats = T.fit ~epochs:8 model opt batches in
  Test_util.check_true "learns the sequence classes" (stats.T.accuracy > 0.8)

let attention_suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.attention",
      [
        tc "layer norm over last axis" `Quick test_layer_norm_normalizes_last_axis;
        tc "attention shapes" `Quick test_attention_shapes;
        tc "uniform attention preserves constants" `Quick
          test_attention_rows_are_convex_mixtures;
        tc "transformer block gradcheck" `Quick test_transformer_block_gradcheck;
        tc "tiny transformer learns" `Quick test_tiny_transformer_learns;
      ] );
  ]

let suite = suite @ attention_suite

(* {1 Data-parallel training (Table 1 semantics)} *)

module Dp = S4o_nn.Data_parallel.Make (Bk)

let dp_build () = M.mlp (Prng.create 55) ~inputs:2 ~hidden:8 ~outputs:2

let dp_batch () =
  let data = S4o_data.Dataset.two_arcs (Prng.create 56) ~n:32 in
  match S4o_data.Dataset.batches data ~batch_size:32 with
  | [ (images, one_hot, _) ] -> (images, one_hot)
  | _ -> Alcotest.fail "expected one batch"

let test_dp_replicas_start_in_sync () =
  let dp = Dp.create ~replicas:4 dp_build in
  Test_util.check_true "broadcast at init" (Dp.replicas_in_sync dp);
  Test_util.check_int "replica count" 4 (Dp.replica_count dp)

let test_dp_stays_in_sync () =
  let dp = Dp.create ~replicas:4 dp_build in
  let images, labels = dp_batch () in
  for _ = 1 to 3 do
    ignore (Dp.train_step dp ~update:(Dp.sgd_update ~lr:0.1) ~images ~labels)
  done;
  Test_util.check_true "still in sync after steps" (Dp.replicas_in_sync dp)

let test_dp_equivalent_to_single_device () =
  (* the defining invariant: R replicas on shards == 1 device on the global
     batch, to numerical noise *)
  let images, labels = dp_batch () in
  let run replicas =
    let dp = Dp.create ~replicas dp_build in
    for _ = 1 to 4 do
      ignore (Dp.train_step dp ~update:(Dp.sgd_update ~lr:0.1) ~images ~labels)
    done;
    Bk.to_dense (Dp.L.Slot.data (List.hd (Dp.L.slots (Dp.chief dp))))
  in
  let single = run 1 in
  let quad = run 4 in
  Test_util.check_true "4 replicas = 1 device"
    (Dense.allclose ~rtol:1e-9 ~atol:1e-12 single quad)

let test_dp_loss_is_global_mean () =
  let images, labels = dp_batch () in
  let dp1 = Dp.create ~replicas:1 dp_build in
  let dp4 = Dp.create ~replicas:4 dp_build in
  let l1 = Dp.train_step dp1 ~update:(Dp.sgd_update ~lr:0.0) ~images ~labels in
  let l4 = Dp.train_step dp4 ~update:(Dp.sgd_update ~lr:0.0) ~images ~labels in
  Test_util.check_close ~eps:1e-9 "same global loss" l1 l4

let test_dp_all_reduce_mean () =
  let ts =
    List.map
      (fun v -> Bk.of_dense (Dense.of_array [| 2 |] [| v; 2.0 *. v |]))
      [ 1.0; 2.0; 3.0 ]
  in
  Test_util.check_tensor "mean across replicas"
    (Dense.of_array [| 2 |] [| 2.0; 4.0 |])
    (Bk.to_dense (Dp.all_reduce_mean ts))

let test_dp_rejects_ragged_shards () =
  let dp = Dp.create ~replicas:3 dp_build in
  let images, labels = dp_batch () in
  (* 32 examples over 3 replicas *)
  Test_util.check_raises_any "indivisible batch" (fun () ->
      Dp.train_step dp ~update:(Dp.sgd_update ~lr:0.1) ~images ~labels)

let test_dp_training_learns () =
  let data = S4o_data.Dataset.two_arcs (Prng.create 57) ~n:128 in
  let batches = S4o_data.Dataset.batches data ~batch_size:32 in
  let dp = Dp.create ~replicas:4 dp_build in
  let first = ref None and last = ref None in
  for _ = 1 to 6 do
    List.iter
      (fun (images, labels, _) ->
        let l = Dp.train_step dp ~update:(Dp.sgd_update ~lr:0.3) ~images ~labels in
        if !first = None then first := Some l;
        last := Some l)
      batches
  done;
  match (!first, !last) with
  | Some f, Some l -> Test_util.check_true "loss falls" (l < f /. 1.5)
  | _ -> Alcotest.fail "no steps"

let dp_suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.data_parallel",
      [
        tc "replicas start in sync" `Quick test_dp_replicas_start_in_sync;
        tc "replicas stay in sync" `Quick test_dp_stays_in_sync;
        tc "equivalent to single device" `Quick test_dp_equivalent_to_single_device;
        tc "global mean loss" `Quick test_dp_loss_is_global_mean;
        tc "all-reduce mean" `Quick test_dp_all_reduce_mean;
        tc "ragged shards rejected" `Quick test_dp_rejects_ragged_shards;
        tc "learns" `Quick test_dp_training_learns;
      ] );
  ]

let suite = suite @ dp_suite

(* {1 Schedules and clipping} *)

module Sch = S4o_nn.Schedule

let test_schedule_shapes () =
  Test_util.check_close "constant" 0.1 (Sch.constant 0.1 50);
  Test_util.check_close "warmup midpoint" 0.05 (Sch.warmup ~steps:10 ~lr:0.1 5);
  Test_util.check_close "warmup done" 0.1 (Sch.warmup ~steps:10 ~lr:0.1 20);
  Test_util.check_close "step decay" 0.025 (Sch.step_decay ~lr:0.1 ~factor:0.5 ~every:10 21);
  Test_util.check_close "cosine start" 0.1 (Sch.cosine ~lr:0.1 ~lr_min:0.001 ~total:100 1);
  Test_util.check_close "cosine end" 0.001 (Sch.cosine ~lr:0.1 ~lr_min:0.001 ~total:100 200);
  let mid = Sch.cosine ~lr:0.1 ~lr_min:0.0 ~total:101 51 in
  Test_util.check_close ~eps:1e-3 "cosine midpoint" 0.05 mid;
  Test_util.check_close "composed warmup" (0.5 *. 0.1)
    (Sch.with_warmup ~steps:10 (Sch.constant 0.1) 5)

module SchB = S4o_nn.Schedule.Make (Bk)

let test_scheduled_sgd_uses_schedule () =
  (* lr 0 on step 1, lr 0.1 on step 2: the first step must not move *)
  let sched step = if step = 1 then 0.0 else 0.1 in
  let layer = one_param_layer 3.0 in
  let opt = SchB.scheduled_sgd sched layer in
  run_step layer opt;
  Test_util.check_close "lr 0 step is a no-op" 3.0 (param_value layer);
  run_step layer opt;
  (* p <- 3 - 0.1 * 2p = 2.4 *)
  Test_util.check_close "second step uses lr 0.1" 2.4 (param_value layer)

let test_clip_global_norm () =
  let layer = one_param_layer 10.0 in
  let ctx = L.D.new_ctx () in
  let p = L.apply layer ctx (L.D.const (Dense.scalar 0.0)) in
  let loss = L.D.mul p p in
  L.D.backward ctx loss;
  (* gradient 2p = 20; clip to norm 1 *)
  let pre = SchB.clip_global_norm ~max_norm:1.0 layer in
  Test_util.check_close "pre-clip norm" 20.0 pre;
  (match L.Slot.grad (List.hd (L.slots layer)) with
  | Some g -> Test_util.check_close "clipped to unit norm" 1.0 (Dense.item g)
  | None -> Alcotest.fail "no grad");
  (* below the threshold nothing changes *)
  let pre2 = SchB.clip_global_norm ~max_norm:10.0 layer in
  Test_util.check_close "second pass norm" 1.0 pre2;
  match L.Slot.grad (List.hd (L.slots layer)) with
  | Some g -> Test_util.check_close "untouched below threshold" 1.0 (Dense.item g)
  | None -> Alcotest.fail "no grad"

let test_clipped_training_step () =
  (* clip then step: the optimizer consumes the clipped gradient *)
  let layer = one_param_layer 10.0 in
  let opt = O.sgd ~lr:1.0 layer in
  let ctx = L.D.new_ctx () in
  let p = L.apply layer ctx (L.D.const (Dense.scalar 0.0)) in
  let loss = L.D.mul p p in
  L.D.backward ctx loss;
  ignore (SchB.clip_global_norm ~max_norm:1.0 layer);
  opt.O.step ();
  Test_util.check_close "step used the clipped gradient" 9.0 (param_value layer)

let schedule_suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.schedule",
      [
        tc "schedule curves" `Quick test_schedule_shapes;
        tc "scheduled sgd" `Quick test_scheduled_sgd_uses_schedule;
        tc "global-norm clipping" `Quick test_clip_global_norm;
        tc "clip + optimizer step" `Quick test_clipped_training_step;
      ] );
    ( "nn.multi_head",
      [
        Alcotest.test_case "multi-head attention shapes and grads" `Quick
          (fun () ->
            let mha = At.multi_head_attention (rng ()) ~d_model:8 ~heads:2 () in
            let ctx = At.D.new_ctx () in
            let x = Bk.of_dense (Dense.rand_normal (Prng.create 4) [| 2; 3; 8 |]) in
            let y = At.L.apply mha ctx (At.D.const x) in
            Test_util.check_true "shape preserved"
              (Dense.shape (Bk.to_dense (At.D.value y)) = [| 2; 3; 8 |]);
            let loss = At.D.mean_all (At.D.mul y y) in
            At.D.backward ctx loss;
            List.iter
              (fun slot ->
                Test_util.check_true "every head slot has a gradient"
                  (At.L.Slot.grad slot <> None))
              (At.L.slots mha);
            Test_util.check_raises_any "heads must divide d_model" (fun () ->
                At.multi_head_attention (rng ()) ~d_model:8 ~heads:3 ()));
      ] );
  ]

let suite = suite @ schedule_suite

(* {1 Train/eval mode} *)

let test_dropout_identity_in_eval () =
  let g = Prng.create 61 in
  let layer = L.dropout g ~rate:0.5 in
  let x = Dense.ones [| 100 |] in
  L.with_mode L.Eval (fun () ->
      Test_util.check_tensor "eval dropout = identity" x (forward layer x));
  (* and back in train mode it drops again *)
  let y = forward layer x in
  Test_util.check_true "train mode drops" (Dense.min_value y = 0.0)

let test_batch_norm_eval_uses_running_stats () =
  let layer = L.batch_norm ~features:2 ~momentum:0.0 () in
  (* momentum 0: running stats snap to the last batch's statistics *)
  let g = Prng.create 62 in
  let train_batch =
    Dense.add
      (Dense.rand_normal g ~stddev:2.0 [| 256; 2 |])
      (Dense.of_array [| 2 |] [| 4.0; -3.0 |])
  in
  let _ = forward layer train_batch in
  (* in eval, a single example is normalized by the POPULATION stats, not
     its own (a single example would otherwise normalize to zero) *)
  let probe = Dense.of_array [| 1; 2 |] [| 4.0; -3.0 |] in
  let y = L.with_mode L.Eval (fun () -> forward layer probe) in
  (* the probe sits at the training mean, so eval-normalized ~ 0 *)
  Test_util.check_close ~eps:0.2 "near zero at the running mean" 0.0
    (Dense.get y [| 0; 0 |]);
  Test_util.check_close ~eps:0.2 "near zero at the running mean (ch 1)" 0.0
    (Dense.get y [| 0; 1 |]);
  (* and eval output is deterministic w.r.t. batch composition *)
  let batch2 = Dense.concat probe (Dense.scale 100.0 probe) 0 in
  let y2 = L.with_mode L.Eval (fun () -> forward layer batch2) in
  Test_util.check_close ~eps:1e-9 "independent of batch mates"
    (Dense.get y [| 0; 0 |])
    (Dense.get y2 [| 0; 0 |])

let test_with_mode_restores () =
  Test_util.check_true "starts in train" (!L.mode = L.Train);
  L.with_mode L.Eval (fun () ->
      Test_util.check_true "inside eval" (!L.mode = L.Eval));
  Test_util.check_true "restored" (!L.mode = L.Train)

let mode_suite =
  let tc = Alcotest.test_case in
  [
    ( "nn.mode",
      [
        tc "dropout identity in eval" `Quick test_dropout_identity_in_eval;
        tc "batch norm running stats" `Quick test_batch_norm_eval_uses_running_stats;
        tc "with_mode restores" `Quick test_with_mode_restores;
      ] );
  ]

let suite = suite @ mode_suite

(* {1 Allocation}

   Tensor kernels must not box floats, call a closure per element or slice
   Bigarrays in their inner loops. A naive-backend LeNet-5 step on a batch
   of 32 allocates a few thousand minor words when they don't; per-element
   boxing in any one of the large broadcasting, im2col or transpose kernels
   costs hundreds of thousands, and did cost 6.5 M words in total. *)

let test_lenet_step_minor_words () =
  let g = Prng.create 21 in
  let model = M.lenet g in
  let opt = O.sgd ~lr:0.05 model in
  let images = Dense.rand_normal g [| 32; 28; 28; 1 |] in
  let labels =
    Dense.one_hot ~classes:10
      (Dense.init_flat [| 32 |] (fun i -> float_of_int (i mod 10)))
  in
  (* warm-up: optimizer state and lazily built structures *)
  ignore (T.step model opt ~images ~labels);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (T.step model opt ~images ~labels));
  let words = Gc.minor_words () -. before in
  Test_util.check_true
    (Printf.sprintf "one step allocated %.0f minor words (limit 500k)" words)
    (words < 500_000.0)

let alloc_suite =
  [
    ( "nn.alloc",
      [
        Alcotest.test_case "LeNet step minor words" `Quick
          test_lenet_step_minor_words;
      ] );
  ]

let suite = suite @ alloc_suite
