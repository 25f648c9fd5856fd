(** Tests for the eager (§3.2) and lazy (§3.3–3.4) runtimes: both must agree
    exactly with the naive backend on values, while exhibiting their
    characteristic cost behaviour on the simulated clocks. *)

open S4o_tensor
module Engine = S4o_device.Engine
module Spec = S4o_device.Device_spec

(* fresh eager stack per test *)
let with_eager f =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_eager.Runtime.create engine in
  let module Bk = S4o_eager.Eager_backend.Make (struct
    let rt = rt
  end) in
  f (module Bk : Backend_intf.S) rt engine

let with_lazy ?cache_enabled f =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ?cache_enabled engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  f (module Bk : Backend_intf.S) rt engine

(* A composite expression exercised on every backend. *)
let expr (type t) (module Bk : Backend_intf.S with type t = t) a b =
  let x = Bk.of_dense a and y = Bk.of_dense b in
  let z = Bk.relu (Bk.sub (Bk.mul x y) (Bk.add_scalar 0.5 x)) in
  let m = Bk.matmul (Bk.reshape z [| 2; 2 |]) (Bk.reshape y [| 2; 2 |]) in
  Bk.to_dense (Bk.softmax m)

let sample_inputs seed =
  let g = Prng.create seed in
  (Dense.rand_normal g [| 4 |], Dense.rand_normal g [| 4 |])

let reference seed =
  let a, b = sample_inputs seed in
  expr (module Naive_backend) a b

(* {1 Backend agreement} *)

let test_eager_matches_naive () =
  with_eager (fun (module Bk) _ _ ->
      List.iter
        (fun seed ->
          let a, b = sample_inputs seed in
          Test_util.check_tensor "eager = naive" (reference seed)
            (expr (module Bk) a b))
        [ 1; 2; 3; 4; 5 ])

let test_lazy_matches_naive () =
  with_lazy (fun (module Bk) _ _ ->
      List.iter
        (fun seed ->
          let a, b = sample_inputs seed in
          Test_util.check_tensor "lazy = naive" (reference seed)
            (expr (module Bk) a b))
        [ 1; 2; 3; 4; 5 ])

let qcheck_three_backends_agree =
  Test_util.qtest ~count:40 "naive = eager = lazy on random inputs"
    QCheck.(int_range 10 10_000)
    (fun seed ->
      let a, b = sample_inputs seed in
      let naive = expr (module Naive_backend) a b in
      let eager = with_eager (fun (module Bk) _ _ -> expr (module Bk) a b) in
      let lzy = with_lazy (fun (module Bk) _ _ -> expr (module Bk) a b) in
      Dense.equal naive eager && Dense.allclose ~rtol:1e-12 ~atol:1e-12 naive lzy)

(* {1 Eager runtime behaviour} *)

let test_eager_dispatch_costs_host_time () =
  with_eager (fun (module Bk) rt _ ->
      let a, b = sample_inputs 1 in
      let _ = expr (module Bk) a b in
      Test_util.check_true "ops dispatched"
        ((S4o_eager.Runtime.stats rt).S4o_obs.Stats.ops_dispatched > 5);
      Test_util.check_true "host time accrued"
        (S4o_eager.Runtime.host_time rt > 0.0))

let test_eager_pipeline_until_observed () =
  with_eager (fun (module Bk) _ engine ->
      let a, _ = sample_inputs 1 in
      let x = Bk.of_dense a in
      let y = Bk.relu (Bk.exp x) in
      (* nothing observed yet: device may still be behind *)
      let depth_before = Engine.pipeline_depth engine in
      let _ = Bk.to_dense y in
      Test_util.check_true "pipeline filled then drained"
        (depth_before >= 0.0 && Engine.pipeline_depth engine = 0.0))

let test_eager_overhead_configurable () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_eager.Runtime.create ~dispatch_overhead:1.0 engine in
  let module Bk = S4o_eager.Eager_backend.Make (struct
    let rt = rt
  end) in
  let _ = Bk.relu (Bk.of_dense (Dense.zeros [| 2 |])) in
  Test_util.check_close "1s per op" 1.0 (S4o_eager.Runtime.host_time rt)

(* {1 Lazy runtime behaviour} *)

let test_lazy_defers_execution () =
  with_lazy (fun (module Bk) rt engine ->
      let a, _ = sample_inputs 2 in
      let x = Bk.of_dense a in
      let _y = Bk.relu (Bk.exp (Bk.sqrt (Bk.sigmoid x))) in
      ignore _y;
      (* no trace cut, no kernels, no compiles until observation *)
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "no traces yet" 0 st.S4o_lazy.Lazy_runtime.traces_cut;
      Test_util.check_int "no kernels yet" 0 (Engine.kernels_launched engine))

let test_lazy_program_cache_hits () =
  with_lazy (fun (module Bk) rt _ ->
      let step seed =
        let a, b = sample_inputs seed in
        ignore (expr (module Bk) a b)
      in
      (* same structure, different data: compile once, then cache hits *)
      List.iter step [ 1; 2; 3; 4; 5 ];
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "five traces" 5 st.S4o_lazy.Lazy_runtime.traces_cut;
      Test_util.check_int "one compile" 1 st.S4o_lazy.Lazy_runtime.cache_misses;
      Test_util.check_int "four hits" 4 st.S4o_lazy.Lazy_runtime.cache_hits)

let test_lazy_shape_change_recompiles () =
  with_lazy (fun (module Bk) rt _ ->
      let run n =
        let g = Prng.create n in
        let x = Bk.of_dense (Dense.rand_normal g [| n |]) in
        ignore (Bk.to_dense (Bk.relu x))
      in
      run 4;
      run 4;
      run 8;
      (* S3.4: "changes in the dimensions of the input tensors can trigger
         recompilation" *)
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "two compiles for two shapes" 2
        st.S4o_lazy.Lazy_runtime.cache_misses;
      Test_util.check_int "one hit for the repeat" 1
        st.S4o_lazy.Lazy_runtime.cache_hits)

let test_lazy_cache_disabled_recompiles () =
  with_lazy ~cache_enabled:false (fun (module Bk) rt _ ->
      let run () =
        let x = Bk.of_dense (Dense.ones [| 4 |]) in
        ignore (Bk.to_dense (Bk.relu x))
      in
      run ();
      run ();
      run ();
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "every trace compiles" 3 st.S4o_lazy.Lazy_runtime.cache_misses)

let test_lazy_tracing_overhead_charged () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ~trace_overhead_per_op:1.0 engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.of_dense (Dense.ones [| 4 |]) in
  let _ = Bk.to_dense (Bk.relu (Bk.exp x)) in
  (* two recorded ops at 1s each, plus compile time *)
  Test_util.check_true "re-tracing overhead on the host clock"
    (Engine.host_time engine >= 2.0)

let test_lazy_barrier_cuts_trace () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.of_dense (Dense.ones [| 4 |]) in
  let y = Bk.relu x in
  Bk.barrier [ y ];
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "trace cut at barrier" 1 st.S4o_lazy.Lazy_runtime.traces_cut;
  (* after the barrier, y is device data: a new trace starts from it *)
  let z = Bk.to_dense (Bk.exp y) in
  Test_util.check_tensor "value correct across barrier"
    (Dense.exp (Dense.relu (Dense.ones [| 4 |])))
    z;
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "second trace only 1 op" 1
    st.S4o_lazy.Lazy_runtime.largest_trace

let test_lazy_placeholder_timing_only () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.placeholder [| 64; 64 |] in
  let y = Bk.matmul x x in
  Bk.barrier [ y ];
  (* clock advanced, kernels counted, but contents unobservable *)
  Test_util.check_true "device time advanced" (Engine.device_ready_at engine > 0.0);
  Test_util.check_raises_any "cannot observe timing-only tensors" (fun () ->
      Bk.to_dense y)

let test_lazy_capture_is_free () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.placeholder [| 4 |] in
  let y = Bk.relu (Bk.exp x) in
  let g = Bk.capture [ y ] in
  Test_util.check_int "graph has param + 2 ops" 3 (S4o_xla.Hlo.size g);
  Test_util.check_close "no cost charged" 0.0 (Engine.host_time engine);
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "no trace consumed" 0 st.S4o_lazy.Lazy_runtime.traces_cut

let suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.agreement",
      [
        tc "eager = naive" `Quick test_eager_matches_naive;
        tc "lazy = naive" `Quick test_lazy_matches_naive;
        qcheck_three_backends_agree;
      ] );
    ( "runtimes.eager",
      [
        tc "dispatch costs host time" `Quick test_eager_dispatch_costs_host_time;
        tc "pipeline drains on observe" `Quick test_eager_pipeline_until_observed;
        tc "overhead configurable" `Quick test_eager_overhead_configurable;
      ] );
    ( "runtimes.lazy",
      [
        tc "defers execution" `Quick test_lazy_defers_execution;
        tc "program cache hits across values" `Quick test_lazy_program_cache_hits;
        tc "shape change recompiles" `Quick test_lazy_shape_change_recompiles;
        tc "cache ablation recompiles" `Quick test_lazy_cache_disabled_recompiles;
        tc "re-tracing overhead charged" `Quick test_lazy_tracing_overhead_charged;
        tc "barrier cuts the trace" `Quick test_lazy_barrier_cuts_trace;
        tc "timing-only placeholders" `Quick test_lazy_placeholder_timing_only;
        tc "capture charges nothing" `Quick test_lazy_capture_is_free;
      ] );
  ]

(* {1 Automatic trace cutting (S3.4 future work, implemented)} *)

let test_auto_cut_dispatches_without_barriers () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:5 engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 20 do
    x := Bk.relu (Bk.add_scalar 0.1 !x)
  done;
  (* 40 recorded ops with threshold 5: the runtime must have cut on its own *)
  Test_util.check_true "auto cuts happened"
    ((S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts >= 7);
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_true "fragments bounded" (st.S4o_lazy.Lazy_runtime.largest_trace <= 5);
  (* and values are still exactly right: replay the exact op sequence *)
  let reference = ref (Dense.ones [| 4 |]) in
  for _ = 1 to 20 do
    reference := Dense.relu (Dense.add_scalar 0.1 !reference)
  done;
  Test_util.check_tensor "auto-cut values correct" !reference (Bk.to_dense !x)

let test_auto_cut_disabled_by_default () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 50 do
    x := Bk.relu !x
  done;
  Test_util.check_int "no auto cuts" 0
    (S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts

let test_auto_cut_threshold_validated () =
  let engine = Engine.create Spec.gtx1080 in
  Test_util.check_raises_any "rejects non-positive threshold" (fun () ->
      S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:0 engine)

let test_manual_barrier_resets_auto_counter () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:10 engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 8 do
    x := Bk.relu !x;
    Bk.barrier [ !x ]
  done;
  (* each manual cut resets the counter, so the threshold is never reached *)
  Test_util.check_int "no auto cuts with frequent barriers" 0
    (S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts

let auto_cut_suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.auto_cut",
      [
        tc "dispatches without annotations" `Quick test_auto_cut_dispatches_without_barriers;
        tc "off by default" `Quick test_auto_cut_disabled_by_default;
        tc "threshold validated" `Quick test_auto_cut_threshold_validated;
        tc "manual barriers reset the counter" `Quick test_manual_barrier_resets_auto_counter;
      ] );
  ]

let suite = suite @ auto_cut_suite

(* {1 Exact trace identity}

   A cache hit must run exactly the program that was traced: constants that
   differ in any bit are different programs. *)

let test_lazy_cache_hits_are_exact () =
  with_lazy (fun lazy_bk rt _ ->
      let x = Dense.of_array [| 3 |] [| 2.0; -1.5; 0.25 |] in
      let scale c (module B : Backend_intf.S) =
        B.to_dense (B.scale c (B.of_dense x))
      in
      let add_scalar c (module B : Backend_intf.S) =
        B.to_dense (B.add_scalar c (B.of_dense x))
      in
      let check name program =
        Test_util.check_true name
          (Dense.equal (program (module Naive_backend : Backend_intf.S))
             (program lazy_bk))
      in
      check "scale 1.0000001" (scale 1.0000001);
      check "scale 1.0000004" (scale 1.0000004);
      check "add_scalar 0.5" (add_scalar 0.5);
      check "add_scalar 0.5000001" (add_scalar 0.5000001);
      (* Adam's bias correction late in training *)
      for t = 90 to 93 do
        check
          (Printf.sprintf "bias correction at t=%d" t)
          (scale (1.0 /. (1.0 -. (0.9 ** float_of_int t))))
      done;
      let before = S4o_lazy.Lazy_runtime.cache_size rt in
      ignore (scale 0.0 lazy_bk);
      ignore (scale (-0.0) lazy_bk);
      Test_util.check_int "0.0 and -0.0 are two programs" (before + 2)
        (S4o_lazy.Lazy_runtime.cache_size rt))

(* Random straight-line programs over catalog ops. Every register's shape
   is the base shape with leading dimensions dropped and some dimensions
   set to 1, so any two registers broadcast together. The composite unary
   ops keep every value finite, so [Dense.equal] can compare them. *)
type instr =
  | Unary of
      [ `Neg | `Relu | `Sigmoid | `Tanh | `Softmax | `Exp_tanh | `Log_sigmoid
      | `Sqrt_sigmoid ]
      * int
  | Scalar of [ `Scale | `Add_scalar ] * float * int
  | Binary of [ `Add | `Sub | `Mul | `Div | `Relu_grad ] * int * int
  | Sum of int option * int  (** [Some axis] keeps dims; [None] sums all. *)

let random_program g =
  let base = Array.init (1 + Prng.int g 3) (fun _ -> 1 + Prng.int g 4) in
  let sub_shape () =
    let drop = Prng.int g (Array.length base + 1) in
    Array.map
      (fun d -> if Prng.int g 3 = 0 then 1 else d)
      (Array.sub base drop (Array.length base - drop))
  in
  let inputs = List.init (1 + Prng.int g 3) (fun _ -> sub_shape ()) in
  let shapes = ref (Array.of_list inputs) in
  let pick () = Prng.int g (Array.length !shapes) in
  let constant () =
    match Prng.int g 5 with
    | 0 -> 0.0
    | 1 -> -0.0
    | _ -> Prng.uniform g ~lo:(-3.0) ~hi:3.0
  in
  let instr () =
    let a = pick () in
    let rank = Shape.rank !shapes.(a) in
    match Prng.int g 4 with
    | 0 ->
        let ops =
          [|
            `Neg; `Relu; `Sigmoid; `Tanh; `Exp_tanh; `Log_sigmoid; `Sqrt_sigmoid;
          |]
        in
        if rank = 2 && Prng.int g 3 = 0 then Unary (`Softmax, a)
        else Unary (ops.(Prng.int g (Array.length ops)), a)
    | 1 ->
        let op = if Prng.int g 2 = 0 then `Scale else `Add_scalar in
        Scalar (op, constant (), a)
    | 2 ->
        let ops = [| `Add; `Sub; `Mul; `Div; `Relu_grad |] in
        Binary (ops.(Prng.int g (Array.length ops)), a, pick ())
    | _ -> Sum ((if rank > 0 then Some (Prng.int g rank) else None), a)
  in
  let program =
    List.init (1 + Prng.int g 8) (fun _ ->
        let i = instr () in
        let s = !shapes in
        let out =
          match i with
          | Unary (_, a) | Scalar (_, _, a) -> s.(a)
          | Binary (_, a, b) -> Shape.broadcast s.(a) s.(b)
          | Sum (Some axis, a) ->
              Shape.reduce_axes ~keep_dims:true s.(a) [ axis ]
          | Sum (None, _) -> [||]
        in
        shapes := Array.append s [| out |];
        i)
  in
  (inputs, program)

(* Run a program and read back its last register. *)
let run_program (module B : Backend_intf.S) inputs program =
  let regs = ref (Array.of_list (List.map B.of_dense inputs)) in
  List.iter
    (fun i ->
      let r k = !regs.(k) in
      let v =
        match i with
        | Unary (`Neg, a) -> B.neg (r a)
        | Unary (`Relu, a) -> B.relu (r a)
        | Unary (`Sigmoid, a) -> B.sigmoid (r a)
        | Unary (`Tanh, a) -> B.tanh (r a)
        | Unary (`Softmax, a) -> B.softmax (r a)
        | Unary (`Exp_tanh, a) -> B.exp (B.tanh (r a))
        | Unary (`Log_sigmoid, a) -> B.log (B.sigmoid (r a))
        | Unary (`Sqrt_sigmoid, a) -> B.sqrt (B.sigmoid (r a))
        | Scalar (`Scale, c, a) -> B.scale c (r a)
        | Scalar (`Add_scalar, c, a) -> B.add_scalar c (r a)
        | Binary (`Add, a, b) -> B.add (r a) (r b)
        | Binary (`Sub, a, b) -> B.sub (r a) (r b)
        | Binary (`Mul, a, b) -> B.mul (r a) (r b)
        | Binary (`Div, a, b) ->
            B.div (r a) (B.add_scalar 1.5 (B.sigmoid (r b)))
        | Binary (`Relu_grad, a, b) -> B.relu_grad (r a) (r b)
        | Sum (Some axis, a) -> B.sum_axes ~keep_dims:true (r a) [ axis ]
        | Sum (None, a) -> B.sum_all (r a)
      in
      regs := Array.append !regs [| v |])
    program;
  B.to_dense !regs.(Array.length !regs - 1)

let qcheck_random_programs_exact =
  Test_util.qtest ~count:60
    "random programs: naive = eager = lazy, cache hits exact"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let shapes, program = random_program g in
      let fresh_inputs () = List.map (Dense.rand_normal g) shapes in
      let naive inputs p = run_program (module Naive_backend) inputs p in
      let inputs = fresh_inputs () in
      let eager_agrees =
        with_eager (fun bk _ _ ->
            Dense.equal (naive inputs program) (run_program bk inputs program))
      in
      (* Perturbing every constant by one ulp makes a new program whenever
         a constant reaches the output; the repeat of each run hits. *)
      let perturbed =
        List.map
          (function Scalar (op, c, a) -> Scalar (op, Float.succ c, a) | i -> i)
          program
      in
      with_lazy (fun bk rt _ ->
          let runs = [ program; program; perturbed; perturbed ] in
          let lazy_agrees =
            List.for_all
              (fun p ->
                let inputs = fresh_inputs () in
                Dense.equal (naive inputs p) (run_program bk inputs p))
              runs
          in
          let st = S4o_lazy.Lazy_runtime.stats rt in
          let misses = st.S4o_lazy.Lazy_runtime.cache_misses in
          eager_agrees && lazy_agrees
          && (misses = 1 || misses = 2)
          && st.S4o_lazy.Lazy_runtime.cache_hits = 4 - misses))

(* {1 Pullbacks skip constants}

   A LeNet step's input batch is a constant: its conv2d_backward_input
   would be thrown away, so it must not run. conv2's runs. *)

let test_eager_lenet_step_skips_constant_input_grad () =
  with_eager (fun (module Bk) rt engine ->
      let module M = S4o_nn.Models.Make (Bk) in
      let module O = S4o_nn.Optimizer.Make (Bk) in
      let module T = S4o_nn.Train.Make (Bk) in
      let g = Prng.create 5 in
      let model = M.lenet g in
      let opt = O.sgd ~lr:0.05 model in
      let images = Dense.rand_normal g [| 2; 28; 28; 1 |] in
      let labels =
        Dense.one_hot ~classes:10 (Dense.of_array [| 2 |] [| 3.0; 7.0 |])
      in
      S4o_eager.Runtime.reset_stats rt;
      ignore (T.step model opt ~images ~labels);
      let dispatched name =
        List.length
          (List.filter
             (fun (s : S4o_obs.Recorder.span) ->
               s.cat = "dispatch" && s.name = name)
             (S4o_obs.Recorder.spans (Engine.recorder engine)))
      in
      Test_util.check_int "conv2d_backward_input dispatches" 1
        (dispatched "conv2d_backward_input");
      Test_util.check_int "conv2d_backward_filter dispatches" 2
        (dispatched "conv2d_backward_filter"))

let identity_suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.identity",
      [
        tc "cache hits are exact" `Quick test_lazy_cache_hits_are_exact;
        qcheck_random_programs_exact;
        tc "LeNet step skips constant input grad" `Quick
          test_eager_lenet_step_skips_constant_input_grad;
      ] );
  ]

let suite = suite @ identity_suite
