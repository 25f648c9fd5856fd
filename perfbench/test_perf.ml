(* The benchmark's own tests: every workload runs at a tiny size with its
   output checks passing, every check trips on a corrupted reference, and a
   traced episode reports each layer. *)

let seed = 3

let opts ?(traced = false) ?(corrupt = false) ~steps ~requests () =
  { Perf.seed; steps; requests; traced; expected = None; corrupt }

let tiny = function
  | Perf.Serve_lenet -> (2, 200)
  | Perf.Lenet_sgd | Perf.Transformer_adam -> (2, 1)

let runs_clean (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let steps, requests = tiny w in
      let r = Perf.run w (opts ~steps ~requests ()) in
      Alcotest.(check int) "timed steps" steps (List.length r.Perf.step_ms);
      Alcotest.(check bool) "checks attempted" true (r.Perf.attempted > 0);
      Alcotest.(check int) "checks failed" 0 r.Perf.failed;
      Alcotest.(check bool) "items" true (r.Perf.items > 0);
      List.iter
        (fun ms -> Alcotest.(check bool) "step time > 0" true (ms > 0.0))
        r.Perf.step_ms)

(* A training reference is corrupted by moving every expected loss by one
   ulp, the smallest change a bit-exact check must notice; the serving
   references through [corrupt]. *)
let trips_on_corruption (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let steps, requests = tiny w in
      let o =
        match w with
        | Perf.Serve_lenet -> opts ~corrupt:true ~steps ~requests ()
        | Perf.Lenet_sgd | Perf.Transformer_adam ->
            let n = Perf.warm_steps + steps in
            {
              (opts ~steps ~requests ()) with
              expected =
                Some (List.map Float.succ (Perf.naive_losses w seed n));
            }
      in
      let r = Perf.run w o in
      Alcotest.(check bool) "checks attempted" true (r.Perf.attempted > 0);
      Alcotest.(check int) "every check fails" r.Perf.attempted r.Perf.failed)

let traced_layers (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let steps, requests = tiny w in
      let r = Perf.run w (opts ~traced:true ~steps ~requests ()) in
      Alcotest.(check int) "checks failed" 0 r.Perf.failed;
      let keys =
        [ "nn.step_ms"; "lazy.barrier_ms"; "lazy.to_hlo_ms";
          "xla.fingerprint_us"; "xla.compile_ms"; "xla.input_nodes";
          "gc.minor_words_per_step" ]
        @
        match w with
        | Perf.Serve_lenet -> [ "serve.run_batch_us"; "serve.loop_us_per_req" ]
        | _ -> [ "xla.run_ms"; "tensor.allocs_per_step"; "tensor.peak_mb" ]
      in
      List.iter
        (fun k ->
          match List.assoc_opt k r.Perf.layers with
          | Some v -> Alcotest.(check bool) (k ^ " > 0") true (v > 0.0)
          | None -> Alcotest.failf "missing %s" k)
        keys)

let () =
  Alcotest.run "perfbench"
    [
      ("runs", List.map runs_clean Perf.workloads);
      ("checks", List.map trips_on_corruption Perf.workloads);
      ("traced", List.map traced_layers Perf.workloads);
    ]
