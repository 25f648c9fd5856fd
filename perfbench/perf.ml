(** Workloads of the real-clock benchmark.

    One call of {!run} is one {e episode}: a fresh set-up followed by a fixed
    number of timed steps (training) or sessions (serving), then the output
    checks. Every time here is read from the real clock; the simulated clock
    the library also keeps is never reported.

    Timers sit in this file only, around calls into each layer's public API:
    [S4o_nn] ([Train.step]), [S4o_lazy] (barrier, [Trace.to_hlo], runtime
    statistics), [S4o_xla] (fingerprint, optimisation passes, compile, run,
    simulate), [S4o_tensor] (the domain pool, and the [S4o_obs.Memory]
    tracker its buffers report to) and [S4o_serve] ([Server.run],
    [Replica.run_batch]). *)

open S4o_tensor
module Json = S4o_obs.Json
module Memory = S4o_obs.Memory
module Engine = S4o_device.Engine
module Spec = S4o_device.Device_spec
module Trace = S4o_lazy.Trace
module Hlo = S4o_xla.Hlo
module Opt = S4o_xla.Opt
module Compiler = S4o_xla.Compiler

type workload = Lenet_sgd | Transformer_adam | Serve_lenet

let workloads =
  [
    ("lenet-sgd", Lenet_sgd);
    ("transformer-adam", Transformer_adam);
    ("serve-lenet", Serve_lenet);
  ]

let workload_of_string s = List.assoc_opt s workloads

type opts = {
  seed : int;  (** Drives weights, data and load. *)
  steps : int;  (** Timed training steps, or timed serving sessions. *)
  requests : int;  (** Requests per serving session. *)
  traced : bool;  (** Time each layer; enables the tensor-memory tracker. *)
  expected : float list option;
      (** Reference losses for a training episode, as {!naive_losses}
          returns them; computed in-process when absent. *)
  corrupt : bool;
      (** Perturb every reference the serving checks compare against, so
          each must fail. Used by the benchmark's own tests; a training
          check is tripped through [expected] instead. *)
}

type result = {
  setup_done : float;  (** Unix time at which the timed region began. *)
  step_ms : float list;  (** Real ms per timed step or session. *)
  items : int;  (** Training examples or requests completed while timed. *)
  attempted : int;  (** Output checks attempted. *)
  failed : int;  (** Output checks that failed. *)
  layers : (string * float) list;
      (** Per-layer metrics. The GC and pool deltas are always present; the
          rest only when [traced]. *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = 1e3 *. s
let us s = 1e6 *. s
let mb bytes = float_of_int bytes /. 1e6

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(** {1 GC and pool deltas around the timed region} *)

let gc_layers ~per (g0 : Gc.stat) (g1 : Gc.stat) =
  let per_unit x = x /. float_of_int (max 1 per) in
  [
    ("gc.minor_words_per_step", per_unit (g1.minor_words -. g0.minor_words));
    ( "gc.promoted_words_per_step",
      per_unit (g1.promoted_words -. g0.promoted_words) );
    ( "gc.major_collections_per_step",
      per_unit (float_of_int (g1.major_collections - g0.major_collections)) );
  ]

let pool_layers ~steps =
  let s = Pool.stats () in
  ("pool.width", float_of_int (Pool.default_domains ()))
  :: ("pool.jobs_per_step", float_of_int s.Pool.jobs /. float_of_int (max 1 steps))
  :: List.map
       (fun (slot, share) -> (Printf.sprintf "pool.busy_share.d%d" slot, share))
       (Pool.busy_fractions s)

(** {1 The xla layer, timed on one captured graph}

    [analyse roots] converts the pending trace under [roots] to HLO exactly
    as the runtime's barrier would, then times each compiler stage on that
    graph. The passes run once each, in pipeline order; [Compiler.compile]
    runs the full pipeline. [Compiler.run] executes on a scratch engine, and
    only when every graph parameter holds real data (compute mode). Nothing
    here changes the trace, so the barrier that follows is unaffected. *)
let analyse roots =
  let (g, leaves, _), t_hlo = time (fun () -> Trace.to_hlo roots) in
  let reps = 20 in
  let _, t_fp =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Hlo.fingerprint g))
        done)
  in
  let g1, t_cse = time (fun () -> Opt.cse g) in
  let g2, t_fold = time (fun () -> Opt.constant_fold g1) in
  let g3, t_dce = time (fun () -> Opt.dead_code_elim g2) in
  let _, t_fuse = time (fun () -> Opt.fuse g3) in
  let exe, t_compile = time (fun () -> Compiler.compile g) in
  let scratch = Engine.create Spec.desktop_cpu in
  let feeds =
    List.filter_map
      (fun (l : Trace.node) ->
        match l.Trace.state with
        | Trace.Materialized v -> Some v
        | Trace.Simulated | Trace.Pending -> None)
      leaves
  in
  let t_run =
    if List.length feeds = List.length leaves then
      snd (time (fun () -> Compiler.run exe scratch (Array.of_list feeds)))
    else 0.0
  in
  let _, t_sim = time (fun () -> Compiler.simulate exe scratch) in
  let st = Compiler.stats exe in
  [
    ("lazy.to_hlo_ms", ms t_hlo);
    ("xla.fingerprint_us", us t_fp /. float_of_int reps);
    ("xla.cse_ms", ms t_cse);
    ("xla.constant_fold_ms", ms t_fold);
    ("xla.dce_ms", ms t_dce);
    ("xla.fuse_ms", ms t_fuse);
    ("xla.compile_ms", ms t_compile);
    ("xla.run_ms", ms t_run);
    ("xla.simulate_us", us t_sim);
    ("xla.input_nodes", float_of_int st.Compiler.input_nodes);
    ("xla.optimized_nodes", float_of_int st.Compiler.optimized_nodes);
    ("xla.clusters", float_of_int st.Compiler.clusters);
  ]

(* Median of each metric over several analysed steps. *)
let median_layers samples =
  match samples with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, median (List.map (List.assoc k) samples)))
        first

(** {1 Training workloads} *)

let batch = 32
let distinct_batches = 8

(* Learning rates as the repository's own examples use them. *)
let lenet_lr = 0.05
let transformer_lr = 3e-3
let seq_len = 8
let d_model = 12
let classes = 4

let dataset kind rng =
  let n = batch * distinct_batches in
  match kind with
  | Lenet_sgd -> S4o_data.Dataset.synthetic_mnist rng ~n ~noise:0.25
  | _ ->
      S4o_data.Dataset.make_prototyped ~name:"synthetic-sequences" ~rng ~n
        ~height:seq_len ~width:1 ~channels:d_model ~classes ~noise:0.3

(* Weights and data both come from the seed, through split streams, so the
   lazy run and its naive reference see identical inputs. *)
let inputs kind seed =
  let rng = Prng.create seed in
  let data_rng = Prng.split rng in
  let weight_rng = Prng.split rng in
  let batches =
    Array.of_list
      (List.map
         (fun (images, one_hot, _) -> (images, one_hot))
         (S4o_data.Dataset.batches (dataset kind data_rng) ~batch_size:batch))
  in
  (batches, weight_rng)

module Net (Bk : Backend_intf.S) = struct
  module M = S4o_nn.Models.Make (Bk)
  module A = S4o_nn.Attention.Make (Bk)
  module T = S4o_nn.Train.Make (Bk)

  let build kind rng =
    match kind with
    | Lenet_sgd ->
        let model = M.lenet rng in
        (model, T.Opt.sgd ~lr:lenet_lr model)
    | _ ->
        let model =
          A.tiny_transformer rng ~seq_len ~d_model ~d_ff:24 ~blocks:2 ~classes
        in
        (model, T.Opt.adam ~lr:transformer_lr model)

  let loss_value r = Dense.item (Bk.to_dense (T.L.D.value r.T.loss))
end

(** Losses of the first [n] steps on the naive backend: the reference every
    lazy step is checked against. *)
let naive_losses kind seed n =
  let module N = Net (Naive_backend) in
  let batches, weight_rng = inputs kind seed in
  let model, opt = N.build kind weight_rng in
  List.init n (fun i ->
      let images, labels = batches.(i mod Array.length batches) in
      N.loss_value (N.T.step model opt ~images ~labels))

(* Steps run before the timed region: the first compile, plus the first
   step's different optimizer-state shape. *)
let warm_steps = 1

(* Extra steps, after the timed region of a traced run, on which the xla
   layer is analysed. *)
let analysed_steps = 5

let train kind opts =
  let engine = Engine.create Spec.desktop_cpu in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module N = Net (Bk) in
  let batches, weight_rng = inputs kind opts.seed in
  let model, opt = N.build kind weight_rng in
  let losses = ref [] in
  let step_index = ref 0 in
  (* One training step; returns (nn seconds, lazy seconds). With [analyse],
     the xla layer is timed on the step's graph before the barrier, outside
     both returned times. *)
  let step ?analysis () =
    let images, labels = batches.(!step_index mod Array.length batches) in
    incr step_index;
    let r, t_nn = time (fun () -> N.T.step model opt ~images ~labels) in
    let roots = N.T.L.D.value r.N.T.loss :: N.T.Opt.updated_params opt in
    Option.iter (fun acc -> acc := analyse roots :: !acc) analysis;
    let loss, t_lazy =
      time (fun () ->
          Bk.barrier roots;
          N.loss_value r)
    in
    losses := loss :: !losses;
    (t_nn, t_lazy)
  in
  for _ = 1 to warm_steps do
    ignore (step ())
  done;
  let stats0 = S4o_lazy.Lazy_runtime.stats rt in
  if opts.traced then begin
    Memory.set_enabled Memory.global true;
    Memory.reset Memory.global
  end;
  Pool.reset_stats ();
  let setup_done = now () in
  let gc0 = Gc.quick_stat () in
  let times = List.init opts.steps (fun _ -> step ()) in
  let gc1 = Gc.quick_stat () in
  let stats1 = S4o_lazy.Lazy_runtime.stats rt in
  let pool = pool_layers ~steps:opts.steps in
  let tensor =
    if opts.traced then begin
      let per = float_of_int (max 1 opts.steps) in
      let l =
        [
          ( "tensor.allocs_per_step",
            float_of_int (Memory.alloc_count Memory.global) /. per );
          ("tensor.peak_mb", mb (Memory.peak_bytes Memory.global));
        ]
      in
      Memory.set_enabled Memory.global false;
      l
    end
    else []
  in
  let traced_layers =
    if not opts.traced then []
    else begin
      let d f = f stats1 - f stats0 in
      let cuts = d (fun s -> s.S4o_obs.Stats.traces_cut) in
      let per = float_of_int (max 1 opts.steps) in
      let analysis = ref [] in
      for _ = 1 to analysed_steps do
        ignore (step ~analysis ())
      done;
      [
        ("nn.step_ms", median (List.map (fun (n, _) -> ms n) times));
        ( "nn.ops_recorded",
          float_of_int (d (fun s -> s.S4o_obs.Stats.ops_traced)) /. per );
        ("lazy.barrier_ms", median (List.map (fun (_, l) -> ms l) times));
        ( "lazy.hit_ratio",
          float_of_int (d (fun s -> s.S4o_obs.Stats.cache_hits))
          /. float_of_int (max 1 cuts) );
        ( "lazy.cache_misses",
          float_of_int (d (fun s -> s.S4o_obs.Stats.cache_misses)) );
        ( "lazy.cache_size",
          float_of_int (S4o_lazy.Lazy_runtime.cache_size rt) );
      ]
      @ median_layers !analysis @ tensor
    end
  in
  (* Output check, outside the timed region: every loss, warm-up steps
     included, must equal the naive backend's bit for bit. *)
  let lazy_losses = List.rev !losses in
  let n = List.length lazy_losses in
  let expected =
    match opts.expected with
    | Some l when List.length l >= n -> List.filteri (fun i _ -> i < n) l
    | Some _ -> invalid_arg "Perf.train: too few expected losses"
    | None -> naive_losses kind opts.seed n
  in
  let failed =
    List.fold_left2
      (fun acc got want ->
        if Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
        then acc
        else acc + 1)
      0 lazy_losses expected
  in
  {
    setup_done;
    step_ms = List.map (fun (n, l) -> ms (n +. l)) times;
    items = batch * opts.steps;
    attempted = List.length lazy_losses;
    failed;
    layers = gc_layers ~per:opts.steps gc0 gc1 @ pool @ traced_layers;
  }

(** {1 Serving workload} *)

let serve_rate = 8000.0
let serve_config () = S4o_serve.Server.default_config ()

let session ~seed requests =
  S4o_serve.Server.run (serve_config ())
    (S4o_serve.Server.Open_loop
       {
         process = S4o_serve.Load_gen.Poisson { rate = serve_rate };
         requests;
         seed;
       })

(* Requests in the untimed set-up session: enough to run every path of a
   session, few enough that set-up is weights, compiles and warmup. *)
let setup_requests = 64

(* The checks on one timed session's statistics: completed + shed = offered
   = requests sent, and nothing shed; given the statistics of an earlier
   session with the same seed, also the same statistics. *)
let serve_checks opts ?reference (s : S4o_serve.Serve_stats.t) =
  let offered = if opts.corrupt then opts.requests + 1 else opts.requests in
  let shed_allowed = if opts.corrupt then -1 else 0 in
  let same (r : S4o_serve.Serve_stats.t) =
    s = if opts.corrupt then { r with batches = r.batches + 1 } else r
  in
  [
    s.completed + S4o_serve.Serve_stats.shed s = s.offered
    && s.offered = offered;
    S4o_serve.Serve_stats.shed s = shed_allowed;
  ]
  @ Option.to_list (Option.map same reference)

(* The serve layers outside [Server.run]: a standalone replica built as
   [default_config] builds them, timed per [Replica.run_batch] at each
   bucket (the median of each bucket is returned), and a lazy LeNet stack
   built as the replica builds it, timed per layer at each bucket. *)
let serve_buckets (cfg : S4o_serve.Server.config) =
  S4o_serve.Batcher.buckets
    (S4o_serve.Batcher.create ?buckets:cfg.buckets ~max_batch:cfg.max_batch
       ~timeout:cfg.batch_timeout ())

let serve_layers ~reps =
  let cfg = serve_config () in
  let buckets = serve_buckets cfg in
  let replica =
    S4o_serve.Replica.create ~record:cfg.record ~id:0 ~spec:cfg.spec
      cfg.strategy cfg.model
  in
  let run_batch b =
    snd
      (time (fun () ->
           S4o_serve.Replica.run_batch replica
             ~now:(S4o_serve.Replica.free_at replica) ~batch:b))
  in
  List.iter (fun b -> ignore (run_batch b)) buckets;
  let per_bucket =
    List.map
      (fun b -> (b, median (List.init reps (fun _ -> run_batch b))))
      buckets
  in
  let engine = Engine.create cfg.spec in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let model = M.lenet (Prng.create S4o_serve.Model.weight_seed) in
  let forward ?analysis b =
    let input =
      Bk.placeholder (S4o_serve.Model.input_shape cfg.model ~batch:b)
    in
    let logits, t_nn = time (fun () -> T.predict model input) in
    Option.iter (fun acc -> acc := analyse [ logits ] :: !acc) analysis;
    let (), t_lazy =
      time (fun () ->
          Bk.barrier [ logits ];
          Engine.sync engine)
    in
    (t_nn, t_lazy)
  in
  List.iter (fun b -> ignore (forward b)) buckets;
  let stats0 = S4o_lazy.Lazy_runtime.stats rt in
  let times =
    List.concat_map (fun b -> List.init reps (fun _ -> forward b)) buckets
  in
  let stats1 = S4o_lazy.Lazy_runtime.stats rt in
  let analysis = ref [] in
  List.iter (fun b -> ignore (forward ~analysis b)) buckets;
  let d f = f stats1 - f stats0 in
  let calls = List.length times in
  ( per_bucket,
    [
      ("nn.step_ms", median (List.map (fun (n, _) -> ms n) times));
      ( "nn.ops_recorded",
        float_of_int (d (fun s -> s.S4o_obs.Stats.ops_traced))
        /. float_of_int calls );
      ("lazy.barrier_ms", median (List.map (fun (_, l) -> ms l) times));
      ( "lazy.hit_ratio",
        float_of_int (d (fun s -> s.S4o_obs.Stats.cache_hits))
        /. float_of_int (max 1 (d (fun s -> s.S4o_obs.Stats.traces_cut))) );
      ("lazy.cache_misses", float_of_int (d (fun s -> s.S4o_obs.Stats.cache_misses)));
      ("lazy.cache_size", float_of_int (S4o_lazy.Lazy_runtime.cache_size rt));
    ]
    @ median_layers !analysis )

(* Real seconds [Replica.run_batch] takes for a session's batches: a
   least-squares line a + c * bucket through the median time at each bucket,
   applied to the session's batches and executed slots (requests plus
   padding). *)
let batch_seconds per_bucket (s : S4o_serve.Serve_stats.t) =
  let n = float_of_int (List.length per_bucket) in
  let mean f = List.fold_left (fun acc x -> acc +. f x) 0.0 per_bucket /. n in
  let mb = mean (fun (b, _) -> float_of_int b) and mt = mean snd in
  let var = mean (fun (b, _) -> (float_of_int b -. mb) ** 2.0) in
  let cov = mean (fun (b, t) -> (float_of_int b -. mb) *. (t -. mt)) in
  let c = if var > 0.0 then cov /. var else 0.0 in
  let a = mt -. (c *. mb) in
  (a *. float_of_int s.batches)
  +. (c *. float_of_int (s.completed + s.padded_slots))

let serve opts =
  (* Set-up: a short session, in which the weights, the first compiles and
     replica warmup all happen inside [Server.run]. *)
  ignore (session ~seed:opts.seed setup_requests);
  Pool.reset_stats ();
  let setup_done = now () in
  let gc0 = Gc.quick_stat () in
  let timed =
    List.init opts.steps (fun _ ->
        time (fun () ->
            S4o_serve.Server.stats (session ~seed:opts.seed opts.requests)))
  in
  let gc1 = Gc.quick_stat () in
  (* Every session after the first must repeat the first's statistics:
     they share the seed. *)
  let first = fst (List.hd timed) in
  let checks =
    List.concat
      (List.mapi
         (fun i (s, _) ->
           serve_checks opts ?reference:(if i = 0 then None else Some first) s)
         timed)
  in
  let completed =
    List.fold_left
      (fun acc ((s : S4o_serve.Serve_stats.t), _) -> acc + s.completed)
      0 timed
  in
  let serve_stats =
    [
      ("serve.batches", float_of_int first.batches);
      ("serve.mean_occupancy", first.mean_occupancy);
      ("serve.compiled_programs", float_of_int first.compiled_programs);
      ("serve.shed", float_of_int (S4o_serve.Serve_stats.shed first));
    ]
  in
  let traced_layers =
    if not opts.traced then []
    else begin
      let per_bucket, layers = serve_layers ~reps:50 in
      let in_batches = batch_seconds per_bucket first in
      (* A session without requests builds the replicas and runs their
         warmup, which a session's loop time must not include. *)
      let build_s =
        median
          (List.init 5 (fun _ ->
               snd (time (fun () -> session ~seed:opts.seed 0))))
      in
      let session_s = median (List.map snd timed) in
      ("serve.run_batch_us", us in_batches /. float_of_int (max 1 first.batches))
      :: ( "serve.loop_us_per_req",
           us (session_s -. build_s -. in_batches)
           /. float_of_int (max 1 first.completed) )
      :: layers
    end
  in
  {
    setup_done;
    step_ms = List.map (fun (_, t) -> ms t) timed;
    items = completed;
    attempted = List.length checks;
    failed = List.length (List.filter not checks);
    layers =
      gc_layers ~per:completed gc0 gc1
      @ pool_layers ~steps:opts.steps
      @ serve_stats @ traced_layers;
  }

let run workload opts =
  match workload with
  | Lenet_sgd | Transformer_adam -> train workload opts
  | Serve_lenet -> serve opts

let to_json workload opts r =
  let num x = Json.Num x in
  Json.Obj
    [
      ( "workload",
        Json.Str (fst (List.find (fun (_, w) -> w = workload) workloads)) );
      ("seed", num (float_of_int opts.seed));
      ("traced", Json.Bool opts.traced);
      ("setup_done", num r.setup_done);
      ("step_ms", Json.Arr (List.map num r.step_ms));
      ("items", num (float_of_int r.items));
      ("attempted", num (float_of_int r.attempted));
      ("failed", num (float_of_int r.failed));
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
    ]
