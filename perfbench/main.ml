(* One benchmark episode per process, driven by run.py:

     bench.exe info
     bench.exe reference --workload W --seed N --steps K
     bench.exe episode --workload W --seed N --steps K [--requests R]
                       [--expect L] [--traced]

   [info] prints the OCaml version and the pool width this process would
   use. [reference] prints the naive backend's losses of a training
   workload, for every step an episode of K timed steps runs, as hexadecimal
   floats, comma-separated; [--expect] hands such a
   list to an episode, which otherwise computes it in-process. [episode]
   runs one workload episode and prints its raw measurements as one JSON
   line; run.py aggregates episodes into metrics. *)

let usage () =
  prerr_endline
    "usage: bench.exe info | bench.exe (reference|episode) --workload W \
     --seed N --steps K [--requests R] [--expect L] [--traced]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "info" :: _ ->
      print_endline
        (S4o_obs.Json.to_string
           (S4o_obs.Json.Obj
              [
                ("ocaml", S4o_obs.Json.Str Sys.ocaml_version);
                ( "pool_width",
                  S4o_obs.Json.Num
                    (float_of_int (S4o_tensor.Pool.default_domains ())) );
              ]))
  | _ :: (("reference" | "episode") as mode) :: args ->
      let workload = ref None and seed = ref 0 and steps = ref 1 in
      let requests = ref 1000 and traced = ref false in
      let expected = ref None in
      let rec parse = function
        | "--workload" :: w :: rest ->
            workload := Perf.workload_of_string w;
            if !workload = None then usage ();
            parse rest
        | "--seed" :: n :: rest ->
            seed := int_of_string n;
            parse rest
        | "--steps" :: n :: rest ->
            steps := int_of_string n;
            parse rest
        | "--requests" :: n :: rest ->
            requests := int_of_string n;
            parse rest
        | "--expect" :: l :: rest ->
            expected :=
              Some (List.map float_of_string (String.split_on_char ',' l));
            parse rest
        | "--traced" :: rest ->
            traced := true;
            parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      let workload = match !workload with Some w -> w | None -> usage () in
      if mode = "reference" then begin
        if workload = Perf.Serve_lenet then usage ();
        print_endline
          (String.concat ","
             (List.map (Printf.sprintf "%h")
                (Perf.naive_losses workload !seed
                   (Perf.warm_steps + max 1 !steps + Perf.analysed_steps))));
        exit 0
      end;
      let opts =
        {
          Perf.seed = !seed;
          steps = max 1 !steps;
          requests = max 1 !requests;
          traced = !traced;
          expected = !expected;
          corrupt = false;
        }
      in
      let r = Perf.run workload opts in
      print_endline (S4o_obs.Json.to_string (Perf.to_json workload opts r))
  | _ -> usage ()
