(* The benchmark runner: runs one named workload with a seed, checks
   every output, and prints each metric with its unit.  The last line of
   standard output is the result object; the exit code is 0 only when
   every output was correct.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     [--serve-exe PATH] [--out-dir DIR] [--tiny] [--inject-fault]

   See README.md for the workloads and what each metric means. *)

open Util

let workloads =
  [
    ("pro-backtrack", Pro.run);
    ("minic-rl", Minic.run);
    ("daemon-mixed", Traffic.run);
    ("train-selfplay", Selfplay.run);
  ]

(* End-to-end metrics, printed by every untraced run.  [op_ms] is the
   workload's operation timed at its fastest repeats (Util.fastest) and
   [quality] its deterministic result-quality figure (README.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("op_ms", "ms");
    ("throughput_per_s", "1/s");
    ("quality", "score");
  ]

(* Per-layer metrics, printed by every traced run; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    (* pro-backtrack *)
    ("pro_solved", "count");
    ("pro_nodes", "count");
    ("core.backtracks", "count");
    ("nn.leaf_evals", "count");
    ("core.solve_ms", "ms");
    ("ate.analyze_ms", "ms");
    ("ate.build_ms", "ms");
    ("nn.readout_us", "us");
    ("nn.trunk_us", "us");
    ("core.apply_us", "us");
    ("nn.readout_share", "ratio");
    (* minic-rl *)
    ("minic_cycles", "count");
    ("minic_cost_gap_pct", "%");
    ("cir.spills", "count");
    ("cir.frontend_ms", "ms");
    ("cir.liveness_ms", "ms");
    ("cir.pbqp_build_ms", "ms");
    ("cir.solve_rl_ms", "ms");
    ("cir.validate_ms", "ms");
    ("cir.rewrite_ms", "ms");
    ("cir.msim_ms", "ms");
    ("solvers.reduce_ms", "ms");
    ("solvers.residual_vertices", "count");
    ("minic.seeded_ms", "ms");
    (* daemon-mixed *)
    ("daemon_failed_share", "ratio");
    ("daemon.p50_ms", "ms");
    ("daemon.p99_ms", "ms");
    ("daemon.goodput_share", "ratio");
    ("daemon.rl_p50_ms", "ms");
    ("daemon.hard_p50_ms", "ms");
    ("daemon.minic_p50_ms", "ms");
    ("daemon.gen_late_p99_ms", "ms");
    ("nn.infer_rows_per_batch", "rows");
    ("nn.infer_wait_p50_us", "us");
    ("nn.infer_wait_p99_us", "us");
    ("nn.cache_hit_rate", "ratio");
    ("serve.queue_depth_max", "count");
    ("serve.overloads", "count");
    ("serve.encode_us", "us");
    ("serve.decode_us", "us");
    (* train-selfplay *)
    ("core.selfplay_ms", "ms");
    ("core.replay_ms", "ms");
    ("nn.train_step_ms", "ms");
    ("core.arena_ms", "ms");
    (* every workload *)
    ("unattributed_share", "ratio");
    ("trace_overhead_share", "ratio");
  ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       ms)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  let serve_exe = ref "_build/default/bin/pbqp_serve.exe" in
  let out_dir = ref ".bench_build/perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH pbqp_serve binary");
      ("--out-dir", Arg.Set_string out_dir, "DIR scratch directory");
      ("--tiny", Arg.Set tiny, " smallest inputs (the benchmark's own tests)");
      ("--inject-fault", Arg.Set inject_fault, " corrupt one output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline
          ("perfbench: unknown workload; one of: "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !out_dir;
  let ctx =
    { seed = !seed; seconds = !seconds; traced = !trace = 1; tiny = !tiny;
      out_dir = !out_dir; serve_exe = !serve_exe }
  in
  let values = run ctx in
  let declared = if ctx.traced then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("perfbench: undeclared metric " ^ name))
    values;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | Some v -> (name, unit_, v)
        | None when ctx.traced -> (name, unit_, 0.0)
        | None -> failwith ("perfbench: missing metric " ^ name))
      declared
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then begin
        incr failed;
        Printf.eprintf "perfbench: metric %s is not finite\n%!" name
      end)
    metrics;
  if ctx.traced then
    write_trace
      (Filename.concat ctx.out_dir
         (Printf.sprintf "trace-%s-%d.json" !workload ctx.seed));
  let identity =
    [ ("workload", !workload); ("seed", string_of_int ctx.seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version) ]
    @ !Util.identity
  in
  Printf.printf "identity: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) identity));
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit_) metrics;
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  if !attempted = 0 then begin
    incr failed;
    prerr_endline "perfbench: no output was checked"
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (json_metrics metrics);
  exit (if !failed = 0 then 0 else 1)
