(* Workload train-selfplay: Core.Train.run with the CPU configuration
   the cpu_k24 net was trained with (m=9, 12 self-play episodes of k=24,
   12 batches of 32, an arena of 10 games) on a 2-domain pool.  The only
   workload that runs the autodiff tape, Adam, the replay ring and the
   arena. *)

open Util

let config ~tiny =
  let m = Cir.Alloc_pbqp.num_colors in
  {
    (Core.Train.default_config ~m) with
    episodes_per_iteration = (if tiny then 2 else 12);
    graph =
      { Pbqp.Generate.default with m; p_edge = 0.22; p_inf = 0.01;
        cost_max = 30.0 };
    n_mean = 16.0;
    n_stddev = 4.0;
    mcts = { Mcts.default_config with k = 24 };
    temperature_moves = 6;
    batches_per_iteration = (if tiny then 2 else 12);
    arena_games = (if tiny then 2 else 10);
    domains = 2;
    check = true;
  }

(* Untraced: Train.run itself.  Returns its start time and each
   iteration's progress and end time. *)
let train ~seed ~iterations cfg =
  let t0 = now () in
  let log = ref [] in
  let on_iteration p = log := (p, now ()) :: !log in
  ignore
    (Core.Train.run ~on_iteration ~rng:(Random.State.make [| seed |])
       { cfg with iterations });
  (t0, List.rev !log)

(* Train.run's loop for the in-process source, composed from the public
   functions it calls, each phase a span: self-play episodes
   (Train.self_play_episode), the replay ring, the data-parallel
   gradient step (Pvnet.train_batch_parallel) and the arena
   (Episode.play at temperature 0).  Must reproduce Train.run's
   progress bitwise. *)

let random_graph ~rng (cfg : Core.Train.config) =
  let n =
    Pbqp.Generate.sample_n ~rng ~mean:cfg.n_mean ~stddev:cfg.n_stddev
      ~min:cfg.n_min
  in
  Pbqp.Generate.erdos_renyi ~rng { cfg.graph with n }

let arena_play ~rng ~net (cfg : Core.Train.config) g =
  let _, reference, _ = Solvers.Scholz.solve_with_cost g in
  let reference =
    if Pbqp.Cost.is_finite reference then reference else Pbqp.Cost.inf
  in
  let mode = Core.Game.Minimize { reference; shaping = cfg.shaping } in
  let mcts = { cfg.mcts with Mcts.batch = max 1 cfg.batch_leaves } in
  fst
    (Core.Episode.play ~rng ~net ~mode
       { Core.Episode.mcts; temperature_moves = 0; root_noise = None }
       (Core.State.of_graph g))

let compare_costs c b =
  let k = Pbqp.Cost.compare c b in
  if k < 0 then 1.0 else if k > 0 then -1.0 else 0.0

let train_staged ~seed ~iterations (cfg : Core.Train.config) =
  let rng = Random.State.make [| seed |] in
  let best = Nn.Pvnet.create ~rng cfg.net in
  let current = Nn.Pvnet.clone best in
  let manifest_seed = Random.State.bits rng in
  let opt = Nn.Adam.create cfg.adam in
  let pool = Par.Pool.create ~domains:cfg.domains in
  let prev_tensor_pool = Tensor.get_pool () in
  Fun.protect
    ~finally:(fun () ->
      Tensor.set_pool prev_tensor_pool;
      Par.Pool.shutdown pool)
  @@ fun () ->
  Tensor.set_pool (Some pool);
  let nw = Par.Pool.size pool in
  let bests = Array.init nw (fun w -> if w = 0 then best else Nn.Pvnet.clone best) in
  let currents =
    Array.init nw (fun w -> if w = 0 then current else Nn.Pvnet.clone current)
  in
  let evals () =
    Array.fold_left (fun a n -> a + Nn.Pvnet.eval_count n) 0 bests
    + Array.fold_left (fun a n -> a + Nn.Pvnet.eval_count n) 0 currents
  in
  let e0 = evals () in
  let refresh () =
    for w = 1 to nw - 1 do
      Nn.Pvnet.copy_into ~src:best ~dst:bests.(w);
      Nn.Pvnet.copy_into ~src:current ~dst:currents.(w)
    done
  in
  let indices n = Array.init n Fun.id in
  let root = Core.Train.actor_root ~manifest_seed 0 in
  let replay = Core.Replay.create ~capacity:cfg.replay_capacity in
  let progress =
    List.init iterations (fun i ->
        span "train.iteration" @@ fun () ->
        let results =
          span "core.selfplay" (fun () ->
              refresh ();
              let rngs =
                Array.init cfg.episodes_per_iteration (fun _ ->
                    Random.State.split root)
              in
              Par.Pool.map pool (indices cfg.episodes_per_iteration)
                ~f:(fun ~worker i ->
                  Core.Train.self_play_episode ~rng:rngs.(i)
                    ~best:bests.(worker) ~current:currents.(worker) cfg))
        in
        let failed =
          Array.fold_left (fun a (_, f) -> if f then a + 1 else a) 0 results
        in
        span "core.replay" (fun () ->
            Array.iter (fun (s, _) -> Core.Replay.add_list replay s) results);
        let losses =
          List.init cfg.batches_per_iteration (fun _ ->
              let batch =
                span "core.replay" (fun () ->
                    Core.Replay.sample_batch ~rng replay cfg.batch_size)
              in
              span "nn.train_step" (fun () ->
                  Nn.Pvnet.train_batch_parallel ~pool ~replicas:currents
                    current opt batch))
        in
        (* summed last batch first, as Train.run folds its loss list *)
        let mean_loss =
          List.fold_left ( +. ) 0.0 (List.rev losses)
          /. float_of_int (List.length losses)
        in
        let outcomes =
          span "core.arena" (fun () ->
              refresh ();
              let rngs =
                Array.init cfg.arena_games (fun _ -> Random.State.split rng)
              in
              Par.Pool.map pool (indices cfg.arena_games) ~f:(fun ~worker i ->
                  let rng = rngs.(i) in
                  let g = random_graph ~rng cfg in
                  let b = arena_play ~rng ~net:bests.(worker) cfg g in
                  let c = arena_play ~rng ~net:currents.(worker) cfg g in
                  compare_costs c.cost b.cost))
        in
        let count v = Array.fold_left (fun a o -> if o = v then a + 1 else a) 0 outcomes in
        let wins = count 1.0 and ties = count 0.0 in
        let kept = wins > cfg.arena_games - wins - ties in
        if kept then Nn.Pvnet.sync ~src:current ~dst:best;
        {
          Core.Train.iteration = i + 1;
          mean_loss;
          arena_wins = wins;
          arena_ties = ties;
          kept;
          replay_size = Core.Replay.length replay;
          episodes_failed = failed;
        })
  in
  (progress, evals () - e0)

(* Each iteration's duration; the first one also pays Train.run's
   start-up, which set-up measures, so it is left out when there are
   others. *)
let iteration_times t0 log =
  let rec go prev = function
    | [] -> []
    | (_, t) :: rest -> (t -. prev) :: go t rest
  in
  match go t0 log with _ :: (_ :: _ as rest) -> rest | all -> all

let verify log =
  List.iteri
    (fun i ((p : Core.Train.progress), _) ->
      let loss = if i = 0 && take_fault () then Float.nan else p.mean_loss in
      check
        (Float.is_finite loss && loss > 0.0)
        (Printf.sprintf "iteration %d: mean loss %g" p.iteration loss);
      check (p.replay_size > 0)
        (Printf.sprintf "iteration %d: empty replay" p.iteration))
    log

(* Untraced: the first iteration of a fresh Train.run from the default
   seed's rng - the same work every time - run round after round (about
   0.9 s each, start-up included); [op_ms] is the fastest.  Iterations
   of one longer run are not repeats of the same work: each plays other
   graphs on other weights.  [quality] is that iteration's mean training
   loss.  Any seed but the default adds a first iteration from its own
   rng, checked once, untimed. *)
let untraced ctx cfg =
  let n = rounds ~seconds:ctx.seconds ~nominal_s:0.9 in
  let first_iteration seed = snd (train ~seed ~iterations:1 cfg) in
  let timed = fastest n [ default_seed ] first_iteration in
  let logs, op_s = List.hd timed in
  let log = List.hd logs in
  verify log;
  List.iter
    (fun l ->
      check
        (List.map fst l = List.map fst log)
        "a repeated first iteration differs from the first")
    logs;
  let rss = peak_rss_mb () in
  if ctx.seed <> default_seed then verify (first_iteration ctx.seed);
  let p = fst (List.hd log) in
  Printf.printf
    "train-selfplay: first iteration %.3f s at the fastest of %d rounds, %d \
     replay samples, mean loss %.4f\n%!"
    op_s n p.Core.Train.replay_size p.mean_loss;
  [
    ("peak_rss_mb", rss);
    ("op_ms", op_s *. 1e3);
    ("throughput_per_s", float_of_int p.replay_size /. op_s);
    ("quality", p.mean_loss);
  ]

(* Traced: a few iterations of the seed's run through Train.run, then
   the same loop composed stage by stage, which must reproduce its
   progress bitwise. *)
let traced ctx cfg =
  let iterations = if ctx.tiny then 1 else 4 in
  let t0, log = train ~seed:ctx.seed ~iterations cfg in
  verify log;
  let iter_s = median (iteration_times t0 log) in
  let progress, evals = train_staged ~seed:ctx.seed ~iterations cfg in
  List.iter2
    (fun (a, _) b ->
      check (a = b)
        (Printf.sprintf "iteration %d: staged loop differs from Train.run"
           a.Core.Train.iteration))
    log progress;
  let per name = span_total name *. 1e3 /. float_of_int iterations in
  let traced_iter =
    span_total "train.iteration" /. float_of_int (span_count "train.iteration")
  in
  [
    ("nn.leaf_evals", float_of_int evals);
    ("core.selfplay_ms", per "core.selfplay");
    ("core.replay_ms", per "core.replay");
    ("nn.train_step_ms", per "nn.train_step");
    ("core.arena_ms", per "core.arena");
    ("unattributed_share", unattributed_share "train.iteration");
    ("trace_overhead_share", (traced_iter /. iter_s) -. 1.0);
  ]

let run ctx =
  let cfg = config ~tiny:ctx.tiny in
  (* Set-up: what Train.run does before its first iteration (nets, pool,
     replicas, source) - a run with no iterations and no arena. *)
  let (), setup_s =
    setup_median (fun () ->
        ignore
          (Core.Train.run ~rng:(Random.State.make [| ctx.seed |])
             { cfg with iterations = 0; arena_games = 0 }))
  in
  note_identity "net" "fresh (Pvnet.create from the seed)";
  note_identity "inputs"
    (Printf.sprintf "Erdos-Renyi m=%d n~N(%.0f,%.0f) from seed" cfg.graph.m
       cfg.n_mean cfg.n_stddev);
  if ctx.traced then traced ctx cfg else ("setup_s", setup_s) :: untraced ctx cfg
