(* Workload pro-backtrack: the ATE translation of ten programs at the
   PRO1-PRO10 sizes, each allocated by the Deep-RL solver with
   backtracking inside Ate.Translate.allocate (the atec configuration). *)

open Util

let machine = Ate.Machine.default
let net_path = "bench_cache/ate_k25.ckpt"
let mcts = { Mcts.default_config with k = 12 }
let max_backtracks = 300

(* [rng = [|7919*k; seed|]] is exactly how Ate.Progen.pro draws PRO[k],
   so the default seed reproduces PRO1-PRO10. *)
let programs ~seed ~count =
  List.init count (fun i ->
      let k = i + 1 in
      let rng = Random.State.make [| 7919 * k; seed |] in
      let p, _witness =
        Ate.Progen.generate_with_witness ~machine ~rng
          ~target_vregs:Ate.Progen.pro_sizes.(i) ()
      in
      { p with Ate.Ast.name = Printf.sprintf "PRO%d" k })

(* What one allocation produced; [counts] must repeat exactly. *)
type outcome = {
  allocated : Ate.Ast.program option;
  error : string option;  (** any failure other than "no allocation" *)
  solution : Pbqp.Solution.t option;
  nodes : int;
  backtracks : int;
  evals : int;
}

let solve net stats g =
  let sol, st =
    Core.Solver.solve_feasible ~net ~mcts ~order:Core.Order.Increasing_liberty
      ~backtracking:true ~max_backtracks g
  in
  stats := Some (st, sol);
  sol

let stats_of ?error net stats e0 allocated =
  let evals = Nn.Pvnet.eval_count net - e0 in
  match !stats with
  | Some ((st : Core.Solver.stats), solution) ->
      { allocated; error; solution; nodes = st.nodes;
        backtracks = st.backtracks; evals }
  | None ->
      { allocated; error; solution = None; nodes = 0; backtracks = 0; evals }

(* The untraced unit of work: one Translate.allocate call. *)
let allocate net p =
  let stats = ref None in
  let e0 = Nn.Pvnet.eval_count net in
  let r = Ate.Translate.allocate machine ~solve:(solve net stats) p in
  match r with
  | Ok q -> stats_of net stats e0 (Some q)
  | Error "no allocation found" -> stats_of net stats e0 None
  | Error e -> stats_of ~error:e net stats e0 None

(* The same call composed stage by stage from the functions
   Translate.allocate runs, each timed as a span. *)
let allocate_staged net p =
  let stats = ref None in
  let e0 = Nn.Pvnet.eval_count net in
  let info =
    span "ate.analyze" (fun () ->
        let info = Ate.Program.analyze_exn p in
        (match Ate.Program.require_virtual info with
        | Ok () -> ()
        | Error e -> failwith e);
        (match Ate.Program.check_schedulable machine info with
        | Ok () -> ()
        | Error e -> failwith e);
        info)
  in
  let built = span "ate.build" (fun () -> Ate.Pbqp_build.build machine info) in
  let sol = span "core.solve" (fun () -> solve net stats built.graph) in
  let allocated =
    Option.map
      (fun sol ->
        let assignment =
          span "ate.validate" (fun () ->
              let assignment = Ate.Pbqp_build.assignment_of_solution built sol in
              Ate.Validate.check_exn machine info ~assignment;
              assignment)
        in
        span "ate.rewrite" (fun () -> Ate.Translate.apply p ~assignment))
      sol
  in
  stats_of net stats e0 allocated

(* Output check, outside any timing: the allocation passes the
   independent validator, is the rewrite of the solver's solution, and
   emits what the unallocated program emits. *)
let verify p o =
  match (o.allocated, o.solution) with
  | _ when o.error <> None ->
      check false (p.Ate.Ast.name ^ ": " ^ Option.get o.error)
  | None, None -> ()
  | Some q, Some sol ->
      let info = Ate.Program.analyze_exn p in
      let built = Ate.Pbqp_build.build machine info in
      let assignment = Ate.Pbqp_build.assignment_of_solution built sol in
      let assignment, q =
        if take_fault () then
          let bad _ = Some 0 in
          (bad, Ate.Translate.apply p ~assignment:bad)
        else (assignment, q)
      in
      check
        (Ate.Validate.check machine info ~assignment = Ok ())
        (p.Ate.Ast.name ^ ": allocation fails Ate.Validate");
      check
        (Ate.Translate.apply p ~assignment = q)
        (p.Ate.Ast.name ^ ": allocated program is not the solution's rewrite");
      check
        (Ate.Interp.same_behaviour p q)
        (p.Ate.Ast.name ^ ": allocated program emits differently")
  | _ -> check false (p.Ate.Ast.name ^ ": solution and program disagree")

let counts os =
  let s f = List.fold_left (fun a o -> a + f o) 0 os in
  ( s (fun o -> o.nodes),
    s (fun o -> o.backtracks),
    s (fun o -> o.evals),
    s (fun o -> if o.allocated = None then 0 else 1) )

let same_counts what a b =
  let n1, b1, e1, s1 = counts a and n2, b2, e2, s2 = counts b in
  same_count (what ^ " pro_nodes") n1 n2;
  same_count (what ^ " core.backtracks") b1 b2;
  same_count (what ^ " nn.leaf_evals") e1 e2;
  same_count (what ^ " pro_solved") s1 s2

(* Per-leaf costs measured on the workload's own states: walk each
   returned assignment in the solve's order and time, at every prefix
   state, the GCN readout, the trunk forward of that one row, and the
   persistent-state move the solve makes. *)
let leaf_costs net progs outcomes =
  let readout = ref 0.0 and trunk = ref 0.0 and apply = ref 0.0 in
  let n = ref 0 in
  List.iter2
    (fun p o ->
      match o.solution with
      | None -> ()
      | Some sol ->
          let info = Ate.Program.analyze_exn p in
          let g = (Ate.Pbqp_build.build machine info).graph in
          let order = Core.Order.compute Core.Order.Increasing_liberty g in
          let rec walk st =
            match Core.State.next_vertex st with
            | None -> ()
            | Some v ->
                let g = Core.State.graph st in
                let prep, dr = time (fun () -> Nn.Pvnet.prepare net g ~next:v) in
                let _, dt =
                  time (fun () -> Nn.Pvnet.predict_prepared net [| prep |])
                in
                let st', da =
                  time (fun () -> Core.State.apply st (Pbqp.Solution.get sol v))
                in
                readout := !readout +. dr;
                trunk := !trunk +. dt;
                apply := !apply +. da;
                incr n;
                walk st'
          in
          walk (Core.State.of_graph ~order g))
    progs outcomes;
  let per x = if !n = 0 then 0.0 else x /. float_of_int !n *. 1e6 in
  (per !readout, per !trunk, per !apply)

(* Vertices of the programs' PBQP graphs: the decisions a search
   without backtracking makes. *)
let vertices progs =
  List.fold_left
    (fun acc p ->
      let g = (Ate.Pbqp_build.build machine (Ate.Program.analyze_exn p)).graph in
      acc + Pbqp.Graph.n_alive g)
    0 progs

(* Untraced: PRO1-PRO5, the same on every seed, allocated round after
   round (about 2.5 s a round); [op_ms] is the sum of each program's
   fastest allocation.  PRO6-PRO10 take 2-8 s each, too long to repeat
   within a run; the traced run covers all ten.  Any seed but the
   default adds its own five programs at the PRO1-PRO5 sizes, generated,
   allocated and checked once after the memory high-water mark is read,
   untimed. *)
let untraced ctx net core =
  let n = rounds ~seconds:ctx.seconds ~nominal_s:2.5 in
  let timed = fastest ~both_cpus:true n core (allocate net) in
  List.iter2
    (fun p (os, _) ->
      let first = List.hd os in
      verify p first;
      List.iter (fun o -> same_counts (p.Ate.Ast.name ^ " round") [ first ] [ o ]) os)
    core timed;
  let rss = peak_rss_mb () in
  let extras =
    if ctx.seed = default_seed then []
    else programs ~seed:ctx.seed ~count:(List.length core)
  in
  note_identity "seeded" (digest_strings (List.map Ate.Ast.to_string extras));
  List.iter (fun p -> verify p (allocate net p)) extras;
  let firsts = List.map (fun (os, _) -> List.hd os) timed in
  let nodes, backtracks, evals, solved = counts firsts in
  let op_s = sum (List.map snd timed) in
  let quality = float_of_int nodes /. float_of_int (vertices core) in
  Printf.printf
    "pro-backtrack: %d programs, %d solved, %d nodes, %d backtracks, %d leaf \
     evals, %.3f s a pass at the fastest of %d rounds; %d seeded programs\n%!"
    (List.length core) solved nodes backtracks evals op_s n (List.length extras);
  [
    ("peak_rss_mb", rss);
    ("op_ms", op_s *. 1e3);
    ("throughput_per_s", float_of_int (List.length core) /. op_s);
    ("quality", quality);
  ]

(* Traced: the seed's ten programs (PRO1-PRO10 on the default seed),
   once through Translate.allocate and once stage by stage; the counts
   must agree. *)
let traced net progs =
  let first, pass_s = time (fun () -> List.map (allocate net) progs) in
  List.iter2 verify progs first;
  let nodes, backtracks, evals, solved = counts first in
  Printf.printf
    "pro-backtrack: %d programs, %d solved, %d nodes, %d backtracks, %d leaf \
     evals, %.3f s a pass\n%!"
    (List.length progs) solved nodes backtracks evals pass_s;
  let staged, traced_s =
    time (fun () -> span "pro.pass" (fun () -> List.map (allocate_staged net) progs))
  in
  List.iter2 verify progs staged;
  same_counts "traced" first staged;
  List.iter2
    (fun a b ->
      check (a.allocated = b.allocated)
        "staged allocation differs from Translate.allocate")
    first staged;
  let readout_us, trunk_us, apply_us = leaf_costs net progs first in
  let solve_s = span_total "core.solve" in
  let f = float_of_int in
  [
    ("pro_solved", f solved);
    ("pro_nodes", f nodes);
    ("core.backtracks", f backtracks);
    ("nn.leaf_evals", f evals);
    ("core.solve_ms", solve_s *. 1e3);
    ("ate.analyze_ms", span_total "ate.analyze" *. 1e3);
    ("ate.build_ms", span_total "ate.build" *. 1e3);
    ("nn.readout_us", readout_us);
    ("nn.trunk_us", trunk_us);
    ("core.apply_us", apply_us);
    ( "nn.readout_share",
      if solve_s > 0.0 then readout_us *. 1e-6 *. f evals /. solve_s else 0.0 );
    ("unattributed_share", unattributed_share "pro.pass");
    ("trace_overhead_share", (traced_s /. pass_s) -. 1.0);
  ]

let run ctx =
  let count = if ctx.tiny then 2 else 5 in
  let (net, progs), setup_s =
    setup_median (fun () ->
        ( Nn.Pvnet.load net_path,
          if ctx.traced then programs ~seed:ctx.seed ~count:(2 * count)
          else programs ~seed:default_seed ~count ))
  in
  note_identity "net" (net_path ^ ":" ^ digest_file net_path);
  note_identity "inputs" (digest_strings (List.map Ate.Ast.to_string progs));
  if ctx.traced then traced net progs
  else ("setup_s", setup_s) :: untraced ctx net progs
