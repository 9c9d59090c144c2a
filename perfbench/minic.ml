(* Workload minic-rl: compile the MiniC programs with the PBQP-RL
   allocator (Cir.Driver.run (Pbqp_rl (cpu_k24, k=60))) and run the
   generated code on the VCPU simulator. *)

open Util

let net_path = "bench_cache/cpu_k24.ckpt"
let mcts = { Mcts.default_config with k = 60 }

(* The 24 benchmark programs. *)
let programs ~tiny =
  if tiny then List.filteri (fun i _ -> i < 2) Cir.Programs.all
  else Cir.Programs.all

(* The two programs whose RL compile takes over 2 s (Oscar 2.5 s, Nbody
   2.2 s; the other 22 take 2.6 s together).  Too long to repeat within a
   run, they are compiled and checked once in untraced runs, and count
   in [quality]; the traced run times them with the rest. *)
let large = [ "Oscar"; "Nbody" ]

(* Any seed but the default adds 8 random programs drawn from it, for
   claims on unseen inputs.  They are generated, compiled and checked
   once after the timed work (and after the memory high-water mark is
   read) and timed on their own: their cost swings from 0.04 s to 3.6 s
   a program, which would otherwise make the end-to-end figures track
   the seed instead of the code. *)
let fuzz_programs ~seed ~tiny =
  let fuzz =
    if seed = default_seed then []
    else
      List.init
        (if tiny then 1 else 8)
        (fun i ->
          ( Printf.sprintf "fuzz%d" i,
            Cir.Fuzzgen.generate ~rng:(Random.State.make [| seed; i |]) ))
  in
  note_identity "seeded" (digest_strings (List.map snd fuzz));
  fuzz

type outcome = {
  output : string list;
  cycles : int;
  spills : int;
  cost : Pbqp.Cost.t;
  evals : int;
}

let cost_of (r : Cir.Driver.result) =
  Option.value r.pbqp_cost ~default:Pbqp.Cost.inf

(* The untraced unit of work: front end plus Driver.run. *)
let compile net src =
  let e0 = Nn.Pvnet.eval_count net in
  let r = Cir.Driver.run (Pbqp_rl (net, mcts)) (Cir.Lower.compile src) in
  { output = r.outcome.output; cycles = r.outcome.cycles; spills = r.spills;
    cost = cost_of r; evals = Nn.Pvnet.eval_count net - e0 }

(* Driver.run composed stage by stage, each stage a span. *)
let compile_staged net src =
  let e0 = Nn.Pvnet.eval_count net in
  let ir = span "cir.frontend" (fun () -> Cir.Lower.compile src) in
  let spills = ref 0 and cost = ref Pbqp.Cost.zero in
  let allocations =
    List.map
      (fun (f : Cir.Ir.func) ->
        let live = span "cir.liveness" (fun () -> Cir.Liveness.analyze f) in
        let alloc, c =
          span "cir.solve_rl" (fun () ->
              Cir.Alloc_pbqp.solve_rl ~net ~mcts live)
        in
        span "cir.validate" (fun () ->
            match Cir.Regalloc.validate live alloc with
            | Ok () -> ()
            | Error e -> failwith (f.name ^ ": " ^ e));
        spills := !spills + Cir.Regalloc.spill_count alloc;
        cost := Pbqp.Cost.add !cost c;
        (f.name, alloc))
      ir.funcs
  in
  let mp =
    span "cir.rewrite" (fun () ->
        Cir.Rewrite.rewrite ir (fun name -> List.assoc name allocations))
  in
  let o = span "cir.msim" (fun () -> Cir.Msim.run mp) in
  { output = o.output; cycles = o.cycles; spills = !spills; cost = !cost;
    evals = Nn.Pvnet.eval_count net - e0 }

let verify (name, _) reference o =
  let output = if take_fault () then [ "corrupted" ] else o.output in
  check (output = reference) (name ^ ": simulated output differs from Cir.Interp")

let totals os =
  List.fold_left
    (fun (c, s, e, k) o -> (c + o.cycles, s + o.spills, e + o.evals, Pbqp.Cost.add k o.cost))
    (0, 0, 0, Pbqp.Cost.zero) os

let same_counts what a b =
  let c1, s1, e1, k1 = totals a and c2, s2, e2, k2 = totals b in
  same_count (what ^ " minic_cycles") c1 c2;
  same_count (what ^ " cir.spills") s1 s2;
  same_count (what ^ " nn.leaf_evals") e1 e2;
  if not (Pbqp.Cost.equal k1 k2) then
    check false (what ^ ": PBQP cost sums differ")

(* Layers inside solve_rl, timed on the workload's own graphs: the PBQP
   build, the exact R0/R1/R2 reduction, and the GCN readout of every
   residual vertex. *)
let probes net srcs =
  let build = ref 0.0 and reduce = ref 0.0 and residual = ref 0 in
  let readout = ref 0.0 and leaves = ref 0 in
  List.iter
    (fun (_, src) ->
      let ir = Cir.Lower.compile src in
      List.iter
        (fun f ->
          let live = Cir.Liveness.analyze f in
          let t, db = time (fun () -> Cir.Alloc_pbqp.build live) in
          let (res, _), dr =
            time (fun () -> Solvers.Scholz.reduce_exact t.graph)
          in
          build := !build +. db;
          reduce := !reduce +. dr;
          residual := !residual + Pbqp.Graph.n_alive res;
          List.iter
            (fun v ->
              let _, d = time (fun () -> Nn.Pvnet.prepare net res ~next:v) in
              readout := !readout +. d;
              incr leaves)
            (Pbqp.Graph.vertices res))
        ir.Cir.Ir.funcs)
    srcs;
  ( !build,
    !reduce,
    !residual,
    if !leaves = 0 then 0.0 else !readout /. float_of_int !leaves *. 1e6 )

let pbqp_cost_ratio rl scholz =
  Pbqp.Cost.to_float rl /. Pbqp.Cost.to_float scholz

(* Untraced: the 22 programs other than [large], compiled round after
   round (about 3 s a round); [op_ms] is the sum of each program's
   fastest compile.  [quality] is the RL cost sum over the Scholz cost
   sum on all 24 programs (E4). *)
let untraced ctx net srcs ~reference ~scholz =
  let small, big = List.partition (fun (name, _) -> not (List.mem name large)) srcs in
  let n = rounds ~seconds:ctx.seconds ~nominal_s:3.0 in
  let timed = fastest ~both_cpus:true n small (fun (_, src) -> compile net src) in
  List.iter2
    (fun s (os, _) ->
      let first = List.hd os in
      verify s (reference s) first;
      List.iter (fun o -> same_counts (fst s ^ " round") [ first ] [ o ]) os)
    small timed;
  let check_once s =
    let o = compile net (snd s) in
    verify s (reference s) o;
    o
  in
  let big_outcomes = List.map check_once big in
  (* before the seed's programs, whose size the seed decides *)
  let rss = peak_rss_mb () in
  let fuzz = fuzz_programs ~seed:ctx.seed ~tiny:ctx.tiny in
  List.iter (fun s -> ignore (check_once s)) fuzz;
  let outcomes = List.map (fun (os, _) -> List.hd os) timed @ big_outcomes in
  let cycles, spills, evals, rl = totals outcomes in
  let op_s = sum (List.map snd timed) in
  Printf.printf
    "minic-rl: %d programs, %d cycles, %d spills, RL/Scholz cost %.4f, %d leaf \
     evals; %d timed at %.3f s a pass at the fastest of %d rounds; %d seeded \
     programs\n%!"
    (List.length srcs) cycles spills (pbqp_cost_ratio rl scholz) evals
    (List.length small) op_s n (List.length fuzz);
  [
    ("peak_rss_mb", rss);
    ("op_ms", op_s *. 1e3);
    ("throughput_per_s", float_of_int (List.length small) /. op_s);
    ("quality", pbqp_cost_ratio rl scholz);
  ]

(* Traced: all 24 programs once through Driver.run and once stage by
   stage (the counts must agree), the layers inside solve_rl, and the
   seed's extra programs. *)
let traced ctx net srcs ~reference ~scholz =
  let first, pass_s =
    time (fun () -> List.map (fun (_, src) -> compile net src) srcs)
  in
  List.iter2 (fun s o -> verify s (reference s) o) srcs first;
  let fuzz = fuzz_programs ~seed:ctx.seed ~tiny:ctx.tiny in
  let fuzz_s =
    sum
      (List.map
         (fun s ->
           let o, dt = time (fun () -> compile net (snd s)) in
           verify s (reference s) o;
           dt)
         fuzz)
  in
  let cycles, spills, evals, rl = totals first in
  let gap_pct =
    let sc = Pbqp.Cost.to_float scholz in
    100.0 *. (Pbqp.Cost.to_float rl -. sc) /. (Float.abs sc +. 1.0)
  in
  Printf.printf
    "minic-rl: %d programs, %d cycles, %d spills, cost gap %.3f%% vs Scholz, \
     %d leaf evals, %.3f s a pass; %d seeded programs in %.3f s\n%!"
    (List.length srcs) cycles spills gap_pct evals pass_s (List.length fuzz)
    fuzz_s;
  let staged, traced_s =
    time (fun () ->
        span "minic.pass" (fun () ->
            List.map (fun (_, src) -> compile_staged net src) srcs))
  in
  List.iter2 (fun s o -> verify s (reference s) o) srcs staged;
  same_counts "staged" first staged;
  let build_s, reduce_s, residual, readout_us = probes net srcs in
  let f = float_of_int in
  let ms name = (name ^ "_ms", span_total name *. 1e3) in
  [
    ("minic_cycles", f cycles);
    ("minic_cost_gap_pct", gap_pct);
    ("cir.spills", f spills);
    ("nn.leaf_evals", f evals);
    ms "cir.frontend";
    ms "cir.liveness";
    ms "cir.solve_rl";
    ms "cir.validate";
    ms "cir.rewrite";
    ms "cir.msim";
    ("cir.pbqp_build_ms", build_s *. 1e3);
    ("solvers.reduce_ms", reduce_s *. 1e3);
    ("solvers.residual_vertices", f residual);
    ("nn.readout_us", readout_us);
    ("minic.seeded_ms", fuzz_s *. 1e3);
    ("unattributed_share", unattributed_share "minic.pass");
    ("trace_overhead_share", (traced_s /. pass_s) -. 1.0);
  ]

let run ctx =
  let (net, srcs), setup_s =
    setup_median (fun () -> (Nn.Pvnet.load net_path, programs ~tiny:ctx.tiny))
  in
  note_identity "net" (net_path ^ ":" ^ digest_file net_path);
  note_identity "inputs" (digest_strings (List.map snd srcs));
  (* reference outputs, computed when first needed (the seed's programs
     only after the memory high-water mark is read), and the Scholz cost
     baseline, untimed *)
  let outputs = Hashtbl.create 32 in
  let reference (name, src) =
    match Hashtbl.find_opt outputs name with
    | Some o -> o
    | None ->
        let o = (Cir.Driver.reference (Cir.Lower.compile src)).output in
        Hashtbl.add outputs name o;
        o
  in
  let scholz =
    List.fold_left
      (fun acc (_, src) ->
        Pbqp.Cost.add acc
          (cost_of (Cir.Driver.run Pbqp (Cir.Lower.compile src))))
      Pbqp.Cost.zero srcs
  in
  if ctx.traced then traced ctx net srcs ~reference ~scholz
  else
    ("setup_s", setup_s) :: untraced ctx net srcs ~reference ~scholz
