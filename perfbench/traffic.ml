(* Workload daemon-mixed: traffic against a pbqp_serve daemon (2
   workers, the ate_k25 net, the default cache) over 2 pipelined
   connections, one generator thread.  Three request classes in equal
   thirds, the same graphs and programs on every seed; the seed orders
   the schedule:
   - rl:    [pbqp rl] k=12 with backtracking, 12 Erdos-Renyi graphs that
            repeat, so they hit the shared cache and coalesce;
   - hard:  [pbqp rl] k=12 one-way on 24 planted 0/inf graphs, about half
            of which the search does not solve (the same ones every time);
            24 rather than 6, because with 6 the class's latency followed
            how many of the few graphs dead-end early (class medians of
            1.8 ms for one draw and 11 ms for another);
   - minic: [minic pbqp] (Scholz) on the 24 MiniC programs, which skips
            the inference queue and the cache but shares the workers. *)

open Util

let net_path = "bench_cache/ate_k25.ckpt"

(* Offered load of the open loop, requests per second: about a quarter
   of the closed-loop capacity of 2 clients, so that queueing does not
   amplify the host's noise. *)
let rate = 20.0

(* The latency limit a reply must meet to count towards
   [daemon.goodput_share]: twice the p99 measured at [rate] on a 2-core
   host (116-134 ms over 5 runs), so the share falls once the tail
   doubles. *)
let limit_ms = 250.0

(* Closed-loop bursts: each sends every distinct request once, at most
   [depth] in flight; [throughput_per_s] is requests over the fastest
   burst. *)
let bursts = 6
let depth = 4

type cls = Rl | Hard | Minic

let cls_name = function Rl -> "rl" | Hard -> "hard" | Minic -> "minic"

type request = { cls : cls; body : string; req : Serve.Wire.request }

let requests ~tiny =
  let rl_params =
    { Serve.Wire.default_params with solver = "rl"; k = 12; backtrack = true }
  in
  let hard_params = { rl_params with backtrack = false } in
  let rl =
    List.init 12 (fun i ->
        let rng = Random.State.make [| default_seed; 1; i |] in
        let g =
          Pbqp.Generate.erdos_renyi ~rng
            { Pbqp.Generate.default with n = 12 + i; m = 13; p_edge = 0.2 }
        in
        let body = Pbqp.Io.to_string g in
        { cls = Rl; body; req = Serve.Wire.Pbqp (rl_params, body) })
  in
  let hard =
    List.init 24 (fun i ->
        let rng = Random.State.make [| default_seed; 2; i |] in
        let g, _ =
          Pbqp.Generate.planted ~rng
            { Pbqp.Generate.default with n = 24; m = 13; p_edge = 0.3;
              p_inf = 0.8; zero_inf = true }
        in
        let body = Pbqp.Io.to_string g in
        { cls = Hard; body; req = Serve.Wire.Pbqp (hard_params, body) })
  in
  let minic =
    List.map
      (fun (_, src) ->
        { cls = Minic; body = src;
          req =
            Serve.Wire.Minic
              ({ Serve.Wire.default_params with solver = "pbqp" }, src) })
      (if tiny then List.filteri (fun i _ -> i < 2) Cir.Programs.all
       else Cir.Programs.all)
  in
  (Array.of_list rl, Array.of_list hard, Array.of_list minic)

(* [n] requests: classes interleave in equal thirds, each class going
   through its inputs in cycles, every cycle in its own seeded order. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let schedule_of ~rng (rl, hard, minic) n =
  let stream a =
    let queue = ref [] in
    fun () ->
      if !queue = [] then queue := Array.to_list (shuffle rng a);
      match !queue with
      | r :: rest ->
          queue := rest;
          r
      | [] -> assert false
  in
  let streams = [| stream rl; stream hard; stream minic |] in
  Array.init n (fun i -> streams.(i mod 3) ())

(* --- the daemon process --------------------------------------------- *)

type daemon = { pid : int; sock : string }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let call fd id req =
  Serve.Wire.write_frame fd
    (Serve.Wire.request_to_string { Serve.Wire.id; req });
  match Serve.Wire.read_frame fd with
  | None -> failwith "daemon closed the connection"
  | Some text -> (
      match Serve.Wire.reply_of_string text with
      | Ok (_, r) -> r
      | Error e -> failwith ("malformed reply: " ^ e))

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let start ctx =
  let sock = Filename.concat ctx.out_dir "serve.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat ctx.out_dir "serve.log")
      [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process ctx.serve_exe
      [| ctx.serve_exe; "daemon"; "--socket"; sock; "--workers"; "2";
         "--net"; net_path |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; sock } in
  let t0 = now () in
  let rec wait () =
    match connect sock with
    | fd ->
        let r = call fd 0 Serve.Wire.Ping in
        Unix.close fd;
        if r <> Serve.Wire.Pong then failwith "daemon did not answer ping"
    | exception Unix.Unix_error _ ->
        if fst (Unix.waitpid [ WNOHANG ] pid) <> 0 then
          failwith "daemon exited before it answered ping";
        if now () -. t0 > 60.0 then begin
          stop d;
          failwith "daemon did not start"
        end;
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

let stats fd id =
  match call fd id Serve.Wire.Stats with
  | Serve.Wire.Stats_reply kvs -> kvs
  | _ -> failwith "bad stats reply"

let stat kvs k =
  match List.assoc_opt k kvs with
  | Some v -> Option.value (float_of_string_opt v) ~default:0.0
  | None -> 0.0

(* --- sending ----------------------------------------------------------- *)

type sample = {
  input : request;
  due : float;
  sent : float;
  replied : float;
  reply : Serve.Wire.reply;
}

let stats_id = 1 lsl 30

(* Send [reqs], request [i] on connection [i mod 2] at [due i] (or, with
   [depth], as soon as fewer than [depth] are in flight), reading replies
   as they come.  With [traced], encoding and decoding are spans and the
   daemon's queue depth is sampled every 100 ms on connection 0.
   Returns the replies in request order, the sampled queue-depth maximum
   and the wall time from the first due time. *)
let send ?(traced = false) ?depth ~due reqs fds =
  let n = Array.length reqs in
  let t_start = due 0 in
  let sent = Array.make n 0.0 in
  let samples = ref [] and depth_max = ref 0.0 in
  let outstanding = ref 0 and next = ref 0 in
  let next_sample = ref t_start in
  let encode env =
    let f () = Serve.Wire.request_to_string env in
    if traced then span "serve.encode" f else f ()
  in
  let decode text =
    let f () = Serve.Wire.reply_of_string text in
    if traced then span "serve.decode" f else f ()
  in
  let may_send t =
    !next < n
    &&
    match depth with
    | Some d -> !outstanding < d
    | None -> t >= due !next
  in
  let give_up = due (n - 1) +. 120.0 in
  while !next < n || !outstanding > 0 do
    let t = now () in
    if t > give_up then failwith "daemon replies did not drain";
    if may_send t then begin
      let i = !next in
      let text = encode { Serve.Wire.id = i + 1; req = reqs.(i).req } in
      sent.(i) <- now ();
      Serve.Wire.write_frame fds.(i mod 2) text;
      incr next;
      incr outstanding
    end
    else if traced && t >= !next_sample then begin
      next_sample := t +. 0.1;
      Serve.Wire.write_frame fds.(0)
        (Serve.Wire.request_to_string { id = stats_id; req = Serve.Wire.Stats });
      incr outstanding
    end
    else begin
      let wake =
        if !next < n && depth = None then due !next else t +. 0.5
      in
      let wake = if traced then Float.min wake !next_sample else wake in
      let timeout = Float.max 0.0 (wake -. t) in
      let ready, _, _ =
        try Unix.select (Array.to_list fds) [] [] timeout
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match Serve.Wire.read_frame fd with
          | None -> failwith "daemon closed the connection"
          | Some text -> (
              let replied = now () in
              decr outstanding;
              match decode text with
              | Error e -> failwith ("malformed reply: " ^ e)
              | Ok (id, Serve.Wire.Stats_reply kvs) when id = stats_id ->
                  depth_max := Float.max !depth_max (stat kvs "queue_depth")
              | Ok (id, reply) ->
                  let i = id - 1 in
                  let due = if depth = None then due i else sent.(i) in
                  samples :=
                    (i, { input = reqs.(i); due; sent = sent.(i); replied; reply })
                    :: !samples))
        ready
    end
  done;
  let samples = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !samples) in
  (samples, !depth_max, now () -. t_start)

(* --- checks ----------------------------------------------------------- *)

let graphs = Hashtbl.create 16

let graph_of body =
  match Hashtbl.find_opt graphs body with
  | Some g -> g
  | None ->
      let g = Pbqp.Io.of_string body in
      Hashtbl.add graphs body g;
      g

(* Re-certify a solution reply against its request body, compare a
   compiled reply with the reference interpreter, and require identical
   requests to get identical replies. *)
let verify ~reference samples =
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i s ->
      let r = s.input in
      let what = Printf.sprintf "request %d (%s)" i (cls_name r.cls) in
      let reply =
        match s.reply with
        | Serve.Wire.Solution x when take_fault () ->
            Serve.Wire.Solution { x with cost = "1e9" }
        | reply -> reply
      in
      (match (r.cls, reply) with
      | (Rl | Hard), Serve.Wire.Solution { cost; assignment; _ } ->
          let g = graph_of r.body in
          let ok =
            match
              ( Pbqp.Cost.of_string cost,
                Pbqp.Io.solution_of_string assignment )
            with
            | reported, sol ->
                (* the wire prints costs with %g, 6 significant digits *)
                not
                  (Check.Diag.has_errors
                     (Check.Certify.solution ~eps:1e-5 ~reported g sol))
            | exception _ -> false
          in
          check ok (what ^ ": solution fails Check.Certify")
      | (Rl | Hard), Serve.Wire.No_solution _ -> check true what
      | Minic, Serve.Wire.Compiled { output; _ } ->
          check
            (output = String.concat "\n" (Hashtbl.find reference r.body))
            (what ^ ": compiled output differs from Cir.Interp")
      | _, _ -> check false (what ^ ": unexpected reply"));
      match Hashtbl.find_opt seen r.body with
      | None -> Hashtbl.add seen r.body reply
      | Some first ->
          if first <> reply then
            check false (what ^ ": reply differs from an identical request's"))
    samples

let latency s = (s.replied -. s.due) *. 1e3

let no_solutions samples =
  List.length
    (List.filter
       (fun s -> match s.reply with Serve.Wire.No_solution _ -> true | _ -> false)
       samples)

(* Each distinct request's fastest latency. *)
let fastest_latency samples =
  let best = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l = latency s in
      match Hashtbl.find_opt best s.input.body with
      | Some b when b <= l -> ()
      | _ -> Hashtbl.replace best s.input.body l)
    samples;
  Hashtbl.fold (fun _ l acc -> l :: acc) best []

(* RL cost over Scholz cost, summed over the distinct class-rl graphs:
   the quality of the daemon's search.  A class-rl graph left without a
   solution makes it infinite. *)
let cost_ratio samples =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.input.cls = Rl && not (Hashtbl.mem seen s.input.body) then
        Hashtbl.add seen s.input.body
          (match s.reply with
          | Serve.Wire.Solution { cost; _ } ->
              Pbqp.Cost.to_float (Pbqp.Cost.of_string cost)
          | _ -> Float.infinity))
    samples;
  let rl, scholz =
    Hashtbl.fold
      (fun body c (rl, sc) ->
        let _, reference, _ = Solvers.Scholz.solve_with_cost (graph_of body) in
        (rl +. c, sc +. Pbqp.Cost.to_float reference))
      seen (0.0, 0.0)
  in
  rl /. scholz

(* A fresh daemon for [f fds] on two connections: [f]'s result, the
   daemon's stats before and after, and its peak RSS. *)
let session ctx f =
  let d = start ctx in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let fds = [| connect d.sock; connect d.sock |] in
  Fun.protect ~finally:(fun () -> Array.iter Unix.close fds) @@ fun () ->
  let s0 = stats fds.(0) stats_id in
  let r = f fds in
  let s1 = stats fds.(0) stats_id in
  (r, s0, s1, peak_rss_mb ~pid:(string_of_int d.pid) ())

(* The open loop: [n] requests in the seed's order at [rate]. *)
let open_loop ?traced ~rng inputs n fds =
  let reqs = schedule_of ~rng inputs n in
  let t_start = now () +. 0.05 in
  send ?traced ~due:(fun i -> t_start +. (float_of_int i /. rate)) reqs fds

(* Untraced: three quarters of the time an open loop at [rate], then
   [bursts] closed-loop bursts over every distinct request in the seed's
   order, on one daemon.  [op_ms] is the mean over distinct requests of
   each one's fastest open-loop latency. *)
let untraced ctx inputs ~reference =
  let rng = Random.State.make [| ctx.seed |] in
  let rl, hard, minic = inputs in
  let distinct = Array.concat [ rl; hard; minic ] in
  let n = max 6 (int_of_float (rate *. ctx.seconds *. 0.75)) in
  let (samples, burst_s), _, _, daemon_rss =
    session ctx (fun fds ->
        let samples, _, _ = open_loop ~rng inputs n fds in
        let burst_s =
          List.init bursts (fun _ ->
              let samples, _, wall =
                send ~depth ~due:(fun _ -> now ()) (shuffle rng distinct) fds
              in
              verify ~reference samples;
              wall)
        in
        (samples, burst_s))
  in
  verify ~reference samples;
  let fastest = fastest_latency samples in
  let op_ms = sum fastest /. float_of_int (List.length fastest) in
  let burst = List.fold_left Float.min Float.infinity burst_s in
  let quality = cost_ratio samples in
  Printf.printf
    "daemon-mixed: %d requests at %.0f/s, p50 %.2f ms, p99 %.2f ms, mean \
     fastest %.2f ms over %d distinct; %d requests a burst, fastest %.3f s; \
     RL/Scholz cost %.4f\n%!"
    n rate (median (List.map latency samples))
    (percentile 99.0 (List.map latency samples)) op_ms (List.length fastest)
    (Array.length distinct) burst quality;
  [
    ("peak_rss_mb", peak_rss_mb () +. daemon_rss);
    ("op_ms", op_ms);
    ("throughput_per_s", float_of_int (Array.length distinct) /. burst);
    ("quality", quality);
  ]

(* Traced: half the time an untraced open loop, half a traced one, each
   on a fresh daemon, in the same order. *)
let traced ctx inputs ~reference =
  let n = max 6 (int_of_float (rate *. ctx.seconds /. 2.0)) in
  let loop traced =
    let rng = Random.State.make [| ctx.seed |] in
    let (samples, depth, _), t0, t1, _ =
      session ctx (open_loop ~traced ~rng inputs n)
    in
    verify ~reference samples;
    (samples, depth, t0, t1)
  in
  let samples, _, _, _ = loop false in
  let tsamples, depth, t0, t1 = loop true in
  let no_solution = no_solutions samples in
  same_count "traced no-solution replies" no_solution (no_solutions tsamples);
  let lat = List.map latency samples and tlat = List.map latency tsamples in
  let delta k = stat t1 k -. stat t0 k in
  let class_p50 c =
    median
      (List.filter_map
         (fun s -> if s.input.cls = c then Some (latency s) else None)
         samples)
  in
  let per name =
    let k = span_count name in
    if k = 0 then 0.0 else span_total name /. float_of_int k *. 1e6
  in
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  (* the generator sees a request's lateness, encoding and decoding; the
     rest of its latency is spent in the daemon, which no span of this
     runner can split *)
  let covered =
    sum (List.map (fun s -> s.sent -. s.due) tsamples)
    +. span_total "serve.encode" +. span_total "serve.decode"
  in
  let within = List.filter (fun l -> l <= limit_ms) lat in
  [
    ("daemon_failed_share", float_of_int no_solution /. float_of_int n);
    ("daemon.p50_ms", median lat);
    ("daemon.p99_ms", percentile 99.0 lat);
    ( "daemon.goodput_share",
      float_of_int (List.length within) /. float_of_int n );
    ("daemon.rl_p50_ms", class_p50 Rl);
    ("daemon.hard_p50_ms", class_p50 Hard);
    ("daemon.minic_p50_ms", class_p50 Minic);
    ( "daemon.gen_late_p99_ms",
      percentile 99.0 (List.map (fun s -> (s.sent -. s.due) *. 1e3) samples) );
    ( "nn.infer_rows_per_batch",
      let b = delta "infer_batches" in
      if b > 0.0 then delta "infer_rows" /. b else 0.0 );
    ("nn.infer_wait_p50_us", stat t1 "infer_wait_p50_us");
    ("nn.infer_wait_p99_us", stat t1 "infer_wait_p99_us");
    ( "nn.cache_hit_rate",
      if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
    ("serve.queue_depth_max", depth);
    ("serve.overloads", delta "overloads");
    ("serve.encode_us", per "serve.encode");
    ("serve.decode_us", per "serve.decode");
    ( "unattributed_share",
      Float.max 0.0 (1.0 -. (covered /. (sum tlat *. 1e-3))) );
    ("trace_overhead_share", (median tlat /. median lat) -. 1.0);
  ]

let run ctx =
  (* set-up: start a daemon until it answers ping, then stop it *)
  let inputs, setup_s =
    setup_median (fun () ->
        let inputs = requests ~tiny:ctx.tiny in
        stop (start ctx);
        inputs)
  in
  let rl, hard, minic = inputs in
  note_identity "net" (net_path ^ ":" ^ digest_file net_path);
  note_identity "inputs"
    (digest_strings
       (List.map (fun r -> r.body)
          (Array.to_list rl @ Array.to_list hard @ Array.to_list minic)));
  let reference = Hashtbl.create 32 in
  Array.iter
    (fun r ->
      Hashtbl.replace reference r.body
        (Cir.Driver.reference (Cir.Lower.compile r.body)).output)
    minic;
  if ctx.traced then traced ctx inputs ~reference
  else ("setup_s", setup_s) :: untraced ctx inputs ~reference
