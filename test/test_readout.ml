(* The GCN readout equivalence suite: [Pvnet.prepare]'s flat CSR kernel
   against the row-level oracle below, compared bit for bit
   ([Int64.bits_of_float], so NaN and ±0 count by pattern).

   The oracle is the plain-tensor readout the kernel replaced: per-layer
   Hashtbl feature tables, sorted [Graph.neighbors] lists, one
   [Tensor.mv] per edge accumulated with [add_into] and scaled by
   [1/deg], GEMMs through [Tensor.matmul] + bias, and the global mean
   accumulated in vertex order.  It reads the weights through
   [Pvnet.params] and recomputes every message matrix from the graph, so
   it shares no cache with the kernel. *)

open Pbqp
open Testutil

(* --- The oracle ------------------------------------------------------ *)

let phi scale c =
  if Cost.is_inf c then 0.0 else 1.0 /. (1.0 +. (Cost.to_float c /. scale))

let param net name =
  match
    List.find_opt (fun (v : Nn.Var.t) -> v.Nn.Var.name = name) (Nn.Pvnet.params net)
  with
  | Some v -> v.Nn.Var.value
  | None -> Alcotest.failf "no parameter %s" name

(* rows(x) ↦ rows(x) Wᵀ + b *)
let linear_rows net name x =
  let y = Tensor.matmul x (Tensor.transpose (param net (name ^ ".w"))) in
  let b = param net (name ^ ".b") in
  let r, c = Tensor.dims2 y in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Tensor.set2 y i j (Tensor.get2 y i j +. Tensor.get1 b j)
    done
  done;
  y

let relu_t x = Tensor.map (fun v -> if v > 0.0 then v else 0.0) x

let oracle_row net g ~next =
  let cfg = Nn.Pvnet.config net in
  let m = cfg.Nn.Pvnet.m and scale = cfg.Nn.Pvnet.cost_scale in
  let vertex_features vec = Tensor.init1 m (fun i -> phi scale (Vec.get vec i)) in
  let message_matrix mat =
    Tensor.init2 m m (fun i j -> phi scale (Mat.get mat i j) /. float_of_int m)
  in
  let verts = Graph.vertices g in
  let h = Hashtbl.create (List.length verts) in
  List.iter (fun u -> Hashtbl.replace h u (vertex_features (Graph.cost g u))) verts;
  for l = 0 to cfg.Nn.Pvnet.gcn_layers - 1 do
    let hmat = Tensor.zeros [| List.length verts; m |] in
    List.iteri (fun i v -> Tensor.blit_row_into (Hashtbl.find h v) i hmat) verts;
    let selfs = linear_rows net (Printf.sprintf "gcn%d.self" l) hmat in
    let msgs =
      List.filter_map
        (fun v ->
          match Graph.neighbors g v with
          | [] -> None
          | ns ->
              let acc = Tensor.zeros [| m |] in
              List.iter
                (fun u ->
                  let mvu = Option.get (Graph.edge_ref g v u) in
                  Tensor.add_into acc
                    (Tensor.mv (message_matrix mvu) (Hashtbl.find h u)))
                ns;
              Some (v, Tensor.scale (1.0 /. float_of_int (List.length ns)) acc))
        verts
    in
    let transformed = Hashtbl.create 16 in
    (match msgs with
    | [] -> ()
    | _ ->
        let tmat =
          linear_rows net (Printf.sprintf "gcn%d.msg" l)
            (Tensor.stack_rows (List.map snd msgs))
        in
        List.iteri
          (fun i (v, _) -> Hashtbl.replace transformed v (Tensor.row tmat i))
          msgs);
    let h' = Hashtbl.create (List.length verts) in
    List.iteri
      (fun i v ->
        let self = Tensor.row selfs i in
        let combined =
          match Hashtbl.find_opt transformed v with
          | Some msg -> Tensor.add self msg
          | None -> self
        in
        Hashtbl.replace h' v (relu_t combined))
      verts;
    Hashtbl.reset h;
    List.iter (fun v -> Hashtbl.replace h v (Hashtbl.find h' v)) verts
  done;
  let global =
    let k = float_of_int (List.length verts) in
    let acc = Tensor.zeros [| m |] in
    List.iter (fun v -> Tensor.add_into acc (Hashtbl.find h v)) verts;
    Tensor.scale (1.0 /. k) acc
  in
  Tensor.concat1 [ Hashtbl.find h next; global; vertex_features (Graph.cost g next) ]

(* --- Comparison ------------------------------------------------------ *)

let kernel_row net g ~next = Nn.Pvnet.prepared_row (Nn.Pvnet.prepare net g ~next)

let check_row ~what net g ~next =
  let want = oracle_row net g ~next and got = kernel_row net g ~next in
  if not (tensor_bits_equal want got) then
    Alcotest.failf "%s, next=%d: readout row differs from the oracle@.want %a@.got  %a"
      what next Tensor.pp want Tensor.pp got

(* every live vertex as the next one *)
let check_graph ~what net g =
  List.iter (fun next -> check_row ~what net g ~next) (Graph.vertices g)

let nets = Hashtbl.create 8

let net_for ?(gcn_layers = 2) m =
  match Hashtbl.find_opt nets (m, gcn_layers) with
  | Some n -> n
  | None ->
      let n =
        Nn.Pvnet.create ~rng:(rng (1000 + (7 * m) + gcn_layers))
          { (Nn.Pvnet.default_config ~m) with gcn_layers }
      in
      Hashtbl.replace nets (m, gcn_layers) n;
      n

let erdos ~seed ~n ~m ~p_edge ~p_inf ~zero_inf =
  Generate.erdos_renyi ~rng:(rng seed)
    { Generate.n; m; p_edge; p_inf; cost_max = 10.0; zero_inf; min_liberty = 1 }

(* --- Properties over graph families ---------------------------------- *)

let layers_gen = QCheck.Gen.oneofl [ 1; 2; 3 ]

(* Spill-family graphs: finite costs only, every entry a spill weight. *)
let prop_spill =
  qtest ~count:150 "spill-family graphs = oracle"
    (QCheck.make
       ~print:(fun (s, l) -> Printf.sprintf "seed=%d layers=%d" s l)
       QCheck.Gen.(pair (int_bound 1_000_000) layers_gen))
    (fun (seed, layers) ->
      let r = rng seed in
      let m = 1 + Random.State.int r 6 and n = 1 + Random.State.int r 14 in
      let g =
        erdos ~seed ~n ~m ~p_edge:(Random.State.float r 1.0) ~p_inf:0.0
          ~zero_inf:false
      in
      check_graph ~what:"spill" (net_for ~gcn_layers:layers m) g;
      true)

(* ATE-style 0/∞ graphs at m = 13: most features are exact zeros, the
   case the zero-skip is for. *)
let prop_ate =
  qtest ~count:60 "ATE 0/inf graphs at m=13 = oracle"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let r = rng seed in
      let n = 1 + Random.State.int r 30 in
      let g =
        erdos ~seed ~n ~m:13 ~p_edge:(Random.State.float r 0.6) ~p_inf:0.4
          ~zero_inf:true
      in
      check_graph ~what:"ate" (net_for 13) g;
      true)

(* Coalescing-credit graphs at m = 9 with credits on both sides of the
   φ pole (c = -cost_scale) and exactly on it. *)
let credit_graph ~seed ~n ~m ~scale =
  let r = rng seed in
  let g = Graph.create ~m ~n in
  for u = 0 to n - 1 do
    Graph.set_cost g u
      (Vec.init m (fun i ->
           if i < m - 1 && Random.State.int r 3 = 0 then Cost.inf
           else float_of_int (Random.State.int r 20)))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.int r 3 = 0 then
        Graph.add_edge g u v
          (Mat.init ~rows:m ~cols:m (fun i j ->
               if i = j && i < m - 1 then
                 match Random.State.int r 4 with
                 | 0 -> Cost.inf
                 | 1 -> -.scale
                 | 2 -> -.(scale *. (1.0 +. Random.State.float r 3.0))
                 | _ -> -.Random.State.float r scale
               else if Random.State.int r 5 = 0 then Cost.inf
               else 0.0))
    done
  done;
  g

let prop_credits =
  qtest ~count:100 "coalescing-credit graphs at m=9 = oracle"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let net = net_for 9 in
      let scale = (Nn.Pvnet.config net).Nn.Pvnet.cost_scale in
      let n = 1 + (seed mod 16) in
      check_graph ~what:"credits" net (credit_graph ~seed ~n ~m:9 ~scale);
      true)

(* --- Real workload graphs -------------------------------------------- *)

(* MiniC residuals after R0/R1/R2: the register allocator's graphs,
   coalescing credits included, at m = 9. *)
let test_minic_residuals () =
  let net = net_for Cir.Alloc_pbqp.num_colors in
  let graphs = ref 0 in
  List.iter
    (fun (name, src) ->
      let ir = Cir.Lower.compile src in
      List.iter
        (fun f ->
          let built = Cir.Alloc_pbqp.build (Cir.Liveness.analyze f) in
          let res, _ = Solvers.Scholz.reduce_exact built.Cir.Alloc_pbqp.graph in
          if Graph.n_alive res > 0 then begin
            incr graphs;
            check_graph ~what:name net res
          end)
        ir.Cir.Ir.funcs)
    Cir.Programs.all;
  Alcotest.(check bool) "some residual graphs" true (!graphs > 0)

(* PRO1/PRO2's PBQP graphs at the default machine's m, walked down a
   persistent State.apply chain: every prefix state (dead vertices,
   folded cost vectors, the same topology stamp) against the oracle. *)
let test_pro_state_chain () =
  List.iter
    (fun k ->
      let info = Ate.Program.analyze_exn (Ate.Progen.pro k) in
      let g = (Ate.Pbqp_build.build Ate.Machine.default info).Ate.Pbqp_build.graph in
      let net = net_for (Graph.m g) in
      let r = rng k in
      let rec walk st depth =
        match Core.State.next_vertex st with
        | None -> ()
        | Some v ->
            let gs = Core.State.graph st in
            if depth mod 3 = 0 then check_graph ~what:"pro chain" net gs
            else check_row ~what:"pro chain" net gs ~next:v;
            let legal =
              List.filter (Core.State.legal st) (List.init (Graph.m gs) Fun.id)
            in
            if legal <> [] then
              walk
                (Core.State.apply st
                   (List.nth legal (Random.State.int r (List.length legal))))
                (depth + 1)
      in
      walk (Core.State.of_graph g) 0)
    [ 1; 2 ]

(* --- Edge shapes ----------------------------------------------------- *)

let test_single_and_isolated () =
  let net = net_for 4 in
  let g = Graph.create ~m:4 ~n:1 in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; Cost.inf; 0.0; 3.0 |]);
  check_graph ~what:"single vertex" net g;
  (* isolated vertices among connected ones, ids interleaved so the
     kernel's neighbour-first row order differs from id order *)
  let g = Graph.create ~m:4 ~n:6 in
  for u = 0 to 5 do
    Graph.set_cost g u (Vec.init 4 (fun i -> float_of_int ((u * 3) + i)))
  done;
  Graph.add_edge g 1 4
    (Mat.init ~rows:4 ~cols:4 (fun i j -> if i = j then Cost.inf else 1.0));
  Graph.add_edge g 3 4 (Mat.init ~rows:4 ~cols:4 (fun i j -> float_of_int (i + j)));
  check_graph ~what:"isolated vertices" net g;
  (* all isolated *)
  let g = Graph.create ~m:4 ~n:3 in
  check_graph ~what:"no edges" net g

(* The φ pole: a credit of exactly -cost_scale makes the message block
   entry +∞; next to a neighbour feature of exactly 0 (an ∞ cost) the
   tape computes ∞·0 = NaN, and the relu turns the NaN row into zeros.
   A zero-skip without the block-finiteness guard drops that term and
   returns a finite embedding instead.  One GCN layer keeps the effect
   on vertex 0's embedding visible in the readout row. *)
let test_pole_next_to_zero () =
  let m = 9 in
  let net = net_for ~gcn_layers:1 m in
  let scale = (Nn.Pvnet.config net).Nn.Pvnet.cost_scale in
  let g = Graph.create ~m ~n:3 in
  Graph.set_cost g 0 (Vec.init m (fun i -> float_of_int i));
  (* vertex 1's color 2 is inadmissible: its feature is exactly 0 *)
  Graph.set_cost g 1 (Vec.init m (fun i -> if i = 2 then Cost.inf else 1.0));
  Graph.set_cost g 2 (Vec.init m (fun i -> float_of_int (m - i)));
  (* the credit sits at (color 0 of vertex 0, color 2 of vertex 1) *)
  Graph.add_edge g 0 1
    (Mat.init ~rows:m ~cols:m (fun i j -> if i = 0 && j = 2 then -.scale else 0.0));
  Graph.add_edge g 1 2
    (Mat.init ~rows:m ~cols:m (fun i j -> if i = j then -1.0 else 0.0));
  Alcotest.(check bool) "phi(-cost_scale)/m is +inf" true
    (phi scale (-.scale) /. float_of_int m = infinity);
  check_graph ~what:"pole next to zero" net g;
  (* today's encoding: vertex 0's NaN message row comes out of the relu
     as +0 everywhere *)
  let row = oracle_row net g ~next:0 in
  for i = 0 to m - 1 do
    Alcotest.(check bool) "h_0 flattened to +0" true (bits_eq (Tensor.get1 row i) 0.0)
  done

(* --- Trail states ---------------------------------------------------- *)

(* Istate cursor seeks: cursors scattered over a random move tree, then
   visited in a shuffled order so the trail pops and replays between
   queries.  The deepest leaf is visited first, so the structure cache
   is built over a small live set and the later shallower leaves revive
   vertices it never saw (the cache must rebuild, not reuse). *)
let prop_istate_seeks =
  qtest ~count:40 "Istate cursor seeks = oracle"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let r = rng seed in
      let m = 2 + Random.State.int r 4 and n = 4 + Random.State.int r 10 in
      let g =
        erdos ~seed ~n ~m ~p_edge:(0.2 +. Random.State.float r 0.6) ~p_inf:0.2
          ~zero_inf:(Random.State.bool r)
      in
      let net = net_for m in
      let ist = Core.Istate.of_graph g in
      let root = Core.Istate.Cursor.root ist in
      let cursors = ref [ root ] in
      for _ = 1 to 12 do
        let rec descend c =
          if Core.Istate.Cursor.is_terminal c || Random.State.int r 4 = 0 then c
          else
            let legal =
              List.filter (Core.Istate.Cursor.legal c) (List.init m Fun.id)
            in
            match legal with
            | [] -> c
            | _ ->
                descend
                  (Core.Istate.Cursor.apply c
                     (List.nth legal (Random.State.int r (List.length legal))))
        in
        cursors := descend root :: !cursors
      done;
      let deepest =
        List.fold_left
          (fun a c ->
            if Core.Istate.Cursor.depth c > Core.Istate.Cursor.depth a then c else a)
          root !cursors
      in
      let shuffled =
        List.map (fun c -> (Random.State.bits r, c)) !cursors
        |> List.sort compare |> List.map snd
      in
      List.iter
        (fun c ->
          match Core.Istate.Cursor.next_vertex c with
          | None -> ()
          | Some next ->
              let gc = Core.Istate.Cursor.graph c in
              check_row ~what:"istate" net gc ~next;
              (* a second live vertex of the same leaf *)
              List.iter
                (fun v -> check_row ~what:"istate" net gc ~next:v)
                (List.filteri (fun i _ -> i < 2) (Graph.vertices gc)))
        (deepest :: shuffled);
      true)

(* --- Allocation and memory bounds ------------------------------------ *)

(* After warm-up a leaf allocates only its result (readout row, mask
   copy, record): the minor words per prepare are the same at n = 36 and
   n = 248. *)
let test_alloc_independent_of_size () =
  let m = 13 in
  let net = net_for m in
  let per_leaf n ~p_edge =
    let g = erdos ~seed:(500 + n) ~n ~m ~p_edge ~p_inf:0.3 ~zero_inf:true in
    let verts = Array.of_list (Graph.vertices g) in
    for i = 0 to 3 do
      ignore (Nn.Pvnet.prepare net g ~next:verts.(i mod Array.length verts))
    done;
    let calls = 32 in
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      ignore
        (Sys.opaque_identity
           (Nn.Pvnet.prepare net g ~next:verts.(i mod Array.length verts)))
    done;
    let w1 = Gc.minor_words () in
    (w1 -. w0) /. float_of_int calls
  in
  let small = per_leaf 36 ~p_edge:0.3 and big = per_leaf 248 ~p_edge:0.06 in
  Alcotest.(check (float 0.0)) "minor words per leaf, n=36 vs n=248" small big;
  (* the result (a 3m row, an m-vector copy, the record) plus a constant
     overhead of option and closure blocks — where the Hashtbl readout
     allocated an m-vector per edge per layer *)
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per leaf is result-sized" small)
    true
    (small < float_of_int ((4 * m) + 128))

(* Streaming fresh graphs through one replica's autodiff forward keeps
   its message cache under the byte budget (it resets instead of
   growing), and the resets never change a prediction. *)
let test_msg_cache_budget () =
  let m = 24 in
  let net =
    Nn.Pvnet.create ~rng:(rng 77) { (Nn.Pvnet.default_config ~m) with gcn_layers = 1 }
  in
  let fresh = Nn.Pvnet.clone net in
  let first = erdos ~seed:900 ~n:40 ~m ~p_edge:0.3 ~p_inf:0.1 ~zero_inf:false in
  let verts = Graph.vertices first in
  let predict_all net = List.map (fun v -> Nn.Pvnet.predict net first ~next:v) verts in
  let before = predict_all net in
  let streamed = ref 0 and resets = ref 0 and last = ref 0 in
  for i = 1 to 24 do
    let g = erdos ~seed:(900 + i) ~n:60 ~m ~p_edge:0.15 ~p_inf:0.1 ~zero_inf:false in
    streamed := !streamed + (2 * Graph.edge_count g);
    let v = List.hd (Graph.vertices g) in
    ignore (Nn.Pvnet.predict net g ~next:v);
    if i mod 6 = 0 then check_row ~what:"streamed" net g ~next:v;
    let b = Nn.Pvnet.message_cache_bytes net in
    if b < !last then incr resets;
    last := b;
    if b > Nn.Pvnet.msg_cache_budget then
      Alcotest.failf "message cache at %d bytes, budget %d" b
        Nn.Pvnet.msg_cache_budget
  done;
  Alcotest.(check bool) "streamed past the budget" true
    (!streamed * (8 * ((m * m) + 11)) > 2 * Nn.Pvnet.msg_cache_budget);
  Alcotest.(check bool) "the cache reset at least once" true (!resets > 0);
  let same what (p, v) (p', v') =
    Alcotest.(check bool) (what ^ ": value bitwise equal") true (bits_eq v v');
    Array.iteri
      (fun c x ->
        Alcotest.(check bool) (what ^ ": prior bitwise equal") true (bits_eq x p'.(c)))
      p
  in
  List.iter2 (same "after the resets") (predict_all net) before;
  List.iter2 (same "fresh replica") (predict_all fresh) before;
  (* the batched path agrees as well *)
  Array.iteri
    (fun i r -> same "predict_batch" r (List.nth before i))
    (Nn.Pvnet.predict_batch net (List.map (fun v -> (first, v)) verts))

(* The readout arena follows the graph last read: after a PRO10-sized
   graph, a small one shrinks it to what a replica that only ever read
   the small graph holds, and the rows stay bit-identical. *)
let test_readout_arena_shrinks () =
  let m = 13 in
  let net = net_for m in
  let fresh = Nn.Pvnet.clone net in
  let big = erdos ~seed:610 ~n:248 ~m ~p_edge:0.06 ~p_inf:0.3 ~zero_inf:true in
  let small = erdos ~seed:611 ~n:12 ~m ~p_edge:0.3 ~p_inf:0.3 ~zero_inf:true in
  let next g = List.hd (Graph.vertices g) in
  ignore (Nn.Pvnet.prepare net big ~next:(next big));
  let big_bytes = Nn.Pvnet.readout_bytes net in
  check_row ~what:"after big" net small ~next:(next small);
  ignore (Nn.Pvnet.prepare fresh small ~next:(next small));
  let small_bytes = Nn.Pvnet.readout_bytes fresh in
  Alcotest.(check int) "arena after big then small = small only" small_bytes
    (Nn.Pvnet.readout_bytes net);
  Alcotest.(check bool)
    (Printf.sprintf "big graph arena (%d B) dwarfs the small one (%d B)"
       big_bytes small_bytes)
    true
    (big_bytes > 20 * small_bytes);
  (* and it grows back for the next big graph *)
  check_row ~what:"big again" net big ~next:(next big)

let () =
  Alcotest.run "readout"
    [
      ( "families",
        [
          prop_spill;
          prop_ate;
          prop_credits;
          Alcotest.test_case "MiniC residuals (m=9)" `Quick test_minic_residuals;
          Alcotest.test_case "PRO1/PRO2 State.apply chains" `Quick
            test_pro_state_chain;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "single and isolated vertices" `Quick
            test_single_and_isolated;
          Alcotest.test_case "phi pole next to a zero feature" `Quick
            test_pole_next_to_zero;
          prop_istate_seeks;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "allocation independent of graph size" `Quick
            test_alloc_independent_of_size;
          Alcotest.test_case "message cache byte budget" `Quick
            test_msg_cache_budget;
          Alcotest.test_case "readout arena follows the graph" `Quick
            test_readout_arena_shrinks;
        ] );
    ]
