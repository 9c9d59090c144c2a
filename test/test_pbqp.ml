(* Tests for the PBQP core library: costs, vectors, matrices, graphs,
   solutions, random generation, serialization. *)

open Pbqp
open Testutil

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_algebra () =
  Alcotest.(check bool) "inf is inf" true (Cost.is_inf Cost.inf);
  Alcotest.(check bool) "zero is finite" true (Cost.is_finite Cost.zero);
  Alcotest.check cost_exact "inf + x" Cost.inf (Cost.add Cost.inf 3.0);
  Alcotest.check cost_exact "x + inf" Cost.inf (Cost.add 3.0 Cost.inf);
  Alcotest.check cost_exact "min inf x" 3.0 (Cost.min Cost.inf 3.0);
  Alcotest.check cost_exact "min x inf" 3.0 (Cost.min 3.0 Cost.inf);
  Alcotest.(check int) "compare inf greatest" 1 (Cost.compare Cost.inf 1e30);
  Alcotest.(check bool) "inf equals inf" true (Cost.equal Cost.inf Cost.inf)

let test_cost_string () =
  Alcotest.(check string) "inf prints" "inf" (Cost.to_string Cost.inf);
  Alcotest.(check string) "int prints" "5" (Cost.to_string 5.0);
  Alcotest.check cost_exact "parse inf" Cost.inf (Cost.of_string "inf");
  Alcotest.check cost "parse float" 2.5 (Cost.of_string "2.5");
  Alcotest.check_raises "parse garbage"
    (Invalid_argument "Cost.of_string: \"zork\"") (fun () ->
      ignore (Cost.of_string "zork"));
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Cost.of_float: NaN")
    (fun () -> ignore (Cost.of_float Float.nan))

let test_cost_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.check cost "roundtrip" c (Cost.of_string (Cost.to_string c)))
    [ 0.0; 1.5; 1234.0; Cost.inf; 0.333333 ]

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basics () =
  let v = Vec.of_array [| 1.0; Cost.inf; 3.0 |] in
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.check cost_exact "get" Cost.inf (Vec.get v 1);
  Alcotest.(check int) "liberty" 2 (Vec.liberty v);
  Alcotest.(check (list int)) "finite indices" [ 0; 2 ] (Vec.finite_indices v);
  Alcotest.check cost "min" 1.0 (Vec.min_value v);
  Alcotest.(check int) "argmin" 0 (Vec.argmin v);
  Alcotest.(check bool) "not all inf" false (Vec.is_all_inf v);
  Alcotest.(check bool) "all inf" true (Vec.is_all_inf (Vec.make 4 Cost.inf))

let test_vec_add () =
  let a = Vec.of_array [| 1.0; 2.0; Cost.inf |] in
  let b = Vec.of_array [| 0.5; Cost.inf; 1.0 |] in
  let s = Vec.add a b in
  Alcotest.check vec "sum" (Vec.of_array [| 1.5; Cost.inf; Cost.inf |]) s;
  let d = Vec.copy a in
  Vec.add_into d b;
  Alcotest.check vec "add_into matches add" s d;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.add: length mismatch") (fun () ->
      ignore (Vec.add a (Vec.zero 2)))

let test_vec_copy_isolated () =
  let a = Vec.of_array [| 1.0; 2.0 |] in
  let b = Vec.copy a in
  Vec.set b 0 9.0;
  Alcotest.check cost "original unchanged" 1.0 (Vec.get a 0)

let test_vec_argmin_ties () =
  let v = Vec.of_array [| 2.0; 1.0; 1.0 |] in
  Alcotest.(check int) "first min wins" 1 (Vec.argmin v);
  Alcotest.check_raises "argmin empty" (Invalid_argument "Vec.argmin: empty")
    (fun () -> ignore (Vec.argmin (Vec.of_array [||])))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_basics () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| Cost.inf; 4.0 |] |] in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  Alcotest.check cost_exact "get" Cost.inf (Mat.get m 1 0);
  Alcotest.check vec "row" (Vec.of_array [| Cost.inf; 4.0 |]) (Mat.row m 1);
  Alcotest.check vec "col" (Vec.of_array [| 2.0; 4.0 |]) (Mat.col m 1);
  Alcotest.(check bool) "has inf" true (Mat.has_inf m);
  Alcotest.check cost "min value" 1.0 (Mat.min_value m)

let test_mat_transpose () =
  let m = Mat.init ~rows:2 ~cols:3 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Mat.transpose m in
  Alcotest.(check int) "t rows" 3 (Mat.rows t);
  Alcotest.check cost "t entry" 12.0 (Mat.get t 2 1);
  Alcotest.check mat "double transpose" m (Mat.transpose t)

let test_mat_add_zero () =
  let a = Mat.of_arrays [| [| 1.0; -1.0 |]; [| 0.0; 0.0 |] |] in
  let b = Mat.of_arrays [| [| -1.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  Alcotest.(check bool) "sum is zero" true (Mat.is_zero (Mat.add a b));
  Alcotest.(check bool) "a not zero" false (Mat.is_zero a)

let test_mat_interference () =
  let m = Mat.interference 3 in
  Alcotest.check cost_exact "diagonal inf" Cost.inf (Mat.get m 1 1);
  Alcotest.check cost_exact "off-diagonal zero" Cost.zero (Mat.get m 0 2)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ------------------------------------------------------------------ *)
(* Graph *)

let triangle () =
  let g = Graph.create ~m:2 ~n:3 in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; 2.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 3.0; 4.0 |]);
  Graph.set_cost g 2 (Vec.of_array [| 5.0; 6.0 |]);
  Graph.add_edge g 0 1 (Mat.interference 2);
  Graph.add_edge g 1 2 (Mat.interference 2);
  Graph.add_edge g 0 2 (Mat.interference 2);
  g

let test_graph_build () =
  let g = triangle () in
  Alcotest.(check int) "n alive" 3 (Graph.n_alive g);
  Alcotest.(check int) "edges" 3 (Graph.edge_count g);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (Graph.neighbors g 1);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0);
  Graph.check g

let test_graph_edge_orientation () =
  let g = Graph.create ~m:2 ~n:2 in
  let muv = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Graph.add_edge g 0 1 muv;
  Alcotest.check mat "u-major" muv (Option.get (Graph.edge g 0 1));
  Alcotest.check mat "v-major is transpose" (Mat.transpose muv)
    (Option.get (Graph.edge g 1 0));
  Graph.check g

let test_graph_edge_accumulate () =
  let g = Graph.create ~m:2 ~n:2 in
  let a = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  Graph.add_edge g 0 1 a;
  Graph.add_edge g 0 1 a;
  Alcotest.check mat "accumulated" (Mat.add a a) (Option.get (Graph.edge g 0 1));
  (* adding the negation cancels the edge entirely *)
  Graph.add_edge g 0 1 (Mat.map (fun c -> -2.0 *. c) a);
  Alcotest.(check bool) "edge removed when zero" true (Graph.edge g 0 1 = None);
  Alcotest.(check int) "degree 0" 0 (Graph.degree g 0);
  Graph.check g

let test_graph_remove_vertex () =
  let g = triangle () in
  Graph.remove_vertex g 1;
  Alcotest.(check bool) "dead" false (Graph.is_alive g 1);
  Alcotest.(check (list int)) "vertices" [ 0; 2 ] (Graph.vertices g);
  Alcotest.(check int) "edges left" 1 (Graph.edge_count g);
  Alcotest.(check (list int)) "0's neighbors" [ 2 ] (Graph.neighbors g 0);
  Alcotest.check_raises "dead access"
    (Invalid_argument "Graph.cost: vertex 1 is dead") (fun () ->
      ignore (Graph.cost g 1));
  Graph.check g

let test_graph_copy_independent () =
  let g = triangle () in
  let h = Graph.copy g in
  Graph.remove_vertex h 0;
  Graph.add_to_cost h 1 (Vec.of_array [| 100.0; 100.0 |]);
  Alcotest.(check int) "original intact" 3 (Graph.n_alive g);
  Alcotest.check vec "original cost intact" (Vec.of_array [| 3.0; 4.0 |])
    (Graph.cost g 1);
  Graph.check g;
  Graph.check h

let test_graph_self_edge () =
  let g = Graph.create ~m:2 ~n:2 in
  Alcotest.check_raises "self edge" (Invalid_argument "Graph.add_edge: self-edge")
    (fun () -> Graph.add_edge g 0 0 (Mat.interference 2))

let test_graph_liberty () =
  let g = Graph.create ~m:3 ~n:1 in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; Cost.inf; 2.0 |]);
  Alcotest.(check int) "liberty" 2 (Graph.liberty g 0)

(* Topology stamps: kept by every operation that leaves the edge between
   two live vertices alone, re-minted by every one that may change it. *)
let test_graph_topology_stamp () =
  let g = Graph.create ~m:2 ~n:3 in
  let fresh what before =
    Alcotest.(check bool) (what ^ " mints a fresh stamp") true
      (Graph.topology_stamp g <> before)
  and kept what before =
    Alcotest.(check int) (what ^ " keeps the stamp") before
      (Graph.topology_stamp g)
  in
  let s = Graph.topology_stamp g in
  Graph.add_edge g 0 1 (Mat.interference 2);
  fresh "add_edge" s;
  let s = Graph.topology_stamp g in
  Graph.add_edge g 1 2 (Mat.interference 2);
  fresh "add_edge" s;
  let s = Graph.topology_stamp g in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; 2.0 |]);
  ignore (Graph.swap_cost g 1 (Vec.of_array [| 3.0; 4.0 |]));
  kept "cost updates" s;
  Alcotest.(check int) "copy_shared keeps the stamp" s
    (Graph.topology_stamp (Graph.copy_shared g));
  Alcotest.(check bool) "copy mints a fresh stamp" true
    (Graph.topology_stamp (Graph.copy g) <> s);
  let d = Graph.detach_vertex g 0 in
  kept "detach_vertex" s;
  Graph.reattach_vertex g d;
  kept "reattach under the detaching stamp" s;
  Graph.redetach_vertex g d;
  kept "redetach_vertex" s;
  (* an edge change while 0 is detached: its record now restores edges
     of another stamp *)
  Graph.remove_edge g 1 2;
  fresh "remove_edge" s;
  let s = Graph.topology_stamp g in
  Graph.reattach_vertex g d;
  fresh "reattach under another stamp" s;
  let s = Graph.topology_stamp g in
  Graph.remove_vertex g 2;
  kept "remove_vertex" s

(* ------------------------------------------------------------------ *)
(* Solution *)

let test_solution_cost_triangle () =
  let g = triangle () in
  (* distinct colors on a 2-color triangle are impossible: some edge is
     monochromatic, so every complete assignment costs inf *)
  let s = Solution.of_array [| 0; 1; 0 |] in
  Alcotest.check cost_exact "interference hit" Cost.inf (Solution.cost g s)

let test_solution_cost_path () =
  let g = Graph.create ~m:2 ~n:3 in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; 2.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 3.0; 4.0 |]);
  Graph.set_cost g 2 (Vec.of_array [| 5.0; 6.0 |]);
  Graph.add_edge g 0 1 (Mat.interference 2);
  Graph.add_edge g 1 2 (Mat.interference 2);
  let s = Solution.of_array [| 0; 1; 0 |] in
  Alcotest.check cost "path cost" (1.0 +. 4.0 +. 5.0) (Solution.cost g s);
  Alcotest.(check bool) "valid" true (Solution.valid g s)

let test_solution_partial () =
  let g = triangle () in
  let s = Solution.of_array [| 0; Solution.unassigned; Solution.unassigned |] in
  Alcotest.(check bool) "incomplete" false (Solution.is_complete s);
  Alcotest.check cost_exact "full cost of partial is inf" Cost.inf
    (Solution.cost g s);
  Alcotest.check cost "partial cost counts prefix" 1.0
    (Solution.partial_cost g s)

let test_solution_fig2 () =
  let g = Generate.fig2 () in
  Alcotest.check cost "paper selection (1,1,0) costs 24" 24.0
    (Solution.cost g (Solution.of_array [| 1; 1; 0 |]));
  Alcotest.check cost "paper selection (0,0,0) costs 11" 11.0
    (Solution.cost g (Solution.of_array [| 0; 0; 0 |]))

(* ------------------------------------------------------------------ *)
(* Generate *)

let test_generate_shape () =
  let g =
    Generate.erdos_renyi ~rng:(rng 42)
      { Generate.default with n = 30; m = 5; p_edge = 0.3 }
  in
  Alcotest.(check int) "n" 30 (Graph.capacity g);
  Alcotest.(check int) "m" 5 (Graph.m g);
  Alcotest.(check bool) "has edges" true (Graph.edge_count g > 0);
  Graph.check g

let test_generate_deterministic () =
  let c = { Generate.default with n = 12; m = 3; p_edge = 0.4 } in
  let a = Generate.erdos_renyi ~rng:(rng 7) c in
  let b = Generate.erdos_renyi ~rng:(rng 7) c in
  Alcotest.check graph "same seed, same graph" a b

let test_generate_zero_inf () =
  let g =
    Generate.erdos_renyi ~rng:(rng 3)
      {
        Generate.default with
        n = 20;
        m = 4;
        p_edge = 0.4;
        p_inf = 0.3;
        zero_inf = true;
      }
  in
  List.iter
    (fun u ->
      Vec.iteri
        (fun _ c ->
          Alcotest.(check bool)
            "entry is 0 or inf" true
            (Cost.is_inf c || Cost.equal c Cost.zero))
        (Graph.cost g u))
    (Graph.vertices g)

let test_generate_min_liberty () =
  let g =
    Generate.erdos_renyi ~rng:(rng 5)
      { Generate.default with n = 25; m = 4; p_inf = 0.9; min_liberty = 2 }
  in
  List.iter
    (fun u -> Alcotest.(check bool) "liberty >= 2" true (Graph.liberty g u >= 2))
    (Graph.vertices g)

let test_generate_planted_witness () =
  for seed = 0 to 9 do
    let g, sol =
      Generate.planted ~rng:(rng seed)
        {
          Generate.default with
          n = 15;
          m = 4;
          p_edge = 0.5;
          p_inf = 0.5;
          zero_inf = true;
        }
    in
    Alcotest.(check bool) "witness is a valid solution" true
      (Solution.valid g sol);
    Alcotest.check cost "witness costs zero in zero_inf mode" 0.0
      (Solution.cost g sol)
  done

let test_sample_n () =
  let r = rng 11 in
  for _ = 1 to 200 do
    let n = Generate.sample_n ~rng:r ~mean:20.0 ~stddev:5.0 ~min:3 in
    Alcotest.(check bool) "clamped" true (n >= 3)
  done

let test_generate_validation () =
  Alcotest.check_raises "bad p_edge"
    (Invalid_argument "Generate: p_edge not in [0,1]") (fun () ->
      ignore
        (Generate.erdos_renyi ~rng:(rng 0)
           { Generate.default with p_edge = 1.5 }))

(* ------------------------------------------------------------------ *)
(* Io *)

let test_io_roundtrip_fig2 () =
  let g = Generate.fig2 () in
  let g' = Io.of_string (Io.to_string g) in
  Alcotest.check graph "roundtrip" g g'

let test_io_parse_basic () =
  let g =
    Io.of_string
      "# comment\npbqp 2 2\nv 0 1 inf\nv 1 0 3.5\ne 0 1 0 1 2 inf\n"
  in
  Alcotest.(check int) "n" 2 (Graph.capacity g);
  Alcotest.check cost_exact "inf parsed" Cost.inf (Vec.get (Graph.cost g 0) 1);
  Alcotest.check cost_exact "matrix entry" Cost.inf
    (Mat.get (Option.get (Graph.edge g 0 1)) 1 1)

let test_io_errors () =
  let expect_invalid s =
    match Io.of_string s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid "v 0 1 2\n";
  expect_invalid "pbqp 2\n";
  expect_invalid "pbqp 2 2\nv 5 1 2\n";
  expect_invalid "pbqp 2 2\nv 0 1\n";
  expect_invalid "pbqp 2 2\ne 0 1 1 2 3\n";
  expect_invalid "pbqp 2 2\nzork\n"

(* ------------------------------------------------------------------ *)
(* Dot *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_export () =
  let g = Generate.fig2 () in
  let s = Dot.to_string g in
  Alcotest.(check bool) "graph header" true
    (String.length s > 5 && String.sub s 0 5 = "graph");
  List.iter
    (fun u ->
      Alcotest.(check bool) "vertex present" true
        (contains s (Printf.sprintf "v%d [" u)))
    (Graph.vertices g);
  Graph.fold_edges
    (fun u v _ () ->
      Alcotest.(check bool) "edge present" true
        (contains s (Printf.sprintf "v%d -- v%d" u v)))
    g ()

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_io_roundtrip =
  qtest "io roundtrip preserves the graph" (arb_graph_spec ~nmax:10 ())
    (fun spec ->
      let g = build_graph spec in
      Graph.approx_equal g (Io.of_string (Io.to_string g)))

let prop_io_roundtrip_reduced =
  qtest "io roundtrip preserves reduced graphs (dead vertices)"
    (arb_graph_spec ~nmax:10 ()) (fun spec ->
      let g = build_graph spec in
      (* kill a couple of vertices *)
      let r = rng (spec.seed + 13) in
      List.iter
        (fun u ->
          if Random.State.bool r && Graph.is_alive g u then
            Graph.remove_vertex g u)
        (Graph.vertices g);
      Graph.approx_equal g (Io.of_string (Io.to_string g)))

let prop_generated_invariants =
  qtest "generated graphs satisfy internal invariants"
    (arb_graph_spec ~nmax:12 ()) (fun spec ->
      let g = build_graph spec in
      Graph.check g;
      true)

let prop_copy_equal =
  qtest "copy is equal and independent" (arb_graph_spec ~nmax:10 ())
    (fun spec ->
      let g = build_graph spec in
      let h = Graph.copy g in
      let eq_before = Graph.equal g h in
      List.iter
        (fun u -> Graph.add_to_cost h u (Vec.make spec.m 1.0))
        (Graph.vertices h);
      eq_before && (Graph.vertices g = [] || not (Graph.equal g h)))

let prop_cost_symmetric_in_edge_storage =
  qtest "solution cost is independent of edge insertion order"
    (arb_graph_spec ~nmax:8 ~mmax:3 ()) (fun spec ->
      let g = build_graph spec in
      let n = Graph.capacity g in
      let r = rng (spec.seed + 1) in
      let s =
        Solution.of_array (Array.init n (fun _ -> Random.State.int r spec.m))
      in
      (* rebuild with reversed edge orientation *)
      let h = Graph.create ~m:spec.m ~n in
      List.iter
        (fun u -> Graph.set_cost h u (Graph.cost g u))
        (Graph.vertices g);
      Graph.fold_edges
        (fun u v muv () -> Graph.add_edge h v u (Mat.transpose muv))
        g ();
      Cost.approx_equal (Solution.cost g s) (Solution.cost h s))

let prop_normalize_second_pass_noop =
  qtest ~count:40 "normalization is exhausted after one pass"
    (arb_graph_spec ~nmax:8 ~mmax:3 ~p_inf:0.2 ()) (fun spec ->
      let g = build_graph spec in
      ignore (Normalize.normalize g);
      (* a second pass finds nothing left to move *)
      Normalize.normalize g = 0)

let prop_neighbors_symmetric =
  qtest ~count:60 "neighbor relation is symmetric"
    (arb_graph_spec ~nmax:10 ()) (fun spec ->
      let g = build_graph spec in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> List.mem u (Graph.neighbors g v))
            (Graph.neighbors g u))
        (Graph.vertices g))

let prop_remove_vertex_keeps_invariants =
  qtest ~count:40 "random removals keep invariants"
    (arb_graph_spec ~nmax:10 ()) (fun spec ->
      let g = build_graph spec in
      let r = rng (spec.seed + 77) in
      List.iter
        (fun u -> if Random.State.bool r then Graph.remove_vertex g u)
        (Graph.vertices g);
      Graph.check g;
      true)

let prop_liberty_counts_finite =
  qtest "liberty equals finite entry count" (arb_graph_spec ~nmax:8 ())
    (fun spec ->
      let g = build_graph spec in
      List.for_all
        (fun u ->
          Graph.liberty g u = List.length (Vec.finite_indices (Graph.cost g u)))
        (Graph.vertices g))

let test_normalize_disconnects () =
  (* a matrix that is a pure row offset normalizes to nothing *)
  let g = Graph.create ~m:2 ~n:2 in
  Graph.add_edge g 0 1 (Mat.of_arrays [| [| 3.0; 3.0 |]; [| 7.0; 7.0 |] |]);
  let removed = Normalize.normalize g in
  Alcotest.(check int) "edge removed" 1 removed;
  Alcotest.(check int) "no edges left" 0 (Graph.edge_count g);
  Alcotest.check vec "row minima moved" (Vec.of_array [| 3.0; 7.0 |])
    (Graph.cost g 0);
  Graph.check g

let test_normalize_inf_row () =
  let g = Graph.create ~m:2 ~n:2 in
  Graph.add_edge g 0 1
    (Mat.of_arrays [| [| Cost.inf; Cost.inf |]; [| 0.0; 1.0 |] |]);
  ignore (Normalize.normalize g);
  Alcotest.check cost_exact "inadmissible color surfaces in the vector"
    Cost.inf
    (Vec.get (Graph.cost g 0) 0);
  Graph.check g

let prop_normalize_preserves_all_costs =
  qtest ~count:60 "normalization preserves Equation 1 for every selection"
    (arb_graph_spec ~nmax:7 ~mmax:3 ~p_inf:0.2 ()) (fun spec ->
      let g = build_graph spec in
      let h, _ = Normalize.normalized_copy g in
      Graph.check h;
      let r = rng (spec.seed + 31) in
      List.for_all
        (fun _ ->
          let s =
            Solution.of_array
              (Array.init spec.n (fun _ -> Random.State.int r spec.m))
          in
          Cost.approx_equal ~eps:1e-6 (Solution.cost g s) (Solution.cost h s))
        (List.init 10 Fun.id))

let test_stats () =
  let g = Generate.fig2 () in
  let st = Stats.compute g in
  Alcotest.(check int) "n" 3 st.Stats.n;
  Alcotest.(check int) "edges" 3 st.Stats.edges;
  Alcotest.(check (float 1e-9)) "density (triangle)" 1.0 st.Stats.density;
  Alcotest.(check bool) "not zero/inf" false st.Stats.zero_inf;
  Alcotest.(check int) "liberty histogram total" 3
    (Array.fold_left ( + ) 0 st.Stats.liberty_histogram);
  let g2, _ =
    Generate.planted ~rng:(rng 1)
      { Generate.default with n = 10; m = 3; p_edge = 0.4; p_inf = 0.4;
        zero_inf = true }
  in
  let st2 = Stats.compute g2 in
  Alcotest.(check bool) "planted 0/inf detected" true st2.Stats.zero_inf;
  Alcotest.(check bool) "some infinite entries" true
    (st2.Stats.inf_entry_share > 0.0)

let () =
  Alcotest.run "pbqp"
    [
      ( "cost",
        [
          Alcotest.test_case "algebra" `Quick test_cost_algebra;
          Alcotest.test_case "strings" `Quick test_cost_string;
          Alcotest.test_case "roundtrip" `Quick test_cost_roundtrip;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "add" `Quick test_vec_add;
          Alcotest.test_case "copy isolation" `Quick test_vec_copy_isolated;
          Alcotest.test_case "argmin ties" `Quick test_vec_argmin_ties;
        ] );
      ( "mat",
        [
          Alcotest.test_case "basics" `Quick test_mat_basics;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "add to zero" `Quick test_mat_add_zero;
          Alcotest.test_case "interference" `Quick test_mat_interference;
          Alcotest.test_case "ragged input" `Quick test_mat_ragged;
        ] );
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_graph_build;
          Alcotest.test_case "edge orientation" `Quick
            test_graph_edge_orientation;
          Alcotest.test_case "edge accumulation" `Quick
            test_graph_edge_accumulate;
          Alcotest.test_case "remove vertex" `Quick test_graph_remove_vertex;
          Alcotest.test_case "copy independence" `Quick
            test_graph_copy_independent;
          Alcotest.test_case "self edge rejected" `Quick test_graph_self_edge;
          Alcotest.test_case "liberty" `Quick test_graph_liberty;
          Alcotest.test_case "topology stamp" `Quick test_graph_topology_stamp;
        ] );
      ( "solution",
        [
          Alcotest.test_case "triangle interference" `Quick
            test_solution_cost_triangle;
          Alcotest.test_case "path cost" `Quick test_solution_cost_path;
          Alcotest.test_case "partial cost" `Quick test_solution_partial;
          Alcotest.test_case "figure 2 worked example" `Quick test_solution_fig2;
        ] );
      ( "generate",
        [
          Alcotest.test_case "shape" `Quick test_generate_shape;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "zero/inf mode" `Quick test_generate_zero_inf;
          Alcotest.test_case "min liberty" `Quick test_generate_min_liberty;
          Alcotest.test_case "planted witness" `Quick
            test_generate_planted_witness;
          Alcotest.test_case "sample_n clamps" `Quick test_sample_n;
          Alcotest.test_case "config validation" `Quick test_generate_validation;
        ] );
      ( "io",
        [
          Alcotest.test_case "fig2 roundtrip" `Quick test_io_roundtrip_fig2;
          Alcotest.test_case "parse basics" `Quick test_io_parse_basic;
          Alcotest.test_case "error reporting" `Quick test_io_errors;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "disconnects offset edges" `Quick
            test_normalize_disconnects;
          Alcotest.test_case "infinite rows surface" `Quick
            test_normalize_inf_row;
          prop_normalize_preserves_all_costs;
        ] );
      ( "properties",
        [
          prop_io_roundtrip;
          prop_io_roundtrip_reduced;
          prop_generated_invariants;
          prop_copy_equal;
          prop_cost_symmetric_in_edge_storage;
          prop_liberty_counts_finite;
          prop_normalize_second_pass_noop;
          prop_neighbors_symmetric;
          prop_remove_vertex_keeps_invariants;
        ] );
    ]
