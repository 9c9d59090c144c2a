type t = {
  uid : int;
  m : int;
  n : int;
  alive : bool array;
  costs : Vec.t array;
  adj : (int, Mat.t) Hashtbl.t array;
      (* adj.(u) maps live neighbor v to the matrix oriented with u's colors
         as rows.  Symmetric: adj.(v) holds the transpose. *)
  mutable stamp : int;
      (* topology stamp: re-minted by every operation that can change the
         edge (or its physical matrix) between two live vertices — see
         [topology_stamp] *)
}

(* Instance identities survive copies (both [copy] flavors use [{ g with
   ... }]), so all states derived from one problem share the uid.  Atomic:
   graphs are minted concurrently from self-play worker domains. *)
let next_uid =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

(* Atomic for the same reason: stamps are minted from worker domains. *)
let next_stamp =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let create ~m ~n =
  if m <= 0 then invalid_arg "Graph.create: m <= 0";
  if n < 0 then invalid_arg "Graph.create: n < 0";
  {
    uid = next_uid ();
    m;
    n;
    alive = Array.make n true;
    costs = Array.init n (fun _ -> Vec.zero m);
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    stamp = next_stamp ();
  }

let uid g = g.uid
let topology_stamp g = g.stamp
let m g = g.m
let capacity g = g.n

let check_vertex g u name =
  if u < 0 || u >= g.n then invalid_arg (Printf.sprintf "Graph.%s: vertex %d out of range" name u);
  if not g.alive.(u) then invalid_arg (Printf.sprintf "Graph.%s: vertex %d is dead" name u)

let is_alive g u = u >= 0 && u < g.n && g.alive.(u)

let vertices g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    if g.alive.(u) then acc := u :: !acc
  done;
  !acc

let n_alive g = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 g.alive

let cost g u =
  check_vertex g u "cost";
  g.costs.(u)

let set_cost g u v =
  check_vertex g u "set_cost";
  if Vec.length v <> g.m then invalid_arg "Graph.set_cost: wrong length";
  g.costs.(u) <- Vec.copy v

let add_to_cost g u v =
  check_vertex g u "add_to_cost";
  Vec.add_into g.costs.(u) v

let edge g u v =
  check_vertex g u "edge";
  check_vertex g v "edge";
  Option.map Mat.copy (Hashtbl.find_opt g.adj.(u) v)

let edge_ref g u v =
  check_vertex g u "edge_ref";
  check_vertex g v "edge_ref";
  Hashtbl.find_opt g.adj.(u) v

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  Hashtbl.remove g.adj.(u) v;
  Hashtbl.remove g.adj.(v) u;
  g.stamp <- next_stamp ()

let add_edge g u v muv =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-edge";
  if Mat.rows muv <> g.m || Mat.cols muv <> g.m then
    invalid_arg "Graph.add_edge: shape mismatch";
  let combined =
    match Hashtbl.find_opt g.adj.(u) v with
    | None -> Mat.copy muv
    | Some existing -> Mat.add existing muv
  in
  if Mat.is_zero combined then remove_edge g u v
  else begin
    Hashtbl.replace g.adj.(u) v combined;
    Hashtbl.replace g.adj.(v) u (Mat.transpose combined);
    g.stamp <- next_stamp ()
  end

let neighbors g u =
  check_vertex g u "neighbors";
  (Hashtbl.fold (fun v _ acc -> v :: acc) g.adj.(u) []
  |> List.sort Int.compare)
[@@analyze.order_insensitive "collected set is sorted before use"]

let iter_neighbors g u f =
  check_vertex g u "iter_neighbors";
  Hashtbl.iter f g.adj.(u)
[@@analyze.order_insensitive
  "hot-path raw-order iteration; every caller's per-neighbor work is \
   independent (no cross-neighbor accumulation), see Istate.push_node"]

let degree g u =
  check_vertex g u "degree";
  Hashtbl.length g.adj.(u)

let remove_vertex g u =
  check_vertex g u "remove_vertex";
  Hashtbl.iter (fun v _ -> Hashtbl.remove g.adj.(v) u) g.adj.(u);
  Hashtbl.reset g.adj.(u);
  g.alive.(u) <- false
[@@analyze.order_insensitive "commuting removals of distinct keys"]

(* --- Trail primitives (incremental apply/undo) ----------------------- *)

let swap_cost g u v =
  check_vertex g u "swap_cost";
  if Vec.length v <> g.m then invalid_arg "Graph.swap_cost: wrong length";
  let old = g.costs.(u) in
  g.costs.(u) <- v;
  old

type detached = {
  d_vertex : int;
  d_adj : (int * Mat.t * Mat.t) list;
  d_stamp : int;  (* the graph's topology stamp when the record was made *)
}

let detach_vertex g u =
  check_vertex g u "detach_vertex";
  let entries =
    Hashtbl.fold
      (fun v muv acc -> (v, muv, Hashtbl.find g.adj.(v) u) :: acc)
      g.adj.(u) []
  in
  List.iter (fun (v, _, _) -> Hashtbl.remove g.adj.(v) u) entries;
  Hashtbl.reset g.adj.(u);
  g.alive.(u) <- false;
  { d_vertex = u; d_adj = entries; d_stamp = g.stamp }
[@@analyze.order_insensitive
  "entry-list order only sequences commuting per-neighbor \
   detach/reattach operations"]

(* Detach again a vertex previously detached and reattached: the record
   already lists the incident edges, so no list is rebuilt — the
   allocation-free redo counterpart of [detach_vertex]. *)
let redetach_vertex g d =
  let u = d.d_vertex in
  check_vertex g u "redetach_vertex";
  List.iter (fun (v, _, _) -> Hashtbl.remove g.adj.(v) u) d.d_adj;
  Hashtbl.reset g.adj.(u);
  g.alive.(u) <- false

let reattach_vertex g d =
  let u = d.d_vertex in
  if u < 0 || u >= g.n then invalid_arg "Graph.reattach_vertex: out of range";
  if g.alive.(u) then invalid_arg "Graph.reattach_vertex: vertex is alive";
  (* the record restores the edges of the stamp it was made under; under
     any other stamp they are new topology *)
  if d.d_stamp <> g.stamp then g.stamp <- next_stamp ();
  g.alive.(u) <- true;
  List.iter
    (fun (v, muv, mvu) ->
      Hashtbl.replace g.adj.(u) v muv;
      Hashtbl.replace g.adj.(v) u mvu)
    d.d_adj

let liberty g u = Vec.liberty (cost g u)

let copy_with ~stamp mat_copy g =
  {
    g with
    stamp;
    alive = Array.copy g.alive;
    costs = Array.map Vec.copy g.costs;
    adj =
      Array.map
        (fun tbl ->
          let tbl' = Hashtbl.create (Hashtbl.length tbl) in
          Hashtbl.iter (fun v m -> Hashtbl.add tbl' v (mat_copy m)) tbl;
          tbl')
        g.adj;
  }
[@@analyze.order_insensitive
  "populates a fresh table keyed by neighbor id; adjacency is a map, \
   consumers never depend on its physical order"]

(* A deep copy's matrices are fresh objects, so it gets a fresh stamp;
   a shared copy keeps both the matrices and the stamp. *)
let copy g = copy_with ~stamp:(next_stamp ()) Mat.copy g
let copy_shared g = copy_with ~stamp:g.stamp Fun.id g

(* Deterministic edge order: u ascending, then v ascending within u's
   (sorted) neighbor list — never raw hash-table order.  Callers fold
   floats through this (Solution.cost, Stats, Liberty), so a fixed
   visit order is what keeps summed costs reproducible across runs and
   checkpoint reloads regardless of edge insertion/removal history. *)
let fold_edges f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    if g.alive.(u) then
      List.iter
        (fun v -> if u < v then acc := f u v (Hashtbl.find g.adj.(u) v) !acc)
        (neighbors g u)
  done;
  !acc

let edge_count g = fold_edges (fun _ _ _ acc -> acc + 1) g 0

let iter_adjacency f g =
  Array.iteri (fun u tbl -> Hashtbl.iter (fun v muv -> f u v muv) tbl) g.adj
[@@analyze.order_insensitive
  "raw representation scan for the checkers; callers bucket entries \
   per vertex before order-sensitive processing"]

let equal_with vec_eq mat_eq a b =
  a.m = b.m && a.n = b.n
  && Array.for_all2 Bool.equal a.alive b.alive
  && (let ok = ref true in
      for u = 0 to a.n - 1 do
        if a.alive.(u) then begin
          if not (vec_eq a.costs.(u) b.costs.(u)) then ok := false;
          if Hashtbl.length a.adj.(u) <> Hashtbl.length b.adj.(u) then ok := false
          else
            Hashtbl.iter
              (fun v muv ->
                match Hashtbl.find_opt b.adj.(u) v with
                | Some muv' when mat_eq muv muv' -> ()
                | _ -> ok := false)
              a.adj.(u)
        end
      done;
      !ok)
[@@analyze.order_insensitive "per-key membership tests only"]

let equal a b = equal_with Vec.equal Mat.equal a b

let approx_equal ?eps a b =
  equal_with (Vec.approx_equal ?eps) (Mat.approx_equal ?eps) a b

let check g =
  for u = 0 to g.n - 1 do
    if g.alive.(u) then begin
      if Vec.length g.costs.(u) <> g.m then
        failwith (Printf.sprintf "Graph.check: vertex %d cost length" u);
      Hashtbl.iter
        (fun v muv ->
          if not (is_alive g v) then
            failwith (Printf.sprintf "Graph.check: edge (%d,%d) to dead vertex" u v);
          if v = u then failwith (Printf.sprintf "Graph.check: self edge %d" u);
          if Mat.rows muv <> g.m || Mat.cols muv <> g.m then
            failwith (Printf.sprintf "Graph.check: edge (%d,%d) shape" u v);
          if Mat.is_zero muv then
            failwith (Printf.sprintf "Graph.check: zero edge (%d,%d) kept" u v);
          match Hashtbl.find_opt g.adj.(v) u with
          | None -> failwith (Printf.sprintf "Graph.check: edge (%d,%d) asymmetric" u v)
          | Some mvu ->
              if not (Mat.equal mvu (Mat.transpose muv)) then
                failwith (Printf.sprintf "Graph.check: edge (%d,%d) not transposed" u v))
        g.adj.(u)
    end
    else if Hashtbl.length g.adj.(u) <> 0 then
      failwith (Printf.sprintf "Graph.check: dead vertex %d has edges" u)
  done
[@@analyze.order_insensitive "per-edge validation, no accumulation"]

let pp ppf g =
  Format.fprintf ppf "@[<v>PBQP graph: m=%d, %d live / %d vertices, %d edges" g.m
    (n_alive g) g.n (edge_count g);
  List.iter
    (fun u -> Format.fprintf ppf "@,  v%d: %a" u Vec.pp g.costs.(u))
    (vertices g);
  fold_edges
    (fun u v muv () ->
      Format.fprintf ppf "@,  e(%d,%d):@,    @[<v>%a@]" u v Mat.pp muv)
    g ();
  Format.fprintf ppf "@]"
