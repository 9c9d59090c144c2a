open Pbqp

type config = {
  m : int;
  gcn_layers : int;
  trunk_width : int;
  trunk_blocks : int;
  cost_scale : float;
}

let default_config ~m =
  { m; gcn_layers = 2; trunk_width = 32; trunk_blocks = 2; cost_scale = 10.0 }

type gcn_layer = { w_self : Layer.Linear.t; w_msg : Layer.Linear.t }

(* Scratch buffers for one batch size of the coalesced trunk/heads
   forward.  Tensors carry exact shapes (matmul_into validates them), so
   buffers are keyed by the batch row count rather than grown in place;
   the set of distinct batch sizes a search produces is small (wave
   sizes, service batch sizes), and the table is reset if it ever grows
   past a bound, giving geometric-growth behaviour without views. *)
type buffers = {
  sx0 : Tensor.t;  (* B × 3m   stacked readout rows *)
  sx : Tensor.t;  (* B × w    trunk activations, updated in place *)
  sb1 : Tensor.t;  (* B × w    layernorm / fc2 scratch *)
  sb2 : Tensor.t;  (* B × w    fc1 scratch *)
  slogits : Tensor.t;  (* B × m *)
  svalues : Tensor.t;  (* B × 1 *)
}

(* The flat GCN readout's per-replica state (DESIGN.md "GCN readout").
   The structure half caches, for one topology stamp, the CSR of the
   edges among the vertices live when it was built: neighbours in
   increasing id order, each directed edge's m × m message block
   φ(M_vu)/m row-major in one floatarray.  A leaf whose live set is
   covered by [s_live] under the same stamp reads its edges from here
   (dead neighbours filtered by [row_of]) — no adjacency-table walk.
   The per-leaf half is scratch sized to the graph's capacity, reused
   call over call.  Every buffer is resized at a structure build when it
   is short or more than 4x too large. *)
type readout = {
  mutable s_stamp : int;  (* Graph.topology_stamp of the cache; -1 none *)
  mutable s_cap : int;  (* Graph.capacity of the cached graph *)
  mutable s_live : Bytes.t;  (* vertex ↦ '\001' if live at build *)
  mutable s_start : int array;  (* vertex ↦ first edge; capacity + 1 *)
  mutable s_nbr : int array;  (* edge ↦ neighbour id *)
  mutable s_fin : Bytes.t;  (* edge ↦ '\001' if its block is all finite *)
  mutable s_blocks : floatarray;  (* edge e's block at [e * m * m] *)
  mutable row_of : int array;  (* vertex ↦ H row this leaf; -1 dead *)
  mutable ids : int array;  (* H row ↦ vertex *)
  mutable nz : int array;  (* row r's nonzero H columns at [r * m] *)
  mutable nzv : floatarray;  (* ... and their values, same layout *)
  mutable nzc : int array;  (* row ↦ number of nonzero H columns *)
  mutable h : Tensor.t;  (* rows × m   layer input *)
  mutable h' : Tensor.t;  (* rows × m   layer output *)
  mutable self : Tensor.t;  (* rows × m   self transform *)
  mutable msg : Tensor.t;  (* rows × m   neighbour-message means *)
}

type arena = {
  rd : readout;
  bufs : (int, buffers) Hashtbl.t;  (* batch rows ↦ buffer set *)
  packs : (string, Tensor.packed) Hashtbl.t;
      (* param name ↦ packed transposed weight panels (the B operand of
         the fused GEMM), valid for [pack_version] *)
  mutable pack_version : int;
  qpacks : (string, Tensor.Q.qmat) Hashtbl.t;
      (* param name ↦ per-row int8 quantized weights for the serving
         path, valid for [qpack_version] *)
  mutable qpack_version : int;
  qscr : (int, Tensor.Q.scratch) Hashtbl.t;
      (* batch rows ↦ activation-quantization scratch, built lazily on
         first quantized use of a batch size *)
}

type t = {
  config : config;
  msg_cache : (int, Tensor.t) Hashtbl.t;
      (* message matrices memoized by Mat.id — matrices are immutable and
         shared across MCTS states, so this stays hot through a search;
         reset whenever it would outgrow [msg_cache_budget] bytes *)
  arena : arena;
      (* per-replica like msg_cache: the batched forward reuses these
         buffers call over call, so steady-state inference allocates only
         the per-sample result arrays *)
  mutable version : int;
      (* weights-identity stamp for the evaluation cache: every weight
         mutation (an optimizer step, a load) installs a globally fresh
         stamp, and [sync] copies the stamp with the weights — so equal
         stamps imply bitwise-equal weights, across replicas included *)
  mutable evals : int;
      (* lifetime count of leaf evaluations served by this replica
         (scalar predicts count 1, batched predicts count their rows) *)
  mutable quant_serve : bool;
      (* serve batched inference through the int8 path when certified *)
  mutable quant_certified : int;
      (* weights version the int8 path was certified for (-1: none);
         [sync] copies it — equal versions imply bitwise-equal weights,
         so a certificate transfers with the weights *)
  gcn : gcn_layer array;
  trunk_in : Layer.Linear.t;
  trunk : Layer.Residual.t array;
  trunk_ln : Layer.Layernorm.t;
  policy_head : Layer.Linear.t;
  value_head : Layer.Linear.t;
}

(* Atomic: replicas are refreshed from worker domains' results while the
   trainer mints new stamps. *)
let next_version =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let create ~rng config =
  if config.m <= 0 then invalid_arg "Pvnet.create: m <= 0";
  if config.gcn_layers < 1 then invalid_arg "Pvnet.create: gcn_layers < 1";
  let m = config.m in
  {
    config;
    msg_cache = Hashtbl.create 1024;
    arena =
      {
        rd =
          {
            s_stamp = -1;
            s_cap = 0;
            s_live = Bytes.empty;
            s_start = [||];
            s_nbr = [||];
            s_fin = Bytes.empty;
            s_blocks = Float.Array.create 0;
            row_of = [||];
            ids = [||];
            nz = [||];
            nzv = Float.Array.create 0;
            nzc = [||];
            h = Tensor.zeros [| 1; m |];
            h' = Tensor.zeros [| 1; m |];
            self = Tensor.zeros [| 1; m |];
            msg = Tensor.zeros [| 1; m |];
          };
        bufs = Hashtbl.create 8;
        packs = Hashtbl.create 8;
        pack_version = -1;
        qpacks = Hashtbl.create 8;
        qpack_version = -1;
        qscr = Hashtbl.create 4;
      };
    version = next_version ();
    evals = 0;
    quant_serve = false;
    quant_certified = -1;
    gcn =
      Array.init config.gcn_layers (fun l ->
          let name k = Printf.sprintf "gcn%d.%s" l k in
          {
            w_self =
              Layer.Linear.create ~rng ~name:(name "self") ~in_dim:m ~out_dim:m;
            w_msg =
              Layer.Linear.create ~rng ~name:(name "msg") ~in_dim:m ~out_dim:m;
          });
    trunk_in =
      Layer.Linear.create ~rng ~name:"trunk.in" ~in_dim:(3 * m)
        ~out_dim:config.trunk_width;
    trunk =
      Array.init config.trunk_blocks (fun i ->
          Layer.Residual.create ~rng
            ~name:(Printf.sprintf "trunk.res%d" i)
            ~dim:config.trunk_width);
    trunk_ln = Layer.Layernorm.create ~name:"trunk.ln" ~dim:config.trunk_width;
    policy_head =
      Layer.Linear.create ~rng ~name:"policy" ~in_dim:config.trunk_width
        ~out_dim:m;
    value_head =
      Layer.Linear.create ~rng ~name:"value" ~in_dim:config.trunk_width
        ~out_dim:1;
  }

let config t = t.config

let params t =
  List.concat
    [
      Array.to_list t.gcn
      |> List.concat_map (fun l ->
             Layer.Linear.params l.w_self @ Layer.Linear.params l.w_msg);
      Layer.Linear.params t.trunk_in;
      Array.to_list t.trunk |> List.concat_map Layer.Residual.params;
      Layer.Layernorm.params t.trunk_ln;
      Layer.Linear.params t.policy_head;
      Layer.Linear.params t.value_head;
    ]

let param_count t = List.fold_left (fun acc v -> acc + Var.numel v) 0 (params t)

let version t = t.version
let bump_version t = t.version <- next_version ()
let eval_count t = t.evals
let reset_eval_count t = t.evals <- 0

(* --- Quantized-serving mode ------------------------------------------ *)

let set_quantized_serve t on = t.quant_serve <- on
let quantized_serve t = t.quant_serve
let quantized_certified t = t.quant_certified = t.version

(* Called by the certification harness (Check.Quantcert) after the int8
   outputs passed the accuracy bounds for the current weights.  Any
   weight mutation bumps [version], invalidating the certificate. *)
let mark_quantized_certified t = t.quant_certified <- t.version
let clear_quantized_certificate t = t.quant_certified <- -1

let sync ~src ~dst =
  if src.config <> dst.config then invalid_arg "Pvnet.sync: config mismatch";
  List.iter2
    (fun (a : Var.t) (b : Var.t) ->
      if a.Var.name <> b.Var.name then invalid_arg "Pvnet.sync: param mismatch";
      Float.Array.blit (Tensor.data a.Var.value) 0 (Tensor.data b.Var.value) 0
        (Tensor.numel a.Var.value))
    (params src) (params dst);
  dst.version <- src.version;
  dst.quant_serve <- src.quant_serve;
  dst.quant_certified <- src.quant_certified

let clone t =
  let t' = create ~rng:(Random.State.make [| 0 |]) t.config in
  sync ~src:t ~dst:t';
  t'

(* Refresh a live replica in place instead of allocating a fresh clone;
   a physical no-op when [src] and [dst] are the same net (worker 0's
   replica aliases the real net). *)
let copy_into ~src ~dst = if src != dst then sync ~src ~dst

(* --- Feature encoding ------------------------------------------------ *)

(* Soft availability weight: 1 at cost 0, decaying rationally so that the
   wide dynamic range of spill weights (1 .. 10^3) stays distinguishable,
   and 0 for inadmissible (∞) entries. *)
let[@inline] phi_cost scale (c : Cost.t) =
  if c = Cost.inf then 0.0 else 1.0 /. (1.0 +. (c /. scale))

(* A vertex's features φ(C_v) written into [fd.(base) ..]: the costs are
   blitted first and encoded in place, since reading them one by one
   through [Vec.get] would box every entry. *)
let features_into t vec fd base =
  let scale = t.config.cost_scale in
  Vec.blit_to_floatarray vec fd base;
  for i = base to base + t.config.m - 1 do
    Float.Array.unsafe_set fd i (phi_cost scale (Float.Array.unsafe_get fd i))
  done
[@@hot]

let vertex_features t vec =
  let f = Tensor.zeros [| t.config.m |] in
  features_into t vec (Tensor.data f) 0;
  f

(* The message cache's memory bound.  An entry costs its m² floats plus
   about 11 words of headers (tensor record, shape array, table bucket):
   ~1.4 KB at m = 13, so the budget holds ~11k matrices there — a few
   PRO10-sized searches — and ~21k at m = 9. *)
let msg_cache_budget = 16 * 1024 * 1024
let msg_entry_bytes t = 8 * ((t.config.m * t.config.m) + 11)
let message_cache_bytes t = Hashtbl.length t.msg_cache * msg_entry_bytes t

(* Message matrix from u into v: [Graph.edge g v u] is already oriented
   with v's colors as rows and u's as columns, so [mv] maps u-space
   features into v-space.  Entries become soft compatibilities, scaled by
   1/m so message magnitudes stay bounded. *)
let[@inline] message_entry t c =
  phi_cost t.config.cost_scale c /. float_of_int t.config.m

let message_matrix t mat =
  match Hashtbl.find_opt t.msg_cache (Mat.id mat) with
  | Some cached -> cached
  | None ->
      let m = t.config.m in
      let tensor = Tensor.init2 m m (fun i j -> message_entry t (Mat.get mat i j)) in
      if message_cache_bytes t + msg_entry_bytes t > msg_cache_budget then
        Hashtbl.reset t.msg_cache;
      Hashtbl.replace t.msg_cache (Mat.id mat) tensor;
      tensor

(* --- Forward --------------------------------------------------------- *)

let forward t ctx g ~next =
  if Graph.m g <> t.config.m then invalid_arg "Pvnet.forward: m mismatch";
  if not (Graph.is_alive g next) then
    invalid_arg "Pvnet.forward: next vertex not alive";
  let verts = Graph.vertices g in
  let h = Hashtbl.create (List.length verts) in
  List.iter
    (fun u -> Hashtbl.replace h u (Ad.const (vertex_features t (Graph.cost g u))))
    verts;
  Array.iter
    (fun layer ->
      let h' = Hashtbl.create (Hashtbl.length h) in
      List.iter
        (fun v ->
          let self = Layer.Linear.forward ctx layer.w_self (Hashtbl.find h v) in
          let neighbors = Graph.neighbors g v in
          let combined =
            match neighbors with
            | [] -> self
            | ns ->
                let msgs =
                  List.map
                    (fun u ->
                      let mvu = Option.get (Graph.edge_ref g v u) in
                      Ad.mv (Ad.const (message_matrix t mvu)) (Hashtbl.find h u))
                    ns
                in
                Ad.add self
                  (Layer.Linear.forward ctx layer.w_msg (Ad.mean_list msgs))
          in
          Hashtbl.replace h' v (Ad.relu combined))
        verts;
      Hashtbl.reset h;
      List.iter (fun v -> Hashtbl.replace h v (Hashtbl.find h' v)) verts)
    t.gcn;
  let embeddings = List.map (fun v -> Hashtbl.find h v) verts in
  let global = Ad.mean_list embeddings in
  let read =
    Ad.concat1
      [
        Hashtbl.find h next;
        global;
        Ad.const (vertex_features t (Graph.cost g next));
      ]
  in
  let x = Ad.relu (Layer.Linear.forward ctx t.trunk_in read) in
  let x = Array.fold_left (fun x blk -> Layer.Residual.forward ctx blk x) x t.trunk in
  let x = Layer.Layernorm.forward ctx t.trunk_ln x in
  let logits = Layer.Linear.forward ctx t.policy_head x in
  let value = Ad.tanh_ (Layer.Linear.forward ctx t.value_head x) in
  (logits, value)

(* --- Inference ------------------------------------------------------- *)

let predict t g ~next =
  t.evals <- t.evals + 1;
  let ctx = Ad.ctx () in
  let logits, value = forward t ctx g ~next in
  let cost_vec = Graph.cost g next in
  let masked =
    Tensor.init1 t.config.m (fun i ->
        if Cost.is_inf (Vec.get cost_vec i) then neg_infinity
        else Tensor.get1 (Ad.value logits) i)
  in
  let priors =
    if Vec.is_all_inf cost_vec then Array.make t.config.m 0.0
    else Tensor.to_array1 (Ad.softmax masked)
  in
  (priors, Tensor.get1 (Ad.value value) 0)

(* --- Batched inference ------------------------------------------------ *)

(* The batched path re-implements the forward pass with plain tensors (no
   tape) and runs the per-vertex GCN transforms and the trunk/heads as
   batch GEMMs over row-stacked feature vectors.  Every operation
   reproduces the scalar pipeline's float arithmetic exactly: [matmul]
   accumulates each output row in the same ascending order as [Tensor.mv]
   (with operands commuted, which IEEE multiplication doesn't notice),
   and activations / LayerNorm are applied per row with the same
   expressions as their [Ad] counterparts.  [predict_batch] is therefore
   bit-identical to mapping [predict]; the equivalence property suite in
   test_nn locks this down. *)

let relu_t x = Tensor.map (fun v -> if v > 0.0 then v else 0.0) x

(* y ← y + 1b, per row *)
let add_bias_rows (lin : Layer.Linear.t) y =
  let r, c = Tensor.dims2 y in
  let yd = Tensor.data y and bd = Tensor.data lin.Layer.Linear.b.Var.value in
  for i = 0 to r - 1 do
    let base = i * c in
    for j = 0 to c - 1 do
      Float.Array.unsafe_set yd (base + j)
        (Float.Array.unsafe_get yd (base + j) +. Float.Array.unsafe_get bd j)
    done
  done
[@@hot]

(* rows(x) ↦ rows(x) Wᵀ + b, one GEMM for the whole stack *)
let linear_rows (lin : Layer.Linear.t) x =
  let y = Tensor.matmul x (Tensor.transpose lin.Layer.Linear.w.Var.value) in
  add_bias_rows lin y;
  y

(* Packed Wᵀ memoized per weights version: packing is pure data movement
   (panel cell (k, j) is exactly w.(j).(k)), so cached packs cannot
   perturb results; the table resets lazily whenever the version stamp
   moves (optimizer step, sync, load). *)
let packed_of t (lin : Layer.Linear.t) =
  let a = t.arena in
  if a.pack_version <> t.version then begin
    Hashtbl.reset a.packs;
    a.pack_version <- t.version
  end;
  let name = lin.Layer.Linear.w.Var.name in
  match Hashtbl.find_opt a.packs name with
  | Some p -> p
  | None ->
      let p = Tensor.pack_transposed lin.Layer.Linear.w.Var.value in
      Hashtbl.replace a.packs name p;
      p

(* Per-row int8 weights memoized per weights version, same lifecycle as
   the packed panels.  Inference-only: nothing downstream of a qpack
   feeds gradients. *)
let qpack_of t (lin : Layer.Linear.t) =
  let a = t.arena in
  if a.qpack_version <> t.version then begin
    Hashtbl.reset a.qpacks;
    a.qpack_version <- t.version
  end;
  let name = lin.Layer.Linear.w.Var.name in
  match Hashtbl.find_opt a.qpacks name with
  | Some q -> q
  | None ->
      let q = Tensor.Q.quantize_rows lin.Layer.Linear.w.Var.value in
      Hashtbl.replace a.qpacks name q;
      q

let quant_scratch t b =
  let a = t.arena in
  match Hashtbl.find_opt a.qscr b with
  | Some s -> s
  | None ->
      if Hashtbl.length a.qscr > 64 then Hashtbl.reset a.qscr;
      let cols = max (3 * t.config.m) t.config.trunk_width in
      let s = Tensor.Q.scratch ~rows:b ~cols in
      Hashtbl.replace a.qscr b s;
      s

(* [linear_rows] into a caller-owned buffer, with the epilogue (bias,
   optional residual add, optional relu) fused into the packed GEMM —
   one pass over memory, each output cell written once.  Bit-identical
   to [matmul_into] + [add_bias_rows] (+ separate residual/relu passes):
   same float operations, same order. *)
let linear_rows_into ?residual ?relu t (lin : Layer.Linear.t) x out =
  Tensor.matmul_packed_into ~bias:lin.Layer.Linear.b.Var.value ?residual ?relu
    out x (packed_of t lin)
[@@hot]

(* quantized counterpart of [linear_rows_into]: int8×int8→int GEMM over
   the memoized per-row-quantized weights with dynamic activation
   quantization, float rescale and the same fused epilogue *)
let linear_rows_quant_into ?residual ?relu t ~scratch:qs (lin : Layer.Linear.t)
    x out =
  Tensor.Q.matmul_qt_into ~bias:lin.Layer.Linear.b.Var.value ?residual ?relu
    ~scratch:qs out x (qpack_of t lin)
[@@hot]

(* Test hook: tamper the memoized int8 policy-head weights in place.
   The qpack's version stamp still matches, so the corruption survives
   until the next weight mutation — a subsequent certification pass sees
   a real int8-vs-float divergence and must reject the path. *)
let corrupt_quantized_for_test t =
  Tensor.Q.corrupt_for_test (qpack_of t t.policy_head)

(* per-row LayerNorm mirroring Ad.layernorm's arithmetic term for term;
   the [_into] form overwrites every cell of [out], so dirty scratch
   buffers are fine *)
let layernorm_rows_into (ln : Layer.Layernorm.t) x out =
  let eps = 1e-5 in
  let r, c = Tensor.dims2 x in
  let ro, co = Tensor.dims2 out in
  if ro <> r || co <> c then
    invalid_arg "Pvnet.layernorm_rows_into: shape mismatch";
  let nf = float_of_int c in
  let xd = Tensor.data x in
  let gd = Tensor.data ln.Layer.Layernorm.gain.Var.value in
  let bd = Tensor.data ln.Layer.Layernorm.bias.Var.value in
  let od = Tensor.data out in
  for i = 0 to r - 1 do
    let base = i * c in
    let s = ref 0.0 in
    for j = 0 to c - 1 do
      s := !s +. Float.Array.unsafe_get xd (base + j)
    done;
    let mu = !s /. nf in
    let acc = ref 0.0 in
    for j = 0 to c - 1 do
      let d = Float.Array.unsafe_get xd (base + j) -. mu in
      acc := !acc +. (d *. d)
    done;
    let var = !acc /. nf in
    let sigma = sqrt (var +. eps) in
    for j = 0 to c - 1 do
      let xhat = (Float.Array.unsafe_get xd (base + j) -. mu) /. sigma in
      Float.Array.unsafe_set od (base + j)
        ((Float.Array.unsafe_get gd j *. xhat) +. Float.Array.unsafe_get bd j)
    done
  done
[@@hot]

let layernorm_rows (ln : Layer.Layernorm.t) x =
  let r, c = Tensor.dims2 x in
  let out = Tensor.zeros [| r; c |] in
  layernorm_rows_into ln x out;
  out

let residual_rows (blk : Layer.Residual.t) x =
  let h = layernorm_rows blk.Layer.Residual.ln x in
  let h = relu_t (linear_rows blk.Layer.Residual.fc1 h) in
  let h = linear_rows blk.Layer.Residual.fc2 h in
  Tensor.add x h

(* --- GCN readout: flat CSR kernel ----------------------------------- *)

(* Rebuild the structure cache from the adjacency tables — once per
   topology stamp (or when a leaf revives a vertex the cache never saw),
   not once per leaf.  Blocks are encoded straight into [s_blocks], not
   through [message_matrix]: the cache would only hold a second copy of
   each block. *)
let build_structure t rd g =
  rd.s_stamp <- -1;
  let m = t.config.m in
  let mm = m * m in
  let cap = Graph.capacity g in
  let edges = ref 0 in
  for v = 0 to cap - 1 do
    if Graph.is_alive g v then edges := !edges + Graph.degree g v
  done;
  let e = !edges in
  (* every buffer is sized to this graph: grown when short, reallocated
     when more than 4x too large, so a replica that once read a big graph
     does not keep its memory (see [readout_bytes]) *)
  let misfit have need = have < need || have > 4 * need in
  if misfit (Bytes.length rd.s_live) cap then begin
    rd.s_live <- Bytes.create cap;
    rd.s_start <- Array.make (cap + 1) 0;
    rd.row_of <- Array.make cap (-1)
  end;
  if misfit (Array.length rd.s_nbr) e then begin
    let c = e + (e / 4) in
    rd.s_nbr <- Array.make c 0;
    rd.s_fin <- Bytes.create c;
    rd.s_blocks <- Float.Array.create (c * mm)
  end;
  (* a leaf has at most [cap] live vertices *)
  if misfit (Array.length rd.ids) cap then begin
    rd.ids <- Array.make cap 0;
    rd.nz <- Array.make (cap * m) 0;
    rd.nzv <- Float.Array.create (cap * m);
    rd.nzc <- Array.make cap 0;
    rd.h <- Tensor.zeros [| cap; m |];
    rd.h' <- Tensor.zeros [| cap; m |];
    rd.self <- Tensor.zeros [| cap; m |];
    rd.msg <- Tensor.zeros [| cap; m |]
  end;
  let p = ref 0 in
  for v = 0 to cap - 1 do
    rd.s_start.(v) <- !p;
    if Graph.is_alive g v then begin
      Bytes.set rd.s_live v '\001';
      List.iter
        (fun u ->
          let off = !p * mm in
          Mat.blit_to_floatarray (Option.get (Graph.edge_ref g v u)) rd.s_blocks off;
          let fin = ref true in
          for q = off to off + mm - 1 do
            let x = message_entry t (Float.Array.get rd.s_blocks q) in
            if not (Float.is_finite x) then fin := false;
            Float.Array.set rd.s_blocks q x
          done;
          rd.s_nbr.(!p) <- u;
          Bytes.set rd.s_fin !p (if !fin then '\001' else '\000');
          incr p)
        (Graph.neighbors g v)
    end
    else Bytes.set rd.s_live v '\000'
  done;
  rd.s_start.(cap) <- !p;
  rd.s_cap <- cap;
  rd.s_stamp <- Graph.topology_stamp g

(* True when the structure cache covers every live vertex of [g]:
   same stamp and capacity, and no vertex live now that was dead at
   build time (under one stamp, the edge between two vertices alive at
   both times is the same physical matrix). *)
let structure_covers rd g =
  rd.s_stamp = Graph.topology_stamp g
  && rd.s_cap = Graph.capacity g
  &&
  let ok = ref true in
  for v = 0 to rd.s_cap - 1 do
    if Graph.is_alive g v && Bytes.unsafe_get rd.s_live v = '\000' then
      ok := false
  done;
  !ok
[@@hot]

(* Does live vertex [v] have a live neighbour? *)
let has_live_neighbor rd g v =
  let e = ref rd.s_start.(v) and stop = rd.s_start.(v + 1) in
  while !e < stop && not (Graph.is_alive g (Array.unsafe_get rd.s_nbr !e)) do
    incr e
  done;
  !e < stop
[@@hot]

(* Number H's rows: live vertices with a live neighbour first, then the
   isolated ones, each group in increasing id order — so the message
   transform can run over rows [0, k) with the self transform fused in
   as its residual.  Returns [k], the number of rows with a neighbour;
   every live vertex gets a row. *)
let number_rows rd g =
  let k = ref 0 in
  for v = 0 to rd.s_cap - 1 do
    rd.row_of.(v) <- -1;
    if Graph.is_alive g v && has_live_neighbor rd g v then begin
      rd.row_of.(v) <- !k;
      rd.ids.(!k) <- v;
      incr k
    end
  done;
  let r = ref !k in
  for v = 0 to rd.s_cap - 1 do
    if Graph.is_alive g v && rd.row_of.(v) < 0 then begin
      rd.row_of.(v) <- !r;
      rd.ids.(!r) <- v;
      incr r
    end
  done;
  !k
[@@hot]

(* Row [r]'s message mean for one layer: for each live neighbour u in
   increasing id order, [mv (φ(M_vu)/m) h_u] accumulated from +0 in
   ascending column order, added into the running sum, then the sum
   scaled by [1 / deg] — [Tensor.mv], [add_into] and [scale] term for
   term.  The column loop skips columns where h_u is exactly zero, but
   only for blocks whose entries are all finite: there each skipped
   product is ±0, and adding ±0 to an accumulator that started at +0
   never changes its bits.  A non-finite entry (the φ pole at a cost of
   exactly -cost_scale gives +∞) times 0 is NaN, which must reach the
   relu as it always has. *)
let message_row t rd ~r ~v =
  let m = t.config.m in
  let mm = m * m in
  let hd = Tensor.data rd.h and md = Tensor.data rd.msg in
  let bd = rd.s_blocks and nz = rd.nz and nzv = rd.nzv in
  let base = r * m in
  for i = 0 to m - 1 do
    Float.Array.unsafe_set md (base + i) 0.0
  done;
  let deg = ref 0 in
  for e = rd.s_start.(v) to rd.s_start.(v + 1) - 1 do
    let ru = Array.unsafe_get rd.row_of (Array.unsafe_get rd.s_nbr e) in
    if ru >= 0 then begin
      incr deg;
      let hb = ru * m and off = e * mm in
      if Bytes.unsafe_get rd.s_fin e = '\001' then begin
        (* four output rows per sweep over u's nonzero columns: four
           independent accumulator chains, each still summing its own
           row in ascending column order *)
        let cnt = Array.unsafe_get rd.nzc ru in
        let i = ref 0 in
        while !i + 3 < m do
          let b0 = off + (!i * m) in
          let b1 = b0 + m in
          let b2 = b1 + m in
          let b3 = b2 + m in
          let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
          for q = hb to hb + cnt - 1 do
            let j = Array.unsafe_get nz q and x = Float.Array.unsafe_get nzv q in
            a0 := !a0 +. (Float.Array.unsafe_get bd (b0 + j) *. x);
            a1 := !a1 +. (Float.Array.unsafe_get bd (b1 + j) *. x);
            a2 := !a2 +. (Float.Array.unsafe_get bd (b2 + j) *. x);
            a3 := !a3 +. (Float.Array.unsafe_get bd (b3 + j) *. x)
          done;
          let o = base + !i in
          Float.Array.unsafe_set md o (Float.Array.unsafe_get md o +. !a0);
          Float.Array.unsafe_set md (o + 1) (Float.Array.unsafe_get md (o + 1) +. !a1);
          Float.Array.unsafe_set md (o + 2) (Float.Array.unsafe_get md (o + 2) +. !a2);
          Float.Array.unsafe_set md (o + 3) (Float.Array.unsafe_get md (o + 3) +. !a3);
          i := !i + 4
        done;
        while !i < m do
          let b0 = off + (!i * m) in
          let a0 = ref 0.0 in
          for q = hb to hb + cnt - 1 do
            a0 :=
              !a0
              +. (Float.Array.unsafe_get bd (b0 + Array.unsafe_get nz q)
                 *. Float.Array.unsafe_get nzv q)
          done;
          let o = base + !i in
          Float.Array.unsafe_set md o (Float.Array.unsafe_get md o +. !a0);
          incr i
        done
      end
      else
        for i = 0 to m - 1 do
          let bi = off + (i * m) in
          let acc = ref 0.0 in
          for j = 0 to m - 1 do
            acc :=
              !acc
              +. (Float.Array.unsafe_get bd (bi + j)
                 *. Float.Array.unsafe_get hd (hb + j))
          done;
          Float.Array.unsafe_set md (base + i)
            (Float.Array.unsafe_get md (base + i) +. !acc)
        done
    end
  done;
  let s = 1.0 /. float_of_int !deg in
  for i = 0 to m - 1 do
    Float.Array.unsafe_set md (base + i) (s *. Float.Array.unsafe_get md (base + i))
  done
[@@hot]

(* One GCN layer over rows [0, n): H' = relu(H W_selfᵀ + b_self
   + M W_msgᵀ + b_msg) on the [k] rows with neighbours, relu(H W_selfᵀ
   + b_self) on the rest.  The self GEMM leaves its rows in [self]; the
   message GEMM adds them as its fused residual ([self + msg], the
   operand order of the tape's [Ad.add self msg]) and applies the
   relu. *)
let gcn_layer t rd layer ~n ~k =
  let m = t.config.m in
  let hd = Tensor.data rd.h in
  (* nonzero columns of the rows messages read: every neighbour of a row
     in [0, k) has a live neighbour itself, so it is a row in [0, k) *)
  for r = 0 to k - 1 do
    let base = r * m in
    let c = ref 0 in
    for j = 0 to m - 1 do
      let x = Float.Array.unsafe_get hd (base + j) in
      if x <> 0.0 then begin
        Array.unsafe_set rd.nz (base + !c) j;
        Float.Array.unsafe_set rd.nzv (base + !c) x;
        incr c
      end
    done;
    Array.unsafe_set rd.nzc r !c
  done;
  for r = 0 to k - 1 do
    message_row t rd ~r ~v:(Array.unsafe_get rd.ids r)
  done;
  Tensor.matmul_packed_into ~rows:n ~bias:layer.w_self.Layer.Linear.b.Var.value
    rd.self rd.h (packed_of t layer.w_self);
  if k > 0 then
    Tensor.matmul_packed_into ~rows:k ~bias:layer.w_msg.Layer.Linear.b.Var.value
      ~residual:rd.self ~relu:true rd.h' rd.msg (packed_of t layer.w_msg);
  let sd = Tensor.data rd.self and od = Tensor.data rd.h' in
  for q = k * m to (n * m) - 1 do
    let x = Float.Array.unsafe_get sd q in
    Float.Array.unsafe_set od q (if x > 0.0 then x else 0.0)
  done;
  let h = rd.h in
  rd.h <- rd.h';
  rd.h' <- h
[@@hot]

(* The 3m readout row [h_next ‖ mean_v h_v ‖ φ(C_next)] written into
   [out], bit-identical to the tape forward's GCN + readout. *)
let readout_into t g ~next out =
  let rd = t.arena.rd in
  let m = t.config.m in
  if not (structure_covers rd g) then build_structure t rd g;
  let n = Graph.n_alive g in
  let k = number_rows rd g in
  let hd = Tensor.data rd.h in
  for r = 0 to n - 1 do
    features_into t (Graph.cost g (Array.unsafe_get rd.ids r)) hd (r * m)
  done;
  for l = 0 to Array.length t.gcn - 1 do
    gcn_layer t rd t.gcn.(l) ~n ~k
  done;
  let od = Tensor.data out in
  let hd = Tensor.data rd.h in
  let nb = rd.row_of.(next) * m in
  for i = 0 to m - 1 do
    Float.Array.unsafe_set od i (Float.Array.unsafe_get hd (nb + i));
    Float.Array.unsafe_set od (m + i) 0.0
  done;
  (* global mean pool: accumulated from +0 in increasing vertex id order,
     then scaled by 1/n *)
  for v = 0 to rd.s_cap - 1 do
    let r = Array.unsafe_get rd.row_of v in
    if r >= 0 then
      for i = 0 to m - 1 do
        Float.Array.unsafe_set od (m + i)
          (Float.Array.unsafe_get od (m + i) +. Float.Array.unsafe_get hd ((r * m) + i))
      done
  done;
  let s = 1.0 /. float_of_int n in
  for i = 0 to m - 1 do
    Float.Array.unsafe_set od (m + i) (s *. Float.Array.unsafe_get od (m + i))
  done;
  features_into t (Graph.cost g next) od (2 * m)
[@@hot]

(* A state's whole contribution to a batched forward, captured while its
   graph is live: the 3m readout row plus a private copy of the next
   vertex's cost vector (the post-trunk mask).  Incremental search states
   share one mutating graph, so a batch materializes each leaf in turn as
   a [prepared] and only then runs the trunk GEMMs. *)
type prepared = { p_row : Tensor.t; p_mask : Vec.t; p_quant : bool }

let prepare ?quantized t g ~next =
  if Graph.m g <> t.config.m then invalid_arg "Pvnet.prepare: m mismatch";
  if not (Graph.is_alive g next) then
    invalid_arg "Pvnet.prepare: next vertex not alive";
  let p_quant =
    match quantized with
    | Some q -> q
    | None -> t.quant_serve && t.quant_certified = t.version
  in
  let p_row = Tensor.zeros [| 3 * t.config.m |] in
  readout_into t g ~next p_row;
  { p_row; p_mask = Vec.copy (Graph.cost g next); p_quant }

let prepared_row p = Tensor.copy p.p_row

let readout_bytes t =
  let rd = t.arena.rd in
  let floats x = Float.Array.length (Tensor.data x) in
  Bytes.length rd.s_live + Bytes.length rd.s_fin
  + 8
    * (Array.length rd.s_start + Array.length rd.s_nbr
     + Float.Array.length rd.s_blocks + Array.length rd.row_of
     + Array.length rd.ids + Array.length rd.nz + Float.Array.length rd.nzv
     + Array.length rd.nzc + floats rd.h + floats rd.h' + floats rd.self
     + floats rd.msg)

(* Scratch buffers for a batch of [b] rows, reused call over call.  The
   64-size-class bound exists only to keep pathological callers from
   pinning unbounded memory; a search loop settles on a handful of batch
   sizes, so in steady state this allocates nothing. *)
let buffers t b =
  let a = t.arena in
  match Hashtbl.find_opt a.bufs b with
  | Some bu -> bu
  | None ->
      if Hashtbl.length a.bufs > 64 then Hashtbl.reset a.bufs;
      let m = t.config.m and w = t.config.trunk_width in
      let bu =
        {
          sx0 = Tensor.zeros [| b; 3 * m |];
          sx = Tensor.zeros [| b; w |];
          sb1 = Tensor.zeros [| b; w |];
          sb2 = Tensor.zeros [| b; w |];
          slogits = Tensor.zeros [| b; m |];
          svalues = Tensor.zeros [| b; 1 |];
        }
      in
      Hashtbl.replace a.bufs b bu;
      bu

(* The coalesced trunk/heads forward.  With [scratch] (the default) the
   whole pass runs in the replica's arena: rows are blitted into a
   reusable stack, every GEMM runs the packed fused kernel into a
   preallocated buffer (bias/residual/relu folded into the epilogue),
   and the packed weight panels are memoized per weights version — in
   steady state nothing is allocated but the per-sample result arrays.
   Every fused step computes the same IEEE expressions in the same order
   as the allocating path ([matmul] + bias + relu/residual as separate
   passes), so the two paths are bit-identical; [~scratch:false] keeps
   the allocating path alive as the benchmark baseline and the
   equivalence-test oracle. *)
(* The float scratch forward: rows already blitted into [bu.sx0]; every
   GEMM runs the packed fused kernel (bias, residual add and relu folded
   into the epilogue), so each layer makes one pass over memory and the
   whole trunk allocates nothing. *)
let scratch_forward t bu =
  linear_rows_into ~relu:true t t.trunk_in bu.sx0 bu.sx;
  Array.iter
    (fun (blk : Layer.Residual.t) ->
      layernorm_rows_into blk.Layer.Residual.ln bu.sx bu.sb1;
      linear_rows_into ~relu:true t blk.Layer.Residual.fc1 bu.sb1 bu.sb2;
      (* fc2 + bias + residual fused, written straight into sx (the
         out == residual aliasing the packed kernel supports) *)
      linear_rows_into ~residual:bu.sx t blk.Layer.Residual.fc2 bu.sb2 bu.sx)
    t.trunk;
  layernorm_rows_into t.trunk_ln bu.sx bu.sb1;
  linear_rows_into t t.policy_head bu.sb1 bu.slogits;
  linear_rows_into t t.value_head bu.sb1 bu.svalues

(* The int8 serving forward: same structure, every linear routed through
   the quantized GEMM.  LayerNorm, the residual carries and the heads'
   tanh/softmax stay float. *)
let quant_forward t bu n =
  let qs = quant_scratch t n in
  linear_rows_quant_into ~relu:true t ~scratch:qs t.trunk_in bu.sx0 bu.sx;
  Array.iter
    (fun (blk : Layer.Residual.t) ->
      layernorm_rows_into blk.Layer.Residual.ln bu.sx bu.sb1;
      linear_rows_quant_into ~relu:true t ~scratch:qs blk.Layer.Residual.fc1
        bu.sb1 bu.sb2;
      linear_rows_quant_into ~residual:bu.sx t ~scratch:qs
        blk.Layer.Residual.fc2 bu.sb2 bu.sx)
    t.trunk;
  layernorm_rows_into t.trunk_ln bu.sx bu.sb1;
  linear_rows_quant_into t ~scratch:qs t.policy_head bu.sb1 bu.slogits;
  linear_rows_quant_into t ~scratch:qs t.value_head bu.sb1 bu.svalues

(* Per-row mask + softmax straight out of the logits buffer into the
   result array, no intermediate tensors.  Reproduces [Ad.softmax] over
   the [init1]-masked row term for term: the max folds [Float.max] over
   the masked values in ascending order (inadmissible colors read as
   -inf), [exp (x -. mx)] per element, the normalizer sums in ascending
   order, and each prior is [(1.0 /. z) *. e] — so results stay
   bit-identical to the scalar [predict] epilogue. *)
let mask_results t preps logits values =
  let m = t.config.m in
  let ld = Tensor.data logits and vd = Tensor.data values in
  (if Tensor.dims2 logits <> (Array.length preps, m)
   || Tensor.dims2 values <> (Array.length preps, 1)
   then invalid_arg "Pvnet.mask_results: output buffer shape mismatch");
  Array.mapi
    (fun i p ->
      let cost_vec = p.p_mask in
      let base = i * m in
      let priors =
        if Vec.is_all_inf cost_vec then Array.make m 0.0
        else begin
          let masked c =
            if Cost.is_inf (Vec.get cost_vec c) then neg_infinity
            else Float.Array.unsafe_get ld (base + c)
          in
          let mx = ref neg_infinity in
          for c = 0 to m - 1 do
            mx := Float.max !mx (masked c)
          done;
          let e = Array.make m 0.0 in
          let z = ref 0.0 in
          for c = 0 to m - 1 do
            let v = exp (masked c -. !mx) in
            e.(c) <- v;
            z := !z +. v
          done;
          let inv = 1.0 /. !z in
          for c = 0 to m - 1 do
            e.(c) <- inv *. e.(c)
          done;
          e
        end
      in
      (priors, Float.tanh (Float.Array.unsafe_get vd i)))
    preps

let run_quant t preps =
  let n = Array.length preps in
  let bu = buffers t n in
  Array.iteri (fun i p -> Tensor.blit_row_into p.p_row i bu.sx0) preps;
  quant_forward t bu n;
  mask_results t preps bu.slogits bu.svalues

let predict_prepared_quantized_unsafe t preps =
  match preps with
  | [||] -> [||]
  | _ ->
      t.evals <- t.evals + Array.length preps;
      run_quant t preps

let predict_prepared ?(scratch = true) t preps =
  match preps with
  | [||] -> [||]
  | _ ->
      let n = Array.length preps in
      t.evals <- t.evals + n;
      let quantized = preps.(0).p_quant in
      Array.iter
        (fun p ->
          if p.p_quant <> quantized then
            invalid_arg "Pvnet.predict_prepared: mixed quantized batch")
        preps;
      if quantized then begin
        (* the certification gate: int8 serving requires a certificate
           for the exact current weights (Check.Quantcert issues it) *)
        if t.quant_certified <> t.version then
          invalid_arg
            "Pvnet.predict_prepared: quantized path not certified for \
             current weights";
        run_quant t preps
      end
      else if scratch then begin
        let bu = buffers t n in
        Array.iteri (fun i p -> Tensor.blit_row_into p.p_row i bu.sx0) preps;
        scratch_forward t bu;
        mask_results t preps bu.slogits bu.svalues
      end
      else begin
        let rows = Array.to_list (Array.map (fun p -> p.p_row) preps) in
        let x = relu_t (linear_rows t.trunk_in (Tensor.stack_rows rows)) in
        let x = Array.fold_left (fun x blk -> residual_rows blk x) x t.trunk in
        let x = layernorm_rows t.trunk_ln x in
        mask_results t preps (linear_rows t.policy_head x)
          (linear_rows t.value_head x)
      end

let predict_batch t states =
  match states with
  | [] -> [||]
  | _ ->
      List.iter
        (fun (g, _) ->
          if Graph.m g <> t.config.m then
            invalid_arg "Pvnet.predict_batch: m mismatch")
        states;
      predict_prepared t
        (Array.of_list (List.map (fun (g, next) -> prepare t g ~next) states))

(* --- Training -------------------------------------------------------- *)

type sample = {
  graph : Pbqp.Graph.t;
  next : int;
  policy : float array;
  value : float;
}

let loss t ctx sample =
  if Array.length sample.policy <> t.config.m then
    invalid_arg "Pvnet.loss: policy length mismatch";
  let logits, value = forward t ctx sample.graph ~next:sample.next in
  let cost_vec = Graph.cost sample.graph sample.next in
  (* Mask inadmissible colors with a large negative constant so the
     softmax assigns them no probability; the policy target is zero there,
     so no gradient flows to the mask. *)
  let mask =
    Ad.const
      (Tensor.init1 t.config.m (fun i ->
           if Cost.is_inf (Vec.get cost_vec i) then -1e9 else 0.0))
  in
  let xent =
    Ad.softmax_xent (Ad.add logits mask) (Tensor.of_array1 sample.policy)
  in
  let d = Ad.sub value (Ad.scalar sample.value) in
  Ad.add xent (Ad.mul d d)

let train_batch t opt samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let grads = Grads.create () in
      let total = ref 0.0 in
      let vars = params t in
      List.iter
        (fun s ->
          let ctx = Ad.ctx () in
          let l = loss t ctx s in
          Ad.backward l;
          total := !total +. Tensor.get1 (Ad.value l) 0;
          Grads.add_from_ctx grads ctx vars)
        samples;
      Adam.step opt (Grads.to_list_ordered grads ~vars);
      bump_version t;
      !total /. float_of_int (List.length samples)

(* Data-parallel training step.  Each sample's forward/backward is an
   independent pool task running on a per-worker replica (forward is not
   thread-safe: the tape-free msg_cache is a plain Hashtbl); the merge
   on the submitting domain then replays exactly the serial reduction —
   gradients combined per parameter in ascending sample order (copy then
   add_into, like [Grads.add]), losses summed in sample order, the grads
   list handed to Adam in [params] order — so the updated weights are
   bit-identical to [train_batch] for any pool size. *)
let train_batch_parallel ?weights ~pool ~replicas t opt samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let nw = Par.Pool.size pool in
      if Array.length replicas <> nw then
        invalid_arg "Pvnet.train_batch_parallel: replicas/pool size mismatch";
      (* Stale-sample down-weighting (distributed learner): sample [i]'s
         loss and gradient are scaled by [weights.(i)] before the merge.
         An all-ones array short-circuits to the unweighted path, whose
         bitwise behaviour is locked down by test_par — the distributed
         N=1 run leans on that identity. *)
      let weights =
        match weights with
        | Some ws when Array.exists (fun w -> w <> 1.0) ws ->
            if Array.length ws <> List.length samples then
              invalid_arg "Pvnet.train_batch_parallel: weights/samples mismatch";
            Some ws
        | _ -> None
      in
      Array.iter (fun r -> copy_into ~src:t ~dst:r) replicas;
      let rparams = Array.map (fun r -> Array.of_list (params r)) replicas in
      let samples = Array.of_list samples in
      let results =
        Par.Pool.map pool samples ~f:(fun ~worker s ->
            let net = replicas.(worker) in
            let ctx = Ad.ctx () in
            let l = loss net ctx s in
            Ad.backward l;
            let ps = rparams.(worker) in
            let gs = ref [] in
            for j = Array.length ps - 1 downto 0 do
              match Ad.var_grad ctx ps.(j) with
              | Some g -> gs := (j, g) :: !gs
              | None -> ()
            done;
            (Tensor.get1 (Ad.value l) 0, !gs))
      in
      let vars = Array.of_list (params t) in
      let acc = Array.make (Array.length vars) None in
      let total = ref 0.0 in
      Array.iteri
        (fun i (l, gs) ->
          let w = match weights with None -> 1.0 | Some ws -> ws.(i) in
          total := !total +. (w *. l);
          List.iter
            (fun (j, g) ->
              let g = match weights with None -> g | Some _ -> Tensor.scale w g in
              match acc.(j) with
              | None -> acc.(j) <- Some (Tensor.copy g)
              | Some a -> Tensor.add_into a g)
            gs)
        results;
      let n = Array.length samples in
      let s = 1.0 /. float_of_int n in
      let grads = ref [] in
      for j = Array.length vars - 1 downto 0 do
        match acc.(j) with
        | Some a -> grads := (vars.(j), Tensor.scale s a) :: !grads
        | None -> ()
      done;
      Adam.step opt !grads;
      bump_version t;
      !total /. float_of_int n

(* --- Persistence ------------------------------------------------------ *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let c = t.config in
      Printf.fprintf oc "pvnet %d %d %d %d %.17g\n" c.m c.gcn_layers
        c.trunk_width c.trunk_blocks c.cost_scale;
      List.iter
        (fun (v : Var.t) ->
          let shape = Tensor.shape v.Var.value in
          Printf.fprintf oc "param %s %s\n" v.Var.name
            (String.concat "x" (Array.to_list (Array.map string_of_int shape)));
          let d = Tensor.data v.Var.value in
          Float.Array.iteri
            (fun i x ->
              if i > 0 then output_char oc ' ';
              Printf.fprintf oc "%.17g" x)
            d;
          output_char oc '\n')
        (params t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line () =
        match In_channel.input_line ic with
        | Some l -> l
        | None -> invalid_arg "Pvnet.load: truncated file"
      in
      let header = String.split_on_char ' ' (line ()) in
      let t =
        match header with
        | [ "pvnet"; m; gl; tw; tb; cs ] ->
            let config =
              {
                m = int_of_string m;
                gcn_layers = int_of_string gl;
                trunk_width = int_of_string tw;
                trunk_blocks = int_of_string tb;
                cost_scale = float_of_string cs;
              }
            in
            create ~rng:(Random.State.make [| 0 |]) config
        | _ -> invalid_arg "Pvnet.load: bad header"
      in
      let by_name = Hashtbl.create 32 in
      List.iter (fun (v : Var.t) -> Hashtbl.replace by_name v.Var.name v) (params t);
      (try
         while true do
           match In_channel.input_line ic with
           | None -> raise Exit
           | Some l when String.trim l = "" -> ()
           | Some l -> (
               match String.split_on_char ' ' l with
               | [ "param"; name; shape_s ] -> (
                   let values = line () in
                   match Hashtbl.find_opt by_name name with
                   | None ->
                       invalid_arg
                         (Printf.sprintf "Pvnet.load: unknown param %s" name)
                   | Some var ->
                       let shape =
                         String.split_on_char 'x' shape_s
                         |> List.map int_of_string |> Array.of_list
                       in
                       if shape <> Tensor.shape var.Var.value then
                         invalid_arg
                           (Printf.sprintf "Pvnet.load: shape mismatch for %s"
                              name);
                       let d = Tensor.data var.Var.value in
                       let toks =
                         String.split_on_char ' ' values
                         |> List.filter (fun s -> s <> "")
                       in
                       if List.length toks <> Float.Array.length d then
                         invalid_arg
                           (Printf.sprintf "Pvnet.load: value count for %s" name);
                       List.iteri
                         (fun i s -> Float.Array.set d i (float_of_string s))
                         toks)
               | _ -> invalid_arg "Pvnet.load: malformed line")
         done
       with Exit -> ());
      bump_version t;
      t)

(* --- Compact binary snapshots (parameter broadcast) ------------------- *)

(* The distributed learner broadcasts weights to actor processes after
   every optimizer step; the text checkpoint above renders ~%.17g per
   float (≈25 bytes), the snapshot stores raw IEEE-754 bits (8 bytes)
   and round-trips bitwise by construction.  Layout: one text header
   line, then per parameter a text line [p <name> <shape> <numel>]
   followed by numel little-endian float64 words and a newline.  Adam
   moments are deliberately excluded — actors only run inference. *)

let snapshot t =
  let b = Buffer.create 65536 in
  let c = t.config in
  Buffer.add_string b
    (Printf.sprintf "pvnet-bin1 %d %d %d %d %.17g\n" c.m c.gcn_layers
       c.trunk_width c.trunk_blocks c.cost_scale);
  List.iter
    (fun (v : Var.t) ->
      let shape = Tensor.shape v.Var.value in
      let d = Tensor.data v.Var.value in
      let n = Float.Array.length d in
      Buffer.add_string b
        (Printf.sprintf "p %s %s %d\n" v.Var.name
           (String.concat "x" (Array.to_list (Array.map string_of_int shape)))
           n);
      let raw = Bytes.create (8 * n) in
      for i = 0 to n - 1 do
        Bytes.set_int64_le raw (8 * i) (Int64.bits_of_float (Float.Array.get d i))
      done;
      Buffer.add_bytes b raw;
      Buffer.add_char b '\n')
    (params t);
  Buffer.contents b

(* Cursor-based parse over the snapshot string (it mixes text lines with
   raw float words, so a line-oriented reader cannot be reused). *)
let snapshot_header s =
  let fail msg = invalid_arg ("Pvnet.load_snapshot: " ^ msg) in
  let nl = try String.index s '\n' with Not_found -> fail "truncated header" in
  let config =
    match String.split_on_char ' ' (String.sub s 0 nl) with
    | [ "pvnet-bin1"; m; gl; tw; tb; cs ] -> (
        try
          {
            m = int_of_string m;
            gcn_layers = int_of_string gl;
            trunk_width = int_of_string tw;
            trunk_blocks = int_of_string tb;
            cost_scale = float_of_string cs;
          }
        with _ -> fail "malformed header")
    | _ -> fail "bad magic (expected pvnet-bin1)"
  in
  (config, nl + 1)

let load_snapshot t s =
  let fail msg = invalid_arg ("Pvnet.load_snapshot: " ^ msg) in
  let config, start = snapshot_header s in
  if config <> t.config then fail "config mismatch";
  let by_name = Hashtbl.create 32 in
  List.iter (fun (v : Var.t) -> Hashtbl.replace by_name v.Var.name v) (params t);
  let len = String.length s in
  let pos = ref start in
  let seen = ref 0 in
  while !pos < len do
    let nl =
      try String.index_from s !pos '\n' with Not_found -> fail "truncated entry"
    in
    let line = String.sub s !pos (nl - !pos) in
    pos := nl + 1;
    match String.split_on_char ' ' line with
    | [ "p"; name; shape_s; numel_s ] ->
        let numel =
          match int_of_string_opt numel_s with
          | Some n when n >= 0 -> n
          | _ -> fail "malformed numel"
        in
        let var =
          match Hashtbl.find_opt by_name name with
          | Some v -> v
          | None -> fail (Printf.sprintf "unknown param %s" name)
        in
        let shape =
          try
            String.split_on_char 'x' shape_s
            |> List.map int_of_string |> Array.of_list
          with _ -> fail "malformed shape"
        in
        if shape <> Tensor.shape var.Var.value then
          fail (Printf.sprintf "shape mismatch for %s" name);
        let d = Tensor.data var.Var.value in
        if numel <> Float.Array.length d then
          fail (Printf.sprintf "numel mismatch for %s" name);
        if !pos + (8 * numel) + 1 > len then fail "truncated values";
        let raw = Bytes.unsafe_of_string s in
        for i = 0 to numel - 1 do
          Float.Array.set d i
            (Int64.float_of_bits (Bytes.get_int64_le raw (!pos + (8 * i))))
        done;
        pos := !pos + (8 * numel);
        if s.[!pos] <> '\n' then fail "missing entry terminator";
        incr pos;
        incr seen
    | [ "" ] -> () (* tolerate a trailing blank line *)
    | _ -> fail "malformed entry line"
  done;
  if !seen <> List.length (params t) then fail "missing parameters";
  bump_version t

let snapshot_of_string s =
  let config, _ = snapshot_header s in
  let t = create ~rng:(Random.State.make [| 0 |]) config in
  load_snapshot t s;
  t
