(** The policy/value network for PBQP states (paper §III-D, §IV-D).

    Architecture, following the paper: GCN layers whose messages are
    modulated by the edge cost matrices (Fig. 4), a residual MLP trunk
    (the paper's "ResNet"), and two heads — P-Net (softmax over the [m]
    colors of the next vertex) and V-Net (tanh scalar in [-1, 1]).

    Cost encoding: an entry [c] of a cost vector or matrix enters the
    network as [1 / (1 + c / cost_scale)] (so ∞ → 0): a soft
    availability / compatibility weight whose rational decay keeps the
    wide dynamic range of spill weights distinguishable.  Hidden GCN features live in ℝ^m exactly as in
    the paper, so the [m × m] edge matrices apply to messages directly.
    The readout for heads is [h_next ‖ mean_v h_v ‖ φ(C_next)] — the
    paper's μ concatenation is not fixed-size across graphs, so we use the
    next-vertex embedding plus a global mean pool (see DESIGN.md).

    Deviation from the paper: normalization layers are LayerNorm, not
    BatchNorm (training is per-sample; see DESIGN.md). *)

type config = {
  m : int;  (** number of colors; the network is specific to it *)
  gcn_layers : int;
  trunk_width : int;
  trunk_blocks : int;
  cost_scale : float;  (** the [s] in [1/(1 + c/s)] *)
}

val default_config : m:int -> config
(** 2 GCN layers, width 32, 2 residual blocks, cost_scale 10. *)

type t

val create : rng:Random.State.t -> config -> t
val config : t -> config
val params : t -> Var.t list
val param_count : t -> int

val sync : src:t -> dst:t -> unit
(** Copy all parameter values from [src] into [dst].
    @raise Invalid_argument if the two nets have different configs. *)

val clone : t -> t
(** A deep copy with independent parameters. *)

val copy_into : src:t -> dst:t -> unit
(** {!sync} that is a physical no-op when [src == dst]: the idiom for
    refreshing long-lived per-worker replicas (of which worker 0's may
    alias the source net) without re-allocating clones. *)

val version : t -> int
(** The weights-identity stamp that versions {!Evalcache} entries.
    Globally fresh at {!create}/{!load} and after every optimizer step
    ({!train_batch}/{!train_batch_parallel} bump it); {!sync} copies the
    source's stamp along with the weights.  Equal stamps therefore imply
    bitwise-equal weights — a cache entry stamped with a stale version is
    never served. *)

val bump_version : t -> unit
(** Install a globally fresh stamp — for callers that mutate parameters
    directly (the training functions call this themselves). *)

(** {1 Inference} *)

val predict : t -> Pbqp.Graph.t -> next:int -> float array * float
(** [(priors, value)] for coloring vertex [next] of a reduced-graph state.
    Priors are a distribution over the [m] colors with zero mass on
    colors whose vertex cost is ∞ (all-zero if the vertex is a dead end).
    @raise Invalid_argument if the graph's [m] differs from the net's or
    [next] is not a live vertex. *)

val predict_batch :
  t -> (Pbqp.Graph.t * int) list -> (float array * float) array
(** [predict_batch t [(g, next); ...]] is {!predict} applied to every
    state, in order — but the per-vertex GCN transforms and the
    trunk/heads run as batch GEMMs over row-stacked features, without
    building an autodiff tape.  The arithmetic is replicated operation
    for operation, so results are bit-identical to the scalar path (the
    test suite asserts agreement to ≤1e-9; in practice the floats are
    equal).  Duplicate states and states from different graphs may mix
    in one batch.  [[]] maps to [[||]]. *)

type prepared
(** One state's contribution to a batched forward, captured while its
    graph was live: the GCN readout row and a private copy of the next
    vertex's cost vector (the output mask). *)

val prepare : ?quantized:bool -> t -> Pbqp.Graph.t -> next:int -> prepared
(** The per-state stage of {!predict_batch}.  Safe to call on a graph
    that is subsequently mutated (the incremental-search pattern: seek
    the shared trail graph to each leaf, prepare, move on).

    The GCN readout runs as a flat kernel (DESIGN.md "GCN readout"):
    the live graph as CSR — neighbours in increasing id order, each
    directed edge's [m × m] message block [φ(M_vu)/m] in one
    [floatarray] — cached per {!Pbqp.Graph.topology_stamp}, so leaves
    of one search reuse it; H as an [n × m] buffer in the replica's
    arena; the self and message transforms through the packed fused
    GEMM with bias, the [self + msg] residual and the relu in its
    epilogue.  After warm-up a call allocates only the result (the
    readout row, the mask copy, the record), whatever the graph's size.

    {b Bitwise contract}: the row is bit-identical to the GCN + readout
    of the autodiff forward behind {!predict} and {!loss} — [Tensor.mv], [add_into], [scale (1/deg)]
    and the global mean's accumulation are reproduced term for term, in
    the same order, with the same operand order.  The message product
    skips columns where the neighbour's feature is exactly zero only
    when the message block's entries are all finite: then each skipped
    product is ±0 and cannot change an accumulator that started at +0,
    while a non-finite block entry times 0 is NaN and must reach the
    relu.  (Costs of exactly [-cost_scale] encode as +∞.)

    [quantized] selects the int8 serving path for this state's batch; it
    defaults to [quantized_serve t && quantized_certified t], so
    ordinary callers follow the net's serving mode and silently fall
    back to float while no certificate is held.  Passing
    [~quantized:true] explicitly requests the int8 path — then
    {!predict_prepared} raises unless the certificate is current.
    @raise Invalid_argument as {!predict}. *)

val prepared_row : prepared -> Tensor.t
(** A copy of the prepared state's [3m] readout row
    [h_next ‖ mean_v h_v ‖ φ(C_next)] — for equivalence tests. *)

val msg_cache_budget : int
(** Byte budget of the per-replica message-matrix cache (the [Mat.id]-
    keyed [φ(M)/m] tensors behind the autodiff forward of {!predict} and
    {!loss}): it is reset whenever an insertion would exceed this, so its
    memory stays bounded over any stream of graphs. *)

val message_cache_bytes : t -> int
(** The message cache's current size in bytes, by the same per-entry
    estimate the budget is enforced with. *)

val readout_bytes : t -> int
(** Bytes held by the replica's GCN readout arena (the CSR structure
    cache and the per-leaf H buffers).  Each structure rebuild resizes
    every buffer that is short of, or more than 4x larger than, what the
    current graph needs, so the arena follows the graph last read rather
    than the largest one ever seen. *)

val predict_prepared :
  ?scratch:bool -> t -> prepared array -> (float array * float) array
(** The batched trunk/heads stage: [predict_batch] is literally [prepare]
    per state followed by this, so mixing the two APIs is bit-identical.

    With [scratch] (default [true]) the pass runs in the net's reusable
    scratch arena — rows blitted into a persistent stack, GEMMs via
    [matmul_into] into preallocated buffers, activations in place,
    transposed weights memoized per {!version} — allocating nothing in
    steady state beyond the result arrays.  Every output row of the
    batched GEMMs and the per-row LayerNorms depends only on its own
    input row, and the in-place steps compute the same IEEE expressions
    in the same order as the allocating path, so results are bit-exact
    for every batch composition and for both [scratch] settings
    ([~scratch:false] preserves the allocating path as a baseline).

    Not thread-safe (the arena, like the message cache, belongs to the
    replica's owning worker) — but safe for {!Infer}'s floating server
    to run on a submitter's replica, because the owner blocks for the
    result while its ticket is in flight. *)

(** {1 Quantized serving (int8), behind the certification gate}

    Inference-only int8 serving: per-row int8 weight quantization
    memoized per {!version}, an int8×int8→int GEMM with float rescale
    and the same fused epilogues as the float path (LayerNorm, softmax
    and tanh stay float).  The path is {e gated}: batched inference only
    runs it while a certificate issued by [Check.Quantcert] matches the
    current weights version; any weight mutation (optimizer step, load)
    invalidates the certificate. *)

val set_quantized_serve : t -> bool -> unit
(** Ask batched inference to serve through the int8 path whenever a
    current certificate is held ({!prepare}'s default consults this). *)

val quantized_serve : t -> bool

val quantized_certified : t -> bool
(** Whether the held certificate matches the current weights version.
    {!sync} copies the certificate with the weights (equal versions
    imply bitwise-equal weights, so it transfers to replicas). *)

val mark_quantized_certified : t -> unit
(** Install a certificate for the current weights version.  Reserved for
    the certification harness ([Check.Quantcert]) — do not call after
    eyeballing; the harness checks policy argmax agreement and value
    error bounds on seeded graphs first. *)

val clear_quantized_certificate : t -> unit

val predict_prepared_quantized_unsafe :
  t -> prepared array -> (float array * float) array
(** The int8 forward {e without} the certification gate, regardless of
    how the batch was prepared — the entry point the certification
    harness (and benchmarks) use to measure the path before a
    certificate exists.  Never call from serving code. *)

val corrupt_quantized_for_test : t -> unit
(** Test hook: tamper the memoized int8 policy-head weights in place
    (the memo's version stamp still matches, so the corruption persists
    until the next weight mutation).  Exists to prove the certification
    gate rejects corrupted quantized weights. *)

val eval_count : t -> int
(** Lifetime number of leaf evaluations this net (replica) has served:
    {!predict} counts 1, the batched paths count their rows. *)

val reset_eval_count : t -> unit

(** {1 Training} *)

type sample = {
  graph : Pbqp.Graph.t;  (** reduced state (a private snapshot) *)
  next : int;  (** the vertex the action colors *)
  policy : float array;  (** MCTS visit distribution π (length m) *)
  value : float;  (** final reward z ∈ {-1, 0, +1} *)
}

val loss : t -> Ad.ctx -> sample -> Ad.t
(** Scalar node: cross-entropy(policy, P-Net) + (value − V-Net)².  The L2
    term of the paper's loss is applied as decoupled weight decay in
    {!Adam}. *)

val train_batch : t -> Adam.t -> sample list -> float
(** One optimizer step on the mean gradient of the batch; returns the mean
    loss.  Gradients reach Adam in [params] order (via
    [Grads.to_list_ordered]), the reduction order {!train_batch_parallel}
    reproduces. *)

val train_batch_parallel :
  ?weights:float array ->
  pool:Par.Pool.t -> replicas:t array -> t -> Adam.t -> sample list -> float
(** {!train_batch} with per-sample forward/backward passes sharded
    across the pool.  [replicas] must hold one net per pool worker
    (worker 0's may alias [t]); each is refreshed from [t] via
    {!copy_into} before the shard runs, so the same array can live for a
    whole training run.  Per-sample gradients are merged on the calling
    domain in ascending sample order and handed to Adam in [params]
    order — exactly the serial reduction — so the step is bit-identical
    to {!train_batch} for any pool size.

    [weights] (default all ones) scales each sample's loss and gradient
    contribution before the merge — the distributed learner's staleness
    down-weighting.  An all-ones array short-circuits to the unweighted
    path, so passing explicit 1.0s is bit-identical to omitting the
    argument.
    @raise Invalid_argument if [Array.length replicas] differs from the
    pool size, a replica's config differs from [t]'s, or [weights] and
    the batch have different lengths. *)

(** {1 Persistence} *)

val save : t -> string -> unit
val load : string -> t
(** @raise Invalid_argument on malformed or mismatched checkpoint files. *)

(** {1 Binary snapshots (parameter broadcast)}

    The compact wire form the distributed learner broadcasts to actors
    after optimizer steps: raw IEEE-754 parameter bits (bitwise
    round-trip by construction, ~3x smaller than the text checkpoint),
    excluding Adam moments — actors only run inference. *)

val snapshot : t -> string
(** Serialize config + all parameters. *)

val load_snapshot : t -> string -> unit
(** Overwrite [t]'s parameters from a snapshot and install a fresh
    {!version} stamp.  [load_snapshot t (snapshot src)] makes [t]'s
    parameters bitwise-equal to [src]'s.
    @raise Invalid_argument on malformed snapshots or config mismatch. *)

val snapshot_of_string : string -> t
(** A fresh net built from a snapshot (actor-side first receive). *)
