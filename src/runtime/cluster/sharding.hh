/**
 * @file
 * Model sharding: serve one model that fits on no single chip by
 * splitting it at layer boundaries into K pieces and executing them as
 * a chip-to-chip pipeline.
 *
 * Two halves live here:
 *
 *  - `ModelPartitioner` picks the cuts.  Planning is analytic (no
 *    weights needed): every contiguous layer segment's ResourceDemand
 *    is computed through the same synthesize -> allocate -> netlist
 *    arithmetic the compile pipeline uses, and
 *    `planContiguousPartition` (src/synth/tiling.hh) chooses the K-1
 *    cut points that minimize the activation bytes crossing chips
 *    subject to every piece fitting a `ChipCapacity`.
 *    `partition()` then materializes the plan: each segment becomes
 *    its own subgraph (weights carried over, the cut tensor becoming
 *    the piece's input) compiled to a real `CompiledModel`.
 *
 *  - `ShardRouter` runs every replica, one stage or many.  Each piece
 *    is a tenant on its assigned chip's engine.  The router owns no
 *    thread, no queue and no telemetry: a stage's completion prices
 *    the hop and submits the cut activations to the next stage's
 *    engine, and the tail's completion resolves the caller's request
 *    -- so concurrent requests stream (stage 0 works on request N+1
 *    while stage 1 works on request N), the way FPSA's stages push
 *    results into the next through the routing fabric.  Every forward
 *    is priced by the modeled interconnect (`InterconnectParams`,
 *    src/sim/perf_model.hh) and surfaces in the request's
 *    `InferenceResult` (`shards`, `interconnectBytes`,
 *    `interconnectNanos`).
 *
 * `ClusterEngine` owns the fallback policy (a one-piece `wholeModel`
 * when a chip fits the model, a K-way split when none does), and
 * places, scales, calibrates and fails over each replica as a unit;
 * see runtime/cluster/cluster_engine.hh.
 */

#ifndef FPSA_RUNTIME_CLUSTER_SHARDING_HH
#define FPSA_RUNTIME_CLUSTER_SHARDING_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"
#include "runtime/cluster/chip_fleet.hh"
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"
#include "runtime/model_registry.hh"
#include "sim/perf_model.hh"

namespace fpsa
{

/** One planned shard: a contiguous layer range and its footprint. */
struct ShardSpec
{
    int index = 0;

    /** Inclusive positions into the parent graph's topological order. */
    std::size_t firstPosition = 0;
    std::size_t lastPosition = 0;

    Shape inputShape;  //!< per-sample input (the upstream cut tensor)
    Shape outputShape; //!< per-sample output

    /** Activation bytes forwarded downstream; 0 for the last shard. */
    std::int64_t cutBytesAfter = 0;

    /** Chip-resource footprint of this piece (admission unit). */
    ResourceDemand demand;
};

/** A complete partition plan for one model. */
struct ShardPlan
{
    std::vector<ShardSpec> shards;
    std::int64_t totalCutBytes = 0; //!< per request, across all cuts

    int shardCount() const { return static_cast<int>(shards.size()); }
};

/** A model materialized as an executable pipeline of pieces. */
struct ShardedModel
{
    ShardPlan plan;
    std::vector<std::shared_ptr<const CompiledModel>> pieces;

    int shardCount() const { return static_cast<int>(pieces.size()); }
};

/** Splits one model at layer boundaries into chip-sized pieces. */
class ModelPartitioner
{
  public:
    /**
     * Plan an exactly-`shards`-way split of `graph` compiled under
     * `options`, minimizing cut activation bytes subject to every
     * shard's demand fitting at least one of `capacities` (residual
     * chip budgets).  Analytic: works on weightless graphs, so
     * zoo-scale models can be capacity-planned without materializing
     * parameters.  Deterministic for identical inputs.  `Infeasible`
     * when no such split exists, `InvalidArgument` on bad arguments.
     */
    StatusOr<ShardPlan> plan(const Graph &graph,
                             const CompileOptions &options,
                             const std::vector<ChipCapacity> &capacities,
                             int shards) const;

    /**
     * The smallest feasible split in [minShards, maxShards] (0
     * maxShards means `capacities.size()`).  `Infeasible` carries the
     * last attempt's reason when every count fails.
     */
    StatusOr<ShardPlan> planAuto(
        const Graph &graph, const CompileOptions &options,
        const std::vector<ChipCapacity> &capacities, int minShards,
        int maxShards = 0) const;

    /**
     * Materialize the smallest feasible plan for a compiled model:
     * each segment becomes its own subgraph (original weights carried
     * over; the upstream cut tensor becomes the piece's input node)
     * compiled under the parent's `CompileOptions`.  Every piece's
     * stamped demand is re-checked against `capacities`; a piece that
     * outgrows its planning estimate bumps the shard count and
     * retries.
     */
    StatusOr<ShardedModel> partition(
        const CompiledModel &model,
        const std::vector<ChipCapacity> &capacities, int minShards = 2,
        int maxShards = 0) const;

    /** Bytes of one per-sample activation tensor (float32 elements). */
    static std::int64_t cutActivationBytes(const Shape &shape);

    /**
     * The subgraph of positions [first, last] of `topo`, inputs
     * remapped; when `first` > 0 the upstream cut tensor becomes a
     * fresh input node.  Node weights are carried over when present.
     * The range must be cut-legal (no edge other than `topo[first-1]`
     * -> segment crosses the boundary).
     */
    static Graph segmentGraph(const Graph &graph,
                              const std::vector<NodeId> &topo,
                              std::size_t first, std::size_t last);
};

/**
 * The modeled cost of forwarding `bytes` of cut activations from chip
 * `from` to chip `to`: hop distance is |index difference| on the
 * fleet's linear interconnect (`InterconnectParams`).
 */
NanoSeconds forwardNanos(const InterconnectParams &interconnect,
                         std::size_t from, std::size_t to,
                         std::int64_t bytes);

/**
 * A model served whole: one piece, the model itself, whose one
 * `ShardSpec` carries the whole model's demand and forwards nothing.
 */
ShardedModel wholeModel(std::shared_ptr<const CompiledModel> model);

/**
 * Executes one replica -- a chain of 1..K stage chips -- as a
 * streaming chip-to-chip pipeline, driven entirely by completion
 * callbacks.
 *
 * Construction wires K already-loaded stage tenants (one per piece,
 * on `chips[s]`'s engine) into a chain; `submit` feeds stage 0 and
 * each stage's completion -- on that stage engine's worker -- submits
 * the cut activations to the next stage.  The tail's completion runs
 * the caller's `done` with the final output plus merged telemetry; the
 * first stage error runs it with that error and the failing stage.
 *
 * Backpressure: the head stage admits a request exactly as a direct
 * engine submit would (a blocking submit waits for queue room, a
 * non-blocking one is refused `ResourceExhausted`), so a one-stage
 * chain adds no bound of its own.  Forwards use the engines'
 * non-blocking admission -- no engine worker ever blocks inside a
 * callback -- so a longer chain also bounds its in-flight requests,
 * at ingress, by the least `queueDepth` among its downstream stages:
 * each stage tenant's queue is fed only by this router, so a forward
 * never finds it full.
 *
 * The router keeps no telemetry of its own: each stage engine counts
 * its stage, and the cluster reads the chain's end-to-end numbers
 * from them.  Thread-safe; `beginDrain` + `awaitDrained` implement
 * the cluster's zero-loss hot-swap contract (stop accepting, let every
 * accepted request flow out the tail).  The router never unloads its
 * stage tenants -- the cluster owns their lifecycle and must keep the
 * engines serving until the router is drained.
 */
class ShardRouter
{
  public:
    /** `Completion`'s `failedStage` when no stage's execution failed. */
    static constexpr std::size_t kNoStage =
        std::numeric_limits<std::size_t>::max();

    /**
     * Runs exactly once per accepted request, with its outcome and
     * `failedStage`: the stage whose execution failed the request, or
     * `kNoStage` when it succeeded or a stage refused its forward (a
     * refusal says nothing about that stage's chip).
     */
    using Completion = std::function<void(StatusOr<InferenceResult> result,
                                          std::size_t failedStage)>;

    /**
     * `stageTenants[s]` must already be loaded on
     * `fleet.engine(chips[s])`; `name` is the public tenant these
     * requests report as.  `model->shardCount()` == chips.size() ==
     * stageTenants.size() >= 1.  Every forward is priced on
     * `interconnect`.
     */
    ShardRouter(ChipFleet &fleet, std::string name,
                std::shared_ptr<const ShardedModel> model,
                std::vector<std::size_t> chips,
                std::vector<std::string> stageTenants,
                InterconnectParams interconnect);

    /** Drains (requires the stage engines to still be serving). */
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /**
     * Feed one request into the chain, with `Engine::submit`'s
     * contract: an error return means the request was refused and
     * `done` never runs; OK means `done` runs exactly once.  A
     * `block`ing submit waits for room (front-door semantics);
     * otherwise a full chain refuses `ResourceExhausted` (a failover
     * retry's backpressure signal).  After `beginDrain` every submit
     * is refused `Unavailable`.
     */
    Status submit(Tensor input, Completion done, bool block);

    /** Stop accepting new requests (idempotent). */
    void beginDrain();

    /**
     * Block until every accepted request has resolved.  The stage
     * engines must keep serving (or fail fast) for this to return.
     */
    void awaitDrained();

    /**
     * Accepted requests not yet resolved (a request whose completion
     * is running no longer counts).
     */
    std::int64_t pending() const;

  private:
    /** Per-request accumulator threaded through the stages. */
    struct Context;

    /**
     * Submit `input` to stage `stage`; its completion continues.
     * Only the head's admission may block.
     */
    Status submitStage(const std::shared_ptr<Context> &context,
                       std::size_t stage, Tensor input, bool block);

    /** Stage `stage`'s completion: forward, or finish at the tail. */
    void onStageDone(const std::shared_ptr<Context> &context,
                     std::size_t stage, StatusOr<InferenceResult> result);

    /**
     * Resolve a request: release its in-flight slot, run the caller's
     * `done`, then mark it drained.  The router may be destroyed as
     * soon as it is marked drained.
     */
    void finish(Context &context, StatusOr<InferenceResult> result,
                std::size_t failedStage);

    ChipFleet &fleet_;
    const std::string name_;
    const std::shared_ptr<const ShardedModel> model_;
    const std::vector<std::size_t> chips_;
    const std::vector<std::string> stageTenants_;
    const InterconnectParams interconnect_;
    const std::int64_t inflightBound_; //!< downstream stages' least queueDepth

    mutable std::mutex mu_;
    std::condition_variable roomCv_;    //!< blocked submitters
    std::condition_variable drainedCv_; //!< awaitDrained
    bool draining_ = false;
    std::int64_t inflight_ = 0;   //!< accepted, result not yet known
    std::int64_t completing_ = 0; //!< caller's `done` still running
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_SHARDING_HH
