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
 *  - `ShardRouter` runs the pipeline.  Each shard is a tenant on its
 *    assigned chip's engine.  The router owns no thread and no queue:
 *    a stage's completion callback prices the hop and submits the cut
 *    activations to the next stage's engine, and the tail's completion
 *    resolves the caller's request -- so concurrent requests stream
 *    (stage 0 works on request N+1 while stage 1 works on request N),
 *    the way FPSA's stages push results into the next through the
 *    routing fabric.  One in-flight bound per router, checked at
 *    ingress, keeps a slow stage from buffering the request stream.
 *    Every forward is priced by the modeled interconnect
 *    (`InterconnectParams`, src/sim/perf_model.hh) and surfaces in the
 *    request's `InferenceResult` (`shards`, `interconnectBytes`,
 *    `interconnectNanos`) and the router's stats.
 *
 * `ClusterEngine` owns the fallback policy (replicate-whole when a
 * chip fits the model, shard-across when none does), and places,
 * scales and fails over each multi-stage replica as a unit; see
 * runtime/cluster/cluster_engine.hh.
 */

#ifndef FPSA_RUNTIME_CLUSTER_SHARDING_HH
#define FPSA_RUNTIME_CLUSTER_SHARDING_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
 * Executes one multi-stage replica as a streaming chip-to-chip
 * pipeline, driven entirely by completion callbacks.
 *
 * Construction wires K already-loaded stage tenants (one per shard,
 * on `chips[s]`'s engine) into a pipeline; `submit` feeds stage 0 and
 * each stage's completion -- on that stage engine's worker -- submits
 * the cut activations to the next stage.  The tail's completion runs
 * the caller's `done` with the final output plus merged telemetry; the
 * first stage error runs it with that error.
 *
 * Backpressure is one in-flight bound, checked at ingress: the
 * smallest `queueDepth` among the stage engines.  Each stage tenant's
 * queue is fed only by this router, so a forward never finds it full
 * and forwards use the engines' non-blocking admission -- no engine
 * worker ever blocks inside a callback.
 *
 * Thread-safe; `beginDrain` + `awaitDrained` implement the cluster's
 * zero-loss hot-swap contract (stop accepting, let every accepted
 * request flow out the tail).  The router never unloads its stage
 * tenants -- the cluster owns their lifecycle and must keep the
 * engines serving until the router is drained.
 */
class ShardRouter
{
  public:
    struct Options
    {
        InterconnectParams interconnect;
    };

    /** Cumulative router telemetry (since construction). */
    struct Stats
    {
        std::int64_t accepted = 0;
        std::int64_t completed = 0;
        std::int64_t failed = 0;
        std::int64_t forwards = 0; //!< stage-to-stage handoffs

        std::int64_t interconnectBytes = 0;  //!< summed cut tensors
        NanoSeconds interconnectNanos = 0.0; //!< summed modeled cost

        /** Summed per-stage queue waits of completed requests. */
        double p50QueueMillis = 0.0;
        double p95QueueMillis = 0.0;
        double p99QueueMillis = 0.0;

        double throughput = 0.0; //!< completed / wall (first->last)
        double wallSeconds = 0.0;
    };

    /**
     * `stageTenants[s]` must already be loaded on
     * `fleet.engine(chips[s])`; `name` is the public tenant these
     * requests report as.  `model->shardCount()` == chips.size() ==
     * stageTenants.size() >= 1.  (No default for `options`: gcc's
     * delayed nested-class NSDMI parsing rejects one here; pass
     * `ShardRouter::Options{}` for the defaults.)
     */
    ShardRouter(ChipFleet &fleet, std::string name,
                std::shared_ptr<const ShardedModel> model,
                std::vector<std::size_t> chips,
                std::vector<std::string> stageTenants,
                Options options);

    /** Drains (requires the stage engines to still be serving). */
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /**
     * Feed one request into the pipeline, with `Engine::submit`'s
     * contract: an error return means the request was refused and
     * `done` never runs; OK means `done` runs exactly once.  At the
     * in-flight bound a `block`ing submit waits (front-door
     * semantics); otherwise it is refused `ResourceExhausted` (a
     * failover retry's backpressure signal).  After `beginDrain` every
     * submit is refused `Unavailable`.
     */
    Status submit(Tensor input, Engine::Completion done, bool block);

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

    Stats stats() const;

    const std::string &name() const { return name_; }
    const std::vector<std::size_t> &chips() const { return chips_; }
    const std::vector<std::string> &stageTenants() const
    {
        return stageTenants_;
    }
    const ShardedModel &model() const { return *model_; }
    const Options &options() const { return options_; }

  private:
    /** Per-request accumulator threaded through the stages. */
    struct Context;

    /** Submit `input` to stage `stage`; its completion continues. */
    Status submitStage(const std::shared_ptr<Context> &context,
                       std::size_t stage, Tensor input);

    /** Stage `stage`'s completion: forward, or finish at the tail. */
    void onStageDone(const std::shared_ptr<Context> &context,
                     std::size_t stage, StatusOr<InferenceResult> result);

    /**
     * Resolve a request: count it and release its in-flight slot, run
     * the caller's `done`, then mark it drained.  The router may be
     * destroyed as soon as it is marked drained.
     */
    void finish(Context &context, StatusOr<InferenceResult> result);

    ChipFleet &fleet_;
    const std::string name_;
    const std::shared_ptr<const ShardedModel> model_;
    const std::vector<std::size_t> chips_;
    const std::vector<std::string> stageTenants_;
    const Options options_;
    const std::int64_t inflightBound_; //!< the stages' least queueDepth

    mutable std::mutex mu_;
    std::condition_variable roomCv_;    //!< blocked submitters
    std::condition_variable drainedCv_; //!< awaitDrained
    bool draining_ = false;
    std::int64_t inflight_ = 0;   //!< accepted, result not yet known
    std::int64_t completing_ = 0; //!< caller's `done` still running
    Stats stats_;
    std::vector<double> queueWaits_; //!< bounded sample ring
    std::size_t queueWaitCursor_ = 0;
    bool started_ = false;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_SHARDING_HH
