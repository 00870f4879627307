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
 *    assigned chip's engine; the router forwards each request's
 *    intermediate activations stage to stage through per-edge bounded
 *    queues, so concurrent requests stream (stage 0 works on request
 *    N+1 while stage 1 works on request N) and a slow stage
 *    backpressures its upstream instead of buffering unboundedly.
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
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
 * pipeline.
 *
 * Construction wires K already-loaded stage tenants (one per shard,
 * on `chips[s]`'s engine) into a pipeline; `submit` feeds stage 0 and
 * resolves its future with the final stage's output plus merged
 * telemetry.  Thread-safe; `beginDrain` + `awaitDrained` implement
 * the cluster's zero-loss hot-swap contract (stop accepting, let
 * every accepted request flow out the tail).  The router never
 * unloads its stage tenants -- the cluster owns their lifecycle and
 * must keep the engines serving until the router is drained.
 */
class ShardRouter
{
  public:
    struct Options
    {
        InterconnectParams interconnect;

        /**
         * Bound of each inter-stage queue, in requests: a stage more
         * than this far ahead of its consumer blocks (backpressure),
         * which keeps a slow stage from buffering the whole request
         * stream in flight.
         */
        int edgeQueueDepth = 64;
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
     * Feed one request into the pipeline.  With `block` true a full
     * ingress edge waits (front-door semantics); false returns an
     * immediately-ready `ResourceExhausted` instead (the failover
     * reaper's trySubmit semantics).  After `beginDrain` every submit
     * is an immediately-ready `Unavailable`.
     */
    std::future<StatusOr<InferenceResult>> submit(Tensor input,
                                                  bool block = true);

    /** Stop accepting new requests (idempotent). */
    void beginDrain();

    /**
     * Block until every accepted request has resolved.  The stage
     * engines must keep serving (or fail fast) for this to return.
     */
    void awaitDrained();

    /** Accepted requests not yet resolved. */
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

    /** One in-flight stage attempt awaiting its consumer. */
    struct Item
    {
        std::shared_ptr<Context> context;
        std::future<StatusOr<InferenceResult>> attempt;
    };

    /** One bounded inter-stage queue. */
    struct Edge
    {
        std::mutex mu;
        std::condition_variable notEmpty;
        std::condition_variable notFull;
        std::deque<Item> items;
        std::size_t reserved = 0; //!< slots claimed by submitters
        bool closed = false;
    };

    void forwardLoop(std::size_t stage); //!< consumes edges_[stage-1]
    void tailLoop();                     //!< consumes the last edge

    /** Merge one stage's result into the request accumulator. */
    void accumulate(Context &context, const InferenceResult &stage) const;

    /** Resolve a request with an error (counts a failure). */
    void fail(const std::shared_ptr<Context> &context, Status error);

    /** Resolve a request with the pipeline's final result. */
    void complete(const std::shared_ptr<Context> &context,
                  InferenceResult result);

    ChipFleet &fleet_;
    const std::string name_;
    const std::shared_ptr<const ShardedModel> model_;
    const std::vector<std::size_t> chips_;
    const std::vector<std::string> stageTenants_;
    const Options options_;

    std::vector<std::unique_ptr<Edge>> edges_; //!< one per stage
    std::vector<std::thread> threads_;

    mutable std::mutex mu_;
    std::condition_variable drainedCv_;
    bool draining_ = false;
    std::int64_t inflight_ = 0;
    Stats stats_;
    std::vector<double> queueWaits_; //!< bounded sample ring
    std::size_t queueWaitCursor_ = 0;
    bool started_ = false;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_SHARDING_HH
