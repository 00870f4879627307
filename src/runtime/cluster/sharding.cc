#include "runtime/cluster/sharding.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "mapper/mapper.hh"
#include "pipeline.hh"
#include "synth/synthesizer.hh"
#include "synth/tiling.hh"

namespace fpsa
{

namespace
{

bool
fitsCapacity(const ResourceDemand &demand, const ChipCapacity &capacity)
{
    return demand.peBlocks <= capacity.peBlocks &&
           demand.smbBlocks <= capacity.smbBlocks &&
           demand.clbBlocks <= capacity.clbBlocks &&
           demand.routingTracks <= capacity.routingTracks;
}

bool
fitsAny(const ResourceDemand &demand,
        const std::vector<ChipCapacity> &capacities)
{
    for (const ChipCapacity &capacity : capacities)
        if (fitsCapacity(demand, capacity))
            return true;
    return false;
}

bool
isWeighted(OpKind kind)
{
    return kind == OpKind::Conv2d || kind == OpKind::FullyConnected;
}

/**
 * Footprint of one contiguous segment, through the same synthesize ->
 * allocate -> netlist arithmetic the compile pipeline stamps demand
 * with.  Analytic: needs no weights.
 */
ResourceDemand
segmentDemand(const Graph &graph, const std::vector<NodeId> &topo,
              std::size_t first, std::size_t last,
              const CompileOptions &options)
{
    const Graph sub =
        ModelPartitioner::segmentGraph(graph, topo, first, last);
    const SynthesisSummary summary =
        synthesizeSummary(sub, options.synth);
    const AllocationResult allocation = allocateForDuplication(
        summary, options.duplicationDegree, options.allocation);
    const Netlist netlist =
        netlistFromAllocation(summary, allocation, options.mapper);
    return resourceDemand(allocation, netlist);
}

} // namespace

// --------------------------------------------------- ModelPartitioner

std::int64_t
ModelPartitioner::cutActivationBytes(const Shape &shape)
{
    return shapeNumel(shape) *
           static_cast<std::int64_t>(sizeof(float));
}

Graph
ModelPartitioner::segmentGraph(const Graph &graph,
                               const std::vector<NodeId> &topo,
                               std::size_t first, std::size_t last)
{
    Graph sub;
    std::map<NodeId, NodeId> remap;
    if (first > 0) {
        // The upstream cut tensor becomes this piece's input node.
        remap[topo[first - 1]] =
            sub.addInput(graph.node(topo[first - 1]).outShape, "input");
    }
    for (std::size_t p = first; p <= last; ++p) {
        const GraphNode &node = graph.node(topo[p]);
        if (node.kind == OpKind::Input) {
            remap[topo[p]] = sub.addInput(node.outShape, node.name);
            continue;
        }
        std::vector<NodeId> inputs;
        inputs.reserve(node.inputs.size());
        for (NodeId from : node.inputs)
            inputs.push_back(remap.at(from));
        const NodeId id =
            sub.addOp(node.kind, std::move(inputs), node.attrs, node.name);
        if (node.weights)
            sub.node(id).weights = node.weights;
        remap[topo[p]] = id;
    }
    return sub;
}

StatusOr<ShardPlan>
ModelPartitioner::plan(const Graph &graph, const CompileOptions &options,
                       const std::vector<ChipCapacity> &capacities,
                       int shards) const
{
    if (capacities.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "sharding: no chip capacities offered");
    }
    if (shards < 1) {
        return Status::error(StatusCode::InvalidArgument,
                             "sharding: shard count must be >= 1");
    }
    const std::vector<NodeId> topo = graph.topoOrder();
    const std::size_t n = topo.size();
    if (n == 0) {
        return Status::error(StatusCode::InvalidArgument,
                             "sharding: empty graph");
    }
    if (graph.node(topo.front()).kind != OpKind::Input) {
        return Status::error(StatusCode::InvalidArgument,
                             "sharding: graph must be headed by its "
                             "input node");
    }
    for (std::size_t p = 1; p < n; ++p) {
        if (graph.node(topo[p]).kind == OpKind::Input) {
            return Status::error(StatusCode::InvalidArgument,
                                 "sharding: requires a single-input "
                                 "graph (pieces are fed one upstream "
                                 "cut tensor)");
        }
    }

    // Position of each node in the topological order.
    std::vector<std::size_t> position(graph.size(), 0);
    for (std::size_t p = 0; p < n; ++p)
        position[static_cast<std::size_t>(topo[p])] = p;

    // A cut after position i is legal iff every edge crossing it
    // originates exactly at topo[i] -- the downstream side then needs
    // only the one cut tensor.  Mark every strictly-crossing edge's
    // interior positions illegal; keep the input node merged with the
    // first compute segment (a shard of just the input is dead chip).
    std::vector<bool> illegal(n > 0 ? n - 1 : 0, false);
    if (!illegal.empty())
        illegal[0] = true; // topo[0] is the input node
    for (std::size_t j = 0; j < n; ++j) {
        for (NodeId from : graph.node(topo[j]).inputs) {
            const std::size_t p =
                position[static_cast<std::size_t>(from)];
            for (std::size_t i = p + 1; i < j; ++i)
                illegal[i] = true;
        }
    }

    PartitionPlanInput input;
    input.positions = n;
    input.cutBytes.resize(n - 1);
    std::size_t legal_cuts = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (illegal[i]) {
            input.cutBytes[i] = -1;
        } else {
            input.cutBytes[i] =
                cutActivationBytes(graph.node(topo[i]).outShape);
            ++legal_cuts;
        }
    }

    // Per-segment feasibility: it must hold at least one weighted
    // layer (weightless shards waste a chip) and its demand must fit
    // at least one offered capacity.  Demands are memoized -- the DP
    // probes O(n^2) segments.
    std::map<std::pair<std::size_t, std::size_t>, ResourceDemand>
        demands;
    std::map<std::pair<std::size_t, std::size_t>, bool> feasible;
    auto demandOf = [&](std::size_t first, std::size_t last) {
        const auto key = std::make_pair(first, last);
        auto it = demands.find(key);
        if (it == demands.end())
            it = demands
                     .emplace(key, segmentDemand(graph, topo, first,
                                                 last, options))
                     .first;
        return it->second;
    };
    auto segmentFits = [&](std::size_t first, std::size_t last) {
        const auto key = std::make_pair(first, last);
        auto it = feasible.find(key);
        if (it != feasible.end())
            return it->second;
        bool weighted = false;
        for (std::size_t p = first; p <= last && !weighted; ++p)
            weighted = isWeighted(graph.node(topo[p]).kind);
        const bool ok =
            weighted && fitsAny(demandOf(first, last), capacities);
        feasible.emplace(key, ok);
        return ok;
    };

    const PartitionPlanOutcome outcome =
        planContiguousPartition(input, shards, segmentFits);
    if (!outcome.feasible) {
        return Status::error(
            StatusCode::Infeasible,
            "sharding: no " + std::to_string(shards) +
                "-shard split of the " + std::to_string(n) +
                "-node chain fits the offered capacities (" +
                std::to_string(legal_cuts) + " cut-legal boundar" +
                (legal_cuts == 1 ? "y" : "ies") + ", " +
                std::to_string(capacities.size()) + " capacit" +
                (capacities.size() == 1 ? "y" : "ies") + " offered)");
    }

    ShardPlan plan;
    plan.totalCutBytes = outcome.totalCutBytes;
    plan.shards.reserve(outcome.segments.size());
    for (std::size_t k = 0; k < outcome.segments.size(); ++k) {
        const PartitionSegment &segment = outcome.segments[k];
        ShardSpec spec;
        spec.index = static_cast<int>(k);
        spec.firstPosition = segment.first;
        spec.lastPosition = segment.last;
        spec.inputShape =
            segment.first == 0
                ? graph.node(topo.front()).outShape
                : graph.node(topo[segment.first - 1]).outShape;
        spec.outputShape = graph.node(topo[segment.last]).outShape;
        spec.cutBytesAfter = segment.cutBytesAfter;
        spec.demand = demandOf(segment.first, segment.last);
        plan.shards.push_back(std::move(spec));
    }
    return plan;
}

StatusOr<ShardPlan>
ModelPartitioner::planAuto(const Graph &graph,
                           const CompileOptions &options,
                           const std::vector<ChipCapacity> &capacities,
                           int minShards, int maxShards) const
{
    if (maxShards <= 0)
        maxShards = static_cast<int>(capacities.size());
    if (minShards < 1 || maxShards < minShards) {
        return Status::error(
            StatusCode::InvalidArgument,
            "sharding: bad shard-count range [" +
                std::to_string(minShards) + ", " +
                std::to_string(maxShards) + "]");
    }
    Status last;
    for (int shards = minShards; shards <= maxShards; ++shards) {
        auto planned = plan(graph, options, capacities, shards);
        if (planned.ok())
            return planned;
        if (planned.status().code() != StatusCode::Infeasible)
            return planned.status();
        last = planned.status();
    }
    return last;
}

StatusOr<ShardedModel>
ModelPartitioner::partition(const CompiledModel &model,
                            const std::vector<ChipCapacity> &capacities,
                            int minShards, int maxShards) const
{
    if (maxShards <= 0)
        maxShards = static_cast<int>(capacities.size());
    if (minShards < 1 || maxShards < minShards) {
        return Status::error(
            StatusCode::InvalidArgument,
            "sharding: bad shard-count range [" +
                std::to_string(minShards) + ", " +
                std::to_string(maxShards) + "]");
    }
    const std::vector<NodeId> topo = model.graph().topoOrder();

    // Pieces skip PnR: the parent's measured timing cannot transfer
    // to a subgraph's netlist, and placement only needs demand.
    CompileOptions piece_options = model.options();
    piece_options.runPlaceAndRoute = false;

    Status last;
    for (int shards = minShards; shards <= maxShards; ++shards) {
        auto planned =
            plan(model.graph(), piece_options, capacities, shards);
        if (!planned.ok()) {
            if (planned.status().code() != StatusCode::Infeasible)
                return planned.status();
            last = planned.status();
            continue;
        }

        ShardedModel sharded;
        sharded.plan = std::move(planned).value();
        sharded.pieces.reserve(sharded.plan.shards.size());
        bool refit = false;
        for (ShardSpec &spec : sharded.plan.shards) {
            Graph piece = segmentGraph(model.graph(), topo,
                                       spec.firstPosition,
                                       spec.lastPosition);
            Pipeline pipeline(std::move(piece), piece_options);
            auto compiled = pipeline.compile();
            if (!compiled.ok())
                return compiled.status();
            // Belt and braces: the stamped demand must match the
            // planning estimate; a piece that outgrew it bumps K.
            spec.demand = compiled->resourceDemand();
            if (!fitsAny(spec.demand, capacities)) {
                refit = true;
                last = Status::error(
                    StatusCode::Infeasible,
                    "sharding: compiled shard " +
                        std::to_string(spec.index) + "/" +
                        std::to_string(shards) +
                        " outgrew its planning estimate");
                break;
            }
            sharded.pieces.push_back(std::make_shared<CompiledModel>(
                std::move(compiled).value()));
        }
        if (refit)
            continue;
        return sharded;
    }
    if (last.ok()) {
        last = Status::error(StatusCode::Infeasible,
                             "sharding: no feasible shard count in "
                             "range");
    }
    return last;
}

NanoSeconds
forwardNanos(const InterconnectParams &interconnect, std::size_t from,
             std::size_t to, std::int64_t bytes)
{
    const std::int64_t hops =
        static_cast<std::int64_t>(from > to ? from - to : to - from);
    return interconnectTransferNs(interconnect, hops, bytes);
}

ShardedModel
wholeModel(std::shared_ptr<const CompiledModel> model)
{
    ShardSpec spec;
    spec.lastPosition = model->graph().size() - 1;
    spec.inputShape = model->inputShape();
    spec.outputShape = model->outputShape();
    spec.demand = model->resourceDemand();
    ShardedModel whole;
    whole.plan.shards.push_back(std::move(spec));
    whole.pieces.push_back(std::move(model));
    return whole;
}

// -------------------------------------------------------- ShardRouter

struct ShardRouter::Context
{
    Completion done; //!< the caller's
    double queueMillis = 0.0;
    double execMillis = 0.0;
    NanoSeconds modeledLatency = 0.0;
    PicoJoules modeledEnergy = 0.0;
    std::int64_t interconnectBytes = 0;
    NanoSeconds interconnectNanos = 0.0;
    int batchSize = 1;
};

namespace
{

/** The least queueDepth among `chips` after the head (none: no bound). */
std::int64_t
downstreamQueueDepth(ChipFleet &fleet, const std::vector<std::size_t> &chips)
{
    std::int64_t depth = std::numeric_limits<std::int64_t>::max();
    for (std::size_t s = 1; s < chips.size(); ++s)
        depth = std::min<std::int64_t>(
            depth, fleet.engine(chips[s]).options().queueDepth);
    return depth;
}

} // namespace

ShardRouter::ShardRouter(ChipFleet &fleet, std::string name,
                         std::shared_ptr<const ShardedModel> model,
                         std::vector<std::size_t> chips,
                         std::vector<std::string> stageTenants,
                         InterconnectParams interconnect)
    : fleet_(fleet), name_(std::move(name)), model_(std::move(model)),
      chips_(std::move(chips)), stageTenants_(std::move(stageTenants)),
      interconnect_(interconnect),
      inflightBound_(downstreamQueueDepth(fleet_, chips_))
{
}

ShardRouter::~ShardRouter()
{
    beginDrain();
    awaitDrained();
}

Status
ShardRouter::submit(Tensor input, Completion done, bool block)
{
    // Claim an in-flight slot before touching the stage-0 engine, so
    // the bound covers requests mid-submit too.
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (block)
            roomCv_.wait(lock, [this] {
                return draining_ || inflight_ < inflightBound_;
            });
        if (draining_) {
            return Status::error(StatusCode::Unavailable,
                                 "replica of '" + name_ +
                                     "' is draining; request rejected");
        }
        if (inflight_ >= inflightBound_) {
            return Status::error(
                StatusCode::ResourceExhausted,
                "replica of '" + name_ + "' has " +
                    std::to_string(inflightBound_) +
                    " requests in flight; request rejected");
        }
        ++inflight_;
    }

    auto context = std::make_shared<Context>();
    context->done = std::move(done);
    Status admitted = submitStage(context, 0, std::move(input), block);
    if (!admitted.ok()) {
        // Refused at the head: not accepted, so give the slot back and
        // surface the refusal as-is.
        std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
        roomCv_.notify_one();
        if (inflight_ == 0 && completing_ == 0)
            drainedCv_.notify_all();
    }
    return admitted;
}

Status
ShardRouter::submitStage(const std::shared_ptr<Context> &context,
                         std::size_t stage, Tensor input, bool block)
{
    Engine &engine = fleet_.engine(chips_[stage]);
    auto next = [this, context, stage](StatusOr<InferenceResult> r) {
        onStageDone(context, stage, std::move(r));
    };
    return block ? engine.submit(stageTenants_[stage], std::move(input),
                                 std::move(next))
                 : engine.trySubmit(stageTenants_[stage], std::move(input),
                                    std::move(next));
}

void
ShardRouter::onStageDone(const std::shared_ptr<Context> &context,
                         std::size_t stage, StatusOr<InferenceResult> result)
{
    if (!result.ok()) {
        finish(*context, result.status(), stage);
        return;
    }
    context->queueMillis += result->queueMillis;
    context->execMillis += result->execMillis;
    context->modeledLatency += result->modeledLatency;
    context->modeledEnergy += result->modeledEnergy;
    context->batchSize = std::max(context->batchSize, result->batchSize);

    const std::size_t next = stage + 1;
    if (next == chips_.size()) {
        InferenceResult out = std::move(result).value();
        out.model = name_;
        out.queueMillis = context->queueMillis;
        out.execMillis = context->execMillis;
        out.batchSize = context->batchSize;
        out.modeledEnergy = context->modeledEnergy;
        out.shards = static_cast<int>(chips_.size());
        out.interconnectBytes = context->interconnectBytes;
        out.interconnectNanos = context->interconnectNanos;
        // The modeled per-request latency of a chain is the stages'
        // modeled latencies plus the interconnect term.
        out.modeledLatency =
            context->modeledLatency + context->interconnectNanos;
        finish(*context, std::move(out), kNoStage);
        return;
    }

    // Price the forward on the modeled interconnect.  Non-blocking:
    // the in-flight bound is at most this stage's queueDepth and only
    // this router feeds the stage tenant, so its queue always has
    // room.  A refusal means the stage is draining or its engine is
    // shut down.
    const std::int64_t bytes = model_->plan.shards[stage].cutBytesAfter;
    context->interconnectBytes += bytes;
    context->interconnectNanos +=
        forwardNanos(interconnect_, chips_[stage], chips_[next], bytes);
    Status forwarded = submitStage(context, next,
                                   std::move(result->output),
                                   /*block=*/false);
    if (!forwarded.ok())
        finish(*context, std::move(forwarded), kNoStage);
}

void
ShardRouter::finish(Context &context, StatusOr<InferenceResult> result,
                    std::size_t failedStage)
{
    // Same order as the engine's: (1) the slot release, so a caller
    // acting on its completion sees its request no longer pending;
    // (2) the caller's completion; (3) the completing decrement, so
    // awaitDrained never returns before every drained request's
    // completion has run.
    {
        std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
        ++completing_;
        roomCv_.notify_one();
    }
    context.done(std::move(result), failedStage);
    // Notify under the lock: once drained the router may be destroyed,
    // so nothing may touch it after the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    --completing_;
    if (inflight_ == 0 && completing_ == 0)
        drainedCv_.notify_all();
}

void
ShardRouter::beginDrain()
{
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    roomCv_.notify_all();
}

void
ShardRouter::awaitDrained()
{
    std::unique_lock<std::mutex> lock(mu_);
    drainedCv_.wait(lock,
                    [this] { return inflight_ == 0 && completing_ == 0; });
}

std::int64_t
ShardRouter::pending() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_;
}

} // namespace fpsa
