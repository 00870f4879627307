#include "pipeline.hh"

#include <chrono>
#include <limits>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace fpsa
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Reject graphs the synthesizer can never lower. */
Status
validateGraph(const Graph &graph)
{
    if (graph.size() == 0) {
        return Status::error(StatusCode::InvalidArgument,
                             "graph has no nodes");
    }
    for (std::size_t i = 0; i < graph.size(); ++i) {
        const GraphNode &node = graph.nodes()[i];
        if (shapeNumel(node.outShape) <= 0) {
            return Status::error(
                StatusCode::InvalidArgument,
                "node '" + node.name + "' (" + opKindName(node.kind) +
                    ") has zero-size output shape " +
                    shapeToString(node.outShape));
        }
    }
    return Status();
}

/**
 * Reject option values the stages would divide by, shift by or
 * allocate from -- the one range check every caller passes through,
 * options read from an artifact file included.  Each stage checks the
 * members in its own scope, so a fix through a scoped setter
 * re-validates exactly the stages it invalidates.
 */
Status
validateOptions(const CompileOptions &o, Stage stage)
{
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    switch (stage) {
      case Stage::Synthesize:
        return validateSynthOptions(o.synth);
      case Stage::Map:
        return checkOptionBounds(
            {{"duplicationDegree", o.duplicationDegree, 1,
              kMaxDuplicationDegree},
             {"allocation.pesPerClb", o.allocation.pesPerClb, 1, kIntMax},
             {"allocation.smbsPerEdge", o.allocation.smbsPerEdge, 1,
              kIntMax},
             {"mapper.busWidth", o.mapper.busWidth, 1, kIntMax},
             {"mapper.controlWidth", o.mapper.controlWidth, 1, kIntMax},
             {"mapper.pesPerClb", o.mapper.pesPerClb, 1, kIntMax}});
      case Stage::PlaceAndRoute:
        break;
      case Stage::Evaluate:
        return checkOptionBounds(
            {{"perf.ioBits", o.perf.ioBits, 1, kMaxOptionBits}});
    }
    return Status();
}

/**
 * Reject graphs a serving artifact cannot execute: every conv/fc node
 * needs materialized weights shaped like the node, or the executors'
 * kernels would assert mid-request and kill the server (the shape a
 * corrupt artifact is most likely to get wrong).
 */
Status
validateServable(const Graph &graph)
{
    auto invalid = [](std::string why) {
        return Status::error(StatusCode::InvalidArgument,
                             "compile(): " + std::move(why));
    };
    if (graph.size() > 0 && graph.nodes().front().kind != OpKind::Input)
        return invalid("graph does not start with an input node");
    for (const GraphNode &n : graph.nodes()) {
        if (n.kind != OpKind::Conv2d && n.kind != OpKind::FullyConnected)
            continue;
        if (!n.weights.has_value()) {
            return invalid("node '" + n.name +
                           "' has no materialized weights; call "
                           "randomizeWeights (or a trainer) before "
                           "compiling for serving");
        }
        if (n.inputs.empty())
            return invalid("node '" + n.name + "' has no inputs");
        const Shape &in = graph.node(n.inputs.front()).outShape;
        Shape expected;
        if (n.kind == OpKind::FullyConnected) {
            expected = {n.attrs.units, shapeNumel(in)};
        } else {
            if (n.attrs.groups < 1 || in.size() != 3)
                return invalid("node '" + n.name +
                               "' has malformed conv geometry");
            expected = {n.attrs.outChannels, in.front() / n.attrs.groups,
                        n.attrs.kernel, n.attrs.kernel};
        }
        if (n.weights->shape() != expected) {
            return invalid("node '" + n.name + "' weight shape " +
                           shapeToString(n.weights->shape()) +
                           " does not match the expected " +
                           shapeToString(expected));
        }
    }
    return Status();
}

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Synthesize: return "synthesize";
      case Stage::Map: return "map";
      case Stage::PlaceAndRoute: return "placeAndRoute";
      case Stage::Evaluate: return "evaluate";
    }
    return "unknown";
}

Pipeline::Pipeline(Graph graph, CompileOptions options)
    : Pipeline(std::make_shared<const Graph>(std::move(graph)),
               std::move(options))
{
}

Pipeline::Pipeline(std::shared_ptr<const Graph> graph,
                   CompileOptions options)
    : graph_(std::move(graph)), options_(std::move(options))
{
}

// ---------------------------------------------------------------- options

void
Pipeline::invalidateFrom(Stage first)
{
    for (int i = static_cast<int>(first); i < kStageCount; ++i) {
        attempted_[i] = false;
        stageStatus_[i] = Status();
    }
    switch (first) {
      case Stage::Synthesize: synthesis_.reset(); [[fallthrough]];
      case Stage::Map: map_.reset(); [[fallthrough]];
      case Stage::PlaceAndRoute:
        pnr_.reset();
        restoredTiming_.reset();
        [[fallthrough]];
      case Stage::Evaluate: eval_.reset();
    }
}

void
Pipeline::setOptions(const CompileOptions &options)
{
    if (options == options_)
        return;
    Stage first = Stage::Evaluate;
    if (!(options.synth == options_.synth)) {
        first = Stage::Synthesize;
    } else if (options.duplicationDegree != options_.duplicationDegree ||
               !(options.allocation == options_.allocation) ||
               !(options.mapper == options_.mapper)) {
        first = Stage::Map;
    } else if (!(options.pnr == options_.pnr)) {
        first = Stage::PlaceAndRoute;
    }
    // Only perf / runPlaceAndRoute changed: evaluate alone.
    options_ = options;
    invalidateFrom(first);
}

void
Pipeline::setSynthOptions(const SynthOptions &synth)
{
    if (synth == options_.synth)
        return;
    options_.synth = synth;
    invalidateFrom(Stage::Synthesize);
}

void
Pipeline::setDuplicationDegree(std::int64_t degree)
{
    if (degree == options_.duplicationDegree)
        return;
    options_.duplicationDegree = degree;
    invalidateFrom(Stage::Map);
}

void
Pipeline::setAllocationOptions(const AllocationOptions &alloc)
{
    if (alloc == options_.allocation)
        return;
    options_.allocation = alloc;
    invalidateFrom(Stage::Map);
}

void
Pipeline::setMapperOptions(const MapperOptions &mapper)
{
    if (mapper == options_.mapper)
        return;
    options_.mapper = mapper;
    invalidateFrom(Stage::Map);
}

void
Pipeline::setRunPlaceAndRoute(bool run)
{
    if (run == options_.runPlaceAndRoute)
        return;
    options_.runPlaceAndRoute = run;
    invalidateFrom(Stage::Evaluate);
}

void
Pipeline::setPnrOptions(const PnrOptions &pnr)
{
    if (pnr == options_.pnr)
        return;
    options_.pnr = pnr;
    invalidateFrom(Stage::PlaceAndRoute);
}

void
Pipeline::setPerfOptions(const FpsaPerfOptions &perf)
{
    if (perf == options_.perf)
        return;
    options_.perf = perf;
    invalidateFrom(Stage::Evaluate);
}

// ----------------------------------------------------------------- stages

StatusOr<std::shared_ptr<const SynthesisSummary>>
Pipeline::synthesize()
{
    constexpr int idx = static_cast<int>(Stage::Synthesize);
    if (attempted_[idx]) {
        ++stats_[idx].cacheHits;
        if (!stageStatus_[idx].ok())
            return stageStatus_[idx];
        return synthesis_;
    }

    const auto start = Clock::now();
    Status status = validateGraph(*graph_);
    if (status.ok())
        status = validateOptions(options_, Stage::Synthesize);
    if (status.ok()) {
        auto summary = std::make_shared<SynthesisSummary>(
            synthesizeSummary(*graph_, options_.synth));
        if (summary->groups.empty()) {
            status = Status::error(
                StatusCode::InvalidArgument,
                "graph lowered to no weight groups (no weighted "
                "operations)");
        } else {
            synthesis_ = std::move(summary);
        }
    }

    attempted_[idx] = true;
    stageStatus_[idx] = status;
    ++stats_[idx].runs;
    stats_[idx].lastMillis = millisSince(start);
    stats_[idx].totalMillis += stats_[idx].lastMillis;

    if (!status.ok())
        return status;
    return synthesis_;
}

StatusOr<std::shared_ptr<const MapArtifact>>
Pipeline::map()
{
    auto synthesis = synthesize();
    if (!synthesis.ok())
        return synthesis.status();

    constexpr int idx = static_cast<int>(Stage::Map);
    if (attempted_[idx]) {
        ++stats_[idx].cacheHits;
        if (!stageStatus_[idx].ok())
            return stageStatus_[idx];
        return map_;
    }

    const auto start = Clock::now();
    Status status = validateOptions(options_, Stage::Map);
    if (status.ok()) {
        auto artifact = std::make_shared<MapArtifact>();
        artifact->allocation = allocateForDuplication(
            **synthesis, options_.duplicationDegree, options_.allocation);
        if (artifact->allocation.totalPes <= 0) {
            status = Status::error(StatusCode::Infeasible,
                                   "allocation produced no PEs");
        } else {
            artifact->netlist = netlistFromAllocation(
                **synthesis, artifact->allocation, options_.mapper);
            map_ = std::move(artifact);
        }
    }

    attempted_[idx] = true;
    stageStatus_[idx] = status;
    ++stats_[idx].runs;
    stats_[idx].lastMillis = millisSince(start);
    stats_[idx].totalMillis += stats_[idx].lastMillis;

    if (!status.ok())
        return status;
    return map_;
}

StatusOr<std::shared_ptr<const PnrResult>>
Pipeline::placeAndRoute()
{
    auto mapped = map();
    if (!mapped.ok())
        return mapped.status();

    constexpr int idx = static_cast<int>(Stage::PlaceAndRoute);
    if (attempted_[idx]) {
        ++stats_[idx].cacheHits;
        if (!stageStatus_[idx].ok())
            return stageStatus_[idx];
        return pnr_;
    }

    const auto start = Clock::now();
    Status status;
    auto pnr = runPnr((*mapped)->netlist, options_.pnr);
    if (!pnr.ok()) {
        // e.g. an infeasible placement: no artifact to cache.
        status = pnr.status();
    } else {
        pnr_ = std::make_shared<PnrResult>(std::move(pnr).value());
        if (options_.pnr.fullRoute && !pnr_->routed) {
            // The partial implementation stays cached (pnrArtifact());
            // evaluate() degrades it to a warning like the legacy facade.
            status = Status::error(
                StatusCode::Unroutable,
                "placement & routing did not fully converge");
        }
    }

    attempted_[idx] = true;
    stageStatus_[idx] = status;
    ++stats_[idx].runs;
    stats_[idx].lastMillis = millisSince(start);
    stats_[idx].totalMillis += stats_[idx].lastMillis;

    if (!status.ok())
        return status;
    return pnr_;
}

StatusOr<std::shared_ptr<const EvalArtifact>>
Pipeline::evaluate()
{
    auto mapped = map();
    if (!mapped.ok())
        return mapped.status();

    // A cached evaluation implies the PnR state is unchanged too
    // (invalidating PnR always invalidates evaluation), so the cache
    // check precedes the PnR coupling below.
    constexpr int idx = static_cast<int>(Stage::Evaluate);
    if (attempted_[idx]) {
        ++stats_[idx].cacheHits;
        if (!stageStatus_[idx].ok())
            return stageStatus_[idx];
        return eval_;
    }

    Status status = validateOptions(options_, Stage::Evaluate);
    FpsaPerfOptions perf = options_.perf;
    if (status.ok() && options_.runPlaceAndRoute) {
        if (!restoredTiming_) {
            auto pnr = placeAndRoute();
            if (!pnr.ok() && pnr.status().code() != StatusCode::Unroutable)
                return pnr.status();
            if (!pnr.ok()) {
                warn("placement & routing did not fully converge; timing "
                     "is a lower bound");
            }
        }
        const auto timing = pnrTiming();
        if (timing && timing->avgNetDelay > 0.0)
            perf.wireDelayPerBit = timing->avgNetDelay;
    }

    const auto start = Clock::now();
    if (status.ok()) {
        auto artifact = std::make_shared<EvalArtifact>();
        artifact->performance = evaluateFpsa(*graph_, *synthesis_,
                                             (*mapped)->allocation, perf);
        artifact->energy =
            fpsaEnergyReport(*synthesis_, (*mapped)->allocation,
                             perf.ioBits, perf.wireDelayPerBit);
        eval_ = std::move(artifact);
    }

    attempted_[idx] = true;
    stageStatus_[idx] = status;
    ++stats_[idx].runs;
    stats_[idx].lastMillis = millisSince(start);
    stats_[idx].totalMillis += stats_[idx].lastMillis;

    if (!status.ok())
        return status;
    return eval_;
}

Status
Pipeline::run()
{
    auto eval = evaluate();
    return eval.ok() ? Status() : eval.status();
}

StatusOr<CompileResult>
Pipeline::result()
{
    auto eval = evaluate();
    if (!eval.ok())
        return eval.status();

    CompileResult result;
    result.synthesis = *synthesis_;
    result.allocation = map_->allocation;
    result.netlist = map_->netlist;
    if (options_.runPlaceAndRoute && pnr_)
        result.pnr = *pnr_;
    result.performance = (*eval)->performance;
    result.energy = (*eval)->energy;
    return result;
}

StatusOr<CompiledModel>
Pipeline::compile()
{
    if (Status servable = validateServable(*graph_); !servable.ok())
        return servable;

    auto eval = evaluate();
    if (!eval.ok())
        return eval.status();

    CompiledModel::Artifacts artifacts;
    artifacts.graph = graph_;
    artifacts.options = options_;
    if (options_.runPlaceAndRoute)
        artifacts.timing = pnrTiming();
    return CompiledModel(std::move(artifacts), *map_, **eval);
}

void
Pipeline::restorePlaceAndRoute(const CompiledTiming &timing)
{
    invalidateFrom(Stage::PlaceAndRoute);
    restoredTiming_ = timing;
}

std::optional<CompiledTiming>
Pipeline::pnrTiming() const
{
    if (restoredTiming_)
        return restoredTiming_;
    if (!pnr_)
        return std::nullopt;
    return CompiledTiming{pnr_->timing.avgNetDelay, pnr_->timing.maxNetDelay,
                          pnr_->routed, pnr_->placementHpwl};
}

// ---------------------------------------------------------- introspection

bool
Pipeline::cached(Stage stage) const
{
    return attempted_[static_cast<int>(stage)];
}

const StageStats &
Pipeline::stats(Stage stage) const
{
    return stats_[static_cast<int>(stage)];
}

std::shared_ptr<const SynthesisSummary>
Pipeline::synthesisArtifact() const
{
    return synthesis_;
}

std::shared_ptr<const MapArtifact>
Pipeline::mapArtifact() const
{
    return map_;
}

std::shared_ptr<const PnrResult>
Pipeline::pnrArtifact() const
{
    return pnr_;
}

std::shared_ptr<const EvalArtifact>
Pipeline::evalArtifact() const
{
    return eval_;
}

std::string
Pipeline::report() const
{
    JsonWriter j;
    j.beginObject();

    j.key("options").beginObject();
    j.field("duplicationDegree", options_.duplicationDegree);
    j.field("runPlaceAndRoute", options_.runPlaceAndRoute);
    j.key("synth").beginObject();
    j.field("crossbarRows", options_.synth.crossbarRows);
    j.field("crossbarCols", options_.synth.crossbarCols);
    j.field("ioBits", options_.synth.ioBits);
    j.field("weightBits", options_.synth.weightBits);
    j.endObject();
    j.key("mapper").beginObject();
    j.field("busWidth", options_.mapper.busWidth);
    j.field("controlWidth", options_.mapper.controlWidth);
    j.field("pesPerClb", options_.mapper.pesPerClb);
    j.endObject();
    j.key("pnr").beginObject();
    j.field("fullRoute", options_.pnr.fullRoute);
    j.field("channelWidth", options_.pnr.channelWidth);
    j.endObject();
    j.key("perf").beginObject();
    j.field("ioBits", options_.perf.ioBits);
    j.field("wireDelayPerBit", options_.perf.wireDelayPerBit);
    j.endObject();
    j.endObject();

    j.key("stages").beginArray();
    for (int i = 0; i < kStageCount; ++i) {
        const StageStats &s = stats_[i];
        j.beginObject();
        j.field("name", stageName(static_cast<Stage>(i)));
        j.field("attempted", attempted_[i]);
        j.field("status", attempted_[i] ? stageStatus_[i].toString()
                                        : std::string("NOT_RUN"));
        j.field("runs", s.runs);
        j.field("cacheHits", s.cacheHits);
        j.field("lastMillis", s.lastMillis);
        j.field("totalMillis", s.totalMillis);
        j.endObject();
    }
    j.endArray();

    j.key("synthesis");
    if (synthesis_) {
        j.beginObject();
        j.field("groups", static_cast<std::int64_t>(
                              synthesis_->groups.size()));
        j.field("minPes", synthesis_->minPes());
        j.field("totalCoreOpRuns", synthesis_->totalCoreOpRuns());
        j.field("spatialUtilization", synthesis_->spatialUtilization());
        j.field("maxReuse", synthesis_->maxReuse());
        j.field("pipelineDepth", synthesis_->pipelineDepth);
        j.endObject();
    } else {
        j.null();
    }

    j.key("map");
    if (map_) {
        j.beginObject();
        j.key("allocation").beginObject();
        j.field("duplicationDegree", map_->allocation.duplicationDegree);
        j.field("totalPes", map_->allocation.totalPes);
        j.field("maxIterations", map_->allocation.maxIterations);
        j.field("replicas", map_->allocation.replicas);
        j.field("smbBlocks", map_->allocation.smbBlocks);
        j.field("clbBlocks", map_->allocation.clbBlocks);
        j.endObject();
        j.key("netlist").beginObject();
        j.field("blocks", static_cast<std::int64_t>(
                              map_->netlist.blocks().size()));
        j.field("nets", static_cast<std::int64_t>(
                            map_->netlist.nets().size()));
        j.field("wireDemand", map_->netlist.totalWireDemand());
        j.endObject();
        j.endObject();
    } else {
        j.null();
    }

    j.key("pnr");
    if (pnr_) {
        j.beginObject();
        j.field("routed", pnr_->routed);
        j.field("avgNetDelay", pnr_->timing.avgNetDelay);
        j.field("maxNetDelay", pnr_->timing.maxNetDelay);
        j.field("placementHpwl", pnr_->placementHpwl);
        j.field("placeMillis", pnr_->placeMillis);
        j.field("routeMillis", pnr_->routeMillis);
        if (pnr_->routing) {
            j.field("routeIterations", pnr_->routing->iterations);
            j.field("netsRouted", pnr_->routing->netsRouted);
            j.field("totalWirelength", pnr_->routing->totalWirelength);
            j.field("peakChannelUtilization",
                    pnr_->routing->peakChannelUtilization);
        }
        j.endObject();
    } else {
        j.null();
    }

    j.key("evaluation");
    if (eval_) {
        j.beginObject();
        j.key("performance").beginObject();
        j.field("throughput", eval_->performance.throughput);
        j.field("latencyNs", eval_->performance.latency);
        j.field("opsPerSecond", eval_->performance.performance);
        j.field("areaMm2", eval_->performance.area);
        j.field("computePerPeNs", eval_->performance.computePerPe);
        j.field("commPerPeNs", eval_->performance.commPerPe);
        j.field("pes", eval_->performance.pes);
        j.field("duplicationDegree",
                eval_->performance.duplicationDegree);
        j.field("iterations", eval_->performance.iterations);
        j.endObject();
        j.key("energy").beginObject();
        j.field("perSamplePj", eval_->energy.perSample());
        j.field("pePj", eval_->energy.breakdown.pe);
        j.field("smbPj", eval_->energy.breakdown.smb);
        j.field("clbPj", eval_->energy.breakdown.clb);
        j.field("routingPj", eval_->energy.breakdown.routing);
        j.endObject();
        j.endObject();
    } else {
        j.null();
    }

    j.endObject();
    return j.str();
}

} // namespace fpsa
