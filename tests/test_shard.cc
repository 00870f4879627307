/**
 * @file
 * Tests for model sharding: `planContiguousPartition` /
 * `ModelPartitioner` cut selection (every shard fits, minimum cut
 * bytes, deterministic plans, monotone cut cost), golden numeric
 * equivalence of a sharded pipeline against the single-chip Reference
 * executor, `placeShards` co-location, the `ClusterEngine`
 * replicate-whole -> shard-across fallback with interconnect
 * telemetry, a chaos run where a shard group fails over as a unit
 * with zero lost accepted requests, an overloaded 3-stage pipeline
 * that must start no thread and lose nothing, a failed multi-chain
 * load that must leave no tenant behind, per-stage health charging
 * with a retry that avoids the failing stage's chip, and chain stats
 * read from the stage engines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "pipeline.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/cluster/placement.hh"
#include "runtime/cluster/sharding.hh"
#include "runtime/executor.hh"
#include "synth/tiling.hh"

namespace fpsa
{
namespace
{

/** A LeNet-class weighted chain with materialized weights. */
Graph
chainCnn(std::uint64_t seed = 42)
{
    GraphBuilder b({1, 12, 12});
    b.conv(4, 3, 1, 0)
        .relu()
        .maxPool(2, 2)
        .conv(6, 3, 1, 0)
        .relu()
        .flatten()
        .fc(24)
        .relu()
        .fc(10);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

/** A small weighted MLP chain. */
Graph
chainMlp(std::uint64_t seed = 7)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(32).relu().fc(16).relu().fc(4);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

std::shared_ptr<const CompiledModel>
compileShared(Graph g, std::int64_t duplication = 2)
{
    CompileOptions options;
    options.duplicationDegree = duplication;
    Pipeline p(std::move(g), options);
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::make_shared<CompiledModel>(std::move(compiled).value());
}

Tensor
probeInput(const Shape &shape, float scale = 1.0f)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = scale * static_cast<float>(i % 11) / 11.0f;
    return t;
}

ChipCapacity
scaledCapacity(const ResourceDemand &demand, double factor)
{
    auto scale = [factor](std::int64_t units) {
        return std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   std::ceil(static_cast<double>(units) * factor)));
    };
    ChipCapacity c;
    c.peBlocks = scale(demand.peBlocks);
    c.smbBlocks = scale(demand.smbBlocks);
    c.clbBlocks = scale(demand.clbBlocks);
    c.routingTracks = scale(demand.routingTracks);
    return c;
}

/** Reference-executor ground truth for one whole model. */
Tensor
referenceOutput(const std::shared_ptr<const CompiledModel> &model,
                const Tensor &input)
{
    auto executor = makeExecutor(model, ExecutionConfig{ExecutorKind::Reference});
    EXPECT_TRUE(executor.ok()) << executor.status().toString();
    auto out = (*executor)->run(input);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return std::move(out).value();
}

void
expectClose(const Tensor &got, const Tensor &want, double tolerance)
{
    ASSERT_EQ(got.shape(), want.shape());
    for (std::int64_t i = 0; i < want.numel(); ++i)
        ASSERT_NEAR(got[i], want[i], tolerance) << "element " << i;
}

// -------------------------------------------------- partition planning

TEST(PartitionPlanTest, DpPicksMinimumCutAndReportsInfeasible)
{
    // Chain of 5 positions, cut costs 8 / 2 / -1 (illegal) / 4.
    PartitionPlanInput input;
    input.positions = 5;
    input.cutBytes = {8, 2, -1, 4};
    auto any = [](std::size_t, std::size_t) { return true; };

    auto two = planContiguousPartition(input, 2, any);
    ASSERT_TRUE(two.feasible);
    EXPECT_EQ(two.totalCutBytes, 2);
    ASSERT_EQ(two.segments.size(), 2u);
    EXPECT_EQ(two.segments[0].first, 0u);
    EXPECT_EQ(two.segments[0].last, 1u);
    EXPECT_EQ(two.segments[0].cutBytesAfter, 2);
    EXPECT_EQ(two.segments[1].first, 2u);
    EXPECT_EQ(two.segments[1].last, 4u);
    EXPECT_EQ(two.segments[1].cutBytesAfter, 0);

    auto three = planContiguousPartition(input, 3, any);
    ASSERT_TRUE(three.feasible);
    EXPECT_EQ(three.totalCutBytes, 2 + 8 + 4 - 8); // cuts at 1 and 3
    EXPECT_EQ(three.segments.size(), 3u);

    // A fit predicate can rule everything out.
    auto nothing = [](std::size_t, std::size_t) { return false; };
    EXPECT_FALSE(planContiguousPartition(input, 2, nothing).feasible);

    // More segments than positions, or a malformed input, is
    // infeasible rather than UB.
    EXPECT_FALSE(planContiguousPartition(input, 6, any).feasible);
    PartitionPlanInput bad;
    bad.positions = 3;
    bad.cutBytes = {1};
    EXPECT_FALSE(planContiguousPartition(bad, 2, any).feasible);
}

TEST(ModelPartitionerTest, EveryShardFitsAndPlansAreDeterministic)
{
    Graph graph = chainCnn();
    auto whole = compileShared(chainCnn());
    const ResourceDemand demand = whole->resourceDemand();
    // Half-size chips: the whole model fits nowhere, halves fit.
    std::vector<ChipCapacity> capacities(3,
                                         scaledCapacity(demand, 0.7));

    ModelPartitioner partitioner;
    auto plan =
        partitioner.plan(graph, whole->options(), capacities, 2);
    ASSERT_TRUE(plan.ok()) << plan.status().toString();
    ASSERT_EQ(plan->shardCount(), 2);
    EXPECT_GT(plan->totalCutBytes, 0);
    for (const ShardSpec &spec : plan->shards) {
        EXPECT_LE(spec.demand.peBlocks, capacities[0].peBlocks);
        EXPECT_LE(spec.demand.smbBlocks, capacities[0].smbBlocks);
        EXPECT_LE(spec.demand.clbBlocks, capacities[0].clbBlocks);
        EXPECT_LE(spec.demand.routingTracks,
                  capacities[0].routingTracks);
    }
    // Contiguous cover of the whole topological order.
    EXPECT_EQ(plan->shards.front().firstPosition, 0u);
    EXPECT_EQ(plan->shards[0].lastPosition + 1,
              plan->shards[1].firstPosition);
    // The last shard forwards nothing.
    EXPECT_EQ(plan->shards.back().cutBytesAfter, 0);

    // Deterministic: an identical request reproduces the exact plan.
    auto again =
        partitioner.plan(graph, whole->options(), capacities, 2);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->totalCutBytes, plan->totalCutBytes);
    for (int s = 0; s < plan->shardCount(); ++s) {
        EXPECT_EQ(again->shards[s].firstPosition,
                  plan->shards[s].firstPosition);
        EXPECT_EQ(again->shards[s].lastPosition,
                  plan->shards[s].lastPosition);
    }
}

TEST(ModelPartitionerTest, CutCostIsMonotoneInShardCountWhenUnconstrained)
{
    // With non-binding capacities, the optimal K-cut cost can only
    // grow with K: removing any cut from an optimal (K+1)-plan yields
    // a feasible K-plan no costlier than the (K+1)-plan.
    Graph graph = chainCnn();
    auto whole = compileShared(chainCnn());
    std::vector<ChipCapacity> capacities(4, ChipCapacity::unlimited());

    ModelPartitioner partitioner;
    std::int64_t previous = 0;
    for (int shards = 1; shards <= 3; ++shards) {
        auto plan = partitioner.plan(graph, whole->options(),
                                     capacities, shards);
        ASSERT_TRUE(plan.ok())
            << shards << ": " << plan.status().toString();
        EXPECT_GE(plan->totalCutBytes, previous) << shards;
        previous = plan->totalCutBytes;
    }
}

TEST(ModelPartitionerTest, PlanAutoFindsSmallestFeasibleCount)
{
    Graph graph = chainCnn();
    auto whole = compileShared(chainCnn());
    const ResourceDemand demand = whole->resourceDemand();
    std::vector<ChipCapacity> capacities(4,
                                         scaledCapacity(demand, 0.7));

    ModelPartitioner partitioner;
    auto plan =
        partitioner.planAuto(graph, whole->options(), capacities, 2);
    ASSERT_TRUE(plan.ok()) << plan.status().toString();
    EXPECT_EQ(plan->shardCount(), 2);

    // Tiny chips make every split infeasible; the reason names the
    // attempt.
    std::vector<ChipCapacity> tiny(
        4, scaledCapacity(ResourceDemand{1, 1, 1, 1}, 1.0));
    auto rejected =
        partitioner.planAuto(graph, whole->options(), tiny, 2);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::Infeasible);
}

TEST(ModelPartitionerTest, ZooScaleGraphsPlanAnalytically)
{
    // AlexNet and VGG16 plan without materialized weights -- the
    // partitioner's demand arithmetic is analytic, so capacity
    // planning a zoo model costs no weight memory.  (Numeric golden
    // equivalence runs on the small chain; reference-executing a
    // VGG16 sample takes minutes.)
    for (Graph (*build)() : {buildAlexNet, buildVgg16}) {
        Graph graph = build();
        CompileOptions options;
        options.duplicationDegree = 1;
        std::vector<ChipCapacity> capacities(
            4, ChipCapacity::unlimited());
        ModelPartitioner partitioner;
        auto plan = partitioner.plan(graph, options, capacities, 3);
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        EXPECT_EQ(plan->shardCount(), 3);
        EXPECT_GT(plan->totalCutBytes, 0);
        for (const ShardSpec &spec : plan->shards)
            EXPECT_GT(spec.demand.peBlocks, 0);
    }
}

// -------------------------------------------------- golden equivalence

TEST(ShardGoldenTest, PiecewiseExecutionMatchesReferenceWithin1e4)
{
    struct Case
    {
        const char *name;
        Graph graph;
        Shape input;
    };
    Graph lenet = buildLeNet(); // the zoo model, real cut points
    {
        Rng rng(11);
        randomizeWeights(lenet, rng);
    }
    std::vector<Case> cases;
    cases.push_back({"cnn", chainCnn(), {1, 12, 12}});
    cases.push_back({"mlp", chainMlp(), {1, 8, 8}});
    cases.push_back({"lenet", std::move(lenet), {1, 28, 28}});

    for (Case &c : cases) {
        auto whole = compileShared(Graph(c.graph));
        const Tensor input = probeInput(c.input);
        const Tensor expected = referenceOutput(whole, input);

        // Shard at every feasible count and chain the pieces through
        // their own Reference executors -- the same numerics the
        // ShardRouter pipeline runs per stage.
        const ResourceDemand demand = whole->resourceDemand();
        std::vector<ChipCapacity> capacities(
            4, scaledCapacity(demand, 0.8));
        ModelPartitioner partitioner;
        for (int shards = 2; shards <= 3; ++shards) {
            auto sharded =
                partitioner.partition(*whole, capacities, shards,
                                      shards);
            if (!sharded.ok()) {
                EXPECT_EQ(sharded.status().code(),
                          StatusCode::Infeasible)
                    << c.name << ": "
                    << sharded.status().toString();
                continue;
            }
            Tensor cursor = input;
            for (const auto &piece : sharded->pieces) {
                auto executor = makeExecutor(
                    piece, ExecutionConfig{ExecutorKind::Reference});
                ASSERT_TRUE(executor.ok());
                auto out = (*executor)->run(cursor);
                ASSERT_TRUE(out.ok()) << out.status().toString();
                cursor = std::move(out).value();
            }
            expectClose(cursor, expected, 1e-4);
        }
    }
}

// ----------------------------------------------------- shard placement

TEST(ShardPlacementTest, CoLocatesStagesOnLowHopChips)
{
    const ResourceDemand stage{10, 10, 10, 100};
    ChipCapacity fits = scaledCapacity(stage, 1.0);
    std::vector<ChipLoadView> chips;
    for (int i = 0; i < 5; ++i) {
        ChipLoadView v;
        v.id = "c" + std::to_string(i);
        v.capacity = fits;
        chips.push_back(v);
    }

    ShardPlacementRequest request;
    request.model = "pipe";
    request.demands = {stage, stage, stage};
    request.cutBytes = {64, 64};
    auto policy = makePlacementPolicy(PlacementPolicyKind::FirstFit);
    auto placed = policy->placeShards(request, chips);
    ASSERT_TRUE(placed.ok()) << placed.status().toString();
    // First-fit starts at 0; each later stage takes the nearest free
    // chip: an adjacent chain.
    EXPECT_EQ(*placed, (std::vector<std::size_t>{0, 1, 2}));

    // An occupied middle chip forces a detour but stays minimal-hop.
    chips[1].resident = stage;
    auto detour = policy->placeShards(request, chips);
    ASSERT_TRUE(detour.ok());
    EXPECT_EQ((*detour)[0], 0u);
    EXPECT_EQ((*detour)[1], 2u); // nearest fitting chip to 0
    EXPECT_EQ((*detour)[2], 1u + 2u);

    // The avoid set (another group's chips) is honored.
    request.avoid = {0, 1};
    auto shifted = policy->placeShards(request, chips);
    ASSERT_TRUE(shifted.ok());
    for (std::size_t chip : *shifted) {
        EXPECT_NE(chip, 0u);
        EXPECT_NE(chip, 1u);
    }

    // Distinct chips per stage always.
    request.avoid.clear();
    request.demands = {stage, stage, stage, stage, stage};
    request.cutBytes = {8, 8, 8, 8};
    chips[1].resident = ResourceDemand{};
    auto five = policy->placeShards(request, chips);
    ASSERT_TRUE(five.ok());
    std::vector<std::size_t> sorted = *five;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

    // One stage more than the fleet is InvalidArgument; an
    // unplaceable stage is Infeasible naming the stage.
    request.demands.push_back(stage);
    request.cutBytes.push_back(8);
    EXPECT_EQ(policy->placeShards(request, chips).status().code(),
              StatusCode::InvalidArgument);
}

TEST(ShardPlacementTest, InfeasibleBreakdownCarriesShardEstimate)
{
    // A demand bigger than any chip but coverable by two: the
    // whole-replica Infeasible breakdown must append the minimum
    // shard-count estimate naming usable chips.
    const ResourceDemand demand{100, 100, 100, 1000};
    std::vector<ChipLoadView> chips;
    for (int i = 0; i < 3; ++i) {
        ChipLoadView v;
        v.id = "c" + std::to_string(i);
        v.capacity = scaledCapacity(demand, 0.6);
        chips.push_back(v);
    }
    PlacementRequest request;
    request.model = "big";
    request.demand = demand;
    request.replicas = 1;
    auto policy = makePlacementPolicy(PlacementPolicyKind::BestFit);
    auto placed = policy->place(request, chips);
    ASSERT_FALSE(placed.ok());
    EXPECT_EQ(placed.status().code(), StatusCode::Infeasible);
    const std::string &message = placed.status().message();
    EXPECT_NE(message.find("sharding estimate: fits in at least 2 "
                           "shards across chips"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("'c0'"), std::string::npos) << message;

    // A demand beyond the whole fleet says sharding cannot help.
    PlacementRequest huge = request;
    huge.demand = ResourceDemand{1000, 1000, 1000, 10000};
    auto hopeless = policy->place(huge, chips);
    ASSERT_FALSE(hopeless.ok());
    EXPECT_NE(hopeless.status().message().find(
                  "exceeds the whole fleet"),
              std::string::npos)
        << hopeless.status().message();

    // A demand that fits a chip gets no estimate -- sharding is the
    // oversized-model fallback, not a bin-packing workaround.
    PlacementRequest fits = request;
    fits.demand = ResourceDemand{1, 1, 1, 1};
    chips[0].resident = demand; // full chips, but not oversized
    chips[1].resident = demand;
    chips[2].resident = demand;
    auto full = policy->place(fits, chips);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().message().find("sharding estimate"),
              std::string::npos)
        << full.status().message();
}

// ------------------------------------------------------ cluster serving

TEST(ShardedClusterTest, OversizedModelServesShardedWithinTolerance)
{
    auto model = compileShared(chainCnn());
    const ResourceDemand demand = model->resourceDemand();
    const Tensor input = probeInput({1, 12, 12});
    const Tensor expected = referenceOutput(model, input);

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    // Each chip holds ~70% of the model: infeasible everywhere whole,
    // feasible as a 2-shard pipeline.
    const ChipCapacity capacity = scaledCapacity(demand, 0.7);
    auto created = ClusterEngine::create(
        {{"c0", capacity}, {"c1", capacity}, {"c2", capacity}},
        options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();

    Status loaded = cluster->loadModel("big", model);
    ASSERT_TRUE(loaded.ok()) << loaded.toString();
    EXPECT_EQ(cluster->replicaCount("big"), 1);
    EXPECT_GE(cluster->replicaChips("big").size(), 2u);

    auto result = cluster->infer("big", input);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    expectClose(result->output, expected, 1e-4);

    // Sharded-request telemetry: stage count, interconnect bytes and
    // the modeled transfer folded into the end-to-end latency.
    EXPECT_GE(result->shards, 2);
    EXPECT_GT(result->interconnectBytes, 0);
    EXPECT_GT(result->interconnectNanos, 0.0);
    EXPECT_GE(result->modeledLatency, result->interconnectNanos);

    // A short burst streams through the pipeline.
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(cluster->submit("big", input));
    for (auto &f : futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectClose(r->output, expected, 1e-4);
    }

    // statsJson surfaces the sharded tenant + interconnect section.
    auto parsed = parseJson(cluster->statsJson());
    ASSERT_TRUE(parsed.ok()) << cluster->statsJson();
    EXPECT_TRUE((*parsed)["tenants"]["big"]["sharded"].boolean());
    EXPECT_GE((*parsed)["tenants"]["big"]["shards"].asInt(), 2);
    EXPECT_GT((*parsed)["tenants"]["big"]["interconnectBytes"].asInt(),
              0);
    EXPECT_GT((*parsed)["interconnect"]["bytes"].asInt(), 0);
    EXPECT_GT((*parsed)["interconnect"]["forwards"].asInt(), 0);

    auto load = cluster->tenantLoad("big");
    ASSERT_TRUE(load.ok());
    EXPECT_EQ(load->replicas, 1);
    EXPECT_EQ(load->completed, 17);

    // Scale to two groups, serve, and drain back down losslessly.
    ASSERT_TRUE(cluster->setReplicas("big", 1).ok());
    EXPECT_TRUE(cluster->shutdown().ok());
}

TEST(ShardedClusterTest, StatsListOneEntryPerPipelineReplica)
{
    auto model = compileShared(chainCnn());
    const Tensor input = probeInput({1, 12, 12});
    const Tensor expected = referenceOutput(model, input);

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    const ChipCapacity capacity =
        scaledCapacity(model->resourceDemand(), 0.7);
    auto created = ClusterEngine::create({{"chip0", capacity, {}},
                                          {"chip1", capacity, {}},
                                          {"chip2", capacity, {}},
                                          {"chip3", capacity, {}}},
                                         options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();
    ASSERT_TRUE(cluster->loadModel("big", model).ok());

    // Every replica is listed once, its stage chips joined by '+'.
    const auto expect_listed = [&](int replicas) {
        ASSERT_EQ(cluster->replicaCount("big"), replicas);
        auto parsed = parseJson(cluster->statsJson());
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        const JsonValue &listed = (*parsed)["tenants"]["big"]["replicas"];
        ASSERT_EQ(listed.size(), static_cast<std::size_t>(replicas));
        for (const JsonValue &replica : listed.array())
            EXPECT_NE(replica.string().find('+'), std::string::npos)
                << replica.string();
        EXPECT_TRUE((*parsed)["tenants"]["big"]["groups"].isNull());
    };
    expect_listed(1);
    ASSERT_TRUE(cluster->setReplicas("big", 2).ok());
    expect_listed(2);

    // Both pipelines serve, then one drains away losslessly.
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(cluster->submit("big", input));
    ASSERT_TRUE(cluster->setReplicas("big", 1).ok());
    for (auto &f : futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectClose(r->output, expected, 1e-4);
    }
    expect_listed(1);
    EXPECT_TRUE(cluster->shutdown().ok());
}

TEST(ShardedClusterTest, ShardGroupFailsOverAsAUnitWithZeroLoss)
{
    auto chaos = std::make_shared<FaultInjector>();
    auto model = compileShared(chainCnn());
    const ResourceDemand demand = model->resourceDemand();
    const Tensor input = probeInput({1, 12, 12});
    const Tensor expected = referenceOutput(model, input);

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    options.engine.faultHook = chaos;
    options.health.probeFailuresToFail = 2;
    options.retryBudget = 200;     // survive the repair window
    options.retryBackoffMillis = 0.2;
    options.maxRetryBackoffMillis = 2.0;
    options.bestEffortShedMillis = 0.0; // never shed: count losses
    const ChipCapacity capacity = scaledCapacity(demand, 0.7);
    auto created = ClusterEngine::create({{"chip0", capacity},
                                          {"chip1", capacity},
                                          {"chip2", capacity},
                                          {"chip3", capacity}},
                                         options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();
    ASSERT_TRUE(cluster->loadModel("big", model).ok());

    const std::vector<std::string> before =
        cluster->replicaChips("big");
    ASSERT_GE(before.size(), 2u);

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(cluster->submit("big", input));

    // Kill the pipeline's first chip mid-stream.
    chaos->failStop(before.front());
    for (int i = 0; i < 12; ++i)
        futures.push_back(cluster->submit("big", input));

    // Detect (two failed probes) and repair: the group retires as a
    // unit and a re-placed pipeline comes up on surviving chips.
    cluster->probeChips();
    cluster->probeChips();
    auto actions = cluster->repairOnce();
    ASSERT_FALSE(actions.empty());
    EXPECT_TRUE(actions.front().status.ok())
        << actions.front().status.toString();
    EXPECT_EQ(actions.front().model, "big");
    EXPECT_EQ(actions.front().fromChip, before.front());
    EXPECT_FALSE(actions.front().toChip.empty());

    const std::vector<std::string> after =
        cluster->replicaChips("big");
    ASSERT_GE(after.size(), 2u);
    for (const std::string &chip : after)
        EXPECT_NE(chip, before.front());

    // Zero lost accepted requests: every future resolves with the
    // correct output.
    for (auto &f : futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectClose(r->output, expected, 1e-4);
    }
    EXPECT_GE(chaos->injectedFaults(), 1);

    // The re-placed pipeline serves fresh traffic.
    auto again = cluster->infer("big", input);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    expectClose(again->output, expected, 1e-4);

    chaos->recover(before.front());
    EXPECT_TRUE(cluster->shutdown().ok());
}

#ifdef __linux__
/** Threads of this process: the entries of /proc/self/task. */
int
processThreadCount()
{
    int threads = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++threads;
    }
    return threads;
}
#endif

TEST(ShardedClusterTest, OverloadedPipelineStartsNoThreadAndLosesNothing)
{
    auto model = compileShared(chainMlp());
    const Tensor input = probeInput({1, 8, 8});
    const Tensor expected = referenceOutput(model, input);

    // Half-model chips split the MLP into three stages.  queueDepth 2
    // makes the router's in-flight bound 2, far below the burst below,
    // so the bound binds throughout.
    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.queueDepth = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    const ChipCapacity capacity =
        scaledCapacity(model->resourceDemand(), 0.5);
    auto created = ClusterEngine::create(
        {{"c0", capacity}, {"c1", capacity}, {"c2", capacity}}, options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();

#ifdef __linux__
    const int threads_before = processThreadCount();
#endif
    ASSERT_TRUE(cluster->loadModel("big", model).ok());
#ifdef __linux__
    // The pipeline runs on the stage engines' own workers.
    EXPECT_EQ(processThreadCount(), threads_before);
#endif
    constexpr std::int64_t kStages = 3;
    ASSERT_EQ(cluster->replicaChips("big").size(),
              static_cast<std::size_t>(kStages));

    // 4 clients x 8 requests at once: 16 x queueDepth.
    constexpr int kClients = 4;
    constexpr int kPerClient = 8;
    std::vector<std::vector<std::future<StatusOr<InferenceResult>>>>
        futures(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i)
                futures[static_cast<std::size_t>(c)].push_back(
                    cluster->submit("big", input));
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (auto &per_client : futures) {
        for (auto &f : per_client) {
            auto r = f.get();
            ASSERT_TRUE(r.ok()) << r.status().toString();
            EXPECT_EQ(r->shards, kStages);
            expectClose(r->output, expected, 1e-4);
        }
    }

    auto stats = cluster->modelStats("big");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->failed, 0);
    EXPECT_EQ(stats->completed, kClients * kPerClient);
    auto parsed = parseJson(cluster->statsJson());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)["tenants"]["big"]["forwards"].asInt(),
              stats->completed * (kStages - 1));
    EXPECT_TRUE(cluster->shutdown().ok());
}

/** The one tenant a chip's engine hosts (a chain stage). */
std::string
soleTenant(ClusterEngine &cluster, const std::string &chipId)
{
    const std::size_t chip = cluster.fleet().indexOf(chipId).value();
    const std::vector<std::string> names =
        cluster.fleet().engine(chip).modelNames();
    EXPECT_EQ(names.size(), 1u) << chipId;
    return names.empty() ? "" : names.front();
}

TEST(ShardedClusterTest, FailedChainLoadLeavesNoTenant)
{
    auto model = compileShared(chainCnn());
    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    const ChipCapacity capacity =
        scaledCapacity(model->resourceDemand(), 0.7);
    auto created = ClusterEngine::create({{"chip0", capacity},
                                          {"chip1", capacity},
                                          {"chip2", capacity},
                                          {"chip3", capacity}},
                                         options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();

    // Two disjoint two-stage chains fit; the third finds no chip.
    Status loaded = cluster->loadModel("big", model, 3);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::Infeasible) << loaded.toString();

    // The chains placed before the failure were retired with it.
    EXPECT_EQ(cluster->replicaCount("big"), 0);
    EXPECT_TRUE(cluster->modelNames().empty());
    for (std::size_t chip = 0; chip < cluster->fleet().size(); ++chip) {
        const ResourceDemand resident =
            cluster->fleet().engine(chip).registry().residentDemand();
        EXPECT_EQ(resident.peBlocks, 0) << chip;
        EXPECT_EQ(resident.smbBlocks, 0) << chip;
        EXPECT_EQ(resident.clbBlocks, 0) << chip;
        EXPECT_EQ(resident.routingTracks, 0) << chip;
        EXPECT_TRUE(cluster->fleet().engine(chip).modelNames().empty());
    }

    // The name is free again and serves.
    ASSERT_TRUE(cluster->loadModel("big", model, 1).ok());
    const Tensor input = probeInput({1, 12, 12});
    auto result = cluster->infer("big", input);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    expectClose(result->output, referenceOutput(model, input), 1e-4);
    EXPECT_TRUE(cluster->shutdown().ok());
}

TEST(ShardedClusterTest, StageHealthChargesTheFailingChipAndRetryAvoidsIt)
{
    auto chaos = std::make_shared<FaultInjector>();
    auto model = compileShared(chainCnn());
    const Tensor input = probeInput({1, 12, 12});
    const Tensor expected = referenceOutput(model, input);

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    options.engine.faultHook = chaos;
    options.retryBackoffMillis = 0.2;
    options.bestEffortShedMillis = 0.0; // never shed
    const ChipCapacity capacity =
        scaledCapacity(model->resourceDemand(), 0.7);
    auto created = ClusterEngine::create({{"chip0", capacity},
                                          {"chip1", capacity},
                                          {"chip2", capacity},
                                          {"chip3", capacity}},
                                         options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();
    ASSERT_TRUE(cluster->loadModel("big", model, 2).ok());

    // Two disjoint two-stage chains, A then B in placement order.
    const std::vector<std::string> chips = cluster->replicaChips("big");
    ASSERT_EQ(chips.size(), 4u);
    const std::string a_tail = chips[1];
    const std::string b_tail = chips[3];
    const auto index = [&](const std::string &id) {
        return cluster->fleet().indexOf(id).value();
    };

    // Every execution on chain A's second stage fails.
    chaos->setTransientErrorRate(a_tail, 1.0);

    // The first request tries A (placement order breaks the tie),
    // fails at its tail stage and is retried on B, away from that chip.
    auto first = cluster->infer("big", input);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    expectClose(first->output, expected, 1e-4);
    auto a_stage = cluster->fleet()
                       .engine(index(a_tail))
                       .modelStats(soleTenant(*cluster, a_tail));
    auto b_stage = cluster->fleet()
                       .engine(index(b_tail))
                       .modelStats(soleTenant(*cluster, b_tail));
    ASSERT_TRUE(a_stage.ok() && b_stage.ok());
    EXPECT_EQ(a_stage->failed, 1);
    EXPECT_EQ(b_stage->completed, 1);

    for (int i = 0; i < 8; ++i) {
        auto r = cluster->infer("big", input);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectClose(r->output, expected, 1e-4);
    }

    // Only the failing stage's chip is charged; its chain's healthy
    // head and the serving chain read clean.
    EXPECT_GT(cluster->health().errorRate(index(a_tail)), 0.0);
    for (const std::string &chip : {chips[0], chips[2], chips[3]})
        EXPECT_EQ(cluster->health().errorRate(index(chip)), 0.0) << chip;

    chaos->setTransientErrorRate(a_tail, 0.0);
    EXPECT_TRUE(cluster->shutdown().ok());
}

TEST(ShardedClusterTest, ChainStatsComeFromStageEngines)
{
    auto model = compileShared(chainMlp());
    const Tensor input = probeInput({1, 8, 8});

    // Half-model chips split the MLP into three stages.
    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.execution =
        ExecutionConfig{ExecutorKind::Reference};
    const ChipCapacity capacity =
        scaledCapacity(model->resourceDemand(), 0.5);
    auto created = ClusterEngine::create(
        {{"c0", capacity}, {"c1", capacity}, {"c2", capacity}}, options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();
    ASSERT_TRUE(cluster->loadModel("big", model).ok());
    const std::vector<std::string> chips = cluster->replicaChips("big");
    ASSERT_EQ(chips.size(), 3u);

    constexpr int kRequests = 12;
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(cluster->submit("big", input));
    for (auto &f : futures)
        ASSERT_TRUE(f.get().ok());

    std::vector<EngineStats> stages;
    for (const std::string &chip : chips) {
        auto stage = cluster->fleet()
                         .engine(cluster->fleet().indexOf(chip).value())
                         .modelStats(soleTenant(*cluster, chip));
        ASSERT_TRUE(stage.ok());
        stages.push_back(std::move(stage).value());
    }
    auto stats = cluster->modelStats("big");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->submitted, stages.front().submitted);
    EXPECT_EQ(stats->completed, kRequests);
    EXPECT_EQ(stats->completed, stages.back().completed);
    EXPECT_EQ(stats->failed, 0);
    EXPECT_GT(stats->batches, 0);
    EXPECT_EQ(stats->batches, stages.back().batches);
    EXPECT_EQ(stats->batchSizeCounts, stages.back().batchSizeCounts);
    EXPECT_DOUBLE_EQ(stats->p99QueueMillis,
                     stages[0].p99QueueMillis + stages[1].p99QueueMillis +
                         stages[2].p99QueueMillis);

    auto parsed = parseJson(cluster->statsJson());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &tenant = (*parsed)["tenants"]["big"];
    EXPECT_EQ(tenant["forwards"].asInt(),
              stages[0].completed + stages[1].completed);
    EXPECT_GT(tenant["interconnectNanos"].number(), 0.0);
    EXPECT_TRUE(cluster->shutdown().ok());
}

} // namespace
} // namespace fpsa
