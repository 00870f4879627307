/**
 * @file
 * Tests for the multi-chip cluster serving subsystem: deterministic
 * `PlacementPolicy` bin-packing and replica fan-out over a
 * `ChipFleet`, `ClusterEngine` replica-aware routing (batches never
 * mix tenants; accepted requests survive replica drains; one-stage
 * replica stats are their chip engines' own), per-chip
 * Infeasible breakdowns for over-fleet-budget loads, and the scale
 * step of the `ClusterController` tick (scale-up under backlog,
 * hysteretic scale-down that never fails an in-flight request).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "runtime/cluster/chip_fleet.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/cluster/placement.hh"
#include "runtime/executor.hh"

namespace fpsa
{
namespace
{

/** A small weighted CNN (10 outputs) in the functional family. */
Graph
smallCnn(std::uint64_t seed = 42)
{
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

/** A small weighted MLP (4 outputs) -- a distinguishable second tenant. */
Graph
smallMlp(std::uint64_t seed = 7)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(12).relu().fc(4);
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
probeInput(float scale = 1.0f)
{
    Tensor t({1, 8, 8});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = scale * static_cast<float>(i % 7) / 7.0f;
    return t;
}

/** A capacity that fits `copies` models of this demand exactly. */
ChipCapacity
capacityFor(const ResourceDemand &demand, std::int64_t copies)
{
    ChipCapacity c;
    c.peBlocks = demand.peBlocks * copies;
    c.smbBlocks = demand.smbBlocks * copies;
    c.clbBlocks = demand.clbBlocks * copies;
    c.routingTracks = demand.routingTracks * copies;
    return c;
}

ChipLoadView
viewOf(std::string id, ChipCapacity capacity)
{
    ChipLoadView v;
    v.id = std::move(id);
    v.capacity = capacity;
    return v;
}

ResourceDemand
demandOf(std::int64_t pe, std::int64_t smb, std::int64_t clb,
         std::int64_t wire)
{
    ResourceDemand d;
    d.peBlocks = pe;
    d.smbBlocks = smb;
    d.clbBlocks = clb;
    d.routingTracks = wire;
    return d;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

// ------------------------------------------------------- placement policies

TEST(PlacementPolicy, FirstFitTakesLowestIndexBestFitTakesTightest)
{
    const ResourceDemand demand = demandOf(10, 10, 10, 100);
    ChipCapacity roomy = capacityFor(demand, 4);
    ChipCapacity snug = capacityFor(demand, 1);
    std::vector<ChipLoadView> chips = {viewOf("c0", roomy),
                                       viewOf("c1", snug),
                                       viewOf("c2", roomy)};

    PlacementRequest request;
    request.model = "m";
    request.demand = demand;
    request.replicas = 1;

    auto first_fit = makePlacementPolicy(PlacementPolicyKind::FirstFit);
    auto best_fit = makePlacementPolicy(PlacementPolicyKind::BestFit);
    auto ff = first_fit->place(request, chips);
    ASSERT_TRUE(ff.ok()) << ff.status().toString();
    EXPECT_EQ(*ff, std::vector<std::size_t>{0});

    // Best-fit prefers the chip left tightest: the snug chip ends
    // exactly full.
    auto bf = best_fit->place(request, chips);
    ASSERT_TRUE(bf.ok()) << bf.status().toString();
    EXPECT_EQ(*bf, std::vector<std::size_t>{1});

    // Determinism: re-placing against the same views reproduces the
    // assignment exactly.
    EXPECT_EQ(*first_fit->place(request, chips), *ff);
    EXPECT_EQ(*best_fit->place(request, chips), *bf);
}

TEST(PlacementPolicy, ReplicasLandOnDistinctChips)
{
    const ResourceDemand demand = demandOf(8, 8, 8, 64);
    std::vector<ChipLoadView> chips = {
        viewOf("c0", capacityFor(demand, 3)),
        viewOf("c1", capacityFor(demand, 3)),
        viewOf("c2", capacityFor(demand, 3))};

    PlacementRequest request;
    request.model = "hot";
    request.demand = demand;
    request.replicas = 3;
    auto policy = makePlacementPolicy(PlacementPolicyKind::FirstFit);
    auto placed = policy->place(request, chips);
    ASSERT_TRUE(placed.ok()) << placed.status().toString();
    EXPECT_EQ(placed->size(), 3u);
    EXPECT_NE((*placed)[0], (*placed)[1]);
    EXPECT_NE((*placed)[1], (*placed)[2]);
    EXPECT_NE((*placed)[0], (*placed)[2]);

    // A chip already hosting the tenant is never chosen again.
    chips[0].models.push_back("hot");
    request.replicas = 2;
    auto avoid = policy->place(request, chips);
    ASSERT_TRUE(avoid.ok());
    EXPECT_EQ(*avoid, (std::vector<std::size_t>{1, 2}));

    // More replicas than chips can never be distinct.
    request.replicas = 4;
    EXPECT_EQ(policy->place(request, chips).status().code(),
              StatusCode::InvalidArgument);
}

TEST(PlacementPolicy, InfeasibleCarriesPerChipBreakdown)
{
    const ResourceDemand demand = demandOf(100, 10, 10, 100);
    std::vector<ChipLoadView> chips = {
        viewOf("alpha", capacityFor(demandOf(10, 10, 10, 100), 1)),
        viewOf("beta", capacityFor(demandOf(10, 10, 10, 100), 2))};

    PlacementRequest request;
    request.model = "big";
    request.demand = demand;
    request.replicas = 1;
    auto policy = makePlacementPolicy(PlacementPolicyKind::BestFit);
    auto placed = policy->place(request, chips);
    ASSERT_FALSE(placed.ok());
    EXPECT_EQ(placed.status().code(), StatusCode::Infeasible);
    const std::string &message = placed.status().message();
    EXPECT_NE(message.find("placement infeasible for model 'big'"),
              std::string::npos)
        << message;
    // Every chip is itemized with the uniform admission breakdown.
    EXPECT_NE(message.find("chip 'alpha'"), std::string::npos);
    EXPECT_NE(message.find("chip 'beta'"), std::string::npos);
    EXPECT_EQ(countOccurrences(message, "PE "), 2u) << message;
    EXPECT_GE(countOccurrences(message, "(over by "), 2u) << message;
}

// --------------------------------------------------------------- ChipFleet

TEST(ChipFleet, ValidatesSpecsAndExposesViews)
{
    const ResourceDemand demand = demandOf(4, 4, 4, 32);
    EXPECT_EQ(ChipFleet::create({}).status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(ChipFleet::create({{"", capacityFor(demand, 1)}})
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(ChipFleet::create({{"a", capacityFor(demand, 1)},
                                 {"a", capacityFor(demand, 1)}})
                  .status()
                  .code(),
              StatusCode::InvalidArgument);

    auto fleet = ChipFleet::create({{"a", capacityFor(demand, 1)},
                                    {"b", capacityFor(demand, 2)}});
    ASSERT_TRUE(fleet.ok());
    EXPECT_EQ((*fleet)->size(), 2u);
    EXPECT_EQ((*fleet)->id(1), "b");
    EXPECT_EQ((*fleet)->indexOf("b").value(), 1u);
    EXPECT_EQ((*fleet)->indexOf("nope").status().code(),
              StatusCode::InvalidArgument);
    auto views = (*fleet)->loadViews();
    ASSERT_EQ(views.size(), 2u);
    EXPECT_EQ(views[0].id, "a");
    EXPECT_EQ(views[1].capacity, capacityFor(demand, 2));
    EXPECT_EQ(views[0].resident, ResourceDemand{});
    EXPECT_TRUE((*fleet)->shutdown().ok());
}

// ------------------------------------------------------------ ClusterEngine

TEST(ClusterEngine, PlacementIsDeterministicAcrossIdenticalClusters)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());
    const ChipCapacity capacity =
        capacityFor(cnn->resourceDemand(), 2);

    auto build = [&]() {
        auto cluster = ClusterEngine::create(
            {{"c0", capacity}, {"c1", capacity}, {"c2", capacity}});
        EXPECT_TRUE(cluster.ok()) << cluster.status().toString();
        EXPECT_TRUE((*cluster)->loadModel("hot", cnn, 2).ok());
        EXPECT_TRUE((*cluster)->loadModel("mlp", mlp).ok());
        EXPECT_TRUE((*cluster)->loadModel("cold", cnn).ok());
        return std::move(cluster).value();
    };
    auto one = build();
    auto two = build();
    for (const char *name : {"hot", "mlp", "cold"}) {
        EXPECT_EQ(one->replicaChips(name), two->replicaChips(name))
            << name;
    }
    EXPECT_EQ(one->replicaCount("hot"), 2);
    // Replicas of one tenant occupy distinct chips.
    auto hot = one->replicaChips("hot");
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_NE(hot[0], hot[1]);
}

TEST(ClusterEngine, RoutesReplicasAndNeverMixesTenantsInABatch)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.maxBatch = 4;
    options.engine.queueDepth = 512;
    auto cluster = ClusterEngine::create(
        {{"c0", ChipCapacity::unlimited()},
         {"c1", ChipCapacity::unlimited()},
         {"c2", ChipCapacity::unlimited()}},
        options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().toString();
    ASSERT_TRUE((*cluster)->loadModel("hot", cnn, 2).ok());
    ASSERT_TRUE((*cluster)->loadModel("mlp", mlp, 1).ok());

    // Ground truth per tenant through a direct executor.
    auto direct_cnn = makeExecutor(cnn, ExecutionConfig{});
    auto direct_mlp = makeExecutor(mlp, ExecutionConfig{});
    ASSERT_TRUE(direct_cnn.ok() && direct_mlp.ok());
    const Tensor expect_cnn = (*direct_cnn)->run(probeInput()).value();
    const Tensor expect_mlp = (*direct_mlp)->run(probeInput()).value();

    constexpr int kPerTenant = 48;
    std::vector<std::future<StatusOr<InferenceResult>>> hot_futures,
        mlp_futures;
    std::thread hot_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            hot_futures.push_back(
                (*cluster)->submit("hot", probeInput()));
    });
    std::thread mlp_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            mlp_futures.push_back(
                (*cluster)->submit("mlp", probeInput()));
    });
    hot_client.join();
    mlp_client.join();

    for (auto &f : hot_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "hot");
        ASSERT_EQ(r->output.shape(), expect_cnn.shape());
        for (std::int64_t i = 0; i < expect_cnn.numel(); ++i)
            ASSERT_EQ(r->output[i], expect_cnn[i]);
    }
    for (auto &f : mlp_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "mlp");
        for (std::int64_t i = 0; i < expect_mlp.numel(); ++i)
            ASSERT_EQ(r->output[i], expect_mlp[i]);
    }

    // Least-outstanding routing spread the hot tenant over both of
    // its replicas, and the cluster's view of a one-stage replica is
    // its chip engine's own.
    auto merged = (*cluster)->modelStats("hot");
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged->completed, kPerTenant);
    std::vector<std::string> hot_chips = (*cluster)->replicaChips("hot");
    ASSERT_EQ(hot_chips.size(), 2u);
    EngineStats summed;
    for (const std::string &chip : hot_chips) {
        auto index = (*cluster)->fleet().indexOf(chip);
        ASSERT_TRUE(index.ok());
        auto per_chip =
            (*cluster)->fleet().engine(*index).modelStats("hot");
        ASSERT_TRUE(per_chip.ok());
        EXPECT_GT(per_chip->completed, 0) << chip;
        summed.submitted += per_chip->submitted;
        summed.completed += per_chip->completed;
        summed.batches += per_chip->batches;
        summed.batchSizeCounts.resize(
            std::max(summed.batchSizeCounts.size(),
                     per_chip->batchSizeCounts.size()),
            0);
        for (std::size_t n = 0; n < per_chip->batchSizeCounts.size(); ++n)
            summed.batchSizeCounts[n] += per_chip->batchSizeCounts[n];
    }
    EXPECT_EQ(merged->submitted, kPerTenant);
    EXPECT_EQ(merged->submitted, summed.submitted);
    EXPECT_EQ(merged->completed, summed.completed);
    EXPECT_EQ(merged->batches, summed.batches);
    EXPECT_EQ(merged->batchSizeCounts, summed.batchSizeCounts);

    // Batches never mix tenants: on every chip, the per-tenant batch
    // counts partition the chip's total scheduler dequeues.
    ChipFleet &fleet = (*cluster)->fleet();
    for (std::size_t chip = 0; chip < fleet.size(); ++chip) {
        const EngineStats aggregate = fleet.engine(chip).stats();
        std::int64_t tenant_batches = 0;
        for (const std::string &name :
             fleet.engine(chip).modelNames()) {
            auto stats = fleet.engine(chip).modelStats(name);
            ASSERT_TRUE(stats.ok());
            tenant_batches += stats->batches;
        }
        EXPECT_EQ(aggregate.batches, tenant_batches)
            << fleet.id(chip);
    }

    // The cluster stats JSON surfaces per-chip and per-tenant views,
    // with the chain fields of a one-stage tenant.
    auto parsed = parseJson((*cluster)->statsJson());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &hot = (*parsed)["tenants"]["hot"];
    EXPECT_EQ(hot["replicas"].size(), 2u);
    EXPECT_EQ(hot["shards"].asInt(), 1);
    EXPECT_FALSE(hot["sharded"].boolean());
    EXPECT_EQ(hot["forwards"].asInt(), 0);
    EXPECT_EQ(hot["interconnectBytes"].asInt(), 0);
    EXPECT_EQ((*parsed)["chips"].asInt(), 3);
}

TEST(ClusterEngine, OverFleetBudgetLoadReturnsPerChipBreakdown)
{
    auto cnn = compileShared(smallCnn());
    const ResourceDemand demand = cnn->resourceDemand();
    // Each chip holds half the model: it fits no single chip (the
    // fleet in aggregate could hold it, but there is no sharding), so
    // the load must come back Infeasible itemizing every chip.
    ChipCapacity half;
    half.peBlocks = demand.peBlocks / 2;
    half.smbBlocks = demand.smbBlocks / 2;
    half.clbBlocks = demand.clbBlocks / 2;
    half.routingTracks = demand.routingTracks / 2;

    auto cluster = ClusterEngine::create(
        {{"c0", half}, {"c1", half}, {"c2", half}});
    ASSERT_TRUE(cluster.ok());
    Status rejected = (*cluster)->loadModel("big", cnn);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::Infeasible);
    const std::string &message = rejected.message();
    for (const char *chip : {"chip 'c0'", "chip 'c1'", "chip 'c2'"})
        EXPECT_NE(message.find(chip), std::string::npos) << message;
    EXPECT_GE(countOccurrences(message, "(over by "), 3u) << message;
    EXPECT_TRUE((*cluster)->modelNames().empty());

    // Half-placed loads roll back: nothing is left resident anywhere.
    for (std::size_t chip = 0; chip < (*cluster)->fleet().size();
         ++chip)
        EXPECT_EQ((*cluster)->fleet().engine(chip).modelNames().size(),
                  0u);
}

TEST(ClusterEngine, ScaleDownDrainsWithoutFailingAcceptedRequests)
{
    auto cnn = compileShared(smallCnn());
    ClusterOptions options;
    options.engine.workerThreads = 1;
    options.engine.maxBatch = 4;
    options.engine.queueDepth = 512;
    auto cluster = ClusterEngine::create(
        {{"c0", ChipCapacity::unlimited()},
         {"c1", ChipCapacity::unlimited()}},
        options);
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->loadModel("m", cnn, 2).ok());

    // Build a backlog spread over both replicas, then shrink to one
    // replica while the backlog is in flight.
    constexpr int kRequests = 64;
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back((*cluster)->submit("m", probeInput()));

    Status scaled = (*cluster)->setReplicas("m", 1);
    EXPECT_TRUE(scaled.ok()) << scaled.toString();
    EXPECT_EQ((*cluster)->replicaCount("m"), 1);

    // Every accepted request resolves successfully -- the retired
    // replica drained, and submits racing the drain were re-routed.
    for (auto &f : futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "m");
    }

    // The surviving replica still serves; the retired chip is empty.
    auto after = (*cluster)->infer("m", probeInput());
    EXPECT_TRUE(after.ok());
    std::vector<std::string> chips = (*cluster)->replicaChips("m");
    ASSERT_EQ(chips.size(), 1u);
    std::size_t live =
        (*cluster)->fleet().indexOf(chips[0]).value();
    for (std::size_t chip = 0; chip < (*cluster)->fleet().size();
         ++chip) {
        if (chip != live) {
            EXPECT_TRUE((*cluster)
                            ->fleet()
                            .engine(chip)
                            .modelNames()
                            .empty());
        }
    }
}

// ------------------------------------------------------------- scale step

TEST(ControllerScaling, ScalesUpUnderBacklogAndBackDownWhenIdle)
{
    auto cnn = compileShared(smallCnn());
    auto chaos = std::make_shared<FaultInjector>();
    ClusterOptions options;
    options.engine.workerThreads = 1;
    options.engine.maxBatch = 2;
    options.engine.queueDepth = 1024;
    options.engine.faultHook = chaos;
    auto cluster = ClusterEngine::create(
        {{"c0", ChipCapacity::unlimited()},
         {"c1", ChipCapacity::unlimited()},
         {"c2", ChipCapacity::unlimited()}},
        options);
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->loadModel("m", cnn, 1).ok());

    ScalePolicy scaling;
    scaling.scaleUpPendingPerReplica = 4.0;
    scaling.scaleDownPendingPerReplica = 1.0;
    scaling.scaleUpAfter = 1;
    scaling.scaleDownAfter = 2;
    ControllerOptions control;
    control.scaling = scaling;
    ClusterController controller(**cluster, control);

    // A quiet tenant at the floor: no decision either way.
    EXPECT_TRUE(controller.evaluateOnce().empty());

    // Pile on a backlog, then take one control step: one new replica.
    // The chips are wedged so the backlog cannot drain before the step
    // sees it, however fast the kernels run.
    for (const char *chip : {"c0", "c1", "c2"})
        chaos->wedge(chip);
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 96; ++i)
        futures.push_back((*cluster)->submit("m", probeInput()));
    auto decisions = controller.evaluateOnce();
    for (const char *chip : {"c0", "c1", "c2"})
        chaos->unwedge(chip);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].model, "m");
    EXPECT_EQ(decisions[0].fromReplicas, 1);
    EXPECT_EQ(decisions[0].toReplicas, 2);
    EXPECT_EQ((*cluster)->replicaCount("m"), 2);

    // No accepted request is lost across the scaling events.
    for (auto &f : futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
    }

    // Idle evaluations shrink back to the floor after the hysteresis
    // threshold -- and the drain loses nothing (queues are empty).
    EXPECT_TRUE(controller.evaluateOnce().empty()); // idle streak 1
    auto shrink = controller.evaluateOnce();        // idle streak 2
    ASSERT_EQ(shrink.size(), 1u);
    EXPECT_EQ(shrink[0].fromReplicas, 2);
    EXPECT_EQ(shrink[0].toReplicas, 1);
    EXPECT_EQ((*cluster)->replicaCount("m"), 1);
    // At the floor, further idleness makes no decision.
    EXPECT_TRUE(controller.evaluateOnce().empty());
    EXPECT_TRUE(controller.evaluateOnce().empty());

    EXPECT_EQ(controller.history().size(), 2u);

    // The background loop runs the same step safely.
    controller.start();
    controller.start(); // idempotent
    controller.stop();
    controller.stop();
}

TEST(ControllerScaling, RecordsRejectedScaleUpOnAFullFleet)
{
    auto cnn = compileShared(smallCnn());
    const ChipCapacity one = capacityFor(cnn->resourceDemand(), 1);
    auto chaos = std::make_shared<FaultInjector>();
    ClusterOptions options;
    options.engine.workerThreads = 1;
    options.engine.queueDepth = 1024;
    options.engine.faultHook = chaos;
    // Two chips; the second is occupied by another tenant, so the hot
    // tenant has nowhere to grow.
    auto cluster =
        ClusterEngine::create({{"c0", one}, {"c1", one}}, options);
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->loadModel("hot", cnn, 1).ok());
    ASSERT_TRUE((*cluster)->loadModel("cold", cnn, 1).ok());

    ScalePolicy scaling;
    scaling.scaleUpPendingPerReplica = 2.0;
    scaling.scaleUpAfter = 1;
    ControllerOptions control;
    control.scaling = scaling;
    ClusterController controller(**cluster, control);

    // Wedged chips keep the backlog in place for the control step.
    chaos->wedge("c0");
    chaos->wedge("c1");
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back((*cluster)->submit("hot", probeInput()));
    auto decisions = controller.evaluateOnce();
    chaos->unwedge("c0");
    chaos->unwedge("c1");
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].fromReplicas, 1);
    EXPECT_EQ(decisions[0].toReplicas, 1); // rejected, not applied
    EXPECT_NE(decisions[0].reason.find("placement infeasible"),
              std::string::npos)
        << decisions[0].reason;
    EXPECT_EQ((*cluster)->replicaCount("hot"), 1);
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok());
}

TEST(ControllerScaling, ReloadedTenantStartsAFreshStreak)
{
    auto cnn = compileShared(smallCnn());
    ClusterOptions options;
    options.engine.workerThreads = 1;
    auto cluster = ClusterEngine::create(
        {{"c0", ChipCapacity::unlimited()},
         {"c1", ChipCapacity::unlimited()},
         {"c2", ChipCapacity::unlimited()}},
        options);
    ASSERT_TRUE(cluster.ok());
    ControllerOptions control;
    control.scaling = ScalePolicy{};
    ClusterController controller(**cluster, control);
    const int idle_ticks = ScalePolicy{}.scaleDownAfter;

    // Two idle ticks at the floor: no decision, but an idle streak.
    ASSERT_TRUE((*cluster)->loadModel("x", cnn, 1).ok());
    for (int i = 0; i + 1 < idle_ticks; ++i)
        EXPECT_TRUE(controller.evaluateOnce().empty());

    // Reloaded between ticks under the same name: the new tenant's
    // replicas are not surplus until it has been idle on its own.
    ASSERT_TRUE((*cluster)->unloadModel("x").ok());
    ASSERT_TRUE((*cluster)->loadModel("x", cnn, 3).ok());
    for (int i = 0; i + 1 < idle_ticks; ++i) {
        EXPECT_TRUE(controller.evaluateOnce().empty());
        EXPECT_EQ((*cluster)->replicaCount("x"), 3);
    }
    auto shrink = controller.evaluateOnce();
    ASSERT_EQ(shrink.size(), 1u);
    EXPECT_EQ(shrink[0].fromReplicas, 3);
    EXPECT_EQ(shrink[0].toReplicas, 2);
    EXPECT_EQ((*cluster)->replicaCount("x"), 2);
}

TEST(ControllerScaling, HotDegradedTenantKeepsItsDesiredCount)
{
    auto cnn = compileShared(smallCnn());
    auto chaos = std::make_shared<FaultInjector>();
    ClusterOptions options;
    options.engine.workerThreads = 1;
    options.engine.queueDepth = 1024;
    options.engine.faultHook = chaos;
    auto cluster = ClusterEngine::create(
        {{"c0", ChipCapacity::unlimited()},
         {"c1", ChipCapacity::unlimited()},
         {"c2", ChipCapacity::unlimited()}},
        options);
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->loadModel("m", cnn, 3).ok());

    ScalePolicy scaling;
    scaling.scaleUpPendingPerReplica = 4.0;
    scaling.scaleDownPendingPerReplica = 0.0; // never shrink
    ControllerOptions control;
    control.scaling = scaling;
    ClusterController controller(**cluster, control);

    // Two of three chips fail: repair has nowhere to move their
    // replicas, so the tenant serves degraded on c0.
    chaos->failStop("c1");
    chaos->failStop("c2");
    for (int i = 0; i < 4 && (*cluster)->replicaCount("m") != 1; ++i)
        controller.evaluateOnce();
    ASSERT_EQ((*cluster)->replicaChips("m"),
              std::vector<std::string>{"c0"});

    // A backlog on the survivor makes the tenant hot.
    chaos->wedge("c0");
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back((*cluster)->submit("m", probeInput()));
    auto load = (*cluster)->tenantLoad("m");
    ASSERT_TRUE(load.ok());
    EXPECT_GT(load->pendingPerReplica, scaling.scaleUpPendingPerReplica);
    controller.evaluateOnce();
    chaos->unwedge("c0");
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok());

    // The chips rejoin and repair restores every replica asked for.
    chaos->recover("c1");
    chaos->recover("c2");
    for (int i = 0; i < 3; ++i)
        controller.evaluateOnce();
    EXPECT_EQ((*cluster)->replicaCount("m"), 3);
}

} // namespace
} // namespace fpsa
