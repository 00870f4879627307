/**
 * @file
 * Tests for variation-aware deployment: the `ModelCalibrator`'s
 * per-layer mapping choice and age extrapolation, accuracy-gated
 * admission with per-chip predicted-vs-needed breakdowns,
 * lowest-variance placement, the `statsJson()` variation/health
 * schema, drift-driven ACCURATE -> DRIFTING -> STALE transitions with
 * routing around drifted replicas, and the re-programming recovery
 * round trip under a concurrent request stream (zero accepted
 * requests lost; run under TSan in CI), for one-stage replicas and
 * for two-stage chains calibrated stage by stage, and for a tenant's
 * sole replica, whose requests wait in backoff while it is detached.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accuracy/calibration.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "reram/variation.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/engine.hh"

namespace fpsa
{
namespace
{

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

/** A deeper weighted chain that splits into chip-sized stages. */
Graph
chainCnn(std::uint64_t seed = 42)
{
    GraphBuilder b({1, 8, 8});
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

std::shared_ptr<const CompiledModel>
compileShared(Graph g)
{
    CompileOptions options;
    options.duplicationDegree = 2;
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

/** A capacity holding `fraction` of this demand (rounded up). */
ChipCapacity
fractionOf(const ResourceDemand &demand, double fraction)
{
    auto scale = [fraction](std::int64_t units) {
        return static_cast<std::int64_t>(
            std::ceil(static_cast<double>(units) * fraction));
    };
    ChipCapacity c;
    c.peBlocks = scale(demand.peBlocks);
    c.smbBlocks = scale(demand.smbBlocks);
    c.clbBlocks = scale(demand.clbBlocks);
    c.routingTracks = scale(demand.routingTracks);
    return c;
}

ChipSpec
chipWith(std::string id, ChipCapacity capacity, double sigma,
         double drift = 0.0, std::uint64_t seed = 1)
{
    ChipSpec spec;
    spec.id = std::move(id);
    spec.capacity = capacity;
    spec.variation.model.sigmaOfRange = sigma;
    spec.variation.model.driftPerSecond = drift;
    spec.variation.seed = seed;
    return spec;
}

/**
 * The accuracy state of the `model` replica on chip `chipId`, read
 * from the cluster's own stats JSON ("" when untracked there).
 */
std::string
replicaStateFromStats(const ClusterEngine &cluster,
                      const std::string &model,
                      const std::string &chipId)
{
    auto parsed = parseJson(cluster.statsJson());
    EXPECT_TRUE(parsed.ok()) << parsed.status().toString();
    if (!parsed.ok())
        return "";
    const JsonValue &replicas =
        (*parsed)["variation"]["tenants"][model]["replicas"];
    for (const JsonValue &replica : replicas.array()) {
        if (replica["chip"].string() == chipId)
            return replica["accuracy"].string();
    }
    return "";
}

// ------------------------------------------------------ ModelCalibrator

TEST(ModelCalibrator, CalibrationIsDeterministic)
{
    Graph g = smallCnn();
    VariationModel chip;
    chip.sigmaOfRange = 0.03;
    chip.stuckAtRate = 1e-3;
    ModelCalibrator calibrator;
    const CalibrationResult a = calibrator.calibrate(g, chip, 0.9, 77);
    const CalibrationResult b = calibrator.calibrate(g, chip, 0.9, 77);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    EXPECT_DOUBLE_EQ(a.predictedAccuracy, b.predictedAccuracy);
    EXPECT_EQ(a.totalCells, b.totalCells);
    EXPECT_EQ(a.mappingSummary(), b.mappingSummary());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        EXPECT_EQ(a.layers[l].cellsPerWeight, b.layers[l].cellsPerWeight);
        EXPECT_DOUBLE_EQ(a.layers[l].measuredDeviation,
                         b.layers[l].measuredDeviation);
    }
}

TEST(ModelCalibrator, HigherSloSpendsMoreCellsForMoreAccuracy)
{
    Graph g = smallCnn();
    VariationModel chip;
    chip.sigmaOfRange = 0.02;
    ModelCalibrator calibrator;
    const CalibrationResult lax = calibrator.calibrate(g, chip, 0.4, 5);
    const CalibrationResult strict =
        calibrator.calibrate(g, chip, 0.95, 5);
    EXPECT_GE(strict.totalCells, lax.totalCells);
    EXPECT_GE(strict.predictedAccuracy, lax.predictedAccuracy);
    EXPECT_GE(strict.predictedAccuracy, 0.95);
}

TEST(ModelCalibrator, HopelesslyNoisyChipMissesTheSlo)
{
    Graph g = smallCnn();
    VariationModel chip;
    chip.sigmaOfRange = 0.3; // an order past the fabricated corner
    ModelCalibrator calibrator;
    const CalibrationResult result = calibrator.calibrate(g, chip, 0.97, 5);
    // Best effort comes back -- rejection is the caller's call.
    EXPECT_FALSE(result.layers.empty());
    EXPECT_LT(result.predictedAccuracy, 0.97);
}

TEST(ModelCalibrator, AccuracyAtAgeIsMonotonicallyNonIncreasing)
{
    Graph g = smallCnn();
    VariationModel chip;
    chip.sigmaOfRange = 0.015;
    chip.driftPerSecond = 5e-4;
    ModelCalibrator calibrator;
    const CalibrationResult calibration =
        calibrator.calibrate(g, chip, 0.9, 13);
    EXPECT_DOUBLE_EQ(calibrator.accuracyAtAge(calibration, chip, 0.0),
                     calibration.predictedAccuracy);
    double previous = calibration.predictedAccuracy;
    for (double age : {10.0, 50.0, 200.0, 1000.0}) {
        const double at_age =
            calibrator.accuracyAtAge(calibration, chip, age);
        EXPECT_LE(at_age, previous);
        previous = at_age;
    }
    // Enough retention decays the prediction to (near) zero.
    EXPECT_LT(calibrator.accuracyAtAge(calibration, chip, 1e6), 0.05);
}

// ------------------------------------------------- admission + placement

TEST(VariationCluster, InfeasibleSloRejectsWithPerChipBreakdown)
{
    auto model = compileShared(smallCnn());
    const ChipCapacity cap = capacityFor(model->resourceDemand(), 2);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.3, 0.0, 11),
         chipWith("chip1", cap, 0.25, 0.0, 12)});
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.97;
    Status loaded = (*cluster)->loadModel("cnn", model, 1, tenant);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::Infeasible);
    // Every chip's line names its predicted-vs-needed gap and the
    // best mapping the calibrator could find.
    EXPECT_NE(loaded.message().find("chip0"), std::string::npos)
        << loaded.message();
    EXPECT_NE(loaded.message().find("chip1"), std::string::npos);
    EXPECT_NE(loaded.message().find("predicted accuracy"),
              std::string::npos)
        << loaded.message();
    EXPECT_NE(loaded.message().find("required"), std::string::npos);
    EXPECT_NE(loaded.message().find("best mapping"), std::string::npos);
    EXPECT_EQ((*cluster)->replicaCount("cnn"), 0);
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

TEST(VariationCluster, PlacementPrefersQuietestFeasibleChip)
{
    auto model = compileShared(smallCnn());
    const ChipCapacity cap = capacityFor(model->resourceDemand(), 2);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.03, 0.0, 21),
         chipWith("chip1", cap, 0.004, 0.0, 22),
         chipWith("chip2", cap, 0.02, 0.0, 23)});
    ASSERT_TRUE(cluster.ok());

    // Ungated: placement is purely capacity-driven, ties toward the
    // lowest index.
    ASSERT_TRUE((*cluster)->loadModel("plain", model, 1).ok());
    EXPECT_EQ((*cluster)->replicaChips("plain"),
              std::vector<std::string>{"chip0"});

    // Accuracy-gated: the quietest feasible chip wins even though
    // chip0 has the same room and a lower index.
    TenantOptions tenant;
    tenant.minAccuracy = 0.5;
    ASSERT_TRUE((*cluster)->loadModel("gated", model, 1, tenant).ok());
    EXPECT_EQ((*cluster)->replicaChips("gated"),
              std::vector<std::string>{"chip1"});
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

TEST(VariationCluster, StatsJsonSurfacesVariationSchema)
{
    auto model = compileShared(smallCnn());
    const ChipCapacity cap = capacityFor(model->resourceDemand(), 2);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.012, 1e-4, 31),
         chipWith("chip1", cap, 0.02, 2e-4, 32)});
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.5;
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 2, tenant).ok());
    ASSERT_TRUE((*cluster)->loadModel("plain", model, 1).ok());

    auto parsed = parseJson((*cluster)->statsJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &variation = (*parsed)["variation"];
    ASSERT_TRUE(variation.isObject());
    EXPECT_DOUBLE_EQ(variation["driftClockSeconds"].number(), 0.0);

    // Per-chip profiles, keyed by chip id.
    EXPECT_DOUBLE_EQ(variation["chips"]["chip0"]["sigmaOfRange"].number(),
                     0.012);
    EXPECT_DOUBLE_EQ(
        variation["chips"]["chip1"]["driftPerSecond"].number(), 2e-4);
    EXPECT_TRUE(variation["chips"]["chip0"]["stuckAtRate"].isNumber());

    // Per-tenant calibrated replicas; ungated tenants are absent.
    const JsonValue &gated = variation["tenants"]["cnn"];
    EXPECT_DOUBLE_EQ(gated["minAccuracy"].number(), 0.5);
    ASSERT_EQ(gated["replicas"].size(), 2u);
    for (const JsonValue &replica : gated["replicas"].array()) {
        EXPECT_FALSE(replica["chip"].string().empty());
        EXPECT_FALSE(replica["mapping"].string().empty());
        EXPECT_GE(replica["predictedAccuracy"].number(), 0.5);
        EXPECT_GT(replica["currentAccuracy"].number(), 0.0);
        EXPECT_DOUBLE_EQ(replica["ageSeconds"].number(), 0.0);
        EXPECT_EQ(replica["accuracy"].string(), "ACCURATE");
    }
    EXPECT_TRUE(variation["tenants"]["plain"].isNull());

    // The health section carries the same per-replica verdicts.
    const JsonValue &health = (*parsed)["health"];
    EXPECT_EQ(health["chip0"]["replicas"]["cnn"]["accuracy"].string(),
              "ACCURATE");
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

// ------------------------------------------- drift, routing and recovery

TEST(VariationCluster, RoutesAroundDriftingReplicaWhenAccurateExists)
{
    auto model = compileShared(smallCnn());
    const ChipCapacity cap = capacityFor(model->resourceDemand(), 2);
    ClusterOptions options;
    options.accuracyDriftingMargin = 0.05;
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.01, 0.0, 41),
         chipWith("chip1", cap, 0.01, 2.5e-4, 42)},
        options);
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.7;
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 2, tenant).ok());
    ASSERT_EQ(replicaStateFromStats(**cluster, "cnn", "chip0"),
              "ACCURATE");
    ASSERT_EQ(replicaStateFromStats(**cluster, "cnn", "chip1"),
              "ACCURATE");

    // Advance the retention clock until chip1's replica decays into
    // the DRIFTING band; chip0 does not drift, so it stays ACCURATE.
    // Small steps make skipping the band impossible.
    std::string state;
    for (int i = 0; i < 2000; ++i) {
        (*cluster)->advanceDrift(1.0);
        state = replicaStateFromStats(**cluster, "cnn", "chip1");
        if (state != "ACCURATE")
            break;
    }
    ASSERT_EQ(state, "DRIFTING");
    EXPECT_EQ(replicaStateFromStats(**cluster, "cnn", "chip0"),
              "ACCURATE");

    // Graceful degradation: with an ACCURATE replica available, the
    // router sends everything there.
    const auto before0 = (*cluster)->fleet().engine(0).modelStats("cnn");
    const auto before1 = (*cluster)->fleet().engine(1).modelStats("cnn");
    ASSERT_TRUE(before0.ok() && before1.ok());
    for (int i = 0; i < 6; ++i) {
        auto r = (*cluster)->infer("cnn", probeInput());
        EXPECT_TRUE(r.ok()) << r.status().toString();
    }
    const auto after0 = (*cluster)->fleet().engine(0).modelStats("cnn");
    const auto after1 = (*cluster)->fleet().engine(1).modelStats("cnn");
    ASSERT_TRUE(after0.ok() && after1.ok());
    EXPECT_EQ(after0->completed - before0->completed, 6);
    EXPECT_EQ(after1->completed - before1->completed, 0);
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

TEST(VariationCluster, DriftStaleReprogramRoundTripLosesNothing)
{
    auto model = compileShared(smallCnn());
    const ChipCapacity cap = capacityFor(model->resourceDemand(), 2);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.01, 1e-3, 51),
         chipWith("chip1", cap, 0.012, 1e-3, 52)});
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.7;
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 2, tenant).ok());

    // A concurrent request stream races the drain + re-program below:
    // the zero-loss contract says every accepted request resolves OK.
    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::atomic<int> failed{0};
    std::thread submitter([&] {
        while (!stop.load()) {
            auto r = (*cluster)->infer("cnn", probeInput());
            (r.ok() ? served : failed).fetch_add(1);
        }
    });
    // Let the stream establish itself so it provably overlaps the
    // drain + re-program window below.
    while (served.load() + failed.load() < 3)
        std::this_thread::yield();

    // Age the fleet until a controller tick finds STALE replicas and
    // re-programs them (drain, re-place, fresh weights).
    ClusterController controller(**cluster);
    bool reprogrammed = false;
    for (int i = 0; i < 200 && !reprogrammed; ++i) {
        (*cluster)->advanceDrift(25.0);
        for (const auto &action : controller.evaluateOnce()) {
            if (action.reason == "recalibration") {
                EXPECT_TRUE(action.status.ok())
                    << action.status.toString();
                EXPECT_FALSE(action.fromChip.empty());
                EXPECT_FALSE(action.toChip.empty());
                reprogrammed = true;
            }
        }
    }
    stop.store(true);
    submitter.join();
    ASSERT_TRUE(reprogrammed);
    EXPECT_GT(served.load(), 0);
    EXPECT_EQ(failed.load(), 0); // zero lost accepted requests

    // Re-programming reset the replicas' age: both read ACCURATE
    // again at the current clock.
    ASSERT_EQ((*cluster)->replicaCount("cnn"), 2);
    auto parsed = parseJson((*cluster)->statsJson());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &replicas =
        (*parsed)["variation"]["tenants"]["cnn"]["replicas"];
    ASSERT_EQ(replicas.size(), 2u);
    for (const JsonValue &replica : replicas.array()) {
        EXPECT_EQ(replica["accuracy"].string(), "ACCURATE")
            << replica["chip"].string();
        EXPECT_LT(replica["ageSeconds"].number(),
                  (*parsed)["variation"]["driftClockSeconds"].number());
    }
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

// ------------------------------------------------ multi-stage chains

TEST(VariationCluster, ChainStageMissingTheSloIsNotLoaded)
{
    // Chips too small for the whole model split it into a two-stage
    // chain; on hopelessly noisy silicon no stage meets the SLO.
    auto model = compileShared(chainCnn());
    const ChipCapacity cap = fractionOf(model->resourceDemand(), 0.7);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.3, 0.0, 71),
         chipWith("chip1", cap, 0.3, 0.0, 72),
         chipWith("chip2", cap, 0.3, 0.0, 73)});
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.97;
    Status loaded = (*cluster)->loadModel("cnn", model, 1, tenant);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), StatusCode::Infeasible) << loaded.toString();
    EXPECT_NE(loaded.message().find("predicts accuracy"),
              std::string::npos)
        << loaded.message();
    EXPECT_EQ((*cluster)->replicaCount("cnn"), 0);
    EXPECT_TRUE((*cluster)->modelNames().empty());

    // The same chain loads ungated.
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 1).ok());
    EXPECT_EQ((*cluster)->replicaChips("cnn").size(), 2u);
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

TEST(VariationCluster, ChainRecalibrationReprogramsEveryStage)
{
    // Two disjoint two-stage chains: A on the drifting chips, B on
    // stable ones, so B serves while A is re-programmed.
    auto model = compileShared(chainCnn());
    const ChipCapacity cap = fractionOf(model->resourceDemand(), 0.7);
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", cap, 0.01, 1e-3, 61),
         chipWith("chip1", cap, 0.012, 1e-3, 62),
         chipWith("chip2", cap, 0.01, 0.0, 63),
         chipWith("chip3", cap, 0.012, 0.0, 64)});
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.7;
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 2, tenant).ok());
    ASSERT_EQ((*cluster)->replicaChips("cnn"),
              (std::vector<std::string>{"chip0", "chip1", "chip2",
                                        "chip3"}));

    // Every stage is calibrated against its own chip.
    const auto stages = [&] {
        auto parsed = parseJson((*cluster)->statsJson());
        EXPECT_TRUE(parsed.ok());
        return (*parsed)["variation"]["tenants"]["cnn"]["replicas"];
    };
    const JsonValue programmed = stages();
    ASSERT_EQ(programmed.size(), 4u);
    for (std::size_t s = 0; s < programmed.size(); ++s) {
        const JsonValue &stage = programmed.array()[s];
        EXPECT_EQ(stage["chip"].string(), "chip" + std::to_string(s));
        EXPECT_EQ(stage["accuracy"].string(), "ACCURATE");
        EXPECT_GE(stage["predictedAccuracy"].number(), 0.7);
    }

    // A concurrent request stream races the drain + re-program below.
    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::atomic<int> failed{0};
    std::thread submitter([&] {
        while (!stop.load()) {
            auto r = (*cluster)->infer("cnn", probeInput());
            (r.ok() ? served : failed).fetch_add(1);
        }
    });
    while (served.load() + failed.load() < 3)
        std::this_thread::yield();

    // Age the fleet until a stage of chain A reads STALE.
    bool stale = false;
    for (int i = 0; i < 2000 && !stale; ++i) {
        (*cluster)->advanceDrift(5.0);
        for (const char *chip : {"chip0", "chip1"})
            stale = stale ||
                    replicaStateFromStats(**cluster, "cnn", chip) == "STALE";
    }
    ASSERT_TRUE(stale);

    const std::vector<ClusterEvent> events = (*cluster)->recalibrateOnce();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].reason, "recalibration");
    EXPECT_TRUE(events[0].status.ok()) << events[0].status.toString();
    EXPECT_EQ(events[0].toChip, "chip0+chip1");

    stop.store(true);
    submitter.join();
    EXPECT_GT(served.load(), 0);
    EXPECT_EQ(failed.load(), 0); // zero lost accepted requests

    // Re-programming reset both of A's stages; B's kept aging.
    ASSERT_EQ((*cluster)->replicaCount("cnn"), 2);
    const JsonValue reprogrammed = stages();
    ASSERT_EQ(reprogrammed.size(), 4u);
    for (const JsonValue &stage : reprogrammed.array()) {
        const std::string chip = stage["chip"].string();
        if (chip == "chip0" || chip == "chip1") {
            EXPECT_DOUBLE_EQ(stage["ageSeconds"].number(), 0.0) << chip;
            EXPECT_EQ(stage["accuracy"].string(), "ACCURATE") << chip;
        } else {
            EXPECT_GT(stage["ageSeconds"].number(), 0.0) << chip;
        }
    }
    EXPECT_TRUE((*cluster)->recalibrateOnce().empty());
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

TEST(VariationCluster, SoleReplicaRecalibrationParksRequestsInBackoff)
{
    // One replica on one chip: re-programming it detaches the tenant's
    // only replica, so a request arriving in that window finds no live
    // replica.  With a retry budget it waits in backoff until the
    // re-programmed replica is back instead of failing at once.  Every
    // batch stalls 2 ms, so the drain of the detached replica spans
    // several completions, and each of three synchronous streams
    // submits again into the empty table.  The budget (backoff doubling
    // to 50 ms) outlasts one re-program.
    auto model = compileShared(smallCnn());
    auto slow = std::make_shared<FaultInjector>();
    slow->setLatencySpike("chip0", 2.0, 1.0);
    ClusterOptions options;
    options.retryBudget = 20;
    options.engine.faultHook = slow;
    auto cluster = ClusterEngine::create(
        {chipWith("chip0", capacityFor(model->resourceDemand(), 1), 0.01,
                  1e-3, 81)},
        options);
    ASSERT_TRUE(cluster.ok());

    TenantOptions tenant;
    tenant.minAccuracy = 0.7;
    ASSERT_TRUE((*cluster)->loadModel("cnn", model, 1, tenant).ok());

    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> streams;
    for (int t = 0; t < 3; ++t) {
        streams.emplace_back([&] {
            while (!stop.load()) {
                auto r = (*cluster)->infer("cnn", probeInput());
                (r.ok() ? served : failed).fetch_add(1);
            }
        });
    }
    while (served.load() + failed.load() < 3)
        std::this_thread::yield();

    bool stale = false;
    for (int i = 0; i < 2000 && !stale; ++i) {
        (*cluster)->advanceDrift(5.0);
        stale = replicaStateFromStats(**cluster, "cnn", "chip0") == "STALE";
    }
    ASSERT_TRUE(stale);

    const std::vector<ClusterEvent> events = (*cluster)->recalibrateOnce();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].reason, "recalibration");
    EXPECT_TRUE(events[0].status.ok()) << events[0].status.toString();
    EXPECT_EQ(events[0].toChip, "chip0");

    // The streams go on through the re-programmed replica.
    const int after = served.load();
    while (served.load() < after + 3)
        std::this_thread::yield();
    stop.store(true);
    for (std::thread &stream : streams)
        stream.join();
    EXPECT_EQ(failed.load(), 0); // zero requests lost to the window
    EXPECT_EQ(replicaStateFromStats(**cluster, "cnn", "chip0"), "ACCURATE");
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

} // namespace
} // namespace fpsa
