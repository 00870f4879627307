/**
 * @file
 * Tests for fault-tolerant fleet serving: the deterministic
 * `FaultInjector`, the `HealthTracker` state machine, bounded
 * `infer(..., timeoutMillis)` against a wedged executor, failover
 * routing with retry budgets and deadline-aware shedding in
 * `ClusterEngine`, self-healing re-placement via `repairOnce()` and
 * the `ClusterController` tick, shutdown with retries parked in
 * backoff, the bounded controller history and its one thread, and a
 * chaos race of tenant ops against a fail-stopping chip (run under
 * TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"
#include "runtime/cluster/event_log.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/cluster/health.hh"
#include "runtime/engine.hh"
#include "thread_count.hh"

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

// ----------------------------------------------------------- EventLog

TEST(EventLogTest, RetainsNewestInOrderAndCountsTotal)
{
    EventLog<int> log(3);
    for (int i = 1; i <= 5; ++i)
        log.push(i);
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.totalRecorded(), 5);
    EXPECT_EQ(log.snapshot(), (std::vector<int>{3, 4, 5}));
}

TEST(EventLogTest, BelowCapacityKeepsEverything)
{
    EventLog<int> log(8);
    log.push(1);
    log.push(2);
    EXPECT_EQ(log.snapshot(), (std::vector<int>{1, 2}));
    EXPECT_EQ(log.totalRecorded(), 2);
}

// ------------------------------------------------------ HealthTracker

HealthOptions
tightHealth()
{
    HealthOptions h;
    h.windowSize = 8;
    h.minSamples = 4;
    h.degradedErrorRate = 0.25;
    h.failedErrorRate = 0.75;
    h.probeFailuresToFail = 2;
    return h;
}

TEST(HealthTrackerTest, ErrorRateDrivesDegradedAndFailed)
{
    HealthTracker tracker(1, tightHealth());
    EXPECT_EQ(tracker.health(0), ChipHealth::Healthy);

    // Below minSamples nothing changes, however bad the rate.
    tracker.recordOutcome(0, false);
    tracker.recordOutcome(0, false);
    tracker.recordOutcome(0, false);
    EXPECT_EQ(tracker.health(0), ChipHealth::Healthy);

    tracker.recordOutcome(0, false); // 4/4 errors >= 0.75
    EXPECT_EQ(tracker.health(0), ChipHealth::Failed);

    // Failed is sticky against outcomes; only a probe success clears.
    for (int i = 0; i < 8; ++i)
        tracker.recordOutcome(0, true);
    EXPECT_EQ(tracker.health(0), ChipHealth::Failed);
    tracker.recordProbe(0, true);
    EXPECT_EQ(tracker.health(0), ChipHealth::Healthy);
    EXPECT_EQ(tracker.errorRate(0), 0.0); // rejoin cleared the window

    // 1 error in 4 -> 0.25 -> Degraded; dilution promotes back.
    tracker.recordOutcome(0, false);
    tracker.recordOutcome(0, true);
    tracker.recordOutcome(0, true);
    tracker.recordOutcome(0, true);
    EXPECT_EQ(tracker.health(0), ChipHealth::Degraded);
    for (int i = 0; i < 8; ++i)
        tracker.recordOutcome(0, true);
    EXPECT_EQ(tracker.health(0), ChipHealth::Healthy);
}

TEST(HealthTrackerTest, ConsecutiveProbeFailuresForceFailed)
{
    HealthTracker tracker(2, tightHealth());
    tracker.recordProbe(1, false);
    EXPECT_EQ(tracker.health(1), ChipHealth::Healthy);
    tracker.recordProbe(1, true); // streak broken
    tracker.recordProbe(1, false);
    EXPECT_EQ(tracker.health(1), ChipHealth::Healthy);
    tracker.recordProbe(1, false);
    EXPECT_EQ(tracker.health(1), ChipHealth::Failed);
    EXPECT_EQ(tracker.health(0), ChipHealth::Healthy); // independent

    std::string json = tracker.toJson({"chipA", "chipB"});
    EXPECT_NE(json.find("\"chipB\""), std::string::npos);
    EXPECT_NE(json.find("FAILED"), std::string::npos);
}

// ------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, DeterministicPerChipFaultSequences)
{
    auto sequence = [](std::uint64_t seed) {
        FaultInjector chaos(seed);
        chaos.setTransientErrorRate("chip0", 0.5);
        std::vector<bool> failed;
        for (int i = 0; i < 64; ++i)
            failed.push_back(!chaos.beforeExecute("chip0").ok());
        return failed;
    };
    EXPECT_EQ(sequence(7), sequence(7));
    EXPECT_NE(sequence(7), sequence(8));
}

TEST(FaultInjectorTest, FailStopFailsExecutionsAndProbes)
{
    FaultInjector chaos;
    EXPECT_TRUE(chaos.beforeExecute("chip0").ok());
    EXPECT_TRUE(chaos.probe("chip0").ok());

    chaos.failStop("chip0");
    EXPECT_TRUE(chaos.failStopped("chip0"));
    Status exec = chaos.beforeExecute("chip0");
    EXPECT_EQ(exec.code(), StatusCode::Unavailable);
    EXPECT_EQ(chaos.probe("chip0").code(), StatusCode::Unavailable);
    EXPECT_TRUE(chaos.beforeExecute("chip1").ok()); // isolated

    chaos.recover("chip0");
    EXPECT_TRUE(chaos.beforeExecute("chip0").ok());
    EXPECT_TRUE(chaos.probe("chip0").ok());
    EXPECT_GE(chaos.injectedFaults(), 1);
}

// --------------------------------------- bounded infer (wedged chip)

TEST(EngineFaultTest, BoundedInferTimesOutOnWedgedChipThenRecovers)
{
    auto chaos = std::make_shared<FaultInjector>();
    EngineOptions options;
    options.workerThreads = 2;
    options.faultHook = chaos;
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    ASSERT_TRUE((*engine)->loadModel("cnn", compileShared(smallCnn())).ok());

    EXPECT_TRUE((*engine)->probe().ok());

    chaos->wedge("chip0");
    auto timed = (*engine)->infer("cnn", probeInput(), 30.0);
    ASSERT_FALSE(timed.ok());
    EXPECT_EQ(timed.status().code(), StatusCode::DeadlineExceeded);

    // The timed-out request is still accepted: after the wedge lifts
    // it drains, and fresh requests serve normally.
    chaos->unwedge("chip0");
    auto served = (*engine)->infer("cnn", probeInput());
    EXPECT_TRUE(served.ok()) << served.status().toString();

    EXPECT_TRUE((*engine)->shutdown().ok());
    EXPECT_EQ((*engine)->probe().code(), StatusCode::Unavailable);
}

TEST(EngineFaultTest, BoundedInferRejectsNonPositiveTimeout)
{
    auto engine = Engine::create(ChipCapacity::unlimited());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->loadModel("cnn", compileShared(smallCnn())).ok());
    auto r = (*engine)->infer("cnn", probeInput(), 0.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

// -------------------------------------------------- cluster failover

struct ClusterRig
{
    std::shared_ptr<FaultInjector> chaos;
    std::shared_ptr<const CompiledModel> model;
    std::unique_ptr<ClusterEngine> cluster;
};

ClusterRig
makeRig(std::size_t chips, std::int64_t copiesPerChip,
        ClusterOptions options = ClusterOptions())
{
    ClusterRig rig;
    rig.chaos = std::make_shared<FaultInjector>();
    rig.model = compileShared(smallCnn());
    options.engine.workerThreads = 2;
    options.engine.faultHook = rig.chaos;
    const ChipCapacity capacity =
        capacityFor(rig.model->resourceDemand(), copiesPerChip);
    std::vector<ChipSpec> specs;
    for (std::size_t i = 0; i < chips; ++i)
        specs.push_back({"chip" + std::to_string(i), capacity});
    auto cluster = ClusterEngine::create(std::move(specs), options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().toString();
    rig.cluster = std::move(cluster).value();
    return rig;
}

TEST(ClusterFailoverTest, FailStopMidStreamLosesNoAcceptedRequest)
{
    ClusterRig rig = makeRig(2, 1);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(rig.cluster->submit("cnn", probeInput()));
    rig.chaos->failStop("chip0");
    for (int i = 0; i < 20; ++i)
        futures.push_back(rig.cluster->submit("cnn", probeInput()));

    int served = 0;
    for (auto &f : futures) {
        auto r = f.get();
        EXPECT_TRUE(r.ok()) << r.status().toString();
        served += r.ok();
    }
    EXPECT_EQ(served, 40);
    // The failure was real (requests actually hit the dead chip and
    // failed over) -- this wasn't 40 lucky routes to the survivor.
    EXPECT_GE(rig.chaos->injectedFaults(), 1);

    rig.chaos->recover("chip0");
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(ClusterFailoverTest, BackpressureRejectionDoesNotBurnRetryBudget)
{
    // A failover retry that lands on a survivor whose queue is full
    // gets a ResourceExhausted rejection -- backpressure, not a chip
    // failure.  With a budget of 1 the request must wait out the
    // queue (like a blocking submit would) instead of terminally
    // failing after one rejection.
    auto chaos = std::make_shared<FaultInjector>();
    auto model = compileShared(smallCnn());
    ClusterOptions options;
    options.engine.workerThreads = 1;
    options.engine.maxBatch = 1;
    options.engine.queueDepth = 1;
    options.engine.faultHook = chaos;
    options.retryBudget = 1;
    options.retryBackoffMillis = 0.1;
    options.maxRetryBackoffMillis = 0.5;
    options.bestEffortShedMillis = 0.0; // wait, never shed
    const ChipCapacity capacity =
        capacityFor(model->resourceDemand(), 1);
    auto created = ClusterEngine::create(
        {{"chip0", capacity}, {"chip1", capacity}}, options);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    auto cluster = std::move(created).value();
    ASSERT_TRUE(cluster->loadModel("cnn", model, 2).ok());

    // Wedge both chips so the four requests park deterministically:
    // each chip holds one claimed by its single worker plus one
    // filling its depth-1 queue, so nothing drains and no submit
    // blocks.
    chaos->wedge("chip0");
    chaos->wedge("chip1");
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(cluster->submit("cnn", probeInput()));

    // Kill chip0 and release its worker: its requests fail over into
    // chip1, whose queue is still provably full.
    chaos->failStop("chip0");
    chaos->unwedge("chip0");

    // Several backoff cycles: the old budget-charging behavior would
    // exhaust retryBudget=1 on the first queue-full rejection here.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    chaos->unwedge("chip1");

    for (auto &f : futures) {
        auto r = f.get();
        EXPECT_TRUE(r.ok()) << r.status().toString();
    }
    EXPECT_GE(chaos->injectedFaults(), 1);
    EXPECT_TRUE(cluster->shutdown().ok());
}

TEST(ClusterFailoverTest, ProbesMarkFailStoppedChipFailed)
{
    ClusterRig rig = makeRig(2, 1);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());

    rig.chaos->failStop("chip1");
    rig.cluster->probeChips();
    EXPECT_EQ(rig.cluster->chipHealth(1), ChipHealth::Healthy);
    rig.cluster->probeChips(); // second consecutive failure
    EXPECT_EQ(rig.cluster->chipHealth(1), ChipHealth::Failed);
    EXPECT_EQ(rig.cluster->chipHealth(0), ChipHealth::Healthy);

    std::string stats = rig.cluster->statsJson();
    EXPECT_NE(stats.find("\"health\""), std::string::npos);
    EXPECT_NE(stats.find("FAILED"), std::string::npos);

    // Rejoin via probe success.
    rig.chaos->recover("chip1");
    rig.cluster->probeChips();
    EXPECT_EQ(rig.cluster->chipHealth(1), ChipHealth::Healthy);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(ClusterFailoverTest, ExplicitSloRequestIsShedPastItsDeadline)
{
    ClusterRig rig = makeRig(2, 1);
    TenantOptions slo;
    slo.sloMillis = 0.01; // passed long before any retry could land
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2, slo).ok());
    rig.chaos->setTransientErrorRate("chip0", 1.0);
    rig.chaos->setTransientErrorRate("chip1", 1.0);

    auto r = rig.cluster->infer("cnn", probeInput());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(r.status().message().find("shed"), std::string::npos);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(ClusterFailoverTest, RetryBudgetBoundsFailoverAttempts)
{
    ClusterOptions options;
    options.retryBudget = 2;
    options.retryBackoffMillis = 0.1;
    options.bestEffortShedMillis = 0.0; // never shed: exhaust budget
    ClusterRig rig = makeRig(2, 1, options);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());
    rig.chaos->setTransientErrorRate("chip0", 1.0);
    rig.chaos->setTransientErrorRate("chip1", 1.0);

    auto r = rig.cluster->infer("cnn", probeInput());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Unavailable);
    EXPECT_NE(r.status().message().find("failed after 2 failover"),
              std::string::npos);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(ClusterFailoverTest, ShutdownFailsRequestsParkedInBackoffAtOnce)
{
    // Every chip fail-stopped and a 10 s backoff: each accepted
    // request fails its first attempt and parks for a retry that
    // shutdown must not wait for.
    constexpr double kBackoffMillis = 10000.0;
    ClusterOptions options;
    options.retryBudget = 100;
    options.retryBackoffMillis = kBackoffMillis;
    options.maxRetryBackoffMillis = kBackoffMillis;
    options.bestEffortShedMillis = 0.0; // never shed
    ClusterRig rig = makeRig(2, 1, options);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());
    rig.chaos->failStop("chip0");
    rig.chaos->failStop("chip1");

    constexpr int kRequests = 16;
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(rig.cluster->submit("cnn", probeInput()));

    // Wait until every first attempt has failed on its chip.
    const auto failed_attempts = [&] {
        std::int64_t failed = 0;
        for (std::size_t c = 0; c < rig.cluster->fleet().size(); ++c)
            failed += rig.cluster->fleet().engine(c).stats().failed;
        return failed;
    };
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (failed_attempts() < kRequests &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(failed_attempts(), kRequests);
    EXPECT_EQ(futures.front().wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);

    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(rig.cluster->shutdown().ok());
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        auto r = f.get();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Unavailable);
        EXPECT_NE(r.status().message().find("shut down while failing "
                                            "over"),
                  std::string::npos)
            << r.status().message();
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed_ms, kBackoffMillis / 10.0);
}

TEST(ClusterFailoverTest, BoundedClusterInferTimesOutWhileWedged)
{
    ClusterRig rig = makeRig(2, 1);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());
    rig.chaos->wedge("chip0");
    rig.chaos->wedge("chip1");

    auto timed = rig.cluster->infer("cnn", probeInput(), 30.0);
    ASSERT_FALSE(timed.ok());
    EXPECT_EQ(timed.status().code(), StatusCode::DeadlineExceeded);

    rig.chaos->unwedge("chip0");
    rig.chaos->unwedge("chip1");
    auto served = rig.cluster->infer("cnn", probeInput());
    EXPECT_TRUE(served.ok()) << served.status().toString();
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

// ------------------------------------------------------- self-healing

TEST(RecoveryTest, RepairMovesReplicaOffFailedChip)
{
    ClusterRig rig = makeRig(3, 1); // chip2 is the spare
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());
    ASSERT_EQ(rig.cluster->replicaChips("cnn"),
              (std::vector<std::string>{"chip0", "chip1"}));

    rig.chaos->failStop("chip0");
    rig.cluster->probeChips();
    rig.cluster->probeChips();
    ASSERT_EQ(rig.cluster->chipHealth(0), ChipHealth::Failed);

    auto actions = rig.cluster->repairOnce();
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].model, "cnn");
    EXPECT_EQ(actions[0].fromChip, "chip0");
    EXPECT_EQ(actions[0].toChip, "chip2");
    EXPECT_TRUE(actions[0].status.ok())
        << actions[0].status.toString();
    EXPECT_EQ(rig.cluster->replicaChips("cnn"),
              (std::vector<std::string>{"chip1", "chip2"}));

    // Serving continues on the repaired placement.
    auto r = rig.cluster->infer("cnn", probeInput());
    EXPECT_TRUE(r.ok()) << r.status().toString();

    // A healthy fleet needs no repairs.
    EXPECT_TRUE(rig.cluster->repairOnce().empty());
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(RecoveryTest, DegradesGracefullyThenHealsWhenChipRejoins)
{
    ClusterRig rig = makeRig(2, 1); // no spare capacity
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());

    rig.chaos->failStop("chip0");
    rig.cluster->probeChips();
    rig.cluster->probeChips();

    // No room to re-place: the action records the per-chip breakdown
    // and the tenant keeps serving on one replica.
    auto actions = rig.cluster->repairOnce();
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_FALSE(actions[0].status.ok());
    EXPECT_NE(actions[0].status.message().find("FAILED health"),
              std::string::npos);
    EXPECT_EQ(rig.cluster->replicaCount("cnn"), 1);
    auto r = rig.cluster->infer("cnn", probeInput());
    EXPECT_TRUE(r.ok()) << r.status().toString();

    // The chip rejoins; the next pass tops the tenant back up.
    rig.chaos->recover("chip0");
    rig.cluster->probeChips();
    ASSERT_EQ(rig.cluster->chipHealth(0), ChipHealth::Healthy);
    actions = rig.cluster->repairOnce();
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_TRUE(actions[0].status.ok());
    EXPECT_EQ(actions[0].toChip, "chip0");
    EXPECT_EQ(rig.cluster->replicaCount("cnn"), 2);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

TEST(ClusterControllerTest, LoopHealsAndKeepsBoundedHistory)
{
    ClusterRig rig = makeRig(3, 1);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());

    ControllerOptions options;
    options.intervalMillis = 2.0;
    options.historyCapacity = 4;
    ClusterController controller(*rig.cluster, options);
    controller.start();

    rig.chaos->failStop("chip1");
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (rig.cluster->replicaChips("cnn") !=
               std::vector<std::string>{"chip0", "chip2"} &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    controller.stop();

    EXPECT_EQ(rig.cluster->replicaChips("cnn"),
              (std::vector<std::string>{"chip0", "chip2"}));
    auto history = controller.history();
    ASSERT_GE(history.size(), 1u);
    EXPECT_LE(history.size(), 4u);
    EXPECT_EQ(history.back().fromChip, "chip1");
    EXPECT_EQ(history.back().toChip, "chip2");
    EXPECT_GE(controller.totalEvents(), 1);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

#ifdef __linux__
TEST(ClusterControllerTest, ScalingAndRecoveryShareOneThread)
{
    ClusterRig rig = makeRig(3, 1);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 1).ok());

    ControllerOptions options;
    options.scaling = ScalePolicy{};
    options.intervalMillis = 2.0;
    ClusterController controller(*rig.cluster, options);
    const int before = settledThreadCount();
    controller.start();
    EXPECT_EQ(settledThreadCount(), before + 1);
    controller.start(); // idempotent
    EXPECT_EQ(settledThreadCount(), before + 1);

    // The one thread both heals and scales: a failed chip's replica
    // moves to a live chip while the scale step runs beside it.
    rig.chaos->failStop("chip0");
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (rig.cluster->replicaChips("cnn") !=
               std::vector<std::string>{"chip1"} &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(rig.cluster->replicaChips("cnn"),
              std::vector<std::string>{"chip1"});
    EXPECT_EQ(settledThreadCount(), before + 1);

    controller.stop();
    EXPECT_EQ(settledThreadCount(), before);
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}
#endif

// --------------------------------------- bounded controller history

TEST(ClusterControllerTest, HistoryIsARingKeepingNewestDecisions)
{
    auto chaos = std::make_shared<FaultInjector>();
    auto model = compileShared(smallCnn());
    const ResourceDemand demand = model->resourceDemand();

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.faultHook = chaos;
    ChipCapacity small = capacityFor(demand, 1);
    small.peBlocks = demand.peBlocks > 0 ? demand.peBlocks - 1 : 0;
    auto cluster = ClusterEngine::create(
        {{"chip0", capacityFor(demand, 1)}, {"chip1", small}}, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().toString();
    ASSERT_TRUE((*cluster)->loadModel("cnn", model).ok());

    // Wedge the only replica so a backlog persists; every evaluation
    // then attempts a scale-up that chip1 cannot fit, recording one
    // rejected decision per step.
    chaos->wedge("chip0");
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back((*cluster)->submit("cnn", probeInput()));

    ControllerOptions control;
    control.scaling = ScalePolicy{};
    control.scaling->scaleUpPendingPerReplica = 4.0;
    control.historyCapacity = 3;
    ClusterController controller(**cluster, control);
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(controller.evaluateOnce().size(), 1u);

    EXPECT_EQ(controller.totalEvents(), 5);
    auto history = controller.history();
    ASSERT_EQ(history.size(), 3u);
    for (const auto &event : history) {
        EXPECT_EQ(event.fromReplicas, 1);
        EXPECT_EQ(event.toReplicas, 1); // rejected: no room on chip1
        EXPECT_NE(event.reason.find("infeasible"), std::string::npos);
        EXPECT_EQ(event.status.code(), StatusCode::Infeasible);
    }

    chaos->unwedge("chip0");
    for (auto &f : futures) {
        auto r = f.get();
        EXPECT_TRUE(r.ok()) << r.status().toString();
    }
    EXPECT_TRUE((*cluster)->shutdown().ok());
}

// ------------------------------------------- chaos race (TSan in CI)

TEST(ClusterChaosRaceTest, TenantOpsRacingFailStopLoseNothing)
{
    ClusterRig rig = makeRig(3, 2);
    ASSERT_TRUE(rig.cluster->loadModel("cnn", rig.model, 2).ok());

    ControllerOptions control;
    control.intervalMillis = 2.0;
    ClusterController controller(*rig.cluster, control);
    controller.start();

    std::atomic<bool> stop{false};
    std::atomic<int> submitted{0};
    std::atomic<int> resolved{0};

    std::thread chaos_thread([&] {
        while (!stop.load()) {
            rig.chaos->failStop("chip1");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            rig.chaos->recover("chip1");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        rig.chaos->recover("chip1");
    });
    std::thread ops_thread([&] {
        auto second = compileShared(smallCnn(7));
        while (!stop.load()) {
            Status loaded = rig.cluster->loadModel("mlp", second);
            if (loaded.ok())
                rig.cluster->unloadModel("mlp");
        }
    });
    std::thread scale_thread([&] {
        int target = 2;
        while (!stop.load()) {
            rig.cluster->setReplicas("cnn", target);
            target = target == 2 ? 3 : 2;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    std::thread submit_thread([&] {
        std::vector<std::future<StatusOr<InferenceResult>>> futures;
        while (!stop.load()) {
            futures.push_back(rig.cluster->submit("cnn", probeInput()));
            ++submitted;
            if (futures.size() >= 16) {
                for (auto &f : futures) {
                    f.get(); // must resolve; outcome may be either
                    ++resolved;
                }
                futures.clear();
            }
        }
        for (auto &f : futures) {
            f.get();
            ++resolved;
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    submit_thread.join();
    scale_thread.join();
    ops_thread.join();
    chaos_thread.join();
    controller.stop();

    // Every accepted request resolved -- nothing leaked or deadlocked.
    EXPECT_EQ(submitted.load(), resolved.load());
    EXPECT_GT(submitted.load(), 0);

    // Tenant teardown restores every chip's admission budget.
    EXPECT_TRUE(rig.cluster->unloadModel("cnn").ok());
    for (std::size_t chip = 0; chip < rig.cluster->fleet().size();
         ++chip) {
        const ResourceDemand resident =
            rig.cluster->fleet().engine(chip).registry().residentDemand();
        EXPECT_EQ(resident.peBlocks, 0);
        EXPECT_EQ(resident.smbBlocks, 0);
        EXPECT_EQ(resident.clbBlocks, 0);
        EXPECT_EQ(resident.routingTracks, 0);
    }
    EXPECT_TRUE(rig.cluster->shutdown().ok());
}

} // namespace
} // namespace fpsa
