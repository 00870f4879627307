/**
 * @file
 * Variation-aware serving chaos soak: streams a LeNet-class request
 * load at a 3-chip `fpsa::ClusterEngine` whose chips carry distinct
 * sampled `VariationProfile` corners (drifting conductances, stuck-at
 * cells), under an accuracy SLO (`TenantOptions::minAccuracy`).  At
 * fixed stream fractions the logical retention clock advances and a
 * recovery pass re-programs any replica that drifted STALE -- the
 * drain + re-place must lose no accepted request.  Emits one JSON
 * object per line:
 *
 *   $ ./variation_serving > variation.jsonl       # full soak
 *   $ ./variation_serving --small                 # CI smoke size
 *
 * The summary's gated metrics: `lostAcceptedRequests` (0 by
 * construction), `minServedAccuracy` (the worst best-replica current
 * accuracy the stream ever saw, sampled right after each drift mark
 * and before recovery runs -- deterministic: the drift clock is
 * logical and every profile/calibration is seeded), `recalibrations`
 * (re-programming actions actually taken) and the Fig. 9 analytic
 * headline points (PRIME's splice x2 vs FPSA's add x8), which pin the
 * device-accuracy model itself into the trajectory.
 *
 * Shedding is disabled (`bestEffortShedMillis = 0`) so the zero-loss
 * gate is deterministic on arbitrarily slow CI machines.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accuracy/analytic.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "reram/variation.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"

using namespace fpsa;

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** LeNet-class CNN (28x28 input) -- same family as the serving
 * benches, so trajectories stay comparable across BENCH files. */
Graph
lenetClassModel()
{
    GraphBuilder b({1, 28, 28});
    b.conv(6, 5, 1, 0).relu().maxPool(2, 2);
    b.conv(16, 5, 1, 0).relu().maxPool(2, 2);
    b.flatten().fc(120).relu().fc(84).relu().fc(10);
    Graph g = b.build();
    Rng rng(2019);
    randomizeWeights(g, rng);
    return g;
}

Tensor
sampleInput(int id)
{
    Tensor t({1, 28, 28});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 1)) % 97) / 97.0f;
    return t;
}

struct SoakResult
{
    std::int64_t requests = 0;
    std::int64_t lost = 0;
    double p50Millis = 0.0;
    double p99Millis = 0.0;
    double minServedAccuracy = 1.0;
    double postRecoveryFloor = 1.0;
    std::int64_t recalibrations = 0;
    std::int64_t staleObservations = 0;
    double driftClockSeconds = 0.0;
    std::string finalReplicas;
};

/** Best replica's current accuracy for `model`, from the cluster's
 * own stats JSON (the router prefers ACCURATE replicas, so this is
 * what a request is served with). */
double
bestReplicaAccuracy(const ClusterEngine &cluster,
                    const std::string &model, std::int64_t *stale)
{
    auto parsed = parseJson(cluster.statsJson());
    if (!parsed.ok())
        return 0.0;
    const JsonValue &replicas =
        (*parsed)["variation"]["tenants"][model]["replicas"];
    double best = 0.0;
    for (const JsonValue &replica : replicas.array()) {
        best = std::max(best, replica["currentAccuracy"].number());
        if (stale != nullptr &&
            replica["accuracy"].string() == "STALE")
            ++*stale;
    }
    return best;
}

/**
 * One variation soak: 2 accuracy-gated replicas on a 3-chip drifting
 * fleet.  Eight drift marks advance the logical retention clock 10 s
 * each while the stream is in flight; after sampling the served
 * accuracy, one recovery pass re-programs whatever drifted STALE.
 * The submitter is paced by queue backpressure so the stream spans
 * every mark.
 */
SoakResult
runVariationSoak(const std::shared_ptr<const CompiledModel> &model,
                 int requests)
{
    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.maxBatch = 4;
    // Backpressure paces the submitter: the stream stays in flight
    // across the drift marks instead of enqueueing fully up front.
    options.engine.queueDepth = 32;
    options.retryBudget = 3;
    options.retryBackoffMillis = 0.25;
    options.maxRetryBackoffMillis = 4.0;
    options.bestEffortShedMillis = 0.0; // deterministic zero-loss gate

    // An imperfect fleet: per-chip corners scattered (deterministic,
    // seeded) around a drifting technology corner.
    VariationModel corner;
    corner.sigmaOfRange = 0.02;
    corner.driftPerSecond = 0.002;
    corner.stuckAtRate = 1e-4;
    std::vector<VariationProfile> profiles =
        sampleFleetProfiles(corner, /*fleetSeed=*/2019, 3);
    std::vector<ChipSpec> specs;
    for (int c = 0; c < 3; ++c) {
        ChipSpec spec;
        spec.id = "chip" + std::to_string(c);
        spec.capacity = ChipCapacity::unlimited();
        spec.variation = profiles[static_cast<std::size_t>(c)];
        specs.push_back(std::move(spec));
    }
    auto created = ClusterEngine::create(std::move(specs), options);
    if (!created.ok()) {
        std::cerr << "cluster: " << created.status().toString() << "\n";
        std::exit(1);
    }
    auto cluster = std::move(created).value();
    TenantOptions tenant;
    tenant.minAccuracy = 0.90;
    if (Status s =
            cluster->loadModel("hot", model, /*replicas=*/2, tenant);
        !s.ok()) {
        std::cerr << "load: " << s.toString() << "\n";
        std::exit(1);
    }

    // Controller ticks run synchronously at the drift marks (not on a
    // background timer) so the recalibration count and the accuracy
    // floor are deterministic.
    ClusterController controller(*cluster);

    const std::size_t total = static_cast<std::size_t>(requests);
    std::vector<std::future<StatusOr<InferenceResult>>> futures(total);
    std::vector<Clock::time_point> submitted(total);
    std::vector<double> latency(total, 0.0);
    std::atomic<std::size_t> produced{0};

    std::thread submitter([&] {
        for (std::size_t i = 0; i < total; ++i) {
            submitted[i] = Clock::now();
            futures[i] = cluster->submit(
                "hot", sampleInput(static_cast<int>(i)));
            produced.store(i + 1, std::memory_order_release);
        }
    });

    SoakResult result;
    result.requests = requests;
    std::thread collector([&] {
        for (std::size_t i = 0; i < total; ++i) {
            while (produced.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            auto r = futures[i].get();
            latency[i] = millisSince(submitted[i]);
            if (!r.ok()) {
                ++result.lost;
                std::cerr << "request " << i << ": "
                          << r.status().toString() << "\n";
            }
        }
    });

    auto waitForStream = [&](std::size_t mark) {
        while (produced.load(std::memory_order_acquire) < mark)
            std::this_thread::yield();
    };

    const int marks = 8;
    const double secondsPerMark = 10.0;
    for (int mark = 1; mark <= marks; ++mark) {
        waitForStream(total * static_cast<std::size_t>(mark) /
                      (marks + 1));
        cluster->advanceDrift(secondsPerMark);
        // Worst case the stream sees: decayed, before recovery.
        result.minServedAccuracy = std::min(
            result.minServedAccuracy,
            bestReplicaAccuracy(*cluster, "hot",
                                &result.staleObservations));
        // One tick: recalibrateOnce re-programs every STALE replica,
        // one after another, in the same pass.
        for (const auto &action : controller.evaluateOnce()) {
            if (action.reason == "recalibration")
                ++result.recalibrations;
        }
        result.postRecoveryFloor = std::min(
            result.postRecoveryFloor,
            bestReplicaAccuracy(*cluster, "hot", nullptr));
    }

    submitter.join();
    collector.join();

    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&](double q) {
        const std::size_t idx = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(q * (sorted.size() - 1)));
        return sorted[idx];
    };
    result.p50Millis = quantile(0.50);
    result.p99Millis = quantile(0.99);
    result.driftClockSeconds = cluster->driftClockSeconds();
    JsonWriter chips_json;
    chips_json.beginArray();
    for (const std::string &chip : cluster->replicaChips("hot"))
        chips_json.value(chip);
    chips_json.endArray();
    result.finalReplicas = chips_json.str();

    if (Status s = cluster->shutdown(); !s.ok()) {
        std::cerr << "shutdown: " << s.toString() << "\n";
        std::exit(1);
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) {
            small = true;
        } else {
            std::cerr << "usage: variation_serving [--small]\n";
            return 2;
        }
    }

    setLogLevel(LogLevel::Quiet);

    CompileOptions options;
    options.duplicationDegree = 16;
    Pipeline pipeline(lenetClassModel(), options);
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile: " << compiled.status().toString() << "\n";
        return 1;
    }
    auto model =
        std::make_shared<CompiledModel>(std::move(compiled).value());

    const int requests = small ? 200 : 600;

    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "model");
        j.field("weights", model->graph().weightCount());
        j.field("opsPerSample", model->graph().opCount());
        j.field("pes", model->performance().pes);
        j.field("hardwareConcurrency",
                static_cast<std::int64_t>(
                    std::thread::hardware_concurrency()));
        j.endObject();
        std::cout << j.str() << "\n";
    }

    const SoakResult soak = runVariationSoak(model, requests);

    // Fig. 9 headline points (analytic device-accuracy model): the
    // paper's PRIME baseline (splice x2, ~0.70) vs the FPSA mapping
    // (add x8, ~full precision).  Deterministic closed forms -- they
    // gate the device model the soak's calibrator is built on.
    AnalyticAccuracyModel device;
    const double splice_x2 =
        device.normalizedAccuracy(WeightMethod::Splice, 4, 2);
    const double add_x8 =
        device.normalizedAccuracy(WeightMethod::Add, 4, 8);

    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "variationSoak");
        j.field("requests", soak.requests);
        j.field("lostAcceptedRequests", soak.lost);
        j.field("p50Millis", soak.p50Millis);
        j.field("p99Millis", soak.p99Millis);
        j.field("minServedAccuracy", soak.minServedAccuracy);
        j.field("postRecoveryFloor", soak.postRecoveryFloor);
        j.field("recalibrations", soak.recalibrations);
        j.field("staleObservations", soak.staleObservations);
        j.field("driftClockSeconds", soak.driftClockSeconds);
        j.key("finalReplicas").raw(soak.finalReplicas);
        j.endObject();
        std::cout << j.str() << "\n";
    }

    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("lostAcceptedRequests", soak.lost);
    j.field("minServedAccuracy", soak.minServedAccuracy);
    j.field("postRecoveryFloor", soak.postRecoveryFloor);
    j.field("recalibrations", soak.recalibrations);
    j.field("servingP99Millis", soak.p99Millis);
    j.field("driftClockSeconds", soak.driftClockSeconds);
    j.field("fig9SpliceX2Accuracy", splice_x2);
    j.field("fig9AddX8Accuracy", add_x8);
    j.field("requests", soak.requests);
    j.field("hardwareConcurrency",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
