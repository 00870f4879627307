/**
 * @file
 * Fault-tolerance chaos soak: streams a LeNet-class request load at a
 * 3-chip `fpsa::ClusterEngine` while a `FaultInjector` fail-stops a
 * replica-hosting chip mid-soak, then layers transient executor
 * errors and latency spikes on the survivors, and finally lets the
 * failed chip rejoin.  A `ClusterController` probes and re-places
 * throughout.  Emits one JSON object per line:
 *
 *   $ ./fault_tolerance > fault.jsonl            # full soak
 *   $ ./fault_tolerance --small                  # CI smoke size
 *
 * The summary's gated metrics: `lostAcceptedRequests` (0 by
 * construction -- every accepted request fails over to a surviving
 * replica within the retry budget), `failoverP99Millis` (the p99 of
 * client-observed latency across the whole soak, including every
 * request that failed over during the outage) and
 * `timeToRecoverMillis` (fail-stop to the replacement replica being
 * placed on a spare chip).  Detection/rejoin times and injection
 * counters are recorded as info for the trajectory.
 *
 * Shedding is disabled for the soak (`bestEffortShedMillis = 0`) so
 * the zero-loss gate is deterministic on arbitrarily slow CI
 * machines; the shed path is covered by tests/test_fault.cc.
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

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"
#include "runtime/cluster/fault_injection.hh"

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
    std::int64_t shed = 0;
    double p50Millis = 0.0;
    double p99Millis = 0.0;
    double detectMillis = 0.0;
    double timeToRecoverMillis = 0.0;
    double rejoinMillis = 0.0;
    std::int64_t injectedFaults = 0;
    std::int64_t injectedSpikes = 0;
    std::int64_t recoveryActions = 0;
    std::string finalReplicas;
};

/**
 * One chaos soak: 2 replicas on a 3-chip fleet, chip0 fail-stopped at
 * 25% of the stream, transient errors + latency spikes on the
 * survivors once the replacement replica is up, everything recovered
 * at 75%.  The submitter is paced by queue backpressure so the stream
 * spans every fault phase; a concurrent collector timestamps each
 * request as it resolves.
 */
SoakResult
runChaosSoak(const std::shared_ptr<const CompiledModel> &model,
             int requests)
{
    auto chaos = std::make_shared<FaultInjector>(/*seed=*/2027);

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.maxBatch = 4;
    // Backpressure paces the submitter: the stream stays in flight
    // across the outage instead of enqueueing fully up front.
    options.engine.queueDepth = 32;
    options.engine.faultHook = chaos;
    options.retryBudget = 3;
    options.retryBackoffMillis = 0.25;
    options.maxRetryBackoffMillis = 4.0;
    options.bestEffortShedMillis = 0.0; // deterministic zero-loss gate
    std::vector<ChipSpec> specs;
    for (int c = 0; c < 3; ++c)
        specs.push_back(
            {"chip" + std::to_string(c), ChipCapacity::unlimited()});
    auto created = ClusterEngine::create(std::move(specs), options);
    if (!created.ok()) {
        std::cerr << "cluster: " << created.status().toString() << "\n";
        std::exit(1);
    }
    auto cluster = std::move(created).value();
    if (Status s = cluster->loadModel("hot", model, /*replicas=*/2);
        !s.ok()) {
        std::cerr << "load: " << s.toString() << "\n";
        std::exit(1);
    }

    ControllerOptions control;
    control.intervalMillis = 2.0;
    ClusterController controller(*cluster, control);
    controller.start();

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
                if (r.status().code() == StatusCode::DeadlineExceeded)
                    ++result.shed;
                std::cerr << "request " << i << ": "
                          << r.status().toString() << "\n";
            }
        }
    });

    auto waitForStream = [&](std::size_t mark) {
        while (produced.load(std::memory_order_acquire) < mark)
            std::this_thread::yield();
    };
    auto pollUntil = [&](auto &&done) {
        while (!done())
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
    };

    // Phase 1: fail-stop a replica-hosting chip a quarter into the
    // stream; measure detection (health FAILED) and recovery (the
    // replacement replica placed on the spare chip).
    waitForStream(total / 4);
    const Clock::time_point fail_at = Clock::now();
    chaos->failStop("chip0");
    pollUntil([&] {
        return cluster->chipHealth(0) == ChipHealth::Failed;
    });
    result.detectMillis = millisSince(fail_at);
    pollUntil([&] {
        auto chips = cluster->replicaChips("hot");
        return chips.size() == 2 &&
               std::find(chips.begin(), chips.end(), "chip0") ==
                   chips.end();
    });
    result.timeToRecoverMillis = millisSince(fail_at);

    // Phase 2: degrade the survivors -- transient executor errors on
    // the replacement replica (failover absorbs them; routing prefers
    // the clean chip once the error-rate window marks it DEGRADED)
    // and latency spikes on the original survivor.
    chaos->setTransientErrorRate("chip2", 0.2);
    chaos->setLatencySpike("chip1", /*millis=*/1.0, /*rate=*/0.1);

    // Phase 3: lift every fault at 75%; the failed chip rejoins on
    // its next successful probe.
    waitForStream(total * 3 / 4);
    chaos->recover("chip0");
    chaos->recover("chip1");
    chaos->recover("chip2");
    const Clock::time_point rejoin_at = Clock::now();
    pollUntil([&] {
        return cluster->chipHealth(0) == ChipHealth::Healthy;
    });
    result.rejoinMillis = millisSince(rejoin_at);

    submitter.join();
    collector.join();
    controller.stop();

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
    result.injectedFaults = chaos->injectedFaults();
    result.injectedSpikes = chaos->injectedSpikes();
    result.recoveryActions = controller.totalEvents();
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
            std::cerr << "usage: fault_tolerance [--small]\n";
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

    const SoakResult soak = runChaosSoak(model, requests);

    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "faultSoak");
        j.field("requests", soak.requests);
        j.field("lostAcceptedRequests", soak.lost);
        j.field("shedRequests", soak.shed);
        j.field("p50Millis", soak.p50Millis);
        j.field("p99Millis", soak.p99Millis);
        j.field("detectMillis", soak.detectMillis);
        j.field("timeToRecoverMillis", soak.timeToRecoverMillis);
        j.field("rejoinMillis", soak.rejoinMillis);
        j.field("injectedFaults", soak.injectedFaults);
        j.field("injectedSpikes", soak.injectedSpikes);
        j.field("recoveryActions", soak.recoveryActions);
        j.key("finalReplicas").raw(soak.finalReplicas);
        j.endObject();
        std::cout << j.str() << "\n";
    }

    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("lostAcceptedRequests", soak.lost);
    j.field("failoverP99Millis", soak.p99Millis);
    j.field("timeToRecoverMillis", soak.timeToRecoverMillis);
    j.field("detectMillis", soak.detectMillis);
    j.field("rejoinMillis", soak.rejoinMillis);
    j.field("requests", soak.requests);
    j.field("injectedFaults", soak.injectedFaults);
    j.field("hardwareConcurrency",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
