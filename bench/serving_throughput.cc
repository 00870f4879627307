/**
 * @file
 * Serving-throughput bench: sweeps `fpsa::Engine` worker-thread and
 * batch-size configurations over a LeNet-class CompiledModel and emits
 * one JSON object per line, anchoring the serving runtime's perf
 * trajectory the way pnr_scaling anchors the compiler's.
 *
 *   $ ./serving_throughput > serving.jsonl          # full sweep
 *   $ ./serving_throughput --small                  # CI smoke sizes
 *   $ ./serving_throughput --save model.fpsa.json   # compile + persist
 *   $ ./serving_throughput --load model.fpsa.json   # serve w/o compiling
 *
 * --save/--load exercise the deployment split: one process compiles
 * and saves the artifact, another loads and serves it with no compile
 * stack in the loop (the `source` field records which happened).
 *
 * The baseline line is blocking single-thread `infer()`; sweep lines
 * report engine throughput, speedup over that baseline, queue-wait
 * percentiles and the realized batch histogram.  The summary line's
 * `speedupAt4Workers` is the acceptance metric -- meaningful only when
 * `hardwareConcurrency` actually offers cores to scale onto.
 *
 * A second sweep dimension serves the same model as 1..N tenants of a
 * multi-tenant engine (round-robin submits): `tenantSweep` lines
 * report aggregate throughput plus the min/max per-tenant share, and
 * the summary's `tenantFairness` is min/max at the widest point --
 * 1.0 means perfectly even service under the tenant round-robin.
 *
 * The `lowLoadSplit` line times sequential `infer()` calls of VGG17
 * fp32 -- one request in flight at a time -- on a 1-worker engine and
 * on a 3-worker engine, alternating between the two.  The 3-worker
 * engine lends its idle workers to the request (nn/team.hh), so the
 * summary's `lowLoadSplitSpeedup_VGG17`, the 1-worker median latency
 * over the 3-worker one, is what splitting buys at low load.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "pipeline.hh"
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"

using namespace fpsa;

namespace
{

/** LeNet-class CNN (28x28 input, two conv/pool stages, FC head). */
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
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>((i * (id + 1)) % 97) / 97.0f;
    }
    return t;
}

double
runSequentialBaseline(const std::shared_ptr<const CompiledModel> &model,
                      int requests)
{
    EngineOptions options;
    options.workerThreads = 1;
    options.maxBatch = 1;
    auto engine = Engine::create(model, options);
    if (!engine.ok()) {
        std::cerr << "baseline engine: " << engine.status().toString()
                  << "\n";
        std::exit(1);
    }
    for (int i = 0; i < requests; ++i) {
        auto r = (*engine)->infer(sampleInput(i));
        if (!r.ok()) {
            std::cerr << "baseline infer: " << r.status().toString()
                      << "\n";
            std::exit(1);
        }
    }
    return (*engine)->stats().throughput;
}

struct SweepPoint
{
    int threads = 1;
    int maxBatch = 1;
    double throughput = 0.0;
};

SweepPoint
runSweepPoint(const std::shared_ptr<const CompiledModel> &model,
              int threads, int max_batch, int requests)
{
    EngineOptions options;
    options.workerThreads = threads;
    options.maxBatch = max_batch;
    options.queueDepth = requests;
    auto engine = Engine::create(model, options);
    if (!engine.ok()) {
        std::cerr << "engine: " << engine.status().toString() << "\n";
        std::exit(1);
    }

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i)
        futures.push_back((*engine)->submit(sampleInput(i)));
    for (auto &f : futures) {
        auto r = f.get();
        if (!r.ok()) {
            std::cerr << "infer: " << r.status().toString() << "\n";
            std::exit(1);
        }
    }

    const EngineStats stats = (*engine)->stats();
    JsonWriter j;
    j.beginObject();
    j.field("kind", "sweep");
    j.field("workerThreads", threads);
    j.field("maxBatch", max_batch);
    j.field("requests", requests);
    j.field("throughput", stats.throughput);
    j.field("avgBatchSize", stats.avgBatchSize);
    j.field("batches", stats.batches);
    j.key("queueWaitMillis").beginObject();
    j.field("p50", stats.p50QueueMillis);
    j.field("p95", stats.p95QueueMillis);
    j.field("p99", stats.p99QueueMillis);
    j.field("max", stats.maxQueueMillis);
    j.endObject();
    j.endObject();
    std::cout << j.str() << "\n";

    SweepPoint point;
    point.threads = threads;
    point.maxBatch = max_batch;
    point.throughput = stats.throughput;
    return point;
}

struct TenantPoint
{
    int tenants = 1;
    double aggregateThroughput = 0.0;
    double fairness = 0.0; //!< min/max per-tenant throughput
    std::string json;      //!< the point's JSONL line
};

/**
 * Serve `requests` total across `tenants` copies of the model loaded
 * into one multi-tenant engine, submitting round-robin, and report the
 * aggregate + per-tenant split.
 */
TenantPoint
runTenantMeasurement(const std::shared_ptr<const CompiledModel> &model,
                     int tenants, int threads, int max_batch,
                     int requests)
{
    EngineOptions options;
    options.workerThreads = threads;
    options.maxBatch = max_batch;
    options.queueDepth = requests;
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    if (!engine.ok()) {
        std::cerr << "engine: " << engine.status().toString() << "\n";
        std::exit(1);
    }
    std::vector<std::string> names;
    for (int t = 0; t < tenants; ++t) {
        names.push_back("tenant" + std::to_string(t));
        if (Status s = (*engine)->loadModel(names.back(), model);
            !s.ok()) {
            std::cerr << "load: " << s.toString() << "\n";
            std::exit(1);
        }
    }

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i)
        futures.push_back((*engine)->submit(
            names[static_cast<std::size_t>(i % tenants)],
            sampleInput(i)));
    for (auto &f : futures) {
        auto r = f.get();
        if (!r.ok()) {
            std::cerr << "infer: " << r.status().toString() << "\n";
            std::exit(1);
        }
    }

    // A starved tenant reports throughput 0.0 and must drag the
    // fairness minimum down, so "unset" is +inf, not 0.
    double min_tenant = std::numeric_limits<double>::infinity();
    double max_tenant = 0.0;
    JsonWriter per_tenant;
    per_tenant.beginObject();
    for (const std::string &name : names) {
        auto stats = (*engine)->modelStats(name);
        if (!stats.ok())
            continue;
        const double tput = stats->throughput;
        per_tenant.field(name, tput);
        min_tenant = std::min(min_tenant, tput);
        max_tenant = std::max(max_tenant, tput);
    }
    per_tenant.endObject();

    const EngineStats aggregate = (*engine)->stats();
    TenantPoint point;
    point.tenants = tenants;
    point.aggregateThroughput = aggregate.throughput;
    point.fairness = max_tenant > 0.0 ? min_tenant / max_tenant : 0.0;

    JsonWriter j;
    j.beginObject();
    j.field("kind", "tenantSweep");
    j.field("tenants", tenants);
    j.field("workerThreads", threads);
    j.field("maxBatch", max_batch);
    j.field("requests", requests);
    j.field("aggregateThroughput", aggregate.throughput);
    j.field("avgBatchSize", aggregate.avgBatchSize);
    j.field("fairness", point.fairness);
    j.key("perTenantThroughput").raw(per_tenant.str());
    j.key("queueWaitMillis").beginObject();
    j.field("p50", aggregate.p50QueueMillis);
    j.field("p95", aggregate.p95QueueMillis);
    j.field("p99", aggregate.p99QueueMillis);
    j.endObject();
    j.endObject();
    point.json = j.str();
    return point;
}

/**
 * Best-of-N wrapper: a worker preempted mid-batch on a loaded host
 * stretches one tenant's wall-clock ~10x and craters the fairness
 * ratio, so (like pnr_scaling's best-of-5 --small points) the gated
 * measurement is the cleanest of `repeats` runs.
 */
TenantPoint
runTenantPoint(const std::shared_ptr<const CompiledModel> &model,
               int tenants, int threads, int max_batch, int requests,
               int repeats)
{
    TenantPoint best;
    for (int r = 0; r < repeats; ++r) {
        TenantPoint point = runTenantMeasurement(model, tenants, threads,
                                                 max_batch, requests);
        if (r == 0 || point.fairness > best.fairness)
            best = std::move(point);
    }
    std::cout << best.json << "\n";
    return best;
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/**
 * Median sequential `infer()` latency of VGG17 fp32 on a 1-worker
 * engine over the same on a 3-worker engine; the two engines take
 * turns, request by request, so a slow spell of the host hits both.
 */
double
runLowLoadSplit(int requests)
{
    Graph graph = buildVgg17Cifar();
    Rng rng(2019);
    randomizeWeights(graph, rng);
    const Tensor input = [&] {
        Tensor t(graph.node(0).outShape);
        for (std::int64_t i = 0; i < t.numel(); ++i)
            t[i] = static_cast<float>(i % 97) / 97.0f - 0.3f;
        return t;
    }();
    Pipeline pipeline(std::move(graph));
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "vgg17 compile: " << compiled.status().toString()
                  << "\n";
        std::exit(1);
    }
    auto model =
        std::make_shared<const CompiledModel>(std::move(compiled).value());

    std::unique_ptr<Engine> engines[2];
    const int workers[2] = {1, 3};
    std::vector<double> millis[2];
    for (int e = 0; e < 2; ++e) {
        EngineOptions options;
        options.workerThreads = workers[e];
        auto engine = Engine::create(model, options);
        if (!engine.ok()) {
            std::cerr << "engine: " << engine.status().toString() << "\n";
            std::exit(1);
        }
        engines[e] = std::move(engine).value();
        (void)engines[e]->infer(input); // warm-up
    }
    for (int r = 0; r < requests; ++r) {
        for (int e = 0; e < 2; ++e) {
            const auto start = std::chrono::steady_clock::now();
            auto result = engines[e]->infer(input);
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
            if (!result.ok()) {
                std::cerr << "vgg17 infer: "
                          << result.status().toString() << "\n";
                std::exit(1);
            }
            millis[e].push_back(ms);
        }
    }
    const double one = medianOf(millis[0]), three = medianOf(millis[1]);
    JsonWriter j;
    j.beginObject();
    j.field("kind", "lowLoadSplit");
    j.field("model", "VGG17");
    j.field("requests", requests);
    j.field("medianMillis1Worker", one);
    j.field("medianMillis3Workers", three);
    j.field("speedup", one / three);
    j.endObject();
    std::cout << j.str() << "\n";
    return one / three;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    std::string save_path, load_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) {
            small = true;
        } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
            save_path = argv[++i];
        } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
            load_path = argv[++i];
        } else {
            std::cerr << "usage: serving_throughput [--small] "
                         "[--save path] [--load path]\n";
            return 2;
        }
    }

    setLogLevel(LogLevel::Quiet);

    // Obtain the compiled model: load a saved artifact (no compile
    // stack in the loop) or compile the LeNet-class CNN here.
    std::shared_ptr<const CompiledModel> model;
    std::string source = "compiled";
    if (!load_path.empty()) {
        auto loaded = CompiledModel::load(load_path);
        if (!loaded.ok()) {
            std::cerr << "load: " << loaded.status().toString() << "\n";
            return 1;
        }
        model = std::make_shared<CompiledModel>(
            std::move(loaded).value());
        source = "loaded";
    } else {
        CompileOptions options;
        options.duplicationDegree = 16;
        Pipeline pipeline(lenetClassModel(), options);
        auto compiled = pipeline.compile();
        if (!compiled.ok()) {
            std::cerr << "compile: " << compiled.status().toString()
                      << "\n";
            return 1;
        }
        model = std::make_shared<CompiledModel>(
            std::move(compiled).value());
    }
    if (!save_path.empty()) {
        if (Status s = model->save(save_path); !s.ok()) {
            std::cerr << "save: " << s.toString() << "\n";
            return 1;
        }
    }

    const int requests = small ? 48 : 256;
    const std::vector<int> thread_sweep = small ? std::vector<int>{1, 4}
                                                : std::vector<int>{1, 2,
                                                                   4, 8};
    const std::vector<int> batch_sweep =
        small ? std::vector<int>{4} : std::vector<int>{1, 4, 16};

    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "model");
        j.field("source", source);
        j.field("weights", model->graph().weightCount());
        j.field("opsPerSample", model->graph().opCount());
        j.field("pes", model->performance().pes);
        j.field("modeledLatencyNs", model->performance().latency);
        j.field("hardwareConcurrency",
                static_cast<std::int64_t>(
                    std::thread::hardware_concurrency()));
        j.endObject();
        std::cout << j.str() << "\n";
    }

    const double baseline = runSequentialBaseline(model, requests);
    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "baseline");
        j.field("requests", requests);
        j.field("throughput", baseline);
        j.endObject();
        std::cout << j.str() << "\n";
    }

    double best_at_4 = 0.0, best_overall = 0.0;
    for (int threads : thread_sweep) {
        for (int max_batch : batch_sweep) {
            const SweepPoint point =
                runSweepPoint(model, threads, max_batch, requests);
            best_overall = std::max(best_overall, point.throughput);
            if (point.threads == 4)
                best_at_4 = std::max(best_at_4, point.throughput);
        }
    }

    // Multi-tenant dimension: the same chip serving 1..N tenants.
    const std::vector<int> tenant_sweep =
        small ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    TenantPoint widest;
    for (int tenants : tenant_sweep) {
        widest = runTenantPoint(model, tenants, /*threads=*/4,
                                /*max_batch=*/4, requests,
                                /*repeats=*/3);
    }

    const double split_speedup = runLowLoadSplit(small ? 41 : 81);

    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("source", source);
    j.field("baselineThroughput", baseline);
    j.field("bestThroughput", best_overall);
    j.field("speedupAt4Workers",
            baseline > 0.0 ? best_at_4 / baseline : 0.0);
    j.field("bestSpeedup",
            baseline > 0.0 ? best_overall / baseline : 0.0);
    j.field("tenantsAtWidest", widest.tenants);
    j.field("aggregateThroughputAtWidest", widest.aggregateThroughput);
    j.field("tenantFairness", widest.fairness);
    j.field("lowLoadSplitSpeedup_VGG17", split_speedup);
    j.field("hardwareConcurrency",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
