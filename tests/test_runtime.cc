/**
 * @file
 * Tests for the serving runtime: `CompiledModel` serialization
 * round-trips (save -> load -> infer, bit-identical; derived values
 * re-derived equal), option and number range checks on load, `Engine`
 * concurrency (parallel submit() agrees with sequential infer()),
 * shutdown drain semantics, backpressure, executor backends, and the
 * JSON parser underneath it all.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
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
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"
#include "runtime/executor.hh"
#include "thread_count.hh"

namespace fpsa
{
namespace
{

/** A small weighted CNN in the functional-synthesis family. */
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

CompiledModel
compileSmallCnn(std::uint64_t seed = 42)
{
    Pipeline p(smallCnn(seed));
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::move(compiled).value();
}

Tensor
probeInput(float scale = 1.0f)
{
    Tensor t({1, 8, 8});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = scale * static_cast<float>(i % 7) / 7.0f;
    return t;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

/**
 * Single-sample output of the engine's default (planned) backend: the
 * ground truth engine results must match bit-for-bit, batched or not.
 */
Tensor
plannedGroundTruth(const std::shared_ptr<const CompiledModel> &model,
                   const Tensor &input)
{
    auto executor = makeExecutor(model, ExecutionConfig{});
    EXPECT_TRUE(executor.ok()) << executor.status().toString();
    auto out = (*executor)->run(input);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return std::move(out).value();
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "fpsa \"quoted\"\n");
    w.field("count", static_cast<std::int64_t>(-17));
    w.field("ratio", 0.25);
    w.field("flag", true);
    w.key("null").null();
    w.key("nested").beginArray();
    w.value(1).value(2.5).value("x");
    w.beginObject().field("k", "v").endObject();
    w.endArray();
    // Doubles that need all 17 significant digits, plus the smallest
    // subnormal, must parse back to the identical value.
    const double exact[] = {0.062059689999999959, 1.0 / 3.0, 5e-324};
    w.key("exact").beginArray();
    for (double v : exact)
        w.value(v);
    w.endArray();
    w.endObject();

    auto doc = parseJson(w.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_EQ((*doc)["name"].string(), "fpsa \"quoted\"\n");
    EXPECT_EQ((*doc)["count"].asInt(), -17);
    EXPECT_DOUBLE_EQ((*doc)["ratio"].number(), 0.25);
    EXPECT_TRUE((*doc)["flag"].boolean());
    EXPECT_TRUE((*doc)["null"].isNull());
    ASSERT_EQ((*doc)["nested"].size(), 4u);
    EXPECT_EQ((*doc)["nested"].at(3)["k"].string(), "v");
    ASSERT_EQ((*doc)["exact"].size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ((*doc)["exact"].at(i).number(), exact[i]) << i;
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\":1}x", "\"unterminated",
          "{\"a\" 1}", "nul", "nan", "inf", "[-inf]", "+1", "1e999"}) {
        auto doc = parseJson(bad);
        EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
        if (!doc.ok()) {
            EXPECT_EQ(doc.status().code(), StatusCode::InvalidArgument);
        }
    }
}

// --------------------------------------------------------- CompiledModel

TEST(CompiledModel, CompileRequiresMaterializedWeights)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(4);
    Pipeline p(b.build()); // no randomizeWeights
    auto compiled = p.compile();
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::InvalidArgument);
}

TEST(CompiledModel, RejectsWeightsWhoseShapeDisagreesWithTheNode)
{
    // Weight geometry that doesn't match the node would assert inside
    // the executors' kernels mid-request; it must be caught when the
    // bundle is frozen (and therefore also on load()).
    Graph g = smallCnn();
    for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
        if (g.node(id).kind == OpKind::FullyConnected)
            g.node(id).weights = Tensor({1}, {0.5f});
    }
    Pipeline p(g);
    auto compiled = p.compile();
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(compiled.status().message().find("weight shape"),
              std::string::npos);
}

TEST(CompiledModel, JsonRoundTripIsLossless)
{
    CompiledModel original = compileSmallCnn();
    const std::string text = original.toJson();

    auto reloaded = CompiledModel::fromJson(text);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    // The reloaded artifact re-serializes to the exact same document:
    // graph, weights, summary, allocation, netlist, perf all survive.
    EXPECT_EQ(reloaded->toJson(), text);
}

TEST(CompiledModel, SaveLoadInferIsBitIdentical)
{
    CompiledModel original = compileSmallCnn();
    const std::string path = "test_runtime_roundtrip.fpsa.json";
    ASSERT_TRUE(original.save(path).ok());

    auto loaded = CompiledModel::load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

    for (ExecutorKind kind :
         {ExecutorKind::Reference, ExecutorKind::Spiking}) {
        auto exec_a = makeExecutor(
            std::make_shared<CompiledModel>(original),
            ExecutionConfig{kind});
        auto exec_b = makeExecutor(
            std::make_shared<CompiledModel>(*loaded),
            ExecutionConfig{kind});
        ASSERT_TRUE(exec_a.ok() && exec_b.ok());
        for (float scale : {0.25f, 1.0f}) {
            auto out_a = (*exec_a)->run(probeInput(scale));
            auto out_b = (*exec_b)->run(probeInput(scale));
            ASSERT_TRUE(out_a.ok() && out_b.ok());
            expectBitIdentical(*out_a, *out_b);
        }
    }
}

TEST(CompiledModel, LoadRejectsCorruptDocuments)
{
    auto missing = CompiledModel::load("does_not_exist.fpsa.json");
    ASSERT_FALSE(missing.ok());

    auto garbage = CompiledModel::fromJson("not json at all");
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.status().code(), StatusCode::InvalidArgument);

    auto wrong_format = CompiledModel::fromJson("{\"format\":\"other\"}");
    ASSERT_FALSE(wrong_format.ok());
    EXPECT_EQ(wrong_format.status().code(), StatusCode::InvalidArgument);

    // Corrupt options: a zero crossbar used to load and then divide by
    // zero when the spiking lowering ran; the pipeline now rejects it.
    CompiledModel model = compileSmallCnn();
    const std::string good = model.toJson();
    auto corrupted = [&](const std::string &from, const std::string &to) {
        std::string text = good;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos)
            text.replace(at, from.size(), to);
        return CompiledModel::fromJson(text);
    };
    auto zero_crossbar =
        corrupted("\"crossbarRows\":256", "\"crossbarRows\":0");
    ASSERT_FALSE(zero_crossbar.ok());
    EXPECT_EQ(zero_crossbar.status().code(), StatusCode::InvalidArgument);

    // Numbers that do not fit their field are rejected, not narrowed:
    // 2^32 + 5 would otherwise load as kernel 5, and 1e30 has no int64.
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{"\"kernel\":3",
                                              "\"kernel\":4294967301"},
          {"\"duplicationDegree\":64", "\"duplicationDegree\":1e30"},
          {"\"kernel\":3", "\"kernel\":2.5"}}) {
        auto narrowed = corrupted(from, to);
        ASSERT_FALSE(narrowed.ok()) << to;
        EXPECT_EQ(narrowed.status().code(), StatusCode::InvalidArgument)
            << to;
    }

    // Corrupt weight data (a null element) must be rejected, not
    // silently coerced to 0.  Replace the first element in place so
    // the element count still matches the shape.
    std::string text = good;
    const std::string data_needle = "\"data\":[";
    const std::size_t at = text.find(data_needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t first = at + data_needle.size();
    const std::size_t comma = text.find(',', first);
    ASSERT_NE(comma, std::string::npos);
    text.replace(first, comma - first, "null");
    auto null_weight = CompiledModel::fromJson(text);
    ASSERT_FALSE(null_weight.ok());
    EXPECT_EQ(null_weight.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(null_weight.status().message().find("non-numeric"),
              std::string::npos);
}

TEST(CompiledModel, CarriesPnrTimingWhenRequested)
{
    Graph g = smallCnn();
    CompileOptions options;
    options.duplicationDegree = 2;
    options.runPlaceAndRoute = true;
    Pipeline p(g, options);
    auto compiled = p.compile();
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    ASSERT_TRUE(compiled->timing().has_value());
    EXPECT_GT(compiled->timing()->avgNetDelay, 0.0);

    auto reloaded = CompiledModel::fromJson(compiled->toJson());
    ASSERT_TRUE(reloaded.ok());
    ASSERT_TRUE(reloaded->timing().has_value());
    EXPECT_EQ(reloaded->timing()->routed, compiled->timing()->routed);
}

/** Every derived value a loaded model serves must equal the saved one's. */
void
expectRederivedEqual(const CompiledModel &saved)
{
    auto loaded = CompiledModel::fromJson(saved.toJson());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->performance(), saved.performance());
    EXPECT_EQ(loaded->energy(), saved.energy());
    EXPECT_EQ(loaded->resourceDemand(), saved.resourceDemand());
    EXPECT_EQ(loaded->timing(), saved.timing());
}

TEST(CompiledModel, LoadRederivesEveryDerivedValue)
{
    expectRederivedEqual(compileSmallCnn());

    Graph lenet = buildLeNet();
    Rng rng(16);
    randomizeWeights(lenet, rng);
    for (bool pnr : {false, true}) {
        CompileOptions options;
        options.duplicationDegree = 16;
        options.runPlaceAndRoute = pnr;
        Pipeline p(lenet, options);
        auto compiled = p.compile();
        ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
        EXPECT_EQ(compiled->timing().has_value(), pnr);
        expectRederivedEqual(*compiled);
        if (!pnr)
            continue;

        // The stored delay, not a fresh route, sets the modeled wire
        // time: a 20 ns delay makes each PE's 64-cycle window (6-bit
        // I/O) spend 64 x 20 ns communicating.
        std::string text = compiled->toJson();
        const std::string key = "\"avgNetDelayNs\":";
        const std::size_t key_at = text.find(key);
        ASSERT_NE(key_at, std::string::npos);
        const std::size_t at = key_at + key.size();
        text.replace(at, text.find(',', at) - at, "20");
        auto edited = CompiledModel::fromJson(text);
        ASSERT_TRUE(edited.ok()) << edited.status().toString();
        EXPECT_EQ(edited->timing()->avgNetDelay, 20.0);
        EXPECT_EQ(edited->performance().commPerPe, 64 * 20.0);
    }
}

TEST(CompiledModel, RejectsOutOfRangeOptionsOnCompileAndLoad)
{
    // Each bad value, set through the Pipeline and written into a saved
    // document (`from` -> `to` in the options section).
    struct Case
    {
        void (*set)(CompileOptions &);
        std::string from;
        std::string to;
    };
    const Case cases[] = {
        {[](CompileOptions &o) { o.synth.crossbarRows = 0; },
         "\"crossbarRows\":256", "\"crossbarRows\":0"},
        {[](CompileOptions &o) { o.synth.crossbarCols = -4; },
         "\"crossbarCols\":256", "\"crossbarCols\":-4"},
        {[](CompileOptions &o) { o.synth.ioBits = 0; },
         "\"ioBits\":6,\"weightBits\"", "\"ioBits\":0,\"weightBits\""},
        {[](CompileOptions &o) { o.synth.ioBits = 40; },
         "\"ioBits\":6,\"weightBits\"", "\"ioBits\":40,\"weightBits\""},
        {[](CompileOptions &o) { o.synth.weightBits = -1; },
         "\"weightBits\":8", "\"weightBits\":-1"},
        {[](CompileOptions &o) { o.synth.maxWeightLevel = 0; },
         "\"maxWeightLevel\":120", "\"maxWeightLevel\":0"},
        {[](CompileOptions &o) { o.duplicationDegree = 0; },
         "\"duplicationDegree\":64", "\"duplicationDegree\":0"},
        {[](CompileOptions &o) {
             o.duplicationDegree = kMaxDuplicationDegree + 1;
         },
         "\"duplicationDegree\":64",
         "\"duplicationDegree\":" +
             std::to_string(kMaxDuplicationDegree + 1)},
        {[](CompileOptions &o) { o.allocation.pesPerClb = 0; },
         "\"allocation\":{\"pesPerClb\":8",
         "\"allocation\":{\"pesPerClb\":0"},
        {[](CompileOptions &o) { o.allocation.smbsPerEdge = -1; },
         "\"smbsPerEdge\":1", "\"smbsPerEdge\":-1"},
        {[](CompileOptions &o) { o.mapper.busWidth = 0; },
         "\"busWidth\":256", "\"busWidth\":0"},
        {[](CompileOptions &o) { o.mapper.controlWidth = 0; },
         "\"controlWidth\":4", "\"controlWidth\":0"},
        {[](CompileOptions &o) { o.mapper.pesPerClb = -8; },
         "\"controlWidth\":4,\"pesPerClb\":8",
         "\"controlWidth\":4,\"pesPerClb\":-8"},
        {[](CompileOptions &o) { o.perf.ioBits = 17; },
         "\"perf\":{\"ioBits\":6", "\"perf\":{\"ioBits\":17"},
    };
    const std::string good = compileSmallCnn().toJson();
    for (const Case &c : cases) {
        CompileOptions options;
        c.set(options);
        Pipeline p(smallCnn(), options);
        auto compiled = p.compile();
        ASSERT_FALSE(compiled.ok()) << c.to;
        EXPECT_EQ(compiled.status().code(), StatusCode::InvalidArgument)
            << c.to;

        std::string text = good;
        const std::size_t at = text.find(c.from);
        ASSERT_NE(at, std::string::npos) << c.from;
        text.replace(at, c.from.size(), c.to);
        auto loaded = CompiledModel::fromJson(text);
        ASSERT_FALSE(loaded.ok()) << c.to;
        EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument)
            << c.to;
    }

    // The ranges the repo's tests, benches and examples use still pass.
    for (int crossbar : {64, 512}) {
        for (int bits : {4, 10}) {
            CompileOptions options;
            options.synth.crossbarRows = options.synth.crossbarCols =
                crossbar;
            options.synth.ioBits = options.perf.ioBits = bits;
            options.duplicationDegree = 256;
            EXPECT_TRUE(Pipeline(smallCnn(), options).compile().ok())
                << crossbar << "/" << bits;
        }
    }
}

TEST(CompiledModel, TimingMustMatchRunPlaceAndRoute)
{
    // A load never runs PnR, so a document asking for it without a
    // stored timing (or the reverse) is corrupt.
    const std::string good = compileSmallCnn().toJson();
    std::string text = good;
    const std::string flag = "\"runPlaceAndRoute\":false";
    text.replace(text.find(flag), flag.size(), "\"runPlaceAndRoute\":true");
    auto missing = CompiledModel::fromJson(text);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::InvalidArgument);

    text = good;
    const std::string timing = "\"timing\":null";
    text.replace(text.find(timing), timing.size(),
                 "\"timing\":{\"avgNetDelayNs\":1.5,\"maxNetDelayNs\":2,"
                 "\"routed\":true,\"placementHpwl\":10}");
    auto stray = CompiledModel::fromJson(text);
    ASSERT_FALSE(stray.ok());
    EXPECT_EQ(stray.status().code(), StatusCode::InvalidArgument);
}

// ----------------------------------------------------------------- Engine

TEST(Engine, RejectsBadOptionsAndUnservableModels)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());

    EngineOptions zero_workers;
    zero_workers.workerThreads = 0;
    EXPECT_FALSE(Engine::create(model, zero_workers).ok());

    // Spiking backend on a graph outside the functional family.
    GraphBuilder b({1, 8, 8});
    b.conv(2, 3, 1, 0).relu().avgPool(2, 2).flatten().fc(4);
    Graph g = b.build();
    Rng rng(5);
    randomizeWeights(g, rng);
    Pipeline p(g);
    auto compiled = p.compile();
    ASSERT_TRUE(compiled.ok());
    EngineOptions spiking;
    spiking.execution = ExecutionConfig{ExecutorKind::Spiking};
    auto engine = Engine::create(
        std::make_shared<CompiledModel>(std::move(compiled).value()),
        spiking);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::InvalidArgument);

    // Spiking backend on the zoo's LeNet: its split fc layer would need
    // a reduce core-op larger than one crossbar.
    Graph lenet = buildLeNet();
    randomizeWeights(lenet, rng);
    Pipeline lenet_pipeline(lenet);
    auto lenet_model = lenet_pipeline.compile();
    ASSERT_TRUE(lenet_model.ok()) << lenet_model.status().toString();
    auto lenet_engine = Engine::create(
        std::make_shared<CompiledModel>(std::move(lenet_model).value()),
        spiking);
    ASSERT_FALSE(lenet_engine.ok());
    EXPECT_EQ(lenet_engine.status().code(), StatusCode::InvalidArgument);
}

TEST(Engine, InferMatchesDirectExecutionAndCarriesModeledCost)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto engine = Engine::create(model, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    const Tensor expected = plannedGroundTruth(model, probeInput());
    auto result = (*engine)->infer(probeInput());
    ASSERT_TRUE(result.ok()) << result.status().toString();
    expectBitIdentical(result->output, expected);

    // And the planned backend agrees with the golden reference
    // kernels within float-vs-double accumulation noise.
    const Tensor reference = runGraphFinal(model->graph(), probeInput());
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
        EXPECT_NEAR(result->output[i], reference[i],
                    1e-4 * std::max(1.0f, reference.absMax()))
            << "element " << i;
    }
    EXPECT_EQ(result->modeledLatency, model->performance().latency);
    EXPECT_EQ(result->modeledEnergy, model->energy().perSample());
    EXPECT_GE(result->batchSize, 1);

    // Shape mismatches are per-request Status data, not aborts.
    auto bad = (*engine)->infer(Tensor({2, 8, 8}));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ((*engine)->stats().failed, 1);
}

TEST(Engine, ConcurrentSubmitsMatchSequentialInference)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());

    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;

    // Sequential single-sample ground truth: the engine coalesces
    // these into batches, and the planned batch path is bit-identical
    // per sample to single-sample execution.
    std::vector<Tensor> expected;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
        expected.push_back(plannedGroundTruth(
            model,
            probeInput(static_cast<float>(i % 5) * 0.3f + 0.1f)));
    }

    EngineOptions options;
    options.workerThreads = 4;
    options.maxBatch = 4;
    options.queueDepth = 16;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());

    std::vector<std::future<StatusOr<InferenceResult>>> futures(
        static_cast<std::size_t>(kThreads * kPerThread));
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int id = t * kPerThread + i;
                futures[static_cast<std::size_t>(id)] = (*engine)->submit(
                    probeInput(static_cast<float>(id % 5) * 0.3f +
                               0.1f));
            }
        });
    }
    for (auto &c : clients)
        c.join();

    for (int id = 0; id < kThreads * kPerThread; ++id) {
        auto result = futures[static_cast<std::size_t>(id)].get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        expectBitIdentical(result->output,
                           expected[static_cast<std::size_t>(id)]);
    }

    const EngineStats stats = (*engine)->stats();
    EXPECT_EQ(stats.submitted, kThreads * kPerThread);
    EXPECT_EQ(stats.completed, kThreads * kPerThread);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_GE(stats.batches, 1);
    EXPECT_LE(stats.p50QueueMillis, stats.p95QueueMillis);
    EXPECT_LE(stats.p95QueueMillis, stats.maxQueueMillis);
    EXPECT_GE(stats.avgBatchSize, 1.0);

    // The JSON stats surface parses back: aggregate + per-tenant
    // sections plus the chip-utilization summary.
    auto parsed = parseJson((*engine)->statsJson());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)["aggregate"]["completed"].asInt(),
              kThreads * kPerThread);
    EXPECT_EQ((*parsed)["tenants"][Engine::kDefaultModel]["completed"]
                  .asInt(),
              kThreads * kPerThread);
    EXPECT_GT((*parsed)["utilization"]["pe"]["used"].asInt(), 0);
}

TEST(Engine, ShutdownDrainsQueuedRequestsAndRejectsNewOnes)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    EngineOptions options;
    options.workerThreads = 1; // one worker so requests genuinely queue
    options.maxBatch = 2;
    options.queueDepth = 64;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());

    constexpr int kQueued = 24;
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < kQueued; ++i)
        futures.push_back((*engine)->submit(probeInput()));

    // Shut down immediately: everything already queued must still be
    // served (drain semantics), nothing may hang or be dropped.
    EXPECT_TRUE((*engine)->shutdown().ok());
    int completed = 0;
    for (auto &f : futures) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        ++completed;
    }
    EXPECT_EQ(completed, kQueued);
    EXPECT_EQ((*engine)->stats().completed, kQueued);

    // Post-shutdown submits fail fast with Unavailable.
    auto rejected = (*engine)->submit(probeInput()).get();
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::Unavailable);
    EXPECT_EQ((*engine)->stats().rejected, 1);

    // Idempotent: a second shutdown (and the destructor) are no-ops
    // that return the same drain status.
    EXPECT_TRUE((*engine)->shutdown().ok());
}

// ------------------------------------------------- lent workers (split)

/** A CNN whose 64 x 72 x 1089 conv is above the plan's split threshold. */
std::shared_ptr<const CompiledModel>
compileSplitCnn()
{
    GraphBuilder b({8, 33, 33});
    b.conv(64, 3, 1, 1).relu().maxPool(3, 3).flatten().fc(10);
    Graph g = b.build();
    Rng rng(77);
    randomizeWeights(g, rng);
    Pipeline p(std::move(g));
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::make_shared<const CompiledModel>(
        std::move(compiled).value());
}

Tensor
splitInput(int which)
{
    Tensor t({8, 33, 33});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (which + 3)) % 13) / 13.0f - 0.4f;
    return t;
}

#ifdef __linux__
TEST(EngineSplit, OneWorkerEngineStartsNoHelperThread)
{
    auto model = compileSplitCnn();
    const int before = baselineThreadCount();
    {
        EngineOptions options;
        options.workerThreads = 1;
        auto engine = Engine::create(model, options);
        ASSERT_TRUE(engine.ok());
        EXPECT_EQ(settledThreadCount(), before + 1); // the worker only
        auto result = (*engine)->infer(splitInput(0));
        ASSERT_TRUE(result.ok()) << result.status().toString();
        expectBitIdentical(result->output,
                           plannedGroundTruth(model, splitInput(0)));
        EXPECT_EQ(settledThreadCount(), before + 1);
        EXPECT_EQ((*engine)->helperChunks(), 0);
        EXPECT_TRUE((*engine)->shutdown().ok());
        EXPECT_EQ(settledThreadCount(), before);
    }
    {
        // Three workers lend to each other through two helpers.
        EngineOptions options;
        options.workerThreads = 3;
        auto engine = Engine::create(model, options);
        ASSERT_TRUE(engine.ok());
        EXPECT_EQ(settledThreadCount(), before + 5);
        EXPECT_TRUE((*engine)->shutdown().ok());
        EXPECT_EQ(settledThreadCount(), before);
    }
}
#endif

TEST(EngineSplit, LoneRequestOnThreeWorkerEngineBorrowsIdleWorkers)
{
    // Sequential requests leave two workers idle; their helpers must
    // run chunks of the executing request's split conv.  A helper may
    // wake too late for one short request, so allow a few.
    auto model = compileSplitCnn();
    const Tensor want = plannedGroundTruth(model, splitInput(1));
    EngineOptions options;
    options.workerThreads = 3;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());
    for (int r = 0; r < 50 && (*engine)->helperChunks() == 0; ++r) {
        auto result = (*engine)->infer(splitInput(1));
        ASSERT_TRUE(result.ok()) << result.status().toString();
        expectBitIdentical(result->output, want);
    }
    EXPECT_GT((*engine)->helperChunks(), 0)
        << "no idle worker was lent to a lone request";
    EXPECT_TRUE((*engine)->shutdown().ok());
}

TEST(EngineSplit, OverloadedThreeWorkerEngineResolvesEveryRequestOnce)
{
    auto model = compileSplitCnn();
    std::vector<Tensor> want;
    for (int i = 0; i < 4; ++i)
        want.push_back(plannedGroundTruth(model, splitInput(i)));
#ifdef __linux__
    const int before = baselineThreadCount();
#endif

    EngineOptions options;
    options.workerThreads = 3;
    options.maxBatch = 2;
    options.queueDepth = 512;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());

    // Far more requests than workers, from several submitters at once:
    // lone requests split across idle workers, a full engine lends
    // nobody, and the load swings between the two.
    constexpr int kSubmitters = 3, kPerSubmitter = 24;
    constexpr int kTotal = kSubmitters * kPerSubmitter;
    std::vector<std::atomic<int>> calls(kTotal);
    std::atomic<int> wrong{0}, failed{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int r = 0; r < kPerSubmitter; ++r) {
                const int id = t * kPerSubmitter + r;
                const int which = id % 4;
                Status admitted = (*engine)->submit(
                    Engine::kDefaultModel, splitInput(which),
                    [&, id, which](StatusOr<InferenceResult> result) {
                        calls[static_cast<std::size_t>(id)]++;
                        if (!result.ok()) {
                            ++failed;
                            return;
                        }
                        const Tensor &expect =
                            want[static_cast<std::size_t>(which)];
                        for (std::int64_t v = 0; v < expect.numel(); ++v)
                            if (result->output[v] != expect[v]) {
                                ++wrong;
                                return;
                            }
                    });
                if (!admitted.ok())
                    ++failed;
                if (r % 8 == 7) // let the engine drain to low load
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    EXPECT_TRUE((*engine)->shutdown().ok());

    for (int id = 0; id < kTotal; ++id)
        EXPECT_EQ(calls[static_cast<std::size_t>(id)].load(), 1)
            << "request " << id;
    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ((*engine)->stats().completed, kTotal);
#ifdef __linux__
    EXPECT_EQ(settledThreadCount(), before)
        << "shutdown must join every worker and helper";
#endif
}

TEST(CompiledModel, DerivedArtifactsAreBuiltOnceAndShared)
{
    // The functional lowering (calibration) and the execution plan are
    // cached per artifact: executors, tenants and copies of the model
    // all share one instance instead of re-deriving per construction.
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto synth_a = model->functionalSynthesis();
    auto synth_b = model->functionalSynthesis();
    ASSERT_TRUE(synth_a.ok() && synth_b.ok());
    EXPECT_EQ(synth_a->get(), synth_b->get());

    auto plan_a = model->executionPlan();
    ASSERT_TRUE(plan_a.ok());
    EXPECT_EQ(plan_a->get(), model->executionPlan()->get());

    // A copy of the model shares the same cache.
    CompiledModel copy(*model);
    auto synth_c = copy.functionalSynthesis();
    ASSERT_TRUE(synth_c.ok());
    EXPECT_EQ(synth_a->get(), synth_c->get());

    // And the failure is cached as data too: an unservable graph keeps
    // returning InvalidArgument without recalibrating.
    GraphBuilder b({1, 8, 8});
    b.conv(2, 3, 1, 0).relu().avgPool(2, 2).flatten().fc(4);
    Graph g = b.build();
    Rng rng(5);
    randomizeWeights(g, rng);
    Pipeline p(g);
    auto unservable = p.compile();
    ASSERT_TRUE(unservable.ok());
    CompiledModel outside = std::move(unservable).value();
    EXPECT_FALSE(outside.functionalSynthesis().ok());
    EXPECT_EQ(outside.functionalSynthesis().status().code(),
              StatusCode::InvalidArgument);
}

TEST(Engine, SpikingBackendServesQuantizedOutputs)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    EngineOptions options;
    options.workerThreads = 2;
    options.execution = ExecutionConfig{ExecutorKind::Spiking};
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    auto spiking = (*engine)->infer(probeInput());
    ASSERT_TRUE(spiking.ok()) << spiking.status().toString();
    EXPECT_EQ(spiking->output.shape(), model->outputShape());

    // The count-domain output approximates the (relu'd) float
    // reference within the 6-bit quantization budget.
    const Tensor reference =
        relu(runGraphFinal(model->graph(), probeInput()));
    double max_ref = 0.0, max_err = 0.0;
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
        max_ref = std::max(max_ref,
                           static_cast<double>(reference[i]));
        max_err = std::max(
            max_err, std::abs(static_cast<double>(reference[i]) -
                              spiking->output[i]));
    }
    EXPECT_LT(max_err, std::max(0.35, 0.5 * max_ref));
}

// ------------------------------------------------------- ExecutionConfig

TEST(ExecutionConfig, StampSurvivesSaveLoadAndDefaultsToPlannedFp32)
{
    Pipeline p(smallCnn());
    const ExecutionConfig stamped{ExecutorKind::Planned,
                                  PrecisionMode::Int8,
                                  KernelIsa::Scalar};
    auto compiled = p.compile(stamped);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    EXPECT_EQ(compiled->executionConfig(), stamped);

    const std::string path = "/tmp/fpsa_test_exec_config.json";
    ASSERT_TRUE(compiled->save(path).ok());
    auto loaded = CompiledModel::load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->executionConfig(), stamped);

    // A plain compile() stamps the defaults.
    EXPECT_EQ(compileSmallCnn().executionConfig(), ExecutionConfig{});
}

TEST(Engine, StatsExposeResolvedExecutionPerTenant)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto engine = Engine::create(model);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    auto stats = (*engine)->modelStats(Engine::kDefaultModel);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->executor, "planned");
    EXPECT_EQ(stats->precision, "fp32");
    // The surfaced ISA is what actually dispatches, never "auto".
    EXPECT_FALSE(stats->kernelIsa.empty());
    EXPECT_NE(stats->kernelIsa, "auto");
    KernelIsa surfaced;
    ASSERT_TRUE(parseKernelIsa(stats->kernelIsa, surfaced));
    EXPECT_EQ(surfaced, resolveKernelIsa(KernelIsa::Auto));

    // The aggregate scope spans (potentially mixed) tenants and does
    // not claim one config; the JSON bundle carries the tenant's.
    EXPECT_TRUE((*engine)->stats().executor.empty());
    const std::string json = (*engine)->statsJson();
    EXPECT_NE(json.find("\"execution\""), std::string::npos);
    EXPECT_NE(json.find("\"kernelIsa\""), std::string::npos);
}

TEST(Engine, ModelStampAndTenantOverrideSelectPrecision)
{
    // The stamped config is honored when nobody overrides...
    Pipeline p(smallCnn());
    auto stamped_model = p.compile(ExecutionConfig{
        ExecutorKind::Planned, PrecisionMode::Int8, KernelIsa::Scalar});
    ASSERT_TRUE(stamped_model.ok());
    auto engine = Engine::create(std::make_shared<CompiledModel>(
        std::move(stamped_model).value()));
    ASSERT_TRUE(engine.ok());
    auto stats = (*engine)->modelStats(Engine::kDefaultModel);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->precision, "int8");
    EXPECT_EQ(stats->kernelIsa, "scalar");
    ASSERT_TRUE((*engine)->infer(probeInput()).ok());

    // ...and one model serves two tenants at different precisions.
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto shared = Engine::create(ChipCapacity::unlimited());
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE((*shared)->loadModel("accurate", model).ok());
    TenantOptions quantized;
    quantized.execution = ExecutionConfig{
        ExecutorKind::Planned, PrecisionMode::Int8, KernelIsa::Auto};
    ASSERT_TRUE((*shared)->loadModel("fast", model, quantized).ok());

    EXPECT_EQ((*shared)->modelStats("accurate")->precision, "fp32");
    EXPECT_EQ((*shared)->modelStats("fast")->precision, "int8");

    auto fp32 = (*shared)->infer("accurate", probeInput());
    auto int8 = (*shared)->infer("fast", probeInput());
    ASSERT_TRUE(fp32.ok() && int8.ok());
    // Quantized serving approximates fp32 within a loose budget.
    double err2 = 0.0, ref2 = 0.0;
    for (std::int64_t i = 0; i < fp32->output.numel(); ++i) {
        const double d = int8->output[i] - fp32->output[i];
        err2 += d * d;
        ref2 += static_cast<double>(fp32->output[i]) *
                fp32->output[i];
    }
    EXPECT_LT(std::sqrt(err2), 0.15 * std::max(1e-9, std::sqrt(ref2)));
}

} // namespace
} // namespace fpsa
