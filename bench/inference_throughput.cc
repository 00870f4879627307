/**
 * @file
 * Inference data-path bench: naive reference kernels vs the planned
 * im2col/GEMM execution engine across its execution configs (scalar
 * fp32, vector fp32, int8), single-sample vs batched, one JSON object
 * per line -- the anchor of the inference-throughput perf trajectory
 * (tools/bench_trajectory.py --bench infer).
 *
 *   $ ./inference_throughput > infer.jsonl   # full model sweep
 *   $ ./inference_throughput --small         # CI sizes
 *
 * Per model it reports:
 *  - reference / planned single-sample latency and the speedup ratio:
 *    the median over reference and plan runs taken in pairs, back to
 *    back, so a slow spell of the host hits both sides of a pair
 *    (machine-portable: both sides run on the same host);
 *  - the same planned latency pinned to the scalar kernel table, and
 *    the median of paired scalar-plan / vector-plan time ratios
 *    (`vectorSpeedup`), the two plans timed back to back in each pair
 *    -- what the SIMD dispatch layer buys on this host; the vector
 *    table's name and register width (`kernelIsa`, `vectorBits`) sit
 *    beside it;
 *  - the int8 plan's latency and its ratio over scalar fp32
 *    (`int8Speedup`) -- what quantized serving buys;
 *  - the median of paired vector-fp32-plan / int8-plan time ratios
 *    (`int8OverFp32`), the two plans timed back to back in each pair --
 *    whether int8 serving beats the fp32 plan it replaces;
 *  - planned batched latency per sample at the engine's default batch
 *    width and the batched-over-single per-sample speedup;
 *  - heap allocations per planned request across the fp32 and int8
 *    paths, counted with a global operator-new hook (must be 0).
 *
 * The summary line carries the gated metrics, including
 * `minCoalescedBatchSpeedup`: the worst batched speedup among models
 * whose every conv layer fits the batch-coalescing cutoff (for those
 * the whole forward pass rides wide GEMMs, so batched serving must
 * beat single-sample; conv stacks with wider layers are weight-
 * amortized already and sit at ~1.0 by design, reported as info).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "nn/execute.hh"
#include "nn/graph.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "tensor/kernels.hh"
#include "tensor/tensor.hh"

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

Tensor
sampleInput(const Shape &shape, int id)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 3)) % 97) / 97.0f - 0.3f;
    return t;
}

/** One single-sample run of the reference kernels, in milliseconds. */
double
timeReferenceOnce(const Graph &graph, const Tensor &input)
{
    const auto start = Clock::now();
    Tensor out = runGraphFinal(graph, input);
    const double ms = millisSince(start);
    if (out.numel() == 0)
        std::exit(1); // defeat dead-code elimination
    return ms;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct PlannedTiming
{
    double singleMillis = 0.0;
    double batchedMillisPerSample = 0.0;
    long allocsPerRequest = 0;
    std::int64_t arenaFloats = 0;
    KernelIsa isa = KernelIsa::Scalar;
    double referenceMillis = 0.0; //!< best paired reference run
    double pairedSpeedup = 0.0;   //!< median of reference / plan pairs
};

/**
 * Build a plan for one execution config, time it, and release it
 * before the next config (three resident VGG16 plans would double the
 * bench's footprint for no measurement benefit).  `batch` <= 0 skips
 * the batched timing.  `pairs` > 0 first runs that many reference /
 * plan pairs back to back (an untimed plan run between the two
 * re-warms the caches) and reports the median of their ratios, so a
 * host slowdown that hits both sides of one pair cancels out.
 */
PlannedTiming
timePlanned(const Graph &graph, PrecisionMode precision,
            KernelIsa isa, int reps, int batch_reps, int batch,
            const Tensor &input, int pairs = 0)
{
    auto plan = ExecutionPlan::build(graph, {precision, isa});
    if (!plan.ok()) {
        std::cerr << plan.status().toString() << "\n";
        std::exit(1);
    }

    PlannedTiming t;
    t.isa = plan->kernelIsa();
    t.arenaFloats = plan->arenaFloatsPerSample();
    // makeContext sizes the arena/scratch up front, so every run
    // below (including the first batched one) is steady-state.
    PlanContext context = plan->makeContext(batch > 0 ? batch : 1);
    Tensor out(plan->outputShape());

    plan->run(input.data(), out.data(), context); // warm caches
    double best = 1e30;
    std::vector<double> ratios;
    t.referenceMillis = 1e30;
    for (int r = 0; r < pairs; ++r) {
        const double ref_ms = timeReferenceOnce(graph, input);
        // Untimed: the reference run evicted the plan's weights and
        // arena, and the ratio is meant to time a warm plan.
        plan->run(input.data(), out.data(), context);
        const auto start = Clock::now();
        plan->run(input.data(), out.data(), context);
        const double plan_ms = millisSince(start);
        ratios.push_back(ref_ms / plan_ms);
        t.referenceMillis = std::min(t.referenceMillis, ref_ms);
        best = std::min(best, plan_ms);
    }
    if (pairs > 0)
        t.pairedSpeedup = median(ratios);
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        plan->run(input.data(), out.data(), context);
        best = std::min(best, millisSince(start));
    }
    t.singleMillis = best;

    // Allocation count of a steady-state request.
    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    t.allocsPerRequest = alloc_probe::disarm();

    if (batch > 0) {
        std::vector<Tensor> outs(static_cast<std::size_t>(batch),
                                 Tensor(plan->outputShape()));
        std::vector<const float *> in_ptrs(
            static_cast<std::size_t>(batch), input.data());
        std::vector<float *> out_ptrs;
        for (Tensor &o : outs)
            out_ptrs.push_back(o.data());
        best = 1e30;
        for (int r = 0; r < batch_reps; ++r) {
            const auto start = Clock::now();
            plan->runBatch(in_ptrs.data(), out_ptrs.data(), batch,
                           context);
            best = std::min(best, millisSince(start));
        }
        t.batchedMillisPerSample = best / batch;
        alloc_probe::arm();
        plan->runBatch(in_ptrs.data(), out_ptrs.data(), batch,
                       context);
        t.allocsPerRequest =
            std::max(t.allocsPerRequest, alloc_probe::disarm());
    }
    return t;
}

/**
 * The median over `pairs` of (slow plan ms / fast plan ms), the two
 * plans timed back to back in each pair so that a slow spell of the
 * host hits both.  Each timed run follows an untimed run of the same
 * plan, so both sides start warm.
 */
double
pairedRatio(const Graph &graph, const Tensor &input,
            const PlanOptions &slow_options,
            const PlanOptions &fast_options, int pairs)
{
    auto slow = ExecutionPlan::build(graph, slow_options);
    auto fast = ExecutionPlan::build(graph, fast_options);
    if (!slow.ok() || !fast.ok()) {
        std::cerr << (slow.ok() ? fast : slow).status().toString()
                  << "\n";
        std::exit(1);
    }
    PlanContext slow_ctx = slow->makeContext();
    PlanContext fast_ctx = fast->makeContext();
    Tensor out(slow->outputShape());
    const auto warmTime = [&](const ExecutionPlan &plan,
                              PlanContext &context) {
        plan.run(input.data(), out.data(), context);
        const auto start = Clock::now();
        plan.run(input.data(), out.data(), context);
        return millisSince(start);
    };
    std::vector<double> ratios;
    for (int r = 0; r < pairs; ++r) {
        const double slow_ms = warmTime(*slow, slow_ctx);
        ratios.push_back(slow_ms / warmTime(*fast, fast_ctx));
    }
    return median(ratios);
}

/**
 * Whether every conv layer's per-sample output fits the plan's batch
 * coalescing cutoff (mirrors nn/plan.cc): if so the whole batched
 * forward pass rides wide GEMMs and must beat single-sample serving.
 */
bool
fullyCoalesced(const Graph &graph)
{
    for (const GraphNode &n : graph.nodes()) {
        if (n.kind != OpKind::Conv2d)
            continue;
        const Shape &s = n.outShape;
        if (s.size() == 3 && s[1] * s[2] >= 1024)
            return false;
    }
    return true;
}

struct ModelResult
{
    std::string name;
    std::int64_t ops = 0;
    double speedup = 0.0;
    double vectorSpeedup = 0.0;
    double int8Speedup = 0.0;
    double int8OverFp32 = 0.0;
    double batchSpeedup = 0.0;
    bool coalesced = false;
    long allocsPerRequest = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) {
            small = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--small]\n";
            return 2;
        }
    }

    // The conv-heavy numeric-execution models, ordered by op count;
    // --small stops before AlexNet/VGG16 (minutes of naive reference
    // per request) but still gates on the conv-heavy VGG17.
    std::vector<ModelId> models{ModelId::Mlp500_100, ModelId::LeNet,
                                ModelId::Vgg17Cifar};
    if (!small) {
        models.push_back(ModelId::AlexNet);
        models.push_back(ModelId::Vgg16);
    }
    const int batch = 8; // EngineOptions::maxBatch default

    std::vector<ModelResult> results;
    for (ModelId id : models) {
        Graph graph = buildModel(id);
        Rng rng(2019);
        randomizeWeights(graph, rng);
        const Tensor input =
            sampleInput(graph.nodes().front().outShape, 1);

        const std::int64_t ops = graph.opCount();
        // Repeat counts scale down with model size; the reference side
        // of the big models is the wall-clock hog.
        const bool huge = ops > 1000000000;
        const int pairs = huge ? 1 : (small ? 5 : 7);
        const int plan_reps = huge ? 2 : 10;
        const int batch_reps = huge ? 1 : plan_reps;
        // Plan-only pairs are cheap next to the reference's.
        const int plan_pairs = huge ? 3 : 21;

        const PlannedTiming vec =
            timePlanned(graph, PrecisionMode::Fp32, KernelIsa::Auto,
                        plan_reps, batch_reps, batch, input, pairs);
        const double ref_ms = vec.referenceMillis;
        const PlannedTiming scalar =
            timePlanned(graph, PrecisionMode::Fp32, KernelIsa::Scalar,
                        plan_reps, 0, 0, input);
        const PlannedTiming int8 =
            timePlanned(graph, PrecisionMode::Int8, KernelIsa::Auto,
                        plan_reps, 0, 0, input);

        ModelResult r;
        r.name = modelName(id);
        r.ops = ops;
        r.speedup = vec.pairedSpeedup;
        r.vectorSpeedup =
            pairedRatio(graph, input, {PrecisionMode::Fp32,
                                       KernelIsa::Scalar},
                        {PrecisionMode::Fp32, KernelIsa::Auto},
                        plan_pairs);
        r.int8Speedup = scalar.singleMillis / int8.singleMillis;
        r.int8OverFp32 =
            pairedRatio(graph, input, {PrecisionMode::Fp32,
                                       KernelIsa::Auto},
                        {PrecisionMode::Int8, KernelIsa::Auto},
                        plan_pairs);
        r.batchSpeedup =
            vec.singleMillis / vec.batchedMillisPerSample;
        r.coalesced = fullyCoalesced(graph);
        r.allocsPerRequest =
            std::max(vec.allocsPerRequest, int8.allocsPerRequest);
        results.push_back(r);

        JsonWriter j;
        j.beginObject();
        j.field("kind", "model");
        j.field("model", r.name);
        j.field("ops", ops);
        j.field("kernelIsa", kernelIsaName(vec.isa));
        j.field("vectorBits",
                static_cast<std::int64_t>(kernelTable(vec.isa).vectorBits));
        j.field("referenceMillis", ref_ms);
        j.field("plannedMillis", vec.singleMillis);
        j.field("plannedScalarMillis", scalar.singleMillis);
        j.field("plannedInt8Millis", int8.singleMillis);
        j.field("plannedBatchedMillisPerSample",
                vec.batchedMillisPerSample);
        j.field("batch", static_cast<std::int64_t>(batch));
        j.field("speedup", r.speedup);
        j.field("vectorSpeedup", r.vectorSpeedup);
        j.field("int8Speedup", r.int8Speedup);
        j.field("int8OverFp32", r.int8OverFp32);
        j.field("batchSpeedup", r.batchSpeedup);
        j.field("fullyCoalesced", r.coalesced);
        j.field("allocsPerRequest",
                static_cast<std::int64_t>(r.allocsPerRequest));
        j.field("arenaFloatsPerSample", vec.arenaFloats);
        j.endObject();
        std::cout << j.str() << "\n";
    }

    // Summary: the largest (by op count) model's speedups are the
    // headline acceptance metrics.
    const ModelResult *largest = &results.front();
    long worst_allocs = 0;
    double min_coalesced_batch = 1e30;
    for (const ModelResult &r : results) {
        if (r.ops > largest->ops)
            largest = &r;
        worst_allocs = std::max(worst_allocs, r.allocsPerRequest);
        if (r.coalesced)
            min_coalesced_batch =
                std::min(min_coalesced_batch, r.batchSpeedup);
    }
    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("largestModel", largest->name);
    j.field("largestModelSpeedup", largest->speedup);
    j.field("largestModelVectorSpeedup", largest->vectorSpeedup);
    j.field("largestModelInt8Speedup", largest->int8Speedup);
    j.field("minCoalescedBatchSpeedup",
            min_coalesced_batch == 1e30 ? 0.0 : min_coalesced_batch);
    j.field("allocsPerRequest",
            static_cast<std::int64_t>(worst_allocs));
    j.key("models").beginArray();
    for (const ModelResult &r : results) {
        j.beginObject();
        j.field("model", r.name);
        j.field("speedup", r.speedup);
        j.field("vectorSpeedup", r.vectorSpeedup);
        j.field("int8Speedup", r.int8Speedup);
        j.field("batchSpeedup", r.batchSpeedup);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
