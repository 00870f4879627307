/**
 * @file
 * The `convnet` workload: VGG17, compiled with a routed PnR, served by
 * one `Engine` with 3 workers to two tenants on the same artifact --
 * `vgg_fp32`, and `vgg_int8` through a per-tenant `ExecutionConfig`
 * override -- under open-loop Poisson arrivals at a fixed 1:1 mix.
 * The kernel and plan layers do almost all the work; the front door
 * is well under 1% of a request.
 */

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "common/rng.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "runtime/engine.hh"
#include "serving.hh"
#include "stack.hh"
#include "stats.hh"
#include "sysinfo.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

// Sized on a 4-vCPU x86 VM: one VGG17 request costs ~18 ms fp32 and
// ~43 ms int8 on one core, and the 1:1 mix saturates 3 workers near
// 110 req/s.  d = 4 routes for every placer seed tried (40 of 40).
constexpr int kWorkers = 3;
constexpr std::int64_t kDuplication = 4;
constexpr int kInputs = 4;
constexpr int kSetupRepeats = 9;
constexpr double kReferenceRate = 20.0; // req/s, ~20% utilization
constexpr double kLimitMs = 250.0;      // p90 limit for peak_rps
constexpr int kPlanRepeats = 20;

const fpsa::ExecutionConfig kFp32{fpsa::ExecutorKind::Planned,
                                  fpsa::PrecisionMode::Fp32,
                                  fpsa::KernelIsa::Auto};
const fpsa::ExecutionConfig kInt8{fpsa::ExecutorKind::Planned,
                                  fpsa::PrecisionMode::Int8,
                                  fpsa::KernelIsa::Auto};

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Everything one set-up produced. */
struct Stack
{
    std::shared_ptr<const fpsa::CompiledModel> model;
    std::unique_ptr<fpsa::Engine> engine;
    CompileMeasure compile;
    double planBuildMs = 0.0;
    double loadMs = 0.0;
    double seconds = 0.0;
};

void
check(const fpsa::Status &status, const char *what)
{
    if (!status.ok())
        throw std::runtime_error(std::string(what) + ": " +
                                 status.toString());
}

/**
 * Graph build + weights, staged compile with PnR, both execution
 * plans, engine start, both tenants loaded, and a warm-up request per
 * tenant.  `rep` varies the placer seed.
 */
Stack
setUp(std::uint64_t seed, int rep, const fpsa::Tensor &warmInput,
      Tracer &tracer)
{
    Stack st;
    const Clock::time_point start = Clock::now();
    ScopedSpan root(tracer, "setup");

    fpsa::Graph graph;
    {
        ScopedSpan span(tracer, "buildGraph", root.id());
        graph = fpsa::buildVgg17Cifar();
        fpsa::Rng rng(deriveSeed(seed, 1));
        fpsa::randomizeWeights(graph, rng);
    }

    fpsa::CompileOptions options;
    options.duplicationDegree = kDuplication;
    options.runPlaceAndRoute = true;
    options.pnr.placer.seed =
        deriveSeed(seed, 100 + static_cast<std::uint64_t>(rep));
    {
        ScopedSpan span(tracer, "compile", root.id());
        auto compiled = compileMeasured(std::move(graph), options, tracer,
                                        span.id(), st.compile);
        check(compiled.status(), "compile");
        st.model = std::make_shared<const fpsa::CompiledModel>(
            std::move(compiled).value());
    }
    {
        ScopedSpan span(tracer, "executionPlan", root.id());
        const Clock::time_point t = Clock::now();
        check(st.model->executionPlan(kFp32.precision, kFp32.kernelIsa)
                  .status(),
              "fp32 plan");
        check(st.model->executionPlan(kInt8.precision, kInt8.kernelIsa)
                  .status(),
              "int8 plan");
        st.planBuildMs = millisSince(t);
    }

    fpsa::EngineOptions engine_options;
    engine_options.workerThreads = kWorkers;
    auto engine = fpsa::Engine::create(fpsa::ChipCapacity::unlimited(),
                                       engine_options);
    check(engine.status(), "engine");
    st.engine = std::move(engine).value();
    {
        ScopedSpan span(tracer, "loadModel", root.id());
        const Clock::time_point t = Clock::now();
        fpsa::TenantOptions fp32;
        fp32.execution = kFp32;
        fpsa::TenantOptions int8;
        int8.execution = kInt8;
        check(st.engine->loadModel("vgg_fp32", st.model, fp32),
              "load vgg_fp32");
        check(st.engine->loadModel("vgg_int8", st.model, int8),
              "load vgg_int8");
        st.loadMs = millisSince(t);
    }
    {
        ScopedSpan span(tracer, "warmup", root.id());
        for (const char *tenant : {"vgg_fp32", "vgg_int8"})
            check(st.engine->infer(tenant, warmInput).status(), "warm-up");
    }
    st.seconds = millisSince(start) / 1000.0;
    return st;
}

} // namespace

RunOutcome
runConvnet(const RunOptions &opts, std::ostream &log)
{
    RunOutcome out;
    Report &report = out.report;
    Tracer tracer(opts.trace);
    Tracer untraced(false);

    const fpsa::Shape input_shape = fpsa::buildVgg17Cifar().node(0).outShape;
    const std::vector<fpsa::Tensor> inputs =
        seededInputs(input_shape, kInputs, deriveSeed(opts.seed, 2));

    // Set up several times (placer seed varies) and keep the last.
    // Each set-up is torn down before the next, so the peak RSS is that
    // of one deployment.
    std::vector<double> setup_s, compile_s, chip_sps;
    Stack stack;
    const int reps = opts.trace ? 1 : kSetupRepeats;
    for (int rep = 0; rep < reps; ++rep) {
        if (stack.engine) {
            check(stack.engine->shutdown(), "shutdown");
            stack = Stack{};
        }
        Stack st = setUp(opts.seed, rep, inputs[0], tracer);
        setup_s.push_back(st.seconds);
        compile_s.push_back(st.compile.totalMs() / 1000.0);
        chip_sps.push_back(st.compile.chipSps);
        log << "setup " << rep << ": " << st.seconds << " s, compile "
            << st.compile.totalMs() << " ms (place "
            << st.compile.placeMs << ", route " << st.compile.routeMs
            << ", " << st.compile.routeIterations << " iterations, "
            << (st.compile.routed ? "routed" : "UNROUTED")
            << "), modeled " << st.compile.chipSps << " samples/s\n";
        stack = std::move(st);
    }

    const std::vector<fpsa::Tensor> refs =
        referenceOutputs(stack.model->graph(), inputs);

    Traffic traffic;
    traffic.tenants = {"vgg_fp32", "vgg_int8"};
    traffic.mix = {1.0, 1.0};
    traffic.inputsPerTenant = kInputs;
    fpsa::Engine &engine = *stack.engine;
    traffic.submit = [&](const Arrival &a) {
        return engine.submit(traffic.tenants[static_cast<std::size_t>(
                                 a.tenant)],
                             inputs[static_cast<std::size_t>(a.input)]);
    };
    traffic.check = [&](const Arrival &a, const fpsa::InferenceResult &r) {
        const fpsa::Tensor &want = refs[static_cast<std::size_t>(a.input)];
        return a.tenant == 0 ? matchesFp32(r.output, want)
                             : matchesInt8(r.output, want);
    };

    const std::uint64_t phase_seed = deriveSeed(opts.seed, 3);
    if (!opts.trace) {
        const Phase phase =
            runPhase(traffic, kReferenceRate, 0.6 * opts.seconds,
                     phase_seed, untraced);
        logPhase(log, "reference rate", traffic, phase);
        // Before the saturation probes, whose backlogs of queued inputs
        // would make the high-water mark a measure of the overload.
        report.add("rss_mb", peakRssMiB(), "MiB",
                   "VmHWM after the reference phase");
        out.attempted += static_cast<std::int64_t>(
            phase.load.records.size());
        out.failed += phase.load.failed();

        PeakSearch search;
        search.lo = 60.0;
        search.hi = 240.0;
        search.resolution = 0.05;
        search.limitMs = kLimitMs;
        search.minRequests = 240;
        search.minSeconds = 0.4 * opts.seconds / 6; // 5 probes + warm-up
        search.minBacklog = 2 * kWorkers * 8;
        const PeakResult peak =
            findPeak(traffic, search, deriveSeed(opts.seed, 4), log);
        out.attempted += peak.attempted;
        out.failed += peak.wrongOutputs;
        out.correct = out.correct && peak.bisection.anyPassed;

        report.add("setup_s", median(setup_s), "s",
                   std::to_string(reps) + " set-ups, median");
        report.add("compile_s", median(compile_s), "s",
                   "VGG17 d=4, median of set-ups");
        report.add("chip_sps", median(chip_sps), "samples/s",
                   "modeled, median of set-ups");
        out.correct &=
            addLatency(report, "p50_ms", "p90_ms", phase, 0, log);
        out.correct &= addLatency(report, "int8_p50_ms", "int8_p90_ms",
                                  phase, 1, log);
        report.add("peak_rps", peak.bisection.peak, "1/s",
                   std::to_string(peak.bisection.probes.size()) +
                       " probes");
        report.add("cpu_us", cpuUsPerRequest(phase), "us",
                   "per completed request");
    } else {
        const Phase plain = runPhase(traffic, kReferenceRate,
                                     0.3 * opts.seconds, phase_seed,
                                     untraced);
        logPhase(log, "untraced", traffic, plain);
        const fpsa::EngineStats before = engine.stats();
        const Phase traced = runPhase(traffic, kReferenceRate,
                                      0.3 * opts.seconds, phase_seed,
                                      tracer);
        logPhase(log, "traced", traffic, traced);
        const fpsa::EngineStats after = engine.stats();
        for (const Phase *p : {&plain, &traced}) {
            out.attempted += static_cast<std::int64_t>(
                p->load.records.size());
            out.failed += p->load.failed();
        }

        addCompileLayers(report, stack.compile);
        report.add("runtime.compiled_model.plan_build_ms",
                   stack.planBuildMs, "ms", "fp32 + int8");
        report.add("runtime.load_ms", stack.loadMs, "ms",
                   "Engine::loadModel, both tenants");
        addRequestLayers(report, traced);
        report.add("runtime.retries",
                   static_cast<double>(
                       after.submitted - before.submitted -
                       static_cast<std::int64_t>(
                           traced.load.records.size())),
                   "count", "an Engine has no failover");
        report.add("runtime.shed", 0.0, "count",
                   "an Engine does not shed");
        report.add("runtime.replica_skew", 1.0, "ratio",
                   "one replica per tenant");
        report.add("runtime.interconnect_bytes", 0.0, "bytes",
                   "no shards");

        const fpsa::Tensor &sample = inputs[0];
        auto fp32_plan = stack.model->executionPlan(kFp32.precision,
                                                    kFp32.kernelIsa);
        auto int8_plan = stack.model->executionPlan(kInt8.precision,
                                                    kInt8.kernelIsa);
        check(fp32_plan.status(), "fp32 plan");
        check(int8_plan.status(), "int8 plan");
        PlanTiming fp32, int8;
        {
            ScopedSpan span(tracer, "planRun");
            fp32 = timePlan(**fp32_plan, sample, 8, kPlanRepeats);
            int8 = timePlan(**int8_plan, sample, 8, kPlanRepeats);
        }
        KernelReplay replay;
        {
            ScopedSpan span(tracer, "kernelReplay");
            replay = replayKernels(stack.model->graph(),
                                   deriveSeed(opts.seed, 5), 10, tracer);
        }
        log << replay.table();
        addExecutionLayers(report, fp32, int8, replay, replay);
        addTraceOverhead(report, plain, traced);
        finishTrace(tracer, opts, log);
        report.add("rss_mb", peakRssMiB(), "MiB", "VmHWM");
    }
    out.correct = out.correct && out.failed == 0;
    check(engine.shutdown(), "shutdown");
    return out;
}

} // namespace perfbench
