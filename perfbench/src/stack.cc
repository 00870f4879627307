#include "stack.hh"

#include <algorithm>
#include <cmath>
#include <future>
#include <iomanip>
#include <sstream>

#include "common/rng.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "report.hh"
#include "stats.hh"
#include "tensor/kernels.hh"

namespace perfbench
{

namespace
{

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

} // namespace

CompileMeasure &
CompileMeasure::operator+=(const CompileMeasure &o)
{
    synthesizeMs += o.synthesizeMs;
    mapMs += o.mapMs;
    pnrMs += o.pnrMs;
    evaluateMs += o.evaluateMs;
    freezeMs += o.freezeMs;
    placeMs += o.placeMs;
    routeMs += o.routeMs;
    routeIterations += o.routeIterations;
    overusedSegments += o.overusedSegments;
    wirelength += o.wirelength;
    hpwl += o.hpwl;
    blocks += o.blocks;
    nets += o.nets;
    latencyNs += o.latencyNs;
    energyPj += o.energyPj;
    return *this;
}

fpsa::StatusOr<fpsa::CompiledModel>
compileMeasured(fpsa::Graph graph, const fpsa::CompileOptions &options,
                Tracer &tracer, int parent, CompileMeasure &m)
{
    fpsa::Pipeline pipeline(std::move(graph), options);
    auto stage = [&](const char *name, double &ms, auto &&call) {
        ScopedSpan span(tracer, name, parent);
        const Clock::time_point start = Clock::now();
        auto result = call();
        ms = millisSince(start);
        return result;
    };
    if (auto s = stage("synthesize", m.synthesizeMs,
                       [&] { return pipeline.synthesize(); });
        !s.ok())
        return s.status();
    if (auto s = stage("map", m.mapMs, [&] { return pipeline.map(); });
        !s.ok())
        return s.status();
    // Unroutable is a verdict, not an error: the partial result stays
    // cached and evaluation falls back to a timing lower bound.
    auto pnr = stage("placeAndRoute", m.pnrMs,
                     [&] { return pipeline.placeAndRoute(); });
    if (!pnr.ok() && pnr.status().code() != fpsa::StatusCode::Unroutable)
        return pnr.status();
    auto eval = stage("evaluate", m.evaluateMs,
                      [&] { return pipeline.evaluate(); });
    if (!eval.ok())
        return eval.status();
    auto compiled =
        stage("freeze", m.freezeMs, [&] { return pipeline.compile(); });
    if (!compiled.ok())
        return compiled.status();

    const auto result = pipeline.pnrArtifact();
    m.placeMs = result->placeMillis;
    m.routeMs = result->routeMillis;
    m.routed = result->routed;
    m.hpwl = result->placementHpwl;
    if (result->routing) {
        m.routeIterations = result->routing->iterations;
        m.overusedSegments = result->routing->overusedSegments;
        m.wirelength = result->routing->totalWirelength;
    }
    const auto mapped = pipeline.mapArtifact();
    m.blocks = static_cast<std::int64_t>(mapped->netlist.blocks().size());
    m.nets = static_cast<std::int64_t>(mapped->netlist.nets().size());
    m.latencyNs = (*eval)->performance.latency;
    m.energyPj = (*eval)->performance.energyPerSample;
    m.chipSps = (*eval)->performance.throughput;
    return compiled;
}

void
addCompileLayers(Report &report, const CompileMeasure &m)
{
    report.add("pipeline.synthesize_ms", m.synthesizeMs, "ms");
    report.add("pipeline.map_ms", m.mapMs, "ms");
    report.add("pipeline.pnr_ms", m.pnrMs, "ms");
    report.add("pipeline.evaluate_ms", m.evaluateMs, "ms");
    report.add("runtime.compiled_model.compile_ms", m.freezeMs, "ms",
               "Pipeline::compile() after the stages");
    report.add("pnr.place_ms", m.placeMs, "ms", "PnrResult");
    report.add("pnr.route_ms", m.routeMs, "ms", "PnrResult");
    report.add("pnr.route_iterations",
               static_cast<double>(m.routeIterations), "count");
    report.add("pnr.overused_segments",
               static_cast<double>(m.overusedSegments), "count");
    report.add("pnr.wirelength", static_cast<double>(m.wirelength),
               "segments");
    report.add("pnr.hpwl", m.hpwl, "units");
    report.add("mapper.blocks", static_cast<double>(m.blocks), "count");
    report.add("mapper.nets", static_cast<double>(m.nets), "count");
    report.add("sim.latency_ns", m.latencyNs, "ns", "modeled");
    report.add("sim.energy_pj", m.energyPj, "pJ", "modeled");
}

void
addExecutionLayers(Report &report, const PlanTiming &fp32,
                   const PlanTiming &int8, const KernelReplay &fp32Replay,
                   const KernelReplay &int8Replay)
{
    report.add("nn.plan.run_ms", fp32.runMs, "ms", "median, 1 sample");
    report.add("nn.plan.batch_ms_per_sample", fp32.batchMsPerSample, "ms",
               "runBatch of 8 / 8");
    report.add("nn.plan.run_int8_ms", int8.runMs, "ms",
               "median, 1 sample");
    report.add("nn.plan.other_ms",
               fp32.runMs - fp32Replay.gemmMs - fp32Replay.im2colMs, "ms",
               "plan run - replayed gemm + im2col");
    report.add("nn.plan.other_int8_ms",
               int8.runMs - int8Replay.gemmInt8Ms - int8Replay.im2colMs,
               "ms",
               "int8 plan run - replayed gemmInt8 + im2col");
    report.add("tensor.gemm_ms", fp32Replay.gemmMs, "ms",
               "replay, 1 sample");
    report.add("tensor.gemm_gflops", fp32Replay.gemmGflops(), "GFLOP/s",
               "flops computed from shapes");
    report.add("tensor.im2col_ms", fp32Replay.im2colMs, "ms");
    report.add("tensor.gemm_int8_ms", int8Replay.gemmInt8Ms, "ms");
    report.add("tensor.gemm_int8_gops", int8Replay.gemmInt8Gops(), "GOP/s",
               "ops computed from shapes");
}

PlanTiming
timePlan(const fpsa::ExecutionPlan &plan, const fpsa::Tensor &input,
         int batch, int repeats)
{
    PlanTiming t;
    fpsa::PlanContext single = plan.makeContext(1);
    fpsa::Tensor out(plan.outputShape());
    std::vector<double> runs;
    for (int r = 0; r <= repeats; ++r) {
        const Clock::time_point start = Clock::now();
        plan.run(input.data(), out.data(), single);
        if (r > 0) // the first run warms caches and the context
            runs.push_back(millisSince(start));
    }
    t.runMs = median(runs);

    fpsa::PlanContext batched = plan.makeContext(batch);
    std::vector<fpsa::Tensor> outs(static_cast<std::size_t>(batch),
                                   fpsa::Tensor(plan.outputShape()));
    std::vector<const float *> in_ptrs(static_cast<std::size_t>(batch),
                                       input.data());
    std::vector<float *> out_ptrs;
    for (fpsa::Tensor &o : outs)
        out_ptrs.push_back(o.data());
    std::vector<double> batches;
    const int batch_repeats = std::max(3, repeats / batch);
    for (int r = 0; r <= batch_repeats; ++r) {
        const Clock::time_point start = Clock::now();
        plan.runBatch(in_ptrs.data(), out_ptrs.data(), batch, batched);
        if (r > 0)
            batches.push_back(millisSince(start) / batch);
    }
    t.batchMsPerSample = median(batches);
    return t;
}

namespace
{

/** Median wall time of `repeats` calls, each a span when tracing. */
template <typename Fn>
double
timeCalls(Tracer &tracer, const char *name, int repeats, Fn &&call)
{
    std::vector<double> ms;
    call(); // warm-up
    for (int r = 0; r < repeats; ++r) {
        const Clock::time_point start = Clock::now();
        call();
        const Clock::time_point end = Clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(end - start)
                .count());
        tracer.add(name, start, end);
    }
    return median(ms);
}

} // namespace

KernelReplay
replayKernels(const fpsa::Graph &graph, std::uint64_t seed, int repeats,
              Tracer &tracer)
{
    const fpsa::KernelTable &kt = fpsa::kernelTable();
    KernelReplay replay;
    replay.isa = fpsa::kernelIsaName(kt.isa);
    fpsa::Rng rng(seed);
    auto fill = [&](std::vector<float> &v) {
        for (float &x : v)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
    };
    auto fill8 = [&](std::vector<std::int8_t> &v) {
        for (std::int8_t &x : v)
            x = static_cast<std::int8_t>(
                static_cast<int>(rng.uniformInt(255)) - 127);
    };

    for (fpsa::NodeId id : graph.topoOrder()) {
        const fpsa::GraphNode &node = graph.node(id);
        if (node.kind != fpsa::OpKind::Conv2d &&
            node.kind != fpsa::OpKind::FullyConnected)
            continue;
        const fpsa::Shape &in_shape = graph.node(node.inputs[0]).outShape;
        KernelRow row;
        row.layer = node.name;
        std::int64_t ci = 0, hi = 0, wi = 0, ho = 0, wo = 0;
        const std::int64_t kernel = node.attrs.kernel;
        if (node.kind == fpsa::OpKind::Conv2d) {
            ci = in_shape[0];
            hi = in_shape[1];
            wi = in_shape[2];
            ho = node.outShape[1];
            wo = node.outShape[2];
            row.groups = node.attrs.groups;
            row.m = node.outShape[0] / row.groups;
            row.k = ci / row.groups * kernel * kernel;
            row.n = ho * wo;
            row.im2col = !(kernel == 1 && node.attrs.stride == 1 &&
                           node.attrs.pad == 0);
        } else {
            std::int64_t in_numel = 1;
            for (std::int64_t d : in_shape)
                in_numel *= d;
            row.m = 1;
            row.k = in_numel;
            row.n = node.attrs.units;
        }
        const std::int64_t m = row.m, k = row.k, n = row.n;
        const double g = static_cast<double>(row.groups);
        row.flops = 2.0 * static_cast<double>(m * k * n) * g;
        row.bytesFp32 = 4.0 * static_cast<double>(m * k + k * n + m * n) * g;
        row.bytesInt8 =
            static_cast<double>(m * k + k * n + 4 * m * n) * g;

        std::vector<float> a(static_cast<std::size_t>(m * k));
        std::vector<float> b(static_cast<std::size_t>(k * n));
        std::vector<float> c(static_cast<std::size_t>(m * n));
        std::vector<std::int8_t> a8(a.size()), b8(b.size());
        std::vector<std::int32_t> c32(c.size());
        fill(a);
        fill(b);
        fill8(a8);
        fill8(b8);

        row.gemmMs = g * timeCalls(tracer, "gemm", repeats, [&] {
            kt.gemmRowMajor(a.data(), k, b.data(), n, c.data(), n, m, k, n);
        });
        row.gemmInt8Ms = g * timeCalls(tracer, "gemmInt8", repeats, [&] {
            kt.gemmInt8(a8.data(), k, b8.data(), n, c32.data(), n, m, k, n);
        });
        if (row.im2col) {
            const std::int64_t ci_g = ci / row.groups;
            std::vector<float> image(
                static_cast<std::size_t>(ci_g * hi * wi));
            fill(image);
            row.im2colMs = g * timeCalls(tracer, "im2col", repeats, [&] {
                kt.im2colChw(image.data(), ci_g, hi, wi, kernel, kernel,
                             node.attrs.stride, node.attrs.pad, ho, wo,
                             b.data(), n, 0.0f);
            });
        }
        replay.gemmMs += row.gemmMs;
        replay.im2colMs += row.im2colMs;
        replay.gemmInt8Ms += row.gemmInt8Ms;
        replay.flops += row.flops;
        replay.bytesFp32 += row.bytesFp32;
        replay.bytesInt8 += row.bytesInt8;
        replay.rows.push_back(std::move(row));
    }
    return replay;
}

std::string
KernelReplay::table() const
{
    std::ostringstream out;
    out << "kernel replay (isa " << isa
        << "; flops and bytes computed from the shapes, not counted)\n";
    out << "  layer            groups      m      k      n   gemm_ms "
           "im2col_ms  int8_ms    MFLOP  fp32_MB  int8_MB\n";
    out << std::fixed;
    auto line = [&](const std::string &name, const std::string &dims,
                    double gemm, double im2col, double int8, double fl,
                    double b32, double b8) {
        out << "  " << std::left << std::setw(16) << name << std::right
            << dims << std::setprecision(4) << std::setw(10) << gemm
            << std::setw(10) << im2col << std::setw(9) << int8
            << std::setprecision(2) << std::setw(9) << fl / 1e6
            << std::setw(9) << b32 / 1e6 << std::setw(9) << b8 / 1e6
            << "\n";
    };
    for (const KernelRow &r : rows) {
        std::ostringstream dims;
        dims << std::setw(7) << r.groups << std::setw(7) << r.m
             << std::setw(7) << r.k << std::setw(7) << r.n;
        line(r.layer, dims.str(), r.gemmMs, r.im2colMs, r.gemmInt8Ms,
             r.flops, r.bytesFp32, r.bytesInt8);
    }
    line("total", std::string(28, ' '), gemmMs, im2colMs, gemmInt8Ms,
         flops, bytesFp32, bytesInt8);
    return out.str();
}

std::vector<fpsa::Tensor>
referenceOutputs(const fpsa::Graph &graph,
                 const std::vector<fpsa::Tensor> &inputs)
{
    std::vector<std::future<fpsa::Tensor>> jobs;
    for (const fpsa::Tensor &input : inputs) {
        jobs.push_back(std::async(std::launch::async, [&graph, &input] {
            return fpsa::runGraphFinal(graph, input);
        }));
    }
    std::vector<fpsa::Tensor> out;
    for (auto &job : jobs)
        out.push_back(job.get());
    return out;
}

std::vector<fpsa::Tensor>
seededInputs(const fpsa::Shape &shape, int count, std::uint64_t seed)
{
    fpsa::Rng rng(seed);
    std::vector<fpsa::Tensor> out;
    for (int i = 0; i < count; ++i) {
        fpsa::Tensor t(shape);
        for (std::int64_t j = 0; j < t.numel(); ++j)
            t[j] = static_cast<float>(rng.uniform());
        out.push_back(std::move(t));
    }
    return out;
}

bool
matchesFp32(const fpsa::Tensor &got, const fpsa::Tensor &want)
{
    if (got.numel() != want.numel())
        return false;
    const float tol = 1e-4f * std::max(1.0f, want.absMax());
    for (std::int64_t i = 0; i < got.numel(); ++i) {
        if (!(std::fabs(got[i] - want[i]) <= tol))
            return false;
    }
    return true;
}

double
relativeRmse(const fpsa::Tensor &got, const fpsa::Tensor &want)
{
    double err2 = 0.0, ref2 = 0.0;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
        const double d = static_cast<double>(got[i]) - want[i];
        err2 += d * d;
        ref2 += static_cast<double>(want[i]) * want[i];
    }
    return ref2 > 0.0 ? std::sqrt(err2 / ref2) : std::sqrt(err2);
}

bool
matchesInt8(const fpsa::Tensor &got, const fpsa::Tensor &want)
{
    return got.numel() == want.numel() && relativeRmse(got, want) < 0.10;
}

} // namespace perfbench
