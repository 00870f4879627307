/**
 * @file
 * Measurements of the compile and execution layers taken from outside
 * the library, by timing calls into their public functions: the
 * staged `Pipeline` (synthesize -> map -> PnR -> evaluate -> compile),
 * `ExecutionPlan` runs, and a replay of a model's GEMM/im2col shapes
 * through the public `kernelTable()`.  Also the output checks against
 * the `Reference` executor.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "compiler.hh"
#include "nn/graph.hh"
#include "nn/plan.hh"
#include "runtime/compiled_model.hh"
#include "tensor/tensor.hh"
#include "trace.hh"

namespace perfbench
{

/** One graph compiled stage by stage, with what each stage returned. */
struct CompileMeasure
{
    // Host wall time of each public stage call.
    double synthesizeMs = 0.0;
    double mapMs = 0.0;
    double pnrMs = 0.0;
    double evaluateMs = 0.0;
    double freezeMs = 0.0; //!< Pipeline::compile() once the stages ran
    // Returned by the program (PnrResult / netlist / PerfReport).
    double placeMs = 0.0;
    double routeMs = 0.0;
    std::int64_t routeIterations = 0;
    std::int64_t overusedSegments = 0;
    std::int64_t wirelength = 0;
    double hpwl = 0.0;
    std::int64_t blocks = 0;
    std::int64_t nets = 0;
    bool routed = false;
    double latencyNs = 0.0; //!< modeled per-sample chip latency
    double energyPj = 0.0;  //!< modeled per-sample chip energy
    double chipSps = 0.0;   //!< modeled chip throughput, samples/s

    double totalMs() const
    {
        return synthesizeMs + mapMs + pnrMs + evaluateMs + freezeMs;
    }
    /** Sum the per-stage numbers of several compiles (chipSps aside). */
    CompileMeasure &operator+=(const CompileMeasure &o);
};

/**
 * Run each Pipeline stage of `graph` (with `runPlaceAndRoute` set in
 * `options`), then freeze it with `Pipeline::compile()`.  Each call
 * is a span under `parent`.  An unroutable netlist still compiles (the
 * pipeline degrades timing to a lower bound); `measure.routed` says
 * which.
 */
fpsa::StatusOr<fpsa::CompiledModel> compileMeasured(
    fpsa::Graph graph, const fpsa::CompileOptions &options,
    Tracer &tracer, int parent, CompileMeasure &measure);

class Report;

/** The compile layers' per-layer metrics (pipeline.*, pnr.*, ...). */
void addCompileLayers(Report &report, const CompileMeasure &m);

/** Median host time of one plan run, single sample and batched. */
struct PlanTiming
{
    double runMs = 0.0;
    double batchMsPerSample = 0.0;
};

PlanTiming timePlan(const fpsa::ExecutionPlan &plan,
                    const fpsa::Tensor &input, int batch, int repeats);

/** One GEMM (per group) of a conv/fc layer, as the plan issues it. */
struct KernelRow
{
    std::string layer;
    std::int64_t groups = 1;
    std::int64_t m = 0, k = 0, n = 0; //!< per-group GEMM dimensions
    bool im2col = false;              //!< conv that packs columns first
    double gemmMs = 0.0;     //!< all groups, median of the repeats
    double im2colMs = 0.0;
    double gemmInt8Ms = 0.0;
    double flops = 0.0;      //!< 2*m*k*n*groups, from the shape
    double bytesFp32 = 0.0;  //!< A + B + C traffic, from the shape
    double bytesInt8 = 0.0;  //!< int8 A + B, int32 C, from the shape
};

/** A whole model's kernel replay for one sample. */
struct KernelReplay
{
    std::vector<KernelRow> rows;
    double gemmMs = 0.0;
    double im2colMs = 0.0;
    double gemmInt8Ms = 0.0;
    double flops = 0.0;
    double bytesFp32 = 0.0;
    double bytesInt8 = 0.0;
    std::string isa;

    double gemmGflops() const { return flops / (gemmMs * 1e6); }
    double gemmInt8Gops() const { return flops / (gemmInt8Ms * 1e6); }
    /** One line per row plus totals, for the trace report. */
    std::string table() const;
};

/**
 * Replay every conv/fc layer of `graph` through `kernelTable()` with
 * the plan's single-sample shapes (conv: im2col then an
 * [Co/g x Ci/g*K*K] x [Ci/g*K*K x Ho*Wo] GEMM per group; fc: a
 * [1 x in] x [in x units] GEMM), fp32 and int8, on seeded data.  Each
 * call is a span ("gemm", "im2col", "gemmInt8") when tracing.
 */
KernelReplay replayKernels(const fpsa::Graph &graph, std::uint64_t seed,
                           int repeats, Tracer &tracer);

/**
 * The plan and kernel layers' per-layer metrics: plan run times, the
 * replayed kernel times and rates, and the residual plan time the
 * kernels do not account for (quantize/dequantize, pooling,
 * activations): nn.plan.other_ms = fp32 run - (gemm + im2col), and
 * nn.plan.other_int8_ms = int8 run - (gemmInt8 + im2col).  The fp32
 * and int8 numbers may replay different models (the workload's fp32
 * and int8 tenants).
 */
void addExecutionLayers(Report &report, const PlanTiming &fp32,
                        const PlanTiming &int8,
                        const KernelReplay &fp32Replay,
                        const KernelReplay &int8Replay);

/** Reference-executor outputs for each input (computed in parallel). */
std::vector<fpsa::Tensor> referenceOutputs(
    const fpsa::Graph &graph, const std::vector<fpsa::Tensor> &inputs);

/** Seeded inputs of `shape`, values uniform in [0, 1). */
std::vector<fpsa::Tensor> seededInputs(const fpsa::Shape &shape, int count,
                                       std::uint64_t seed);

/** fp32 check: every element within 1e-4 * max(1, |want|max). */
bool matchesFp32(const fpsa::Tensor &got, const fpsa::Tensor &want);

/** sqrt(sum (got-want)^2 / sum want^2). */
double relativeRmse(const fpsa::Tensor &got, const fpsa::Tensor &want);

/** int8 check: the conv-stack bound of tests/test_precision.cc. */
bool matchesInt8(const fpsa::Tensor &got, const fpsa::Tensor &want);

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
