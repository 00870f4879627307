/**
 * @file
 * `fpsa::ExecutionPlan`: the planned, arena-allocated inference data
 * path for computational graphs.
 *
 * `runGraph` (nn/execute.hh) is the golden reference: it heap-allocates
 * a fresh Tensor per node per request and runs naive nested-loop
 * kernels.  An ExecutionPlan is compiled once per graph and then serves
 * any number of requests with zero per-request heap allocations:
 *
 *  - the op schedule is fixed at build time (topo order, with identity
 *    ops -- Flatten, BatchNorm -- erased into buffer aliases);
 *  - a Relu whose input is a conv or fc node with no other consumer is
 *    fused into that step: the step's epilogue applies max(0, x) to
 *    each output chunk while it is still cache-hot (fp32: after the
 *    chunk's GEMM; quantized: inside the dequantize loop), and the Relu
 *    node becomes an alias of the step's buffer.  max(0, x) is exact,
 *    so a fused plan's outputs are bit-identical to an unfused one's;
 *    any other Relu (after an Add, or on a conv with a second consumer)
 *    stays a step of its own;
 *  - every node's activation lives at a liveness-analyzed offset in one
 *    float arena, so buffers are reused as soon as their last consumer
 *    has run and reshapes alias instead of copying;
 *  - conv/fc weights are pre-packed at build time into im2col-ready
 *    GEMM panels (conv: OIHW rows are already [co x ci_g*kh*kw] panels,
 *    sliced per group once; fc: the matrix is transposed so a batch of
 *    row-vector inputs multiplies it directly);
 *  - convolution runs as im2col + cache-blocked GEMM with padding
 *    resolved at pack time, so the hot loops carry no bounds checks.
 *
 * `runBatch` executes B samples through one GEMM per layer (the im2col
 * matrices of all samples are packed side by side; a batch of fc inputs
 * is one [B x in] operand), and is bit-identical per sample to B
 * single-sample `run` calls (see tensor/kernels.hh's determinism
 * contract).
 *
 * A plan is built for one `PlanOptions{precision, kernelIsa}`: the
 * kernel table is resolved once at build time and pinned (so the plan's
 * batched==single promise holds against a fixed instruction-set
 * variant), and `PrecisionMode::Int8`/`Int6` switch conv/fc layers to
 * the quantized data path -- weights are symmetric-quantized to int8
 * per output channel at build time (each conv panel row and each fc
 * panel column against its own absmax, so one large channel cannot
 * flatten the others' levels), activations are quantized per sample
 * with a dynamic scale from that sample's own layer input (so batching
 * cannot change a sample's quantization grid), the GEMM runs int8 x
 * int8 -> int32, and a float epilogue rescales each output channel by
 * (its weight scale x the activation scale).  A conv quantizes each
 * sample's layer input once, before im2col, and packs the int8 levels:
 * packing only copies and a padded zero is level 0, so this yields
 * exactly the levels of quantizing the kernel^2-times larger column
 * matrix.  Integer accumulation is exact, so the int8 path is
 * bit-identical across batch sizes AND across kernel ISAs.
 *
 * The elementwise passes around each GEMM (`absMaxOf`, `quantizeTo`,
 * dequantize, ReLU, the max-pool max) are branch-free SSE2 on x86-64,
 * where SSE2 is baseline, and branch-free scalar elsewhere.  Every one
 * is exact -- abs and max only select, the multiply is the same IEEE
 * single-precision product in every lane, and rounding to a level is
 * round-to-nearest-even whether `cvtps2dq` or the scalar 1.5 * 2^23
 * add-subtract does it -- so the quantized levels do not depend on the
 * build target or the kernel ISA, and they need no kernel-table slot.
 *
 * Threading: the plan itself is immutable after build and shared
 * freely; all mutable state (the arena) lives in a `PlanContext`, one
 * per concurrent caller, reused across requests.  A context may also
 * carry a fork-join team (`PlanContext::setTeam`, nn/team.hh): a conv
 * or fc step whose m*k*n reaches `kSplitMacs` is then split across the
 * caller and whatever helpers the team lends.  The GEMM splits by
 * output columns, in 16-aligned chunks of at least 64 (1024 on the
 * quantized path, whose GEMM is many times faster per column); fp32 im2col
 * splits by input-channel blocks; the quantized path's quantize (and
 * its int8 im2col) splits by channel block, and each column chunk
 * runs its own dequantize epilogue.  Every chunk writes only its own
 * slice and a column's bits do not depend on the call width, so a
 * split run is bit-identical to an unsplit one.  The batch-coalesced
 * conv branch is not split.
 */

#ifndef FPSA_NN_PLAN_HH
#define FPSA_NN_PLAN_HH

#include <cstdint>
#include <vector>

#include "common/status.hh"
#include "nn/graph.hh"
#include "nn/team.hh"
#include "tensor/kernels.hh"

namespace fpsa
{

/** How a plan executes: numeric mode + pinned kernel variant. */
struct PlanOptions
{
    PrecisionMode precision = PrecisionMode::Fp32;
    KernelIsa kernelIsa = KernelIsa::Auto;
};

/**
 * Reusable per-caller scratch for one plan: the activation arena plus
 * the im2col/staging buffers.  Created by `ExecutionPlan::makeContext`
 * and grown (the only allocations on the planned path) when a larger
 * batch arrives than the context has served before.
 */
class PlanContext
{
  public:
    /** Largest batch this context can serve without reallocating. */
    int batchCapacity() const { return batchCapacity_; }

    /**
     * Split large steps of the runs through this context across
     * `team` (null, the default, runs every step on the caller).  The
     * team must outlive those runs; the context does not own it.
     */
    void setTeam(PlanTeam *team) { team_ = team; }
    PlanTeam *team() const { return team_; }

  private:
    friend class ExecutionPlan;
    PlanTeam *team_ = nullptr;
    std::vector<float> arena_;   //!< node activations, sample-major
    std::vector<float> columns_; //!< fp32 im2col of the widest conv
    std::vector<float> stage_;   //!< batched-GEMM output staging
    // Quantized-path scratch (sized only when the plan is int8/int6).
    std::vector<std::int8_t> qact_;     //!< int8 columns / fc inputs
    std::vector<std::int8_t> qinput_;   //!< one quantized conv input
    std::vector<std::int32_t> stage32_; //!< int32 GEMM accumulators
    std::vector<float> scales_;         //!< per-sample activation scales
    int batchCapacity_ = 0;
};

/**
 * The largest |p[v]| over `n` floats (NaN elements are skipped, as in
 * a `std::max` fold from 0).  The quantized plan's per-sample scale
 * scan; exact, so its result does not depend on the build target.
 */
float absMaxOf(const float *p, std::int64_t n);

/**
 * Symmetric quantization of `n` floats to int8 levels with a
 * precomputed multiplier (`qmax / absmax`, or 0 for an all-zero
 * source): each level is src * mult clamped to [-qmax, qmax] and
 * rounded to nearest, ties to even (NaN gives level 0), the same
 * levels as `std::lrintf` followed by a clamp wherever lrintf's result
 * fits an int32.  `qmax` is at most 127.
 */
void quantizeTo(const float *src, std::int8_t *dst, std::int64_t n,
                float mult, std::int32_t qmax);

/** A compiled, immutable execution schedule for one graph. */
class ExecutionPlan
{
  public:
    /**
     * A conv or fc step splits across a context's team when its GEMM's
     * m*k*n (per sample and group for a conv, whole-batch for an fc)
     * reaches this many multiply-adds.
     */
    static constexpr std::int64_t kSplitMacs = std::int64_t{1} << 22;

    /**
     * Compile `graph` into a plan.  Requires materialized conv/fc
     * weights and a single Input head; returns `InvalidArgument`
     * otherwise.  The plan copies everything it needs (shapes, packed
     * weights) and does not reference the graph afterwards.
     *
     * `options.kernelIsa` is resolved against this machine once, here,
     * and pinned for the plan's lifetime; `options.precision` selects
     * the fp32 or quantized data path (weights are quantized during
     * this call, so serving allocates nothing).
     */
    static StatusOr<ExecutionPlan> build(const Graph &graph,
                                         const PlanOptions &options);
    static StatusOr<ExecutionPlan> build(const Graph &graph);

    const Shape &inputShape() const { return inputShape_; }
    const Shape &outputShape() const { return outputShape_; }
    std::int64_t inputNumel() const { return inputNumel_; }
    std::int64_t outputNumel() const { return outputNumel_; }

    /** Numeric mode this plan was built for. */
    PrecisionMode precision() const { return precision_; }

    /** The resolved (never Auto) kernel variant pinned at build. */
    KernelIsa kernelIsa() const { return kernels_->isa; }

    /** Arena floats needed per sample (sum of live buffer peaks). */
    std::int64_t arenaFloatsPerSample() const { return arenaFloats_; }

    /** Allocate a context sized for batches up to `maxBatch`. */
    PlanContext makeContext(int maxBatch = 1) const;

    /**
     * Execute one sample: `input` holds inputNumel() floats, `output`
     * receives outputNumel().  Performs no heap allocation when
     * `context` has served a batch this size before.
     */
    void run(const float *input, float *output,
             PlanContext &context) const;

    /**
     * Execute `batch` samples as one multi-column GEMM per layer.
     * Per-sample results are bit-identical to single-sample `run`.
     */
    void runBatch(const float *const *inputs, float *const *outputs,
                  int batch, PlanContext &context) const;

  private:
    /** One scheduled op; offsets are per-sample arena positions. */
    struct Step
    {
        OpKind kind = OpKind::Input;
        NodeId node = -1;
        std::int64_t out = 0;
        std::int64_t outNumel = 0;
        std::vector<std::int64_t> in;      //!< per-input arena offset
        std::vector<std::int64_t> inNumel;

        // Conv / pool / fc geometry (subset used per kind).
        std::int64_t ci = 0, hi = 0, wi = 0;
        std::int64_t co = 0, ho = 0, wo = 0;
        std::int64_t kernel = 0, stride = 1, pad = 0, groups = 1;
        int weight = -1;   //!< index into weights_
        bool relu = false; //!< conv/fc: a fused ReLU in the epilogue
    };

    ExecutionPlan() = default;

    void ensureCapacity(PlanContext &context, int batch) const;

    void execConv(const Step &s, int nb, PlanContext &ctx) const;
    void execFullyConnected(const Step &s, int nb,
                            PlanContext &ctx) const;
    void execConvInt8(const Step &s, int nb, PlanContext &ctx) const;
    void execFullyConnectedInt8(const Step &s, int nb,
                                PlanContext &ctx) const;
    void execPool(const Step &s, int nb, PlanContext &ctx,
                  bool average) const;

    std::vector<Step> steps_;
    std::vector<std::vector<float>> weights_; //!< packed GEMM panels

    // Quantized path (empty for Fp32 plans): per-layer int8 panels in
    // the same layout as weights_, with one symmetric scale per output
    // channel (conv panel row, fc panel column).
    std::vector<std::vector<std::int8_t>> qweights_;
    std::vector<std::vector<float>> wscales_;

    PrecisionMode precision_ = PrecisionMode::Fp32;
    const KernelTable *kernels_ = nullptr; //!< pinned at build
    float actQmax_ = 0.0f; //!< activation quant ceiling (127 or 31)

    Shape inputShape_, outputShape_;
    std::int64_t inputNumel_ = 0, outputNumel_ = 0;
    std::int64_t inputOffset_ = 0, outputOffset_ = 0;
    std::int64_t arenaFloats_ = 0;
    std::int64_t columnsFloats_ = 0; //!< widest fp32 im2col, per sample
    std::int64_t stageFloats_ = 0;   //!< widest conv output, per sample
    std::int64_t qactElems_ = 0;   //!< int8 scratch per sample
    std::int64_t qinputElems_ = 0; //!< widest quantized conv input
    std::int64_t stage32Ints_ = 0; //!< int32 staging per sample
};

} // namespace fpsa

#endif // FPSA_NN_PLAN_HH
