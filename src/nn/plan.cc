#include "nn/plan.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/logging.hh"

#if defined(__SSE2__)
#define FPSA_PLAN_SSE2 1
#include <emmintrin.h>
#endif

namespace fpsa
{

namespace
{

/** Identity ops erased into buffer aliases instead of scheduled. */
bool
isAliasOp(OpKind kind)
{
    return kind == OpKind::Flatten || kind == OpKind::BatchNorm;
}

/**
 * First-fit arena allocator over per-sample float offsets.  Holes
 * below the high-water mark are kept sorted and merged; the peak of
 * `top_` is the arena size the plan needs.
 */
class ArenaAllocator
{
  public:
    std::int64_t
    allocate(std::int64_t size)
    {
        for (std::size_t i = 0; i < holes_.size(); ++i) {
            auto &[off, len] = holes_[i];
            if (len >= size) {
                const std::int64_t at = off;
                off += size;
                len -= size;
                if (len == 0)
                    holes_.erase(holes_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                return at;
            }
        }
        const std::int64_t at = top_;
        top_ += size;
        peak_ = std::max(peak_, top_);
        return at;
    }

    void
    release(std::int64_t off, std::int64_t size)
    {
        if (off + size == top_) {
            top_ = off;
            while (!holes_.empty() &&
                   holes_.back().first + holes_.back().second == top_) {
                top_ = holes_.back().first;
                holes_.pop_back();
            }
            return;
        }
        auto it = std::lower_bound(
            holes_.begin(), holes_.end(), std::make_pair(off, size));
        it = holes_.insert(it, {off, size});
        // Merge with the next hole, then the previous one.
        auto next = it + 1;
        if (next != holes_.end() && it->first + it->second == next->first) {
            it->second += next->second;
            it = holes_.erase(next) - 1;
        }
        if (it != holes_.begin()) {
            auto prev = it - 1;
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                holes_.erase(it);
            }
        }
    }

    std::int64_t peak() const { return peak_; }

  private:
    std::vector<std::pair<std::int64_t, std::int64_t>> holes_;
    std::int64_t top_ = 0;
    std::int64_t peak_ = 0;
};

Status
invalid(const std::string &why)
{
    return Status::error(StatusCode::InvalidArgument,
                         "execution plan: " + why);
}

/** std::max(0.0f, x), branch-free: -0.0 and NaN give +0.0. */
inline float
reluOf(float x)
{
    return x > 0.0f ? x : 0.0f;
}

/** std::max(acc, v), branch-free (maxss). */
inline float
maxOf(float acc, float v)
{
    return v > acc ? v : acc;
}

/** dst[v] = max(0, src[v]) over `n` floats; `dst` may be `src`. */
void
reluTo(const float *src, float *dst, std::int64_t n)
{
    std::int64_t v = 0;
#if FPSA_PLAN_SSE2
    const __m128 zero = _mm_setzero_ps();
    for (; v + 8 <= n; v += 8) {
        // maxps returns its second operand when either is NaN.
        const __m128 a = _mm_max_ps(_mm_loadu_ps(src + v), zero);
        const __m128 b = _mm_max_ps(_mm_loadu_ps(src + v + 4), zero);
        _mm_storeu_ps(dst + v, a);
        _mm_storeu_ps(dst + v + 4, b);
    }
#endif
    for (; v < n; ++v)
        dst[v] = reluOf(src[v]);
}

/**
 * The dequantize epilogue: dst[v] = float(src[v]) * f over `n`
 * accumulators, then max(0, .) when `relu` is set.
 */
void
dequantizeTo(const std::int32_t *src, float *dst, std::int64_t n,
             float f, bool relu)
{
    std::int64_t v = 0;
#if FPSA_PLAN_SSE2
    const __m128 vf = _mm_set1_ps(f), zero = _mm_setzero_ps();
    for (; v + 4 <= n; v += 4) {
        __m128 x = _mm_mul_ps(
            _mm_cvtepi32_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + v))),
            vf);
        if (relu)
            x = _mm_max_ps(x, zero);
        _mm_storeu_ps(dst + v, x);
    }
#endif
    for (; v < n; ++v) {
        const float x = static_cast<float>(src[v]) * f;
        dst[v] = relu ? reluOf(x) : x;
    }
}

/**
 * Per-output-channel symmetric int8 quantization of one packed weight
 * panel: channel c holds the `length` values at panel[c * chStride +
 * e * elemStride], snapped against its own absmax.  Writes the levels
 * into `out` (the panel's layout) and one scale per channel into
 * `scales` (0 for an all-zero channel).
 */
void
quantizeChannels(const std::vector<float> &panel, std::int64_t channels,
                 std::int64_t length, std::int64_t chStride,
                 std::int64_t elemStride, std::vector<std::int8_t> &out,
                 std::vector<float> &scales)
{
    constexpr std::int32_t kQmax = 127;
    out.assign(panel.size(), std::int8_t{0});
    scales.assign(static_cast<std::size_t>(channels), 0.0f);
    for (std::int64_t c = 0; c < channels; ++c) {
        const float *src = panel.data() + c * chStride;
        float absmax = 0.0f;
        for (std::int64_t e = 0; e < length; ++e)
            absmax = std::max(absmax, std::fabs(src[e * elemStride]));
        if (absmax == 0.0f)
            continue;
        const float scale = absmax / static_cast<float>(kQmax);
        const float mult = 1.0f / scale;
        std::int8_t *dst = out.data() + c * chStride;
        for (std::int64_t e = 0; e < length; ++e)
            quantizeTo(src + e * elemStride, dst + e * elemStride, 1,
                       mult, kQmax);
        scales[static_cast<std::size_t>(c)] = scale;
    }
}

} // namespace

float
absMaxOf(const float *p, std::int64_t n)
{
    float m = 0.0f;
    std::int64_t v = 0;
#if FPSA_PLAN_SSE2
    // |x| by clearing the sign bit; maxps(|x|, m) keeps m when |x| is
    // NaN, like the scalar fold below.  Four accumulators keep four
    // maxps in flight; max is exact and order-free, so the lanes'
    // reduction gives the scalar fold's result.
    const __m128 sign = _mm_set1_ps(-0.0f);
    __m128 m0 = _mm_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
    for (; v + 16 <= n; v += 16) {
        m0 = _mm_max_ps(_mm_andnot_ps(sign, _mm_loadu_ps(p + v)), m0);
        m1 = _mm_max_ps(_mm_andnot_ps(sign, _mm_loadu_ps(p + v + 4)), m1);
        m2 = _mm_max_ps(_mm_andnot_ps(sign, _mm_loadu_ps(p + v + 8)), m2);
        m3 = _mm_max_ps(_mm_andnot_ps(sign, _mm_loadu_ps(p + v + 12)),
                        m3);
    }
    for (; v + 4 <= n; v += 4)
        m0 = _mm_max_ps(_mm_andnot_ps(sign, _mm_loadu_ps(p + v)), m0);
    m0 = _mm_max_ps(_mm_max_ps(m0, m1), _mm_max_ps(m2, m3));
    m0 = _mm_max_ps(m0, _mm_movehl_ps(m0, m0));
    m0 = _mm_max_ss(m0, _mm_shuffle_ps(m0, m0, 1));
    m = _mm_cvtss_f32(m0);
#endif
    for (; v < n; ++v)
        m = maxOf(m, std::fabs(p[v]));
    return m;
}

void
quantizeTo(const float *src, std::int8_t *dst, std::int64_t n,
           float mult, std::int32_t qmax)
{
    const float hi = static_cast<float>(qmax), lo = -hi;
    std::int64_t v = 0;
#if FPSA_PLAN_SSE2
    // Per lane: the product, NaN -> +0 (cmpord mask), clamp, then
    // cvtps2dq rounds to nearest even under the default MXCSR; the
    // clamped levels fit int8, so the saturating packs only narrow.
    const __m128 vm = _mm_set1_ps(mult);
    const __m128 vlo = _mm_set1_ps(lo), vhi = _mm_set1_ps(hi);
    const auto level = [&](const float *s) {
        __m128 x = _mm_mul_ps(_mm_loadu_ps(s), vm);
        x = _mm_and_ps(x, _mm_cmpord_ps(x, x));
        return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(x, vlo), vhi));
    };
    for (; v + 16 <= n; v += 16) {
        const __m128i a =
            _mm_packs_epi32(level(src + v), level(src + v + 4));
        const __m128i b =
            _mm_packs_epi32(level(src + v + 8), level(src + v + 12));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + v),
                         _mm_packs_epi16(a, b));
    }
#endif
    // Adding and subtracting 1.5 * 2^23 rounds any |x| <= 2^22 to the
    // nearest integer, ties to even: the sum lands where the float
    // spacing is 1, and the offset is even.
    constexpr float kRound = 12582912.0f;
    for (; v < n; ++v) {
        float x = src[v] * mult;
        x = x == x ? x : 0.0f;
        x = std::min(std::max(x, lo), hi);
        dst[v] = static_cast<std::int8_t>(
            static_cast<std::int32_t>((x + kRound) - kRound));
    }
}

StatusOr<ExecutionPlan>
ExecutionPlan::build(const Graph &graph)
{
    return build(graph, PlanOptions{});
}

StatusOr<ExecutionPlan>
ExecutionPlan::build(const Graph &graph, const PlanOptions &options)
{
    if (graph.size() == 0)
        return invalid("empty graph");
    const std::vector<NodeId> order = graph.topoOrder();

    ExecutionPlan plan;
    plan.precision_ = options.precision;
    plan.kernels_ = &kernelTable(options.kernelIsa);
    const int act_bits = precisionActivationBits(options.precision);
    plan.actQmax_ =
        act_bits > 0 ? static_cast<float>((1 << (act_bits - 1)) - 1)
                     : 0.0f;

    // ---- ReLU fusion: a Relu whose input is a conv or fc node with no
    // other consumer runs in that step's epilogue, and the Relu node
    // becomes an alias of the step's buffer (nothing else reads the
    // pre-activation values).
    std::vector<int> consumers(graph.size(), 0);
    for (NodeId id : order)
        for (NodeId in : graph.node(id).inputs)
            ++consumers[static_cast<std::size_t>(in)];
    std::vector<bool> fusedRelu(graph.size(), false);   // Relu nodes
    std::vector<bool> reluEpilogue(graph.size(), false); // conv/fc nodes
    for (NodeId id : order) {
        const GraphNode &n = graph.node(id);
        if (n.kind != OpKind::Relu || n.inputs.size() != 1)
            continue;
        const NodeId in = n.inputs[0];
        const OpKind producer = graph.node(in).kind;
        if ((producer == OpKind::Conv2d ||
             producer == OpKind::FullyConnected) &&
            consumers[static_cast<std::size_t>(in)] == 1) {
            fusedRelu[static_cast<std::size_t>(id)] = true;
            reluEpilogue[static_cast<std::size_t>(in)] = true;
        }
    }
    const auto aliased = [&](NodeId id) {
        return isAliasOp(graph.node(id).kind) ||
               fusedRelu[static_cast<std::size_t>(id)];
    };

    // ---- Liveness: map every node to a buffer (aliases share their
    // input's), then find each buffer's defining and last-using
    // schedule positions.
    struct Buffer
    {
        std::int64_t size = 0;
        std::size_t def = 0;
        std::size_t lastUse = 0;
        std::int64_t offset = -1;
    };
    std::vector<Buffer> buffers;
    std::vector<int> nodeBuffer(graph.size(), -1);

    for (std::size_t p = 0; p < order.size(); ++p) {
        const NodeId id = order[p];
        const GraphNode &n = graph.node(id);
        if (n.kind == OpKind::Input && p != 0)
            return invalid("graph has more than one input node");
        if (p == 0 && n.kind != OpKind::Input)
            return invalid("graph is not headed by an input node");
        for (NodeId in : n.inputs) {
            const int buf = nodeBuffer[static_cast<std::size_t>(in)];
            if (buf < 0)
                return invalid("node '" + n.name +
                               "' consumes an unscheduled input");
            buffers[static_cast<std::size_t>(buf)].lastUse =
                std::max(buffers[static_cast<std::size_t>(buf)].lastUse,
                         p);
        }
        if (aliased(id)) {
            const int buf =
                nodeBuffer[static_cast<std::size_t>(n.inputs[0])];
            if (shapeNumel(n.outShape) !=
                buffers[static_cast<std::size_t>(buf)].size) {
                return invalid("alias op '" + n.name +
                               "' changes element count");
            }
            nodeBuffer[static_cast<std::size_t>(id)] = buf;
        } else {
            Buffer b;
            b.size = shapeNumel(n.outShape);
            b.def = p;
            b.lastUse = p;
            nodeBuffer[static_cast<std::size_t>(id)] =
                static_cast<int>(buffers.size());
            buffers.push_back(b);
        }
    }
    // The final node's activation is the request output: pin it live.
    buffers[static_cast<std::size_t>(
                nodeBuffer[static_cast<std::size_t>(order.back())])]
        .lastUse = std::numeric_limits<std::size_t>::max();

    // ---- Arena assignment: sweep the schedule, releasing buffers
    // whose last consumer has run before placing the position's new
    // definition, so lifetimes never overlap in the arena.
    std::vector<std::vector<int>> expiring(order.size() + 1);
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        if (buffers[i].lastUse < order.size())
            expiring[buffers[i].lastUse + 1].push_back(
                static_cast<int>(i));
    }
    ArenaAllocator arena;
    std::vector<int> defAt(order.size(), -1);
    for (std::size_t i = 0; i < buffers.size(); ++i)
        defAt[buffers[i].def] = static_cast<int>(i);
    for (std::size_t p = 0; p < order.size(); ++p) {
        for (int buf : expiring[p]) {
            arena.release(buffers[static_cast<std::size_t>(buf)].offset,
                          buffers[static_cast<std::size_t>(buf)].size);
        }
        if (defAt[p] >= 0) {
            Buffer &b = buffers[static_cast<std::size_t>(defAt[p])];
            b.offset = arena.allocate(b.size);
        }
    }
    plan.arenaFloats_ = arena.peak();

    // ---- Schedule + packed weights.
    const auto offsetOf = [&](NodeId id) {
        return buffers[static_cast<std::size_t>(
                           nodeBuffer[static_cast<std::size_t>(id)])]
            .offset;
    };
    for (std::size_t p = 0; p < order.size(); ++p) {
        const NodeId id = order[p];
        const GraphNode &n = graph.node(id);
        if (aliased(id))
            continue;
        Step s;
        s.kind = n.kind;
        s.node = id;
        s.relu = reluEpilogue[static_cast<std::size_t>(id)];
        s.out = offsetOf(id);
        s.outNumel = shapeNumel(n.outShape);
        for (NodeId in : n.inputs) {
            s.in.push_back(offsetOf(in));
            s.inNumel.push_back(shapeNumel(graph.node(in).outShape));
        }

        switch (n.kind) {
          case OpKind::Input:
            plan.inputShape_ = n.outShape;
            plan.inputNumel_ = s.outNumel;
            plan.inputOffset_ = s.out;
            break;
          case OpKind::Conv2d: {
            const Shape &in = graph.node(n.inputs[0]).outShape;
            s.ci = in[0];
            s.hi = in[1];
            s.wi = in[2];
            s.co = n.outShape[0];
            s.ho = n.outShape[1];
            s.wo = n.outShape[2];
            s.kernel = n.attrs.kernel;
            s.stride = n.attrs.stride;
            s.pad = n.attrs.pad;
            s.groups = n.attrs.groups;
            if (s.groups < 1 || s.ci % s.groups != 0 ||
                s.co % s.groups != 0)
                return invalid("conv '" + n.name +
                               "' has indivisible groups");
            const std::int64_t kk =
                (s.ci / s.groups) * s.kernel * s.kernel;
            if (!n.weights.has_value() ||
                n.weights->numel() != s.co * kk)
                return invalid("conv '" + n.name +
                               "' is missing matching weights");
            // OIHW rows are already im2col-ready [co x ci_g*kh*kw]
            // panels, with each group's co/groups rows contiguous:
            // copying once here pre-slices every group.
            s.weight = static_cast<int>(plan.weights_.size());
            plan.weights_.emplace_back(
                n.weights->data(), n.weights->data() + n.weights->numel());
            plan.columnsFloats_ = std::max(plan.columnsFloats_,
                                           kk * s.ho * s.wo);
            plan.stageFloats_ =
                std::max(plan.stageFloats_,
                         (s.co / s.groups) * s.ho * s.wo);
            break;
          }
          case OpKind::FullyConnected: {
            const std::int64_t in_numel = s.inNumel[0];
            s.co = n.attrs.units;
            s.ci = in_numel;
            if (!n.weights.has_value() ||
                n.weights->numel() != s.co * in_numel)
                return invalid("fc '" + n.name +
                               "' is missing matching weights");
            // Pack W^T [in x units] so a sample-major batch of inputs
            // ([B x in], contiguous in the arena by construction) is
            // the GEMM's left operand with no gather at all.
            s.weight = static_cast<int>(plan.weights_.size());
            std::vector<float> wt(
                static_cast<std::size_t>(in_numel * s.co));
            const float *w = n.weights->data();
            for (std::int64_t u = 0; u < s.co; ++u)
                for (std::int64_t r = 0; r < in_numel; ++r)
                    wt[static_cast<std::size_t>(r * s.co + u)] =
                        w[u * in_numel + r];
            plan.weights_.push_back(std::move(wt));
            break;
          }
          case OpKind::MaxPool:
          case OpKind::AvgPool: {
            const Shape &in = graph.node(n.inputs[0]).outShape;
            s.ci = in[0];
            s.hi = in[1];
            s.wi = in[2];
            s.co = n.outShape[0];
            s.ho = n.outShape[1];
            s.wo = n.outShape[2];
            s.kernel = n.attrs.kernel;
            s.stride = n.attrs.stride;
            s.pad = n.attrs.pad;
            break;
          }
          case OpKind::GlobalAvgPool: {
            const Shape &in = graph.node(n.inputs[0]).outShape;
            s.ci = in[0];
            s.hi = in[1];
            s.wi = in[2];
            break;
          }
          case OpKind::Concat: // per-input block copies; no geometry
          case OpKind::Relu:
          case OpKind::Add:
          case OpKind::Flatten:
          case OpKind::BatchNorm:
            break;
        }
        plan.steps_.push_back(std::move(s));
    }

    const GraphNode &last = graph.node(order.back());
    plan.outputShape_ = last.outShape;
    plan.outputNumel_ = shapeNumel(last.outShape);
    plan.outputOffset_ = offsetOf(order.back());

    // ---- Quantized path: snap every packed panel to int8 now (one
    // symmetric scale per output channel: a conv panel row, an fc panel
    // column) and size the int8/int32 scratch, so serving never
    // allocates.  The fp32 panels are then dead weight and released.
    if (plan.precision_ != PrecisionMode::Fp32) {
        plan.qweights_.resize(plan.weights_.size());
        plan.wscales_.resize(plan.weights_.size());
        for (const Step &s : plan.steps_) {
            if (s.weight < 0)
                continue;
            const auto w = static_cast<std::size_t>(s.weight);
            if (s.kind == OpKind::Conv2d) {
                const std::int64_t kk =
                    (s.ci / s.groups) * s.kernel * s.kernel;
                quantizeChannels(plan.weights_[w], s.co, kk, kk, 1,
                                 plan.qweights_[w], plan.wscales_[w]);
            } else {
                quantizeChannels(plan.weights_[w], s.co, s.ci, 1, s.co,
                                 plan.qweights_[w], plan.wscales_[w]);
            }
            std::vector<float>().swap(plan.weights_[w]);
        }
        for (const Step &s : plan.steps_) {
            if (s.kind == OpKind::Conv2d) {
                const std::int64_t ci_g = s.ci / s.groups;
                const std::int64_t co_g = s.co / s.groups;
                const std::int64_t kk = ci_g * s.kernel * s.kernel;
                plan.qactElems_ = std::max(plan.qactElems_,
                                           kk * s.ho * s.wo);
                plan.qinputElems_ = std::max(plan.qinputElems_,
                                             ci_g * s.hi * s.wi);
                plan.stage32Ints_ = std::max(plan.stage32Ints_,
                                             co_g * s.ho * s.wo);
            } else if (s.kind == OpKind::FullyConnected) {
                plan.qactElems_ = std::max(plan.qactElems_, s.ci);
                plan.stage32Ints_ = std::max(plan.stage32Ints_, s.co);
            }
        }
        // The fp32 im2col and staging buffers are only used by the fp32
        // path; the quantized path packs int8 columns and stages in
        // int32.
        plan.columnsFloats_ = 0;
        plan.stageFloats_ = 0;
    }
    return plan;
}

PlanContext
ExecutionPlan::makeContext(int maxBatch) const
{
    PlanContext context;
    ensureCapacity(context, std::max(1, maxBatch));
    return context;
}

void
ExecutionPlan::ensureCapacity(PlanContext &context, int batch) const
{
    if (batch <= context.batchCapacity_)
        return;
    const std::int64_t b = batch;
    context.arena_.resize(static_cast<std::size_t>(arenaFloats_ * b));
    context.columns_.resize(
        static_cast<std::size_t>(columnsFloats_ * b));
    context.stage_.resize(static_cast<std::size_t>(stageFloats_ * b));
    context.qact_.resize(static_cast<std::size_t>(qactElems_ * b));
    context.qinput_.resize(static_cast<std::size_t>(qinputElems_));
    context.stage32_.resize(
        static_cast<std::size_t>(stage32Ints_ * b));
    context.scales_.resize(
        static_cast<std::size_t>(qactElems_ > 0 ? b : 0));
    context.batchCapacity_ = batch;
}

void
ExecutionPlan::run(const float *input, float *output,
                   PlanContext &context) const
{
    runBatch(&input, &output, 1, context);
}

namespace
{

/**
 * Batched conv strategy cutoff: below this many output positions per
 * sample the GEMM is column-starved, so coalescing the whole batch
 * into one multi-column GEMM (re-streaming the weight panel once
 * instead of per sample) wins.  Above it the per-sample column count
 * already amortizes the weight traffic and the combined im2col matrix
 * stops fitting in cache, so samples run back-to-back against the
 * same packed panel instead.  Either way each output column's
 * accumulation order is fixed (tensor/kernels.hh), keeping batched
 * results bit-identical to single-sample runs.
 *
 * Re-tuned from 256 when the kernels went vector: a narrow GEMM
 * cannot fill SIMD lanes, so coalescing pays up to wider layers than
 * it did with scalar kernels (LeNet's 24x24 conv outputs now coalesce
 * and its batched speedup rose ~12%; conv stacks with >= 32x32
 * outputs are weight-amortized already and memory-bound, where
 * coalescing measurably hurts).
 */
constexpr std::int64_t kCoalesceColumns = 1024;

/**
 * `n` GEMM output columns, split in 16-aligned chunks of at least 64
 * columns, or 1024 on the quantized path: where its int8 GEMM runs on
 * AMX tiles it does many times the multiply-adds per second of the
 * fp32 one, so a chunk needs far more columns to outweigh what a split
 * costs (waking a helper, repacking the weights per call, cold caches).
 * Measured on a 4-vCPU x86 VM with AMX, one VGG17 int8 request alone
 * against split across a 3-lane `HelperPool`: in 256-column chunks
 * 1.14 ms alone against 1.18-1.24 ms split for ~18% more CPU, in
 * 512-column chunks 1.14-1.18 against 1.22-1.24; at 1024 VGG17's
 * widest (1024-column) convs stay whole.  The fleet CNN's 4096- and
 * 16384-column convs still gain from 1024-column chunks: 2.39-2.55 ms
 * alone against 2.07-2.20 split, for ~25% more CPU.
 */
SplitRange
columnRange(std::int64_t n, bool quantized)
{
    return SplitRange{n, 16, quantized ? 64 : 4};
}

/** `n` input channels, split in blocks of whole channels. */
SplitRange
channelRange(std::int64_t n)
{
    return SplitRange{n, 1, 1};
}

/**
 * The context's team when a GEMM of `macs` multiply-adds over the
 * columns `columns` should split: it is large, and its columns can be
 * cut at least in two (a split im2col alone does not pay).
 */
PlanTeam *
splitTeam(const PlanContext &ctx, std::int64_t macs,
          const SplitRange &columns)
{
    return macs >= ExecutionPlan::kSplitMacs && columns.maxChunks() >= 2
               ? ctx.team()
               : nullptr;
}

} // namespace

void
ExecutionPlan::execConv(const Step &s, int nb, PlanContext &ctx) const
{
    const std::int64_t b = nb;
    const std::int64_t ci_g = s.ci / s.groups, co_g = s.co / s.groups;
    const std::int64_t kk = ci_g * s.kernel * s.kernel;
    const std::int64_t hw = s.ho * s.wo;
    const float *in_base = ctx.arena_.data() + s.in[0] * b;
    float *out_base = ctx.arena_.data() + s.out * b;
    const float *w_all = weights_[static_cast<std::size_t>(s.weight)]
                             .data();
    const bool identity =
        s.kernel == 1 && s.stride == 1 && s.pad == 0;
    const bool coalesce = b > 1 && hw < kCoalesceColumns;
    const SplitRange columns = columnRange(hw, false);
    PlanTeam *team = splitTeam(ctx, co_g * kk * hw, columns);

    for (std::int64_t g = 0; g < s.groups; ++g) {
        const float *wg = w_all + g * co_g * kk;
        if (coalesce) {
            // One multi-column GEMM across the whole batch, then
            // un-interleave rows back to sample-major activations (the
            // fused ReLU, if any, rides the copy).
            float *pack = ctx.columns_.data();
            const std::int64_t ldm = b * hw;
            for (std::int64_t i = 0; i < b; ++i) {
                kernels_->im2colChw(in_base + i * s.inNumel[0] +
                                        g * ci_g * s.hi * s.wi,
                                    ci_g, s.hi, s.wi, s.kernel,
                                    s.kernel, s.stride, s.pad, s.ho,
                                    s.wo, pack + i * hw, ldm,
                                    0.0f);
            }
            float *stage = ctx.stage_.data();
            kernels_->gemmRowMajor(wg, kk, pack, ldm, stage, ldm, co_g,
                                   kk, ldm);
            for (std::int64_t oc = 0; oc < co_g; ++oc) {
                for (std::int64_t i = 0; i < b; ++i) {
                    const float *src = stage + oc * ldm + i * hw;
                    float *dst =
                        out_base + i * s.outNumel + (g * co_g + oc) * hw;
                    if (s.relu)
                        reluTo(src, dst, hw);
                    else
                        std::memcpy(dst, src,
                                    static_cast<std::size_t>(hw) *
                                        sizeof(float));
                }
            }
            continue;
        }
        // Wide layers: per-sample GEMM straight into the activation
        // arena (no staging); the im2col pack is reused sample by
        // sample and stays cache-resident.  With a team, im2col splits
        // by input-channel blocks, then the GEMM by output columns; a
        // fused ReLU runs on each column chunk right after its GEMM.
        for (std::int64_t i = 0; i < b; ++i) {
            const float *sample_in =
                in_base + i * s.inNumel[0] + g * ci_g * s.hi * s.wi;
            float *packed = ctx.columns_.data();
            const float *cols = identity ? sample_in : packed;
            float *out = out_base + i * s.outNumel + g * co_g * hw;
            forkJoin(
                team, channelRange(identity ? 0 : ci_g),
                [&](std::int64_t c0, std::int64_t c1) {
                    kernels_->im2colChw(
                        sample_in + c0 * s.hi * s.wi, c1 - c0, s.hi, s.wi,
                        s.kernel, s.kernel, s.stride, s.pad, s.ho, s.wo,
                        packed + c0 * s.kernel * s.kernel * hw, hw, 0.0f);
                },
                columns,
                [&](std::int64_t x0, std::int64_t x1) {
                    kernels_->gemmRowMajor(wg, kk, cols + x0, hw, out + x0,
                                           hw, co_g, kk, x1 - x0);
                    if (s.relu)
                        for (std::int64_t oc = 0; oc < co_g; ++oc)
                            reluTo(out + oc * hw + x0, out + oc * hw + x0,
                                   x1 - x0);
                });
        }
    }
}

void
ExecutionPlan::execFullyConnected(const Step &s, int nb,
                                  PlanContext &ctx) const
{
    const std::int64_t b = nb;
    const float *in_base = ctx.arena_.data() + s.in[0] * b;
    float *out_base = ctx.arena_.data() + s.out * b;
    const float *wt = weights_[static_cast<std::size_t>(s.weight)]
                          .data();
    // Inputs are sample-major and contiguous: [b x in] times the
    // pre-transposed [in x units] panel is the whole batch in one GEMM
    // (split by output units with a team).
    const SplitRange units = columnRange(s.co, false);
    forkJoin(splitTeam(ctx, b * s.ci * s.co, units), units,
             [&](std::int64_t u0, std::int64_t u1) {
                 kernels_->gemmRowMajor(in_base, s.ci, wt + u0, s.co,
                                        out_base + u0, s.co, b, s.ci,
                                        u1 - u0);
                 if (s.relu)
                     for (std::int64_t i = 0; i < b; ++i)
                         reluTo(out_base + i * s.co + u0,
                                out_base + i * s.co + u0, u1 - u0);
             });
}

void
ExecutionPlan::execConvInt8(const Step &s, int nb,
                            PlanContext &ctx) const
{
    const std::int64_t b = nb;
    const std::int64_t ci_g = s.ci / s.groups, co_g = s.co / s.groups;
    const std::int64_t kk = ci_g * s.kernel * s.kernel;
    const std::int64_t hw = s.ho * s.wo;
    const std::int64_t in_g = ci_g * s.hi * s.wi;
    const float *in_base = ctx.arena_.data() + s.in[0] * b;
    float *out_base = ctx.arena_.data() + s.out * b;
    const std::int8_t *w_all =
        qweights_[static_cast<std::size_t>(s.weight)].data();
    const float *sw = wscales_[static_cast<std::size_t>(s.weight)].data();
    const bool identity =
        s.kernel == 1 && s.stride == 1 && s.pad == 0;
    const bool coalesce = b > 1 && hw < kCoalesceColumns;
    const std::int32_t qmax = static_cast<std::int32_t>(actQmax_);
    const SplitRange columns = columnRange(hw, true);
    PlanTeam *team = splitTeam(ctx, co_g * kk * hw, columns);

    // A sample's activation scale against its group input's absmax, and
    // the multiplier that quantizes to it (both 0 for an all-zero
    // input).
    struct ActScale
    {
        float scale = 0.0f, mult = 0.0f;
    };
    const auto scaleOf = [&](const float *sample_in) {
        const float absmax = absMaxOf(sample_in, in_g);
        ActScale a;
        if (absmax > 0.0f) {
            a.scale = absmax / actQmax_;
            a.mult = 1.0f / a.scale;
        }
        return a;
    };
    // Quantize input channels [c0, c1) of one sample's group input
    // with multiplier `mult` and pack their int8 columns at `cols`
    // (leading stride `ldm`).  Quantizing commutes with im2col --
    // packing only copies, and a padded 0.0 quantizes to level 0 -- so
    // quantizing the input once (kernel^2 fewer elements than its
    // columns) gives exactly the levels the columns would get.
    const std::int64_t plane = s.hi * s.wi;
    const auto pack = [&](const float *sample_in, float mult,
                          std::int8_t *cols, std::int64_t ldm,
                          std::int64_t c0, std::int64_t c1) {
        if (identity) {
            // The columns are the input's channel planes.
            for (std::int64_t r = c0; r < c1; ++r)
                quantizeTo(sample_in + r * hw, cols + r * ldm, hw, mult,
                           qmax);
            return;
        }
        std::int8_t *qin = ctx.qinput_.data() + c0 * plane;
        quantizeTo(sample_in + c0 * plane, qin, (c1 - c0) * plane, mult,
                   qmax);
        im2colChwInt8(qin, c1 - c0, s.hi, s.wi, s.kernel, s.kernel,
                      s.stride, s.pad, s.ho, s.wo,
                      cols + c0 * s.kernel * s.kernel * ldm, ldm);
    };

    for (std::int64_t g = 0; g < s.groups; ++g) {
        const std::int8_t *wg = w_all + g * co_g * kk;
        if (coalesce) {
            // Same batch-wide layout as the fp32 path, quantized per
            // sample -- each sample's scale comes from its own input
            // slice, so a sample's int8 grid (and therefore its exact
            // int32 result) is independent of who shares the batch.
            std::int8_t *qpack = ctx.qact_.data();
            const std::int64_t ldm = b * hw;
            for (std::int64_t i = 0; i < b; ++i) {
                const float *sample_in =
                    in_base + i * s.inNumel[0] + g * in_g;
                const ActScale a = scaleOf(sample_in);
                ctx.scales_[static_cast<std::size_t>(i)] = a.scale;
                pack(sample_in, a.mult, qpack + i * hw, ldm, 0, ci_g);
            }
            std::int32_t *stage = ctx.stage32_.data();
            kernels_->gemmInt8(wg, kk, qpack, ldm, stage, ldm, co_g,
                               kk, ldm);
            for (std::int64_t oc = 0; oc < co_g; ++oc) {
                for (std::int64_t i = 0; i < b; ++i) {
                    const std::int32_t *src = stage + oc * ldm + i * hw;
                    float *dst = out_base + i * s.outNumel +
                                 (g * co_g + oc) * hw;
                    const float f =
                        sw[g * co_g + oc] *
                        ctx.scales_[static_cast<std::size_t>(i)];
                    dequantizeTo(src, dst, hw, f, s.relu);
                }
            }
            continue;
        }
        // Per sample: quantize and pack, one GEMM, then the dequantize
        // epilogue.  With a team, quantize and pack split by
        // input-channel blocks, then each chunk of output columns runs
        // its GEMM and its epilogue.
        for (std::int64_t i = 0; i < b; ++i) {
            const float *sample_in = in_base + i * s.inNumel[0] + g * in_g;
            const ActScale a = scaleOf(sample_in);
            std::int8_t *qcols = ctx.qact_.data();
            std::int32_t *stage = ctx.stage32_.data();
            float *dst = out_base + i * s.outNumel + g * co_g * hw;
            forkJoin(team, channelRange(ci_g),
                     [&](std::int64_t c0, std::int64_t c1) {
                         pack(sample_in, a.mult, qcols, hw, c0, c1);
                     },
                     columns,
                     [&](std::int64_t x0, std::int64_t x1) {
                         kernels_->gemmInt8(wg, kk, qcols + x0, hw,
                                            stage + x0, hw, co_g, kk,
                                            x1 - x0);
                         for (std::int64_t oc = 0; oc < co_g; ++oc)
                             dequantizeTo(stage + oc * hw + x0,
                                          dst + oc * hw + x0, x1 - x0,
                                          sw[g * co_g + oc] * a.scale,
                                          s.relu);
                     });
        }
    }
}

void
ExecutionPlan::execFullyConnectedInt8(const Step &s, int nb,
                                      PlanContext &ctx) const
{
    const std::int64_t b = nb;
    const float *in_base = ctx.arena_.data() + s.in[0] * b;
    float *out_base = ctx.arena_.data() + s.out * b;
    const std::int8_t *wt =
        qweights_[static_cast<std::size_t>(s.weight)].data();
    const float *sw = wscales_[static_cast<std::size_t>(s.weight)].data();
    const std::int32_t qmax = static_cast<std::int32_t>(actQmax_);

    // Quantize each sample's input row against its own absmax, then
    // run the whole batch as one int8 GEMM against the pre-quantized
    // [in x units] panel.
    std::int8_t *qin = ctx.qact_.data();
    for (std::int64_t i = 0; i < b; ++i) {
        const float *row = in_base + i * s.ci;
        const float absmax = absMaxOf(row, s.ci);
        const float sa = absmax > 0.0f ? absmax / actQmax_ : 0.0f;
        const float mult = absmax > 0.0f ? 1.0f / sa : 0.0f;
        ctx.scales_[static_cast<std::size_t>(i)] = sa;
        quantizeTo(row, qin + i * s.ci, s.ci, mult, qmax);
    }
    // With a team, each chunk of output units runs its GEMM and its
    // dequantize epilogue.
    std::int32_t *stage = ctx.stage32_.data();
    const SplitRange units = columnRange(s.co, true);
    forkJoin(splitTeam(ctx, b * s.ci * s.co, units), units,
             [&](std::int64_t u0, std::int64_t u1) {
                 kernels_->gemmInt8(qin, s.ci, wt + u0, s.co, stage + u0,
                                    s.co, b, s.ci, u1 - u0);
                 for (std::int64_t i = 0; i < b; ++i) {
                     const float sa =
                         ctx.scales_[static_cast<std::size_t>(i)];
                     const std::int32_t *src = stage + i * s.co;
                     float *dst = out_base + i * s.co;
                     for (std::int64_t u = u0; u < u1; ++u) {
                         const float v =
                             static_cast<float>(src[u]) * (sw[u] * sa);
                         dst[u] = s.relu ? reluOf(v) : v;
                     }
                 }
             });
}

void
ExecutionPlan::execPool(const Step &s, int nb, PlanContext &ctx,
                        bool average) const
{
    const std::int64_t b = nb;
    const float *in_base = ctx.arena_.data() + s.in[0] * b;
    float *out_base = ctx.arena_.data() + s.out * b;
    const std::int64_t hw_in = s.hi * s.wi, hw_out = s.ho * s.wo;
    const float norm =
        average ? 1.0f / static_cast<float>(s.kernel * s.kernel) : 0.0f;
    for (std::int64_t i = 0; i < b; ++i) {
        for (std::int64_t c = 0; c < s.ci; ++c) {
            const float *plane =
                in_base + i * s.inNumel[0] + c * hw_in;
            float *out_plane = out_base + i * s.outNumel + c * hw_out;
            for (std::int64_t oy = 0; oy < s.ho; ++oy) {
                const std::int64_t iy0 = oy * s.stride - s.pad;
                const std::int64_t ky_lo =
                    std::max<std::int64_t>(0, -iy0);
                const std::int64_t ky_hi =
                    std::min(s.kernel, s.hi - iy0);
                for (std::int64_t ox = 0; ox < s.wo; ++ox) {
                    const std::int64_t ix0 = ox * s.stride - s.pad;
                    const std::int64_t kx_lo =
                        std::max<std::int64_t>(0, -ix0);
                    const std::int64_t kx_hi =
                        std::min(s.kernel, s.wi - ix0);
                    // Out-of-range taps contribute -inf (max) or zero
                    // (average, which still divides by kernel^2 --
                    // matching the reference's zero-padded semantics),
                    // so only valid taps are visited.
                    float acc = average ? 0.0f : -1e30f;
                    for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                        const float *row = plane + (iy0 + ky) * s.wi;
                        if (average) {
                            for (std::int64_t kx = kx_lo; kx < kx_hi;
                                 ++kx)
                                acc += row[ix0 + kx];
                        } else {
                            for (std::int64_t kx = kx_lo; kx < kx_hi;
                                 ++kx)
                                acc = maxOf(acc, row[ix0 + kx]);
                        }
                    }
                    out_plane[oy * s.wo + ox] =
                        average ? acc * norm : acc;
                }
            }
        }
    }
}

void
ExecutionPlan::runBatch(const float *const *inputs,
                        float *const *outputs, int batch,
                        PlanContext &context) const
{
    fpsa_assert(batch >= 1, "runBatch: batch must be >= 1, got %d",
                batch);
    ensureCapacity(context, batch);
    const std::int64_t b = batch;
    float *arena = context.arena_.data();

    for (const Step &s : steps_) {
        float *out_base = arena + s.out * b;
        switch (s.kind) {
          case OpKind::Input:
            for (std::int64_t i = 0; i < b; ++i) {
                std::memcpy(out_base + i * s.outNumel, inputs[i],
                            static_cast<std::size_t>(s.outNumel) *
                                sizeof(float));
            }
            break;
          case OpKind::Conv2d:
            if (precision_ == PrecisionMode::Fp32)
                execConv(s, batch, context);
            else
                execConvInt8(s, batch, context);
            break;
          case OpKind::FullyConnected:
            if (precision_ == PrecisionMode::Fp32)
                execFullyConnected(s, batch, context);
            else
                execFullyConnectedInt8(s, batch, context);
            break;
          case OpKind::MaxPool:
            execPool(s, batch, context, false);
            break;
          case OpKind::AvgPool:
            execPool(s, batch, context, true);
            break;
          case OpKind::GlobalAvgPool: {
            const float *in_base = arena + s.in[0] * b;
            const std::int64_t hw = s.hi * s.wi;
            for (std::int64_t i = 0; i < b; ++i) {
                for (std::int64_t c = 0; c < s.ci; ++c) {
                    const float *plane =
                        in_base + i * s.inNumel[0] + c * hw;
                    double acc = 0.0;
                    for (std::int64_t v = 0; v < hw; ++v)
                        acc += plane[v];
                    out_base[i * s.outNumel + c] = static_cast<float>(
                        acc / static_cast<double>(hw));
                }
            }
            break;
          }
          case OpKind::Relu: // one not fused into its producer
            reluTo(arena + s.in[0] * b, out_base, s.outNumel * b);
            break;
          case OpKind::Add: {
            // Same pairwise left-to-right order as the reference.
            const std::int64_t n = s.outNumel * b;
            std::memcpy(out_base, arena + s.in[0] * b,
                        static_cast<std::size_t>(n) * sizeof(float));
            for (std::size_t a = 1; a < s.in.size(); ++a) {
                const float *term = arena + s.in[a] * b;
                for (std::int64_t v = 0; v < n; ++v)
                    out_base[v] += term[v];
            }
            break;
          }
          case OpKind::Concat: {
            for (std::int64_t i = 0; i < b; ++i) {
                std::int64_t at = 0;
                for (std::size_t a = 0; a < s.in.size(); ++a) {
                    std::memcpy(
                        out_base + i * s.outNumel + at,
                        arena + s.in[a] * b + i * s.inNumel[a],
                        static_cast<std::size_t>(s.inNumel[a]) *
                            sizeof(float));
                    at += s.inNumel[a];
                }
            }
            break;
          }
          case OpKind::Flatten:
          case OpKind::BatchNorm:
            // Erased into aliases at build time.
            break;
        }
    }

    const float *final_base = arena + outputOffset_ * b;
    for (std::int64_t i = 0; i < b; ++i) {
        std::memcpy(outputs[i], final_base + i * outputNumel_,
                    static_cast<std::size_t>(outputNumel_) *
                        sizeof(float));
    }
}

} // namespace fpsa
