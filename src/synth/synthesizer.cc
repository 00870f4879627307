#include "synth/synthesizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "nn/execute.hh"
#include "nn/ops.hh"
#include "synth/lowering.hh"

namespace fpsa
{

std::int64_t
SynthesisSummary::minPes() const
{
    std::int64_t total = 0;
    for (const auto &g : groups)
        total += g.tilesPerInstance;
    return total;
}

std::int64_t
SynthesisSummary::totalCoreOpRuns() const
{
    std::int64_t total = 0;
    for (const auto &g : groups)
        total += g.tilesPerInstance * g.instances;
    return total;
}

double
SynthesisSummary::spatialUtilization() const
{
    double useful = 0.0;
    double allocated = 0.0;
    for (const auto &g : groups) {
        // Weight by compute demand (instances), since utilization bounds
        // throughput, not just storage.
        useful += g.utilization * static_cast<double>(g.tilesPerInstance) *
                  g.instances;
        allocated +=
            static_cast<double>(g.tilesPerInstance) * g.instances;
    }
    return allocated > 0.0 ? useful / allocated : 0.0;
}

std::int64_t
SynthesisSummary::maxReuse() const
{
    std::int64_t best = 0;
    for (const auto &g : groups)
        best = std::max(best, g.instances);
    return best;
}

Status
validateSynthOptions(const SynthOptions &o)
{
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    return checkOptionBounds(
        {{"synth.crossbarRows", o.crossbarRows, 1, kIntMax},
         {"synth.crossbarCols", o.crossbarCols, 1, kIntMax},
         {"synth.ioBits", o.ioBits, 1, kMaxOptionBits},
         {"synth.weightBits", o.weightBits, 1, kMaxOptionBits},
         {"synth.maxWeightLevel", o.maxWeightLevel, 1, kIntMax}});
}

SynthesisSummary
synthesizeSummary(const Graph &graph, const SynthOptions &options)
{
    SynthesisSummary summary;
    summary.options = options;

    // Per-node pipeline depth DP over the CG, wiring group dataflow as
    // we go: a node's first groups consume its CG inputs' terminal
    // groups; a node's own groups chain sequentially (weight -> reduce,
    // cmp -> sel).
    std::vector<int> depth(graph.size(), 0);
    std::vector<std::vector<int>> terminal(graph.size());
    int max_depth = 0;
    for (NodeId id : graph.topoOrder()) {
        const GraphNode &n = graph.node(id);
        int in_depth = 0;
        std::vector<int> in_groups;
        for (NodeId in : n.inputs) {
            in_depth = std::max(in_depth,
                                depth[static_cast<std::size_t>(in)]);
            for (int g : terminal[static_cast<std::size_t>(in)])
                in_groups.push_back(g);
        }
        const std::size_t first = summary.groups.size();
        const int stages =
            lowerNodeAnalytic(graph, id, options, summary.groups);
        depth[static_cast<std::size_t>(id)] = in_depth + stages;
        max_depth = std::max(max_depth, depth[static_cast<std::size_t>(id)]);

        if (summary.groups.size() == first) {
            // Pass-through node: forward the producing groups.
            terminal[static_cast<std::size_t>(id)] = std::move(in_groups);
            continue;
        }
        // Chain this node's groups; first one consumes the CG inputs.
        summary.groups[first].preds = std::move(in_groups);
        for (std::size_t g = first + 1; g < summary.groups.size(); ++g)
            summary.groups[g].preds = {static_cast<int>(g - 1)};
        terminal[static_cast<std::size_t>(id)] = {
            static_cast<int>(summary.groups.size() - 1)};
    }
    summary.pipelineDepth = std::max(1, max_depth);
    return summary;
}

// ---------------------------------------------------------------------
// Functional lowering.
// ---------------------------------------------------------------------

namespace
{

/** Where each flat element of a CG node's output lives. */
using ElementMap = std::vector<OutputRef>;

/** Builder state for the functional path. */
struct FunctionalLowering
{
    const Graph &graph;
    SynthOptions o;
    FunctionalSynthesis result;
    std::vector<ElementMap> elems;   //!< per CG node
    std::vector<double> actScale;    //!< per CG node (A_n)

    FunctionalLowering(const Graph &g, const SynthOptions &opts)
        : graph(g), o(opts), elems(g.size()), actScale(g.size(), 1.0)
    {
        result.options = opts;
    }

    /** Scale growth applied by the last lowerMatrixNode (>= 1). */
    double satFactor_ = 1.0;

    std::uint32_t window() const { return 1u << o.ioBits; }

    /**
     * Append input runs covering elements [from, from+len) of a node's
     * element map, splitting at producer-op boundaries.
     */
    void
    appendRuns(CoreOp &op, const ElementMap &map, std::int64_t from,
               std::int64_t len) const
    {
        std::int64_t i = from;
        while (i < from + len) {
            const OutputRef &r = map[static_cast<std::size_t>(i)];
            std::int64_t run = 1;
            while (i + run < from + len) {
                const OutputRef &r2 =
                    map[static_cast<std::size_t>(i + run)];
                if (r2.op != r.op || r2.col != r.col + run)
                    break;
                ++run;
            }
            op.inputs.push_back(CoreOpInput{
                r.op, r.col, static_cast<int>(run)});
            i += run;
        }
    }

    /** Quantize a weight tensor to signed levels with a shared scale. */
    static std::vector<std::int32_t>
    quantizeWeights(const Tensor &w, std::int32_t max_level, double &scale)
    {
        const double amax = w.absMax();
        scale = amax > 0.0 ? amax / max_level : 1.0;
        std::vector<std::int32_t> levels(
            static_cast<std::size_t>(w.numel()));
        for (std::int64_t i = 0; i < w.numel(); ++i) {
            const double v = w[i] / scale;
            levels[static_cast<std::size_t>(i)] =
                static_cast<std::int32_t>(std::lround(std::clamp(
                    v, -static_cast<double>(max_level),
                    static_cast<double>(max_level))));
        }
        return levels;
    }

    const std::vector<Tensor> *refs = nullptr; //!< calibration tensors

    void lowerMatrixNode(NodeId id, const Tensor &weights,
                         const std::vector<std::int64_t> &row_gather,
                         std::int64_t positions, NodeId producer);
    void lowerFc(NodeId id);
    void lowerConv(NodeId id);
    void lowerMaxPool(NodeId id);
    void run();
};

/**
 * Lower a [rows x cols] signed weight matrix applied at `positions`
 * input positions.  `row_gather` maps (position, matrix row) to the
 * producer's flat element index: element = row_gather[pos * rows + r].
 * Produces one group per (row tile, column chunk) plus a shared reduce
 * group when the input spans several row tiles.
 */
void
FunctionalLowering::lowerMatrixNode(
    NodeId id, const Tensor &weights,
    const std::vector<std::int64_t> &row_gather, std::int64_t positions,
    NodeId producer)
{
    const GraphNode &n = graph.node(id);
    const std::int64_t rows = weights.dim(0);
    const std::int64_t cols = weights.dim(1);
    const double a_in = actScale[static_cast<std::size_t>(producer)];
    const double a_out = actScale[static_cast<std::size_t>(id)];

    double s_w = 1.0;
    // Weight layout here is [rows x cols] row-major.
    const auto levels = quantizeWeights(weights, o.maxWeightLevel, s_w);
    const double eta_total = std::max(1e-9, a_out / (s_w * a_in));

    const std::int64_t row_tiles =
        (rows + o.crossbarRows - 1) / o.crossbarRows;
    const bool split = row_tiles > 1;

    // Saturation control: the positive and negative neuron columns each
    // cap at one spike per cycle, so their *partial* rates -- not just
    // the signed difference -- must fit the window.  Estimate the
    // worst per-column partial sums on the calibration activations and
    // raise the threshold when needed; the node's activation scale
    // grows by the same factor (applied by the caller via the return
    // in satFactor_).
    const std::uint32_t gamma = window();
    double max_partial = 0.0; // in (weight-level x spike-count) units
    if (!split && refs != nullptr) {
        const Tensor &pref = (*refs)[static_cast<std::size_t>(producer)];
        for (std::int64_t pos = 0; pos < positions; ++pos) {
            std::vector<double> pos_sum(static_cast<std::size_t>(cols),
                                        0.0);
            std::vector<double> neg_sum(static_cast<std::size_t>(cols),
                                        0.0);
            for (std::int64_t r = 0; r < rows; ++r) {
                const std::int64_t elem =
                    row_gather[static_cast<std::size_t>(pos * rows + r)];
                const double xc =
                    std::clamp(static_cast<double>(pref[elem]), 0.0,
                               a_in) /
                    a_in * gamma;
                if (xc == 0.0)
                    continue;
                for (std::int64_t c = 0; c < cols; ++c) {
                    const std::int32_t w = levels[static_cast<std::size_t>(
                        r * cols + c)];
                    if (w > 0)
                        pos_sum[static_cast<std::size_t>(c)] += w * xc;
                    else if (w < 0)
                        neg_sum[static_cast<std::size_t>(c)] -= w * xc;
                }
            }
            for (std::int64_t c = 0; c < cols; ++c)
                max_partial = std::max({max_partial,
                                        pos_sum[static_cast<std::size_t>(
                                            c)],
                                        neg_sum[static_cast<std::size_t>(
                                            c)]});
        }
    }
    // Safety margin for inputs hotter than the calibration sample.
    const double sat_eta = 1.25 * max_partial / gamma;
    const double eta_used = std::max(eta_total, sat_eta);
    satFactor_ = eta_used / eta_total;
    // With pos/neg partial splitting, a column chunk occupies two
    // physical output columns per logical output.
    const std::int64_t chunk_cap = split ? o.crossbarCols / 2
                                         : o.crossbarCols;
    const std::int64_t col_chunks = (cols + chunk_cap - 1) / chunk_cap;

    const ElementMap &in_map = elems[static_cast<std::size_t>(producer)];
    ElementMap out_map(static_cast<std::size_t>(positions * cols));

    // Pre-allocate shared groups: one per (tile, chunk) (+ reduce/chunk).
    std::vector<GroupId> tile_groups(
        static_cast<std::size_t>(row_tiles * col_chunks));
    for (auto &g : tile_groups)
        g = result.coreOps.newGroup();
    std::vector<GroupId> reduce_groups;
    if (split) {
        for (std::int64_t c = 0; c < col_chunks; ++c)
            reduce_groups.push_back(result.coreOps.newGroup());
    }

    for (std::int64_t pos = 0; pos < positions; ++pos) {
        for (std::int64_t cc = 0; cc < col_chunks; ++cc) {
            const std::int64_t c0 = cc * chunk_cap;
            const std::int64_t nc = std::min(chunk_cap, cols - c0);
            std::vector<CoreOpId> tile_ops;
            double eta_shared = 1.0;
            std::vector<double> tile_eta(
                static_cast<std::size_t>(row_tiles));

            for (std::int64_t t = 0; t < row_tiles; ++t) {
                const std::int64_t r0 = t * o.crossbarRows;
                const std::int64_t nr =
                    std::min<std::int64_t>(o.crossbarRows, rows - r0);
                CoreOp op;
                op.name = n.name + ".t" + std::to_string(t) + ".c" +
                          std::to_string(cc) + ".p" + std::to_string(pos);
                op.role = CoreOpRole::Weight;
                op.rows = static_cast<int>(nr);
                op.cols = static_cast<int>(split ? 2 * nc : nc);
                op.group =
                    tile_groups[static_cast<std::size_t>(t * col_chunks +
                                                         cc)];
                op.sourceNode = id;
                op.weightLevels.assign(
                    static_cast<std::size_t>(nr * op.cols), 0);
                double max_col_sum = 1.0;
                for (std::int64_t c = 0; c < nc; ++c) {
                    double pos_sum = 0.0, neg_sum = 0.0, abs_sum = 0.0;
                    for (std::int64_t r = 0; r < nr; ++r) {
                        const std::int32_t w =
                            levels[static_cast<std::size_t>(
                                (r0 + r) * cols + c0 + c)];
                        if (split) {
                            op.weightLevels[static_cast<std::size_t>(
                                r * op.cols + c)] = std::max(w, 0);
                            op.weightLevels[static_cast<std::size_t>(
                                r * op.cols + nc + c)] = std::max(-w, 0);
                            pos_sum += std::max(w, 0);
                            neg_sum += std::max(-w, 0);
                        } else {
                            op.weightLevels[static_cast<std::size_t>(
                                r * op.cols + c)] = w;
                            abs_sum += std::max(w, 0);
                        }
                    }
                    max_col_sum = split
                                      ? std::max({max_col_sum, pos_sum,
                                                  neg_sum})
                                      : std::max(max_col_sum, abs_sum);
                }
                op.etaLevels = split ? max_col_sum : eta_used;
                tile_eta[static_cast<std::size_t>(t)] = op.etaLevels;
                eta_shared = std::max(eta_shared, max_col_sum);

                // Input runs for this tile's rows at this position.
                for (std::int64_t r = 0; r < nr; ++r) {
                    const std::int64_t elem =
                        row_gather[static_cast<std::size_t>(pos * rows +
                                                            r0 + r)];
                    appendRuns(op, in_map, elem, 1);
                }
                tile_ops.push_back(result.coreOps.add(std::move(op)));
            }

            if (!split) {
                for (std::int64_t c = 0; c < nc; ++c)
                    out_map[static_cast<std::size_t>(pos * cols + c0 + c)] =
                        OutputRef{tile_ops[0], static_cast<int>(c)};
                continue;
            }

            // Harmonize tile thresholds so the reduce op can use unit
            // weights: every tile shares eta_shared.
            for (std::int64_t t = 0; t < row_tiles; ++t)
                result.coreOps.op(tile_ops[static_cast<std::size_t>(t)])
                    .etaLevels = eta_shared;

            // Reduce op: z = relu(K * sum_t (y+ - y-)) / eta_r with
            // eta_r = K * eta_total / eta_shared so that z = T/eta_total
            // for a true partial total T (tiles emit y = P/eta_shared).
            const double ratio = std::max(1e-9, eta_shared / eta_total);
            const std::int32_t k_gain = static_cast<std::int32_t>(
                std::clamp<std::int64_t>(
                    std::llround(std::ceil(ratio)), 1, o.maxWeightLevel));
            CoreOp red;
            red.name = n.name + ".red.c" + std::to_string(cc) + ".p" +
                       std::to_string(pos);
            red.role = CoreOpRole::Reduce;
            red.rows = static_cast<int>(row_tiles * 2 * nc);
            red.cols = static_cast<int>(nc);
            red.group = reduce_groups[static_cast<std::size_t>(cc)];
            red.sourceNode = id;
            red.etaLevels = static_cast<double>(k_gain) / ratio;
            red.weightLevels.assign(
                static_cast<std::size_t>(red.rows * red.cols), 0);
            for (std::int64_t t = 0; t < row_tiles; ++t) {
                for (std::int64_t c = 0; c < nc; ++c) {
                    const std::int64_t base = t * 2 * nc;
                    red.weightLevels[static_cast<std::size_t>(
                        (base + c) * nc + c)] = k_gain;
                    red.weightLevels[static_cast<std::size_t>(
                        (base + nc + c) * nc + c)] = -k_gain;
                }
                red.inputs.push_back(CoreOpInput{
                    tile_ops[static_cast<std::size_t>(t)], 0,
                    static_cast<int>(2 * nc)});
            }
            const CoreOpId red_id = result.coreOps.add(std::move(red));
            for (std::int64_t c = 0; c < nc; ++c)
                out_map[static_cast<std::size_t>(pos * cols + c0 + c)] =
                    OutputRef{red_id, static_cast<int>(c)};
        }
    }
    elems[static_cast<std::size_t>(id)] = std::move(out_map);
    // A raised threshold stretches the value each output count stands
    // for; consumers must calibrate against the stretched scale.
    actScale[static_cast<std::size_t>(id)] *= satFactor_;
    satFactor_ = 1.0;
}

void
FunctionalLowering::lowerFc(NodeId id)
{
    const GraphNode &n = graph.node(id);
    fpsa_assert(n.weights.has_value(), "fc '%s' lacks weights",
                n.name.c_str());
    const NodeId producer = n.inputs[0];
    const std::int64_t in =
        shapeNumel(graph.node(producer).outShape);
    const std::int64_t out = n.attrs.units;
    // Graph stores fc weights as [out, in]; lowerMatrixNode wants
    // [rows=in, cols=out].
    Tensor w({in, out});
    for (std::int64_t r = 0; r < in; ++r)
        for (std::int64_t c = 0; c < out; ++c)
            w.at(r, c) = n.weights->at(c, r);
    std::vector<std::int64_t> gather(static_cast<std::size_t>(in));
    for (std::int64_t r = 0; r < in; ++r)
        gather[static_cast<std::size_t>(r)] = r;
    lowerMatrixNode(id, w, gather, 1, producer);
}

void
FunctionalLowering::lowerConv(NodeId id)
{
    const GraphNode &n = graph.node(id);
    fpsa_assert(n.weights.has_value(), "conv '%s' lacks weights",
                n.name.c_str());
    fpsa_assert(n.attrs.groups == 1 && n.attrs.pad == 0,
                "functional conv supports groups=1, pad=0 ('%s')",
                n.name.c_str());
    const NodeId producer = n.inputs[0];
    const Shape &in = graph.node(producer).outShape;
    const std::int64_t ci = in[0], hi = in[1], wi = in[2];
    const std::int64_t k = n.attrs.kernel, s = n.attrs.stride;
    const std::int64_t co = n.outShape[0], ho = n.outShape[1],
                       wo = n.outShape[2];
    const std::int64_t rows = ci * k * k;

    // Weight matrix [rows x co] from OIHW.
    Tensor w({rows, co});
    for (std::int64_t oc = 0; oc < co; ++oc)
        for (std::int64_t ic = 0; ic < ci; ++ic)
            for (std::int64_t ky = 0; ky < k; ++ky)
                for (std::int64_t kx = 0; kx < k; ++kx)
                    w.at((ic * k + ky) * k + kx, oc) =
                        n.weights->at4(oc, ic, ky, kx);

    // Gather map: flat input element for each (position, matrix row).
    const std::int64_t positions = ho * wo;
    std::vector<std::int64_t> gather(
        static_cast<std::size_t>(positions * rows));
    std::int64_t at = 0;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
            for (std::int64_t ic = 0; ic < ci; ++ic)
                for (std::int64_t ky = 0; ky < k; ++ky)
                    for (std::int64_t kx = 0; kx < k; ++kx)
                        gather[static_cast<std::size_t>(at++)] =
                            (ic * hi + oy * s + ky) * wi + ox * s + kx;
        }
    }
    // Output element order must be CHW: position-major lowering yields
    // (pos, channel); remap afterwards.
    lowerMatrixNode(id, w, gather, positions, producer);
    ElementMap &m = elems[static_cast<std::size_t>(id)];
    ElementMap chw(m.size());
    for (std::int64_t pos = 0; pos < positions; ++pos)
        for (std::int64_t oc = 0; oc < co; ++oc)
            chw[static_cast<std::size_t>(oc * positions + pos)] =
                m[static_cast<std::size_t>(pos * co + oc)];
    m = std::move(chw);
}

void
FunctionalLowering::lowerMaxPool(NodeId id)
{
    const GraphNode &n = graph.node(id);
    fpsa_assert(n.attrs.kernel == 2 && n.attrs.stride == 2 &&
                    n.attrs.pad == 0,
                "functional maxpool supports 2x2/2 ('%s')", n.name.c_str());
    const NodeId producer = n.inputs[0];
    const Shape &in = graph.node(producer).outShape;
    const std::int64_t c = in[0], hi = in[1], wi = in[2];
    const std::int64_t ho = n.outShape[1], wo = n.outShape[2];
    // Max pooling preserves the activation scale exactly.
    actScale[static_cast<std::size_t>(id)] =
        actScale[static_cast<std::size_t>(producer)];

    // Current per-window element lists, reduced pairwise to one.
    std::vector<std::vector<OutputRef>> windows;
    const ElementMap &im = elems[static_cast<std::size_t>(producer)];
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (std::int64_t oy = 0; oy < ho; ++oy)
            for (std::int64_t ox = 0; ox < wo; ++ox) {
                std::vector<OutputRef> w;
                for (std::int64_t ky = 0; ky < 2; ++ky)
                    for (std::int64_t kx = 0; kx < 2; ++kx)
                        w.push_back(im[static_cast<std::size_t>(
                            (ch * hi + oy * 2 + ky) * wi + ox * 2 + kx)]);
                windows.push_back(std::move(w));
            }

    int level = 0;
    while (windows[0].size() > 1) {
        fpsa_assert(windows[0].size() % 2 == 0,
                    "maxpool tree requires even fan-in");
        const std::int64_t pairs_per_window =
            static_cast<std::int64_t>(windows[0].size()) / 2;
        const std::int64_t total_pairs =
            pairs_per_window * static_cast<std::int64_t>(windows.size());
        const std::int64_t pack = std::min<std::int64_t>(
            total_pairs, o.crossbarRows / 2);
        const GroupId cmp_group = result.coreOps.newGroup();
        const GroupId sel_group = result.coreOps.newGroup();

        // Flattened pair list across windows.
        std::vector<std::pair<OutputRef, OutputRef>> pairs;
        for (const auto &w : windows)
            for (std::size_t i = 0; i + 1 < w.size(); i += 2)
                pairs.emplace_back(w[i], w[i + 1]);

        std::vector<OutputRef> maxes(pairs.size());
        for (std::int64_t base = 0; base < total_pairs; base += pack) {
            const std::int64_t p =
                std::min(pack, total_pairs - base);
            // Stage A: [a, b] -> [relu(a-b), b] per pair.
            CoreOp cmp;
            cmp.name = n.name + ".cmp" + std::to_string(level);
            cmp.role = CoreOpRole::Pool;
            cmp.rows = static_cast<int>(2 * p);
            cmp.cols = static_cast<int>(2 * p);
            cmp.group = cmp_group;
            cmp.sourceNode = id;
            cmp.etaLevels = 1.0;
            cmp.weightLevels.assign(
                static_cast<std::size_t>(cmp.rows * cmp.cols), 0);
            for (std::int64_t i = 0; i < p; ++i) {
                const auto &[a, b] = pairs[static_cast<std::size_t>(
                    base + i)];
                cmp.weightLevels[static_cast<std::size_t>(
                    (2 * i) * cmp.cols + 2 * i)] = 1; // a -> diff
                cmp.weightLevels[static_cast<std::size_t>(
                    (2 * i + 1) * cmp.cols + 2 * i)] = -1; // b -> diff
                cmp.weightLevels[static_cast<std::size_t>(
                    (2 * i + 1) * cmp.cols + 2 * i + 1)] = 1; // b pass
                ElementMap tiny{a, b};
                appendRuns(cmp, tiny, 0, 2);
            }
            const CoreOpId cmp_id = result.coreOps.add(std::move(cmp));

            // Stage B: max = relu(diff + b).
            CoreOp sel;
            sel.name = n.name + ".sel" + std::to_string(level);
            sel.role = CoreOpRole::Pool;
            sel.rows = static_cast<int>(2 * p);
            sel.cols = static_cast<int>(p);
            sel.group = sel_group;
            sel.sourceNode = id;
            sel.etaLevels = 1.0;
            sel.weightLevels.assign(
                static_cast<std::size_t>(sel.rows * sel.cols), 0);
            for (std::int64_t i = 0; i < p; ++i) {
                sel.weightLevels[static_cast<std::size_t>(
                    (2 * i) * sel.cols + i)] = 1;
                sel.weightLevels[static_cast<std::size_t>(
                    (2 * i + 1) * sel.cols + i)] = 1;
            }
            sel.inputs.push_back(
                CoreOpInput{cmp_id, 0, static_cast<int>(2 * p)});
            const CoreOpId sel_id = result.coreOps.add(std::move(sel));
            for (std::int64_t i = 0; i < p; ++i)
                maxes[static_cast<std::size_t>(base + i)] =
                    OutputRef{sel_id, static_cast<int>(i)};
        }

        // Fold maxes back into windows for the next level.
        std::size_t at = 0;
        for (auto &w : windows) {
            std::vector<OutputRef> next(w.size() / 2);
            for (auto &r : next)
                r = maxes[at++];
            w = std::move(next);
        }
        ++level;
    }

    ElementMap out_map(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i)
        out_map[i] = windows[i][0];
    elems[static_cast<std::size_t>(id)] = std::move(out_map);
}

void
FunctionalLowering::run()
{
    for (NodeId id : graph.topoOrder()) {
        const GraphNode &n = graph.node(id);
        switch (n.kind) {
          case OpKind::Input: {
            ElementMap m(static_cast<std::size_t>(shapeNumel(n.outShape)));
            for (std::size_t i = 0; i < m.size(); ++i)
                m[i] = OutputRef{-1, static_cast<int>(i)};
            elems[static_cast<std::size_t>(id)] = std::move(m);
            break;
          }
          case OpKind::FullyConnected:
            lowerFc(id);
            break;
          case OpKind::Conv2d:
            lowerConv(id);
            break;
          case OpKind::MaxPool:
            lowerMaxPool(id);
            break;
          case OpKind::Relu:
            // Core-ops already apply ReLU; the map passes through.
            elems[static_cast<std::size_t>(id)] =
                elems[static_cast<std::size_t>(n.inputs[0])];
            actScale[static_cast<std::size_t>(id)] =
                actScale[static_cast<std::size_t>(n.inputs[0])];
            break;
          case OpKind::Flatten:
            elems[static_cast<std::size_t>(id)] =
                elems[static_cast<std::size_t>(n.inputs[0])];
            actScale[static_cast<std::size_t>(id)] =
                actScale[static_cast<std::size_t>(n.inputs[0])];
            break;
          default:
            // Unreachable: validateFunctionalGraph rejected the graph.
            panic("validated graph reached unsupported op '%s'",
                  opKindName(n.kind));
        }
    }
    result.outputs = elems.back();
    result.outputScale = actScale.back();
    result.coreOps.validate();
}

/**
 * Reject graphs the functional lowering cannot express, as request-path
 * `InvalidArgument` data -- the checks mirror the per-op asserts inside
 * the lower* helpers and `CoreOpGraph::add`, which stay as internal
 * invariants.
 */
Status
validateFunctionalGraph(const Graph &graph, const SynthOptions &o)
{
    auto bad = [](const GraphNode &n, const std::string &why) {
        return Status::error(StatusCode::InvalidArgument,
                             "functional synthesis: node '" + n.name +
                                 "' (" + opKindName(n.kind) + ") " + why);
    };
    auto beyondCrossbar = [&](const GraphNode &n, std::int64_t side) {
        const std::string max = std::to_string(kCoreOpMaxSide);
        return bad(n, "lowers to a core-op side of " + std::to_string(side) +
                          ", outside the " + max + "x" + max +
                          " crossbar (" + std::to_string(o.crossbarRows) +
                          "x" + std::to_string(o.crossbarCols) +
                          " tiles)");
    };
    for (const GraphNode &n : graph.nodes()) {
        switch (n.kind) {
          case OpKind::Input:
          case OpKind::Relu:
          case OpKind::Flatten:
            break;
          case OpKind::FullyConnected:
          case OpKind::Conv2d: {
            if (!n.weights.has_value())
                return bad(n, "lacks weights; materialize them first");
            const bool conv = n.kind == OpKind::Conv2d;
            if (conv && (n.attrs.groups != 1 || n.attrs.pad != 0))
                return bad(n, "supports only groups=1, pad=0");
            // lowerMatrixNode's shapes: row tiles of the [rows x cols]
            // matrix, and with several tiles a pos/neg split whose reduce
            // op takes row_tiles * 2 * nc rows for a chunk of nc outputs.
            const Shape &in = graph.node(n.inputs[0]).outShape;
            const std::int64_t rows =
                conv ? in[0] * n.attrs.kernel * n.attrs.kernel
                     : shapeNumel(in);
            const std::int64_t cols = n.outShape[0];
            const std::int64_t row_tiles =
                (rows + o.crossbarRows - 1) / o.crossbarRows;
            const bool split = row_tiles > 1;
            const std::int64_t nc = std::min<std::int64_t>(
                cols, split ? o.crossbarCols / 2 : o.crossbarCols);
            const std::int64_t side = std::max(
                {std::min<std::int64_t>(rows, o.crossbarRows),
                 split ? 2 * nc : nc, split ? row_tiles * 2 * nc : 0});
            if (nc < 1 || side > kCoreOpMaxSide)
                return beyondCrossbar(n, nc < 1 ? 0 : side);
            break;
          }
          case OpKind::MaxPool: {
            if (n.attrs.kernel != 2 || n.attrs.stride != 2 ||
                n.attrs.pad != 0)
                return bad(n, "supports only 2x2 stride 2, pad=0");
            // lowerMaxPool packs up to crossbarRows / 2 comparator pairs
            // (two per output element) into 2*pack-square core-ops.
            const std::int64_t pack = std::min<std::int64_t>(
                2 * shapeNumel(n.outShape), o.crossbarRows / 2);
            if (pack < 1 || 2 * pack > kCoreOpMaxSide)
                return beyondCrossbar(n, 2 * pack);
            break;
          }
          default:
            return bad(n, "is not a supported op (MLP/LeNet family "
                          "only; use the analytic path)");
        }
    }
    return Status();
}

} // namespace

StatusOr<FunctionalSynthesis>
synthesizeFunctional(const Graph &graph, const Tensor &calibration,
                     const SynthOptions &options)
{
    if (graph.size() == 0) {
        return Status::error(StatusCode::InvalidArgument,
                             "functional synthesis: graph has no nodes");
    }
    if (Status bounded = validateSynthOptions(options); !bounded.ok())
        return bounded;
    Status valid = validateFunctionalGraph(graph, options);
    if (!valid.ok())
        return valid;
    if (calibration.shape() != graph.nodes().front().outShape) {
        return Status::error(
            StatusCode::InvalidArgument,
            "functional synthesis: calibration shape " +
                shapeToString(calibration.shape()) +
                " does not match the graph input " +
                shapeToString(graph.nodes().front().outShape));
    }

    FunctionalLowering lowering(graph, options);

    // Calibrate per-node activation scales with a float reference run.
    const auto ref = runGraph(graph, calibration);
    for (std::size_t i = 0; i < ref.size(); ++i)
        lowering.actScale[i] = std::max(1e-6f, ref[i].absMax());
    lowering.result.inputScale = lowering.actScale[0];
    lowering.refs = &ref;

    lowering.run();
    return std::move(lowering.result);
}

CoreOpPlan::CoreOpPlan(const FunctionalSynthesis &synth)
{
    const auto &ops = synth.coreOps;
    opOffset_.reserve(ops.size());
    opSegments_.reserve(ops.size());
    std::vector<std::int64_t> opCols(ops.size(), 0);
    for (CoreOpId id = 0; id < static_cast<CoreOpId>(ops.size()); ++id) {
        const CoreOp &op = ops.op(id);
        fpsa_assert(!op.weightLevels.empty(),
                    "core-op '%s' has no weights", op.name.c_str());
        opOffset_.push_back(valuesSize_);
        opCols[static_cast<std::size_t>(id)] = op.cols;
        valuesSize_ += op.cols;
        maxRows_ = std::max<std::int64_t>(maxRows_, op.rows);

        const auto begin = static_cast<std::int32_t>(segments_.size());
        std::int64_t gathered = 0;
        for (const auto &in : op.inputs) {
            Segment seg;
            seg.length = in.length;
            if (in.producer < 0) {
                // External input: the request length is only known at
                // run time; run() checks the high-water mark then.
                seg.external = true;
                seg.src = in.offset;
            } else {
                fpsa_assert(
                    in.producer < id &&
                        in.offset + in.length <=
                            opCols[static_cast<std::size_t>(in.producer)],
                    "core-op '%s' input out of range", op.name.c_str());
                seg.src = opOffset_[static_cast<std::size_t>(
                              in.producer)] +
                          in.offset;
            }
            gathered += in.length;
            segments_.push_back(seg);
        }
        if (op.offsetLevels > 0)
            ++gathered; // the always-on offset lane appended by run()
        fpsa_assert(gathered == op.rows,
                    "core-op '%s' gathers %lld of %d inputs",
                    op.name.c_str(), static_cast<long long>(gathered),
                    op.rows);
        opSegments_.emplace_back(
            begin, static_cast<std::int32_t>(segments_.size()));
    }

    // Final outputs: arena offset, or ~col for external passthroughs.
    outSrc_.reserve(synth.outputs.size());
    for (const OutputRef &r : synth.outputs) {
        if (r.op < 0)
            outSrc_.push_back(~static_cast<std::int64_t>(r.col));
        else
            outSrc_.push_back(
                opOffset_[static_cast<std::size_t>(r.op)] + r.col);
    }
}

CoreOpArena
CoreOpPlan::makeArena() const
{
    CoreOpArena arena;
    arena.values.resize(static_cast<std::size_t>(valuesSize_));
    arena.gather.resize(static_cast<std::size_t>(maxRows_));
    return arena;
}

void
CoreOpPlan::run(const FunctionalSynthesis &synth,
                const std::uint32_t *input, std::size_t input_len,
                std::uint32_t *out, CoreOpArena &arena) const
{
    const std::uint32_t window = 1u << synth.options.ioBits;
    arena.values.resize(static_cast<std::size_t>(valuesSize_));
    arena.gather.resize(static_cast<std::size_t>(maxRows_));
    std::uint32_t *values = arena.values.data();
    std::uint32_t *x = arena.gather.data();

    for (CoreOpId id = 0;
         id < static_cast<CoreOpId>(synth.coreOps.size()); ++id) {
        const CoreOp &op = synth.coreOps.op(id);
        const auto [seg_begin, seg_end] =
            opSegments_[static_cast<std::size_t>(id)];
        std::int64_t at = 0;
        for (std::int32_t si = seg_begin; si < seg_end; ++si) {
            const Segment &seg = segments_[static_cast<std::size_t>(si)];
            const std::uint32_t *src;
            if (seg.external) {
                fpsa_assert(static_cast<std::size_t>(seg.src +
                                                     seg.length) <=
                                input_len,
                            "core-op '%s' input out of range",
                            op.name.c_str());
                src = input + seg.src;
            } else {
                src = values + seg.src;
            }
            std::copy(src, src + seg.length, x + at);
            at += seg.length;
        }
        if (op.offsetLevels > 0)
            x[at++] = window;

        // PE count-domain semantics: floor(relu(L x) / eta), clamped.
        std::uint32_t *y =
            values + opOffset_[static_cast<std::size_t>(id)];
        for (int c = 0; c < op.cols; ++c) {
            double acc = 0.0;
            for (int r = 0; r < op.rows; ++r)
                acc += static_cast<double>(
                           op.weightLevels[static_cast<std::size_t>(r) *
                                               op.cols +
                                           c]) *
                       x[static_cast<std::size_t>(r)];
            const double scaled =
                std::floor(std::max(acc, 0.0) / op.etaLevels);
            y[c] = static_cast<std::uint32_t>(
                std::clamp(scaled, 0.0, static_cast<double>(window)));
        }
    }

    for (std::size_t i = 0; i < outSrc_.size(); ++i) {
        const std::int64_t src = outSrc_[i];
        if (src < 0) {
            const auto col = static_cast<std::size_t>(~src);
            fpsa_assert(col < input_len,
                        "output passthrough %zu out of range", col);
            out[i] = input[col];
        } else {
            out[i] = values[static_cast<std::size_t>(src)];
        }
    }
}

std::vector<std::uint32_t>
runCoreOps(const FunctionalSynthesis &synth,
           const std::vector<std::uint32_t> &input_counts)
{
    CoreOpPlan plan(synth);
    CoreOpArena arena = plan.makeArena();
    std::vector<std::uint32_t> out(synth.outputs.size());
    plan.run(synth, input_counts.data(), input_counts.size(),
             out.data(), arena);
    return out;
}

void
encodeInputCounts(const FunctionalSynthesis &synth, const Tensor &input,
                  std::vector<std::uint32_t> &counts)
{
    const std::uint32_t window = 1u << synth.options.ioBits;
    counts.resize(static_cast<std::size_t>(input.numel()));
    for (std::int64_t i = 0; i < input.numel(); ++i) {
        const double v =
            std::clamp(static_cast<double>(input[i]), 0.0,
                       synth.inputScale) /
            synth.inputScale * window;
        counts[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(std::lround(v));
    }
}

std::vector<std::uint32_t>
encodeInputCounts(const FunctionalSynthesis &synth, const Tensor &input)
{
    std::vector<std::uint32_t> counts;
    encodeInputCounts(synth, input, counts);
    return counts;
}

void
decodeOutputValues(const FunctionalSynthesis &synth,
                   const std::vector<std::uint32_t> &counts,
                   std::vector<double> &values)
{
    const std::uint32_t window = 1u << synth.options.ioBits;
    values.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        values[i] = static_cast<double>(counts[i]) / window *
                    synth.outputScale;
}

std::vector<double>
decodeOutputValues(const FunctionalSynthesis &synth,
                   const std::vector<std::uint32_t> &counts)
{
    std::vector<double> values;
    decodeOutputValues(synth, counts, values);
    return values;
}

} // namespace fpsa
