/**
 * @file
 * The neural synthesizer (paper Section 5.1): lowers a computational
 * graph into core-ops following the NN-compiler approach of Ji et al.
 * [19, 20] -- every operation becomes low-precision VMM+ReLU, with
 * pooling and reductions built from dedicated MLP-style structures.
 *
 * Two outputs:
 *
 *  - `synthesizeSummary` (all models): per-weight-group statistics --
 *    tiles per instance, reuse degree, cell utilization -- which the
 *    spatial-to-temporal mapper and the performance model consume.
 *    ImageNet-scale graphs never enumerate individual core-ops.
 *
 *  - `synthesizeFunctional` (small nets): an explicit, executable
 *    core-op graph with quantized weights, used for end-to-end
 *    functional validation against the float reference.
 */

#ifndef FPSA_SYNTH_SYNTHESIZER_HH
#define FPSA_SYNTH_SYNTHESIZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "nn/graph.hh"
#include "synth/core_op.hh"
#include "synth/tiling.hh"

namespace fpsa
{

class Rng;

/** Synthesizer configuration. */
struct SynthOptions
{
    int crossbarRows = 256;
    int crossbarCols = 256;
    int ioBits = 6;      //!< spike-count precision (Gamma = 64)
    int weightBits = 8;  //!< effective signed weight precision

    /** Max signed weight level (paper add-method config: +/-120). */
    std::int32_t maxWeightLevel = 120;

    bool operator==(const SynthOptions &) const = default;
};

/** Largest option bit width; spike windows are `1u << ioBits` cycles. */
constexpr int kMaxOptionBits = 16;

/**
 * `InvalidArgument` unless every option is in the range the
 * synthesizer divides by, shifts by or allocates from: crossbar sides
 * and the weight level >= 1, bit widths in [1, kMaxOptionBits].
 * `synthesizeFunctional` and `Pipeline` both check through it.
 */
Status validateSynthOptions(const SynthOptions &options);

/** Analytic description of one weight group after lowering. */
struct SynthGroup
{
    std::string name;
    NodeId sourceNode = -1;
    CoreOpRole role = CoreOpRole::Weight;

    /** Crossbars one copy of this group's weights occupies. */
    std::int64_t tilesPerInstance = 1;

    /** Core-op instances sharing the weights (reuse degree). */
    std::int64_t instances = 1;

    /** Useful model MACs one instance performs (0 for aux groups). */
    std::int64_t macsPerInstance = 0;

    /** Useful cells / allocated cells across the group's crossbars. */
    double utilization = 1.0;

    /** Pipeline stages this group adds on the layer's path. */
    int stageDepth = 1;

    /** Producing groups (indices into SynthesisSummary::groups). */
    std::vector<int> preds;
};

/** Whole-graph synthesis summary. */
struct SynthesisSummary
{
    std::vector<SynthGroup> groups;
    SynthOptions options;

    /** Minimum PEs: one copy of every group's weights. */
    std::int64_t minPes() const;

    /** Total core-op executions per sample. */
    std::int64_t totalCoreOpRuns() const;

    /** Cell utilization over the minimum-storage allocation. */
    double spatialUtilization() const;

    /** Largest reuse degree over all groups. */
    std::int64_t maxReuse() const;

    /** Pipeline depth (sum of stage depths along the CG's layer chain). */
    int pipelineDepth = 1;
};

/** Lower a CG analytically. */
SynthesisSummary synthesizeSummary(const Graph &graph,
                                   const SynthOptions &options = {});

/** Where one element of a lowered tensor lives. */
struct OutputRef
{
    CoreOpId op = -1; //!< -1: the element is an external-input passthrough
    int col = 0;
};

/** An executable lowering of a (small) CG. */
struct FunctionalSynthesis
{
    CoreOpGraph coreOps;
    SynthOptions options;

    /** Per final-tensor element: which core-op column produces it. */
    std::vector<OutputRef> outputs;

    /**
     * Activation scale of the final node: a count c represents the real
     * value c * outputScale / Gamma.
     */
    double outputScale = 1.0;

    /** Activation scale of the external input (same convention). */
    double inputScale = 1.0;
};

/** Quantize a real input tensor to spike counts under a synthesis. */
std::vector<std::uint32_t> encodeInputCounts(
    const FunctionalSynthesis &synth, const Tensor &input);

/** Buffer-reusing variant for serving paths (resizes `counts`). */
void encodeInputCounts(const FunctionalSynthesis &synth,
                       const Tensor &input,
                       std::vector<std::uint32_t> &counts);

/** Decode final counts back to real values (relu'd domain). */
std::vector<double> decodeOutputValues(
    const FunctionalSynthesis &synth,
    const std::vector<std::uint32_t> &counts);

/** Buffer-reusing variant for serving paths (resizes `values`). */
void decodeOutputValues(const FunctionalSynthesis &synth,
                        const std::vector<std::uint32_t> &counts,
                        std::vector<double> &values);

/**
 * Lower a CG into an executable core-op graph.  Requires materialized
 * weights; calibrates per-layer activation scales by running the float
 * reference on `calibration`.
 *
 * Supported ops: Input, FullyConnected, Conv2d (groups == 1, pad == 0),
 * Relu (folded into the producing core-op, as the hardware applies ReLU
 * unconditionally), MaxPool (2x2 stride 2, pad == 0), Flatten.  Covers
 * the MLP/LeNet family; larger topologies use the analytic path.
 *
 * Unsupported ops/attributes or missing weights come back as
 * `StatusCode::InvalidArgument` (request-path data, never an abort), so
 * a serving process can reject a bad model and keep running.
 */
StatusOr<FunctionalSynthesis> synthesizeFunctional(
    const Graph &graph, const Tensor &calibration,
    const SynthOptions &options = {});

/**
 * Execute a functional synthesis in the exact count domain of the PE
 * (VMM, offset lanes, floor-divide threshold, ReLU, window clamp).
 *
 * Convenience wrapper that builds a fresh `CoreOpPlan` and arena per
 * call; serving paths that execute the same synthesis repeatedly
 * should hold a plan + arena and call `CoreOpPlan::run` instead.
 *
 * @param input_counts external input as spike counts (0..Gamma)
 * @return final output counts, one per element of outputs
 */
std::vector<std::uint32_t> runCoreOps(
    const FunctionalSynthesis &synth,
    const std::vector<std::uint32_t> &input_counts);

/**
 * Reusable execution scratch for `CoreOpPlan::run`: every core-op's
 * output counts live at a precomputed offset of one arena, so serving
 * a request allocates nothing once the arena has been sized (the
 * vectors grow on first use and are reused afterwards).
 */
struct CoreOpArena
{
    std::vector<std::uint32_t> values; //!< all op outputs, at plan offsets
    std::vector<std::uint32_t> gather; //!< one op's assembled input vector
};

/**
 * Precompiled schedule for executing one `FunctionalSynthesis`: input
 * gather sources are resolved to arena offsets and validated once at
 * build time instead of per request.  Immutable after construction and
 * shared freely across threads; each concurrent caller brings its own
 * `CoreOpArena`.
 */
class CoreOpPlan
{
  public:
    /** Compile the gather/offset schedule (panics on a corrupt graph). */
    explicit CoreOpPlan(const FunctionalSynthesis &synth);

    CoreOpArena makeArena() const;

    /**
     * Count-exact execution, identical to `runCoreOps`: reads
     * `input_len` external counts, writes `synth.outputs.size()` final
     * counts to `out`.  `synth` must be the instance the plan was
     * built from.
     */
    void run(const FunctionalSynthesis &synth,
             const std::uint32_t *input, std::size_t input_len,
             std::uint32_t *out, CoreOpArena &arena) const;

  private:
    /** One contiguous slice of an op's gathered input vector. */
    struct Segment
    {
        std::int64_t src = 0;   //!< arena offset (or external offset)
        std::int32_t length = 0;
        bool external = false;  //!< read from the request input instead
    };

    std::vector<Segment> segments_;
    std::vector<std::pair<std::int32_t, std::int32_t>> opSegments_;
    std::vector<std::int64_t> opOffset_; //!< op outputs within values
    std::vector<std::int64_t> outSrc_;   //!< per final element; see .cc
    std::int64_t valuesSize_ = 0;
    std::int64_t maxRows_ = 0;
};

} // namespace fpsa

#endif // FPSA_SYNTH_SYNTHESIZER_HH
