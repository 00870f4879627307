/**
 * @file
 * Core-ops and the core-op graph (paper Section 5.1).
 *
 * A core-op is the one operation FPSA hardware executes natively: a
 * low-precision vector-matrix multiplication followed by ReLU, sized to
 * fit one 256x256 logical crossbar.  The neural synthesizer lowers every
 * CG operation into core-ops; core-ops that share a weight matrix (e.g.
 * all spatial positions of one convolution) belong to one *weight group*
 * and can time-share PEs.
 */

#ifndef FPSA_SYNTH_CORE_OP_HH
#define FPSA_SYNTH_CORE_OP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/graph.hh"

namespace fpsa
{

/** Largest core-op side: one logical crossbar's rows or columns. */
constexpr int kCoreOpMaxSide = 256;

/** Index of a core-op within a CoreOpGraph. */
using CoreOpId = std::int32_t;

/** Index of a weight group. */
using GroupId = std::int32_t;

/** What a core-op implements (provenance for utilization accounting). */
enum class CoreOpRole
{
    Weight,   //!< a tile of a conv/fc weight matrix
    Reduce,   //!< partial-sum reduction (synthesizer-introduced)
    Pool,     //!< max-pooling comparator stage (MLP construction)
    Eltwise,  //!< residual add / average pooling linear map
};

const char *coreOpRoleName(CoreOpRole role);

/** One input connection of a core-op: a slice of a producer's output. */
struct CoreOpInput
{
    CoreOpId producer = -1;  //!< -1 means the graph's external input
    int offset = 0;          //!< first element of the producer's output
    int length = 0;          //!< elements consumed
};

/** One core-op instance. */
struct CoreOp
{
    std::string name;
    CoreOpRole role = CoreOpRole::Weight;
    int rows = 0;  //!< input vector length (<= 256)
    int cols = 0;  //!< output vector length (<= 256)
    GroupId group = -1;
    NodeId sourceNode = -1; //!< CG node this op came from
    std::vector<CoreOpInput> inputs;

    /**
     * Signed weight levels (rows x cols, row-major) when the graph is
     * materialized for functional execution; empty in analysis mode.
     */
    std::vector<std::int32_t> weightLevels;

    /**
     * Offset-lane encoding: if positive, an extra always-on input row
     * with this weight level is appended so partial sums stay
     * non-negative through the hardware ReLU (see lowering.cc).
     */
    std::int32_t offsetLevels = 0;

    /** Firing threshold in weight-level units for this op's PEs. */
    double etaLevels = 0.0;
};

/** Explicit core-op graph (used for small nets and scheduling). */
class CoreOpGraph
{
  public:
    CoreOpId add(CoreOp op);

    const std::vector<CoreOp> &ops() const { return ops_; }
    const CoreOp &op(CoreOpId id) const;
    CoreOp &op(CoreOpId id);

    std::size_t size() const { return ops_.size(); }

    /** Number of distinct weight groups. */
    int groupCount() const { return nextGroup_; }

    /** Allocate a fresh weight-group id. */
    GroupId newGroup() { return nextGroup_++; }

    /** Ops belonging to one group. */
    std::vector<CoreOpId> opsInGroup(GroupId g) const;

    /** Validate dataflow indices; panics on corruption. */
    void validate() const;

  private:
    std::vector<CoreOp> ops_;
    GroupId nextGroup_ = 0;
};

} // namespace fpsa

#endif // FPSA_SYNTH_CORE_OP_HH
