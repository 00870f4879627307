/**
 * @file
 * Pluggable model-placement policies for a fleet of FPSA chips.
 *
 * Placement answers: "on which chips do the K replicas of this model
 * go?"  A policy sees the fleet as `ChipLoadView`s -- per-chip
 * capacity, resident demand and resident tenant names -- and returns
 * distinct chip indices, one per replica (replicas of one tenant
 * never share a chip, so losing or draining a chip never takes out
 * every replica at once):
 *
 *     auto policy = makePlacementPolicy(PlacementPolicyKind::BestFit);
 *     PlacementRequest request{.model = "vgg", .demand = d,
 *                              .replicas = 2};
 *     StatusOr<std::vector<std::size_t>> chips =
 *         policy->place(request, fleet.loadViews());
 *
 * Policies are deterministic: the same fleet state and the same
 * request always produce the same assignment (ties break toward the
 * lowest chip index), so a replayed deployment reproduces its
 * placement exactly.  When the request cannot be satisfied, `place`
 * returns `Infeasible` with a per-chip breakdown (each chip's uniform
 * `admissionBreakdown` line, or why it was excluded), the fleet
 * analogue of the registry's single-chip rejection message.
 */

#ifndef FPSA_RUNTIME_CLUSTER_PLACEMENT_HH
#define FPSA_RUNTIME_CLUSTER_PLACEMENT_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "mapper/allocation.hh"
#include "reram/variation.hh"
#include "runtime/model_registry.hh"

namespace fpsa
{

/** One chip's placement-relevant state, snapshotted from the fleet. */
struct ChipLoadView
{
    std::string id;
    ChipCapacity capacity;
    ResourceDemand resident;         //!< sum over resident models
    std::vector<std::string> models; //!< resident tenant names

    /**
     * Health veto: a chip the health tracker reports `Failed` is
     * ineligible for every replica (the cluster stamps this onto the
     * fleet's views before placing).  The Infeasible breakdown names
     * it so "no capacity" and "capacity is down" stay tellable apart.
     */
    bool failed = false;

    /**
     * The chip's device-variation corner (sigma, drift, stuck-at).
     * Accuracy-gated requests narrow their eligible chips to the
     * lowest `sigmaOfRange` among those meeting the accuracy SLO, so
     * sensitive models land on the quietest silicon.
     */
    VariationModel variation;
};

/** What a placement request asks of the fleet. */
struct PlacementRequest
{
    std::string model;
    ResourceDemand demand; //!< per replica
    int replicas = 1;      //!< distinct chips, one per replica

    /**
     * Accuracy SLO from `TenantOptions::minAccuracy`; 0 leaves
     * placement purely capacity-driven.
     */
    double minAccuracy = 0.0;

    /**
     * Per-chip calibrated predictions, parallel to the `chips` views
     * handed to `place`.  When `minAccuracy > 0` and this has one
     * entry per chip, a chip is eligible only if its prediction meets
     * the SLO, eligible chips are narrowed to the lowest-variance
     * ones, and the Infeasible breakdown reports each failing chip's
     * predicted-vs-needed gap.  Left empty the request is ungated.
     */
    std::vector<double> predictedAccuracy;

    /** Per-chip mapping summaries for breakdown messages (optional). */
    std::vector<std::string> mappingSummary;
};

/**
 * What a multi-stage replica's placement asks: one chip per shard of
 * a pipeline, demands differing per shard.  Consecutive shards
 * communicate (shard s forwards `cutBytes[s]` activation bytes per
 * request to shard s+1), so placement co-locates them on low-hop
 * chips -- hop distance is |chip index difference| on the fleet's
 * linear interconnect (see `InterconnectParams`).
 */
struct ShardPlacementRequest
{
    std::string model; //!< the replica's tenant name (for breakdowns)

    std::vector<ResourceDemand> demands; //!< per shard, pipeline order

    /** Bytes shard s forwards to s+1 (size demands.size() - 1). */
    std::vector<std::int64_t> cutBytes;

    /**
     * Chip indices ineligible for this replica (e.g. chips hosting
     * another replica of the same tenant, so one chip loss never
     * takes out two replicas).
     */
    std::vector<std::size_t> avoid;
};

/** Selectable placement strategy. */
enum class PlacementPolicyKind
{
    FirstFit, //!< lowest-index chip with room, per replica
    BestFit,  //!< tightest-fitting chip (least residual slack)
};

const char *placementPolicyName(PlacementPolicyKind kind);

/** A deterministic bin-packing strategy over the fleet. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Choose `request.replicas` distinct chips for the model.  The
     * result lists chip indices into `chips` in placement order.
     * `InvalidArgument` on a non-positive replica count or more
     * replicas than chips; `Infeasible` with a per-chip breakdown
     * when the fleet cannot host the request.
     */
    virtual StatusOr<std::vector<std::size_t>> place(
        const PlacementRequest &request,
        const std::vector<ChipLoadView> &chips) const = 0;

    /**
     * Choose one distinct chip per shard of a pipeline, in stage
     * order.  Stage 0 is placed by the policy's own preference among
     * the chips that fit; every later stage first narrows to the
     * chips at minimum hop distance from its predecessor (the shards
     * communicate every request, so hops dominate the interconnect
     * term) and only then applies the policy preference as the
     * tie-break.  `Infeasible` with a per-chip breakdown naming the
     * first unplaceable stage when no assignment exists.
     */
    virtual StatusOr<std::vector<std::size_t>> placeShards(
        const ShardPlacementRequest &request,
        const std::vector<ChipLoadView> &chips) const = 0;
};

/**
 * True when `demand` exceeds every live chip's *total* capacity --
 * i.e. no amount of draining or autoscaling makes a whole replica
 * fit, and only sharding across chips can serve the model.  The
 * cluster uses this as the replicate-whole -> shard-across fallback
 * trigger, and `place`'s Infeasible breakdown appends a minimum
 * shard-count estimate when it holds.
 */
bool demandOversizedForFleet(const ResourceDemand &demand,
                             const std::vector<ChipLoadView> &chips);

std::unique_ptr<PlacementPolicy> makePlacementPolicy(
    PlacementPolicyKind kind);

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_PLACEMENT_HH
