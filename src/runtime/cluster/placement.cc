#include "runtime/cluster/placement.hh"

#include <algorithm>
#include <limits>

#include "common/table.hh"

namespace fpsa
{

namespace
{

/** Whether this request carries usable per-chip accuracy predictions. */
bool
accuracyGated(const PlacementRequest &request, std::size_t chipCount)
{
    return request.minAccuracy > 0.0 &&
           request.predictedAccuracy.size() == chipCount;
}

/** Whether the chip's calibrated prediction meets the accuracy SLO. */
bool
meetsAccuracy(const PlacementRequest &request, std::size_t chip)
{
    return request.predictedAccuracy[chip] >= request.minAccuracy;
}

ResourceDemand
afterPlacing(const ChipLoadView &chip, const ResourceDemand &demand)
{
    ResourceDemand needed = chip.resident;
    needed.peBlocks += demand.peBlocks;
    needed.smbBlocks += demand.smbBlocks;
    needed.clbBlocks += demand.clbBlocks;
    needed.routingTracks += demand.routingTracks;
    return needed;
}

bool
fits(const ChipLoadView &chip, const ResourceDemand &demand)
{
    const ResourceDemand needed = afterPlacing(chip, demand);
    return needed.peBlocks <= chip.capacity.peBlocks &&
           needed.smbBlocks <= chip.capacity.smbBlocks &&
           needed.clbBlocks <= chip.capacity.clbBlocks &&
           needed.routingTracks <= chip.capacity.routingTracks;
}

bool
hostsModel(const ChipLoadView &chip, const std::string &model)
{
    return std::find(chip.models.begin(), chip.models.end(), model) !=
           chip.models.end();
}

/**
 * Residual slack after placing `demand`, as the sum of remaining
 * capacity fractions across the resource families -- the best-fit
 * objective.  Fractions keep the heterogeneous units (blocks vs
 * routing tracks) commensurable.
 */
double
residualSlack(const ChipLoadView &chip, const ResourceDemand &demand)
{
    const ResourceDemand needed = afterPlacing(chip, demand);
    auto fraction = [](std::int64_t needed_units,
                       std::int64_t capacity_units) {
        if (capacity_units <= 0)
            return 0.0;
        return static_cast<double>(capacity_units - needed_units) /
               static_cast<double>(capacity_units);
    };
    return fraction(needed.peBlocks, chip.capacity.peBlocks) +
           fraction(needed.smbBlocks, chip.capacity.smbBlocks) +
           fraction(needed.clbBlocks, chip.capacity.clbBlocks) +
           fraction(needed.routingTracks, chip.capacity.routingTracks);
}

/** Whether `demand` fits within `capacity` with nothing resident. */
bool
fitsEmptyChip(const ChipCapacity &capacity, const ResourceDemand &demand)
{
    return demand.peBlocks <= capacity.peBlocks &&
           demand.smbBlocks <= capacity.smbBlocks &&
           demand.clbBlocks <= capacity.clbBlocks &&
           demand.routingTracks <= capacity.routingTracks;
}

/** A chip's remaining budget (total capacity minus residents). */
ResourceDemand
residualCapacity(const ChipLoadView &chip)
{
    auto left = [](std::int64_t capacity_units,
                   std::int64_t resident_units) {
        return std::max<std::int64_t>(capacity_units - resident_units,
                                      0);
    };
    ResourceDemand residual;
    residual.peBlocks =
        left(chip.capacity.peBlocks, chip.resident.peBlocks);
    residual.smbBlocks =
        left(chip.capacity.smbBlocks, chip.resident.smbBlocks);
    residual.clbBlocks =
        left(chip.capacity.clbBlocks, chip.resident.clbBlocks);
    residual.routingTracks =
        left(chip.capacity.routingTracks, chip.resident.routingTracks);
    return residual;
}

/**
 * A minimum shard-count estimate for a demand no single chip can
 * host: greedily accumulate live chips' residual budgets (largest PE
 * budget first, ties on the lowest index) until every resource family
 * is covered.  A lower bound in practice -- real shards cut at layer
 * boundaries, so the true count can be higher -- but enough to tell
 * "load this sharded" apart from "this exceeds the whole fleet".
 */
std::string
shardEstimateSuffix(const ResourceDemand &demand,
                    const std::vector<ChipLoadView> &chips)
{
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < chips.size(); ++i)
        if (!chips[i].failed)
            live.push_back(i);
    std::stable_sort(live.begin(), live.end(),
                     [&](std::size_t a, std::size_t b) {
                         return residualCapacity(chips[a]).peBlocks >
                                residualCapacity(chips[b]).peBlocks;
                     });

    ResourceDemand pooled;
    std::string used;
    std::size_t count = 0;
    for (std::size_t i : live) {
        const ResourceDemand residual = residualCapacity(chips[i]);
        pooled.peBlocks += residual.peBlocks;
        pooled.smbBlocks += residual.smbBlocks;
        pooled.clbBlocks += residual.clbBlocks;
        pooled.routingTracks += residual.routingTracks;
        if (!used.empty())
            used += ",";
        used += "'" + chips[i].id + "'";
        ++count;
        if (pooled.peBlocks >= demand.peBlocks &&
            pooled.smbBlocks >= demand.smbBlocks &&
            pooled.clbBlocks >= demand.clbBlocks &&
            pooled.routingTracks >= demand.routingTracks) {
            return " -- sharding estimate: fits in at least " +
                   std::to_string(std::max<std::size_t>(count, 2)) +
                   " shards across chips " + used +
                   " (load with sharding enabled instead of "
                   "replicating whole)";
        }
    }
    return " -- sharding estimate: demand exceeds the whole fleet's "
           "residual capacity; sharding cannot help";
}

/**
 * The fleet-wide Infeasible message: one uniform per-chip line each,
 * either the chip's admission breakdown or why it was excluded.  For
 * a demand too big for any chip even when empty, appends the minimum
 * shard-count estimate.
 */
Status
fleetInfeasible(const PlacementRequest &request,
                const std::vector<ChipLoadView> &chips,
                const std::vector<bool> &chosen, int placed)
{
    std::string message = "placement infeasible for model '" +
                          request.model + "' (" +
                          std::to_string(request.replicas) +
                          " replica" +
                          (request.replicas == 1 ? "" : "s") + ", " +
                          std::to_string(placed) + " placeable): ";
    for (std::size_t i = 0; i < chips.size(); ++i) {
        if (i > 0)
            message += "; ";
        message += "chip '" + chips[i].id + "': ";
        if (chips[i].failed) {
            message += "FAILED health; excluded from placement";
        } else if (chosen[i]) {
            message += "selected for an earlier replica";
        } else if (hostsModel(chips[i], request.model)) {
            message += "already hosts '" + request.model + "'";
        } else if (accuracyGated(request, chips.size()) &&
                   !meetsAccuracy(request, i)) {
            message += "predicted accuracy " +
                       fmtDouble(request.predictedAccuracy[i]) +
                       " < required " + fmtDouble(request.minAccuracy);
            if (request.mappingSummary.size() == chips.size())
                message += " (best mapping " +
                           request.mappingSummary[i] + ")";
        } else {
            message += admissionBreakdown(
                afterPlacing(chips[i], request.demand),
                chips[i].capacity);
        }
    }
    if (demandOversizedForFleet(request.demand, chips))
        message += shardEstimateSuffix(request.demand, chips);
    return Status::error(StatusCode::Infeasible, message);
}

/** The shard-group analogue of `fleetInfeasible`. */
Status
shardInfeasible(const ShardPlacementRequest &request,
                const std::vector<ChipLoadView> &chips,
                const std::vector<bool> &chosen,
                const std::vector<bool> &excluded, std::size_t stage)
{
    std::string message =
        "shard placement infeasible for model '" + request.model +
        "' (" + std::to_string(request.demands.size()) + " shards, " +
        std::to_string(stage) + " placeable): ";
    for (std::size_t i = 0; i < chips.size(); ++i) {
        if (i > 0)
            message += "; ";
        message += "chip '" + chips[i].id + "': ";
        if (chips[i].failed) {
            message += "FAILED health; excluded from placement";
        } else if (chosen[i]) {
            message += "selected for an earlier shard";
        } else if (excluded[i]) {
            message += "excluded (hosts another group of '" +
                       request.model + "')";
        } else {
            message += admissionBreakdown(
                afterPlacing(chips[i], request.demands[stage]),
                chips[i].capacity);
        }
    }
    return Status::error(StatusCode::Infeasible, message);
}

/** First-fit preference: the lowest-index eligible chip. */
std::size_t
firstFitPick(const std::vector<std::size_t> &eligible,
             const std::vector<ChipLoadView> &chips,
             const ResourceDemand &demand)
{
    (void)chips;
    (void)demand;
    return eligible.front();
}

/**
 * Best-fit preference: the eligible chip with the least residual
 * slack after placement; the strict < keeps ties on the lowest index.
 */
std::size_t
bestFitPick(const std::vector<std::size_t> &eligible,
            const std::vector<ChipLoadView> &chips,
            const ResourceDemand &demand)
{
    std::size_t best = eligible.front();
    double best_slack = std::numeric_limits<double>::infinity();
    for (std::size_t i : eligible) {
        const double slack = residualSlack(chips[i], demand);
        if (slack < best_slack) {
            best_slack = slack;
            best = i;
        }
    }
    return best;
}

/**
 * Shared per-replica placement loop; `pick` chooses among the
 * eligible chips of one replica (indices into `chips`) and policies
 * differ only in that choice.
 */
template <typename PickFn>
StatusOr<std::vector<std::size_t>>
placeReplicas(const PlacementRequest &request,
              const std::vector<ChipLoadView> &chips, PickFn pick)
{
    if (request.replicas < 1) {
        return Status::error(StatusCode::InvalidArgument,
                             "placement: replicas must be >= 1 for "
                             "model '" +
                                 request.model + "'");
    }
    if (static_cast<std::size_t>(request.replicas) > chips.size()) {
        return Status::error(
            StatusCode::InvalidArgument,
            "placement: " + std::to_string(request.replicas) +
                " replicas of model '" + request.model +
                "' need as many distinct chips, fleet has " +
                std::to_string(chips.size()));
    }

    const bool gated = accuracyGated(request, chips.size());
    std::vector<std::size_t> assignment;
    std::vector<bool> chosen(chips.size(), false);
    for (int replica = 0; replica < request.replicas; ++replica) {
        std::vector<std::size_t> eligible;
        for (std::size_t i = 0; i < chips.size(); ++i) {
            if (!chips[i].failed && !chosen[i] &&
                !hostsModel(chips[i], request.model) &&
                fits(chips[i], request.demand) &&
                (!gated || meetsAccuracy(request, i)))
                eligible.push_back(i);
        }
        if (eligible.empty()) {
            return fleetInfeasible(request, chips, chosen, replica);
        }
        if (gated) {
            // Among SLO-meeting chips, prefer the quietest silicon:
            // narrow to the minimum sigma, then let the policy pick
            // (so capacity packing still breaks sigma ties).
            double best_sigma =
                std::numeric_limits<double>::infinity();
            for (std::size_t i : eligible)
                best_sigma = std::min(best_sigma,
                                      chips[i].variation.sigmaOfRange);
            std::vector<std::size_t> quietest;
            for (std::size_t i : eligible)
                if (chips[i].variation.sigmaOfRange == best_sigma)
                    quietest.push_back(i);
            eligible.swap(quietest);
        }
        const std::size_t picked =
            pick(eligible, chips, request.demand);
        chosen[picked] = true;
        assignment.push_back(picked);
    }
    return assignment;
}

/**
 * Shared multi-stage placement loop.  Stage 0 goes wherever the
 * policy prefers; each later stage narrows its eligible set to the
 * chips at minimum hop distance (|index difference| on the linear
 * interconnect) from the predecessor stage, then lets the policy pick
 * among them.  The cut bytes scale every candidate's interconnect
 * cost by the same factor, so minimizing hops minimizes the modeled
 * transfer term exactly.
 */
template <typename PickFn>
StatusOr<std::vector<std::size_t>>
placeShardGroup(const ShardPlacementRequest &request,
                const std::vector<ChipLoadView> &chips, PickFn pick)
{
    if (request.demands.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "shard placement: no shard demands for "
                             "model '" +
                                 request.model + "'");
    }
    if (request.demands.size() > chips.size()) {
        return Status::error(
            StatusCode::InvalidArgument,
            "shard placement: " +
                std::to_string(request.demands.size()) +
                " shards of model '" + request.model +
                "' need as many distinct chips, fleet has " +
                std::to_string(chips.size()));
    }

    std::vector<bool> excluded(chips.size(), false);
    for (std::size_t i : request.avoid)
        if (i < chips.size())
            excluded[i] = true;

    std::vector<std::size_t> assignment;
    std::vector<bool> chosen(chips.size(), false);
    for (std::size_t stage = 0; stage < request.demands.size();
         ++stage) {
        std::vector<std::size_t> eligible;
        for (std::size_t i = 0; i < chips.size(); ++i) {
            if (!chips[i].failed && !chosen[i] && !excluded[i] &&
                fits(chips[i], request.demands[stage]))
                eligible.push_back(i);
        }
        if (eligible.empty()) {
            return shardInfeasible(request, chips, chosen, excluded,
                                   stage);
        }
        if (stage > 0) {
            const std::size_t prev = assignment[stage - 1];
            auto hops = [prev](std::size_t i) {
                return i > prev ? i - prev : prev - i;
            };
            std::size_t best_hops =
                std::numeric_limits<std::size_t>::max();
            for (std::size_t i : eligible)
                best_hops = std::min(best_hops, hops(i));
            std::vector<std::size_t> nearest;
            for (std::size_t i : eligible)
                if (hops(i) == best_hops)
                    nearest.push_back(i);
            eligible.swap(nearest);
        }
        const std::size_t picked =
            pick(eligible, chips, request.demands[stage]);
        chosen[picked] = true;
        assignment.push_back(picked);
    }
    return assignment;
}

class FirstFitPlacement final : public PlacementPolicy
{
  public:
    const char *
    name() const override
    {
        return "first-fit";
    }

    StatusOr<std::vector<std::size_t>>
    place(const PlacementRequest &request,
          const std::vector<ChipLoadView> &chips) const override
    {
        return placeReplicas(request, chips, firstFitPick);
    }

    StatusOr<std::vector<std::size_t>>
    placeShards(const ShardPlacementRequest &request,
                const std::vector<ChipLoadView> &chips) const override
    {
        return placeShardGroup(request, chips, firstFitPick);
    }
};

class BestFitPlacement final : public PlacementPolicy
{
  public:
    const char *
    name() const override
    {
        return "best-fit";
    }

    StatusOr<std::vector<std::size_t>>
    place(const PlacementRequest &request,
          const std::vector<ChipLoadView> &chips) const override
    {
        return placeReplicas(request, chips, bestFitPick);
    }

    StatusOr<std::vector<std::size_t>>
    placeShards(const ShardPlacementRequest &request,
                const std::vector<ChipLoadView> &chips) const override
    {
        return placeShardGroup(request, chips, bestFitPick);
    }
};

} // namespace

bool
demandOversizedForFleet(const ResourceDemand &demand,
                        const std::vector<ChipLoadView> &chips)
{
    bool any_live = false;
    for (const ChipLoadView &chip : chips) {
        if (chip.failed)
            continue;
        any_live = true;
        if (fitsEmptyChip(chip.capacity, demand))
            return false;
    }
    return any_live;
}

const char *
placementPolicyName(PlacementPolicyKind kind)
{
    switch (kind) {
    case PlacementPolicyKind::FirstFit:
        return "first-fit";
    case PlacementPolicyKind::BestFit:
        return "best-fit";
    }
    return "unknown";
}

std::unique_ptr<PlacementPolicy>
makePlacementPolicy(PlacementPolicyKind kind)
{
    switch (kind) {
    case PlacementPolicyKind::FirstFit:
        return std::make_unique<FirstFitPlacement>();
    case PlacementPolicyKind::BestFit:
        return std::make_unique<BestFitPlacement>();
    }
    return nullptr;
}

} // namespace fpsa
