/**
 * @file
 * `fpsa::ChipFleet`: N FPSA chips, each with its own `ChipCapacity`
 * budget, per-chip `ModelRegistry` admission state and a per-chip
 * serving `Engine`.
 *
 * The fleet is the physical substrate the cluster layer schedules
 * onto.  Every chip runs the PR-4 single-chip serving stack unchanged
 * -- its engine owns the chip's registry, so per-chip admission,
 * hot-swap drain and telemetry all keep their single-chip semantics
 * -- and the fleet adds the cross-chip views placement needs:
 *
 *     auto fleet = ChipFleet::create({{"chip0", capacity},
 *                                     {"chip1", capacity}}).value();
 *     std::vector<ChipLoadView> views = fleet->loadViews();
 *     fleet->engine(0).loadModel("lenet", model);
 *
 * The chip list is immutable after construction; the per-chip engines
 * are themselves thread-safe, so the fleet needs no locking of its
 * own.  A one-chip fleet is exactly the PR-4 engine -- the cluster
 * stack degenerates to single-chip serving with zero extra machinery
 * in the request path.
 */

#ifndef FPSA_RUNTIME_CLUSTER_CHIP_FLEET_HH
#define FPSA_RUNTIME_CLUSTER_CHIP_FLEET_HH

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "runtime/cluster/placement.hh"
#include "runtime/engine.hh"
#include "runtime/model_registry.hh"

namespace fpsa
{

/** One chip's identity and budget, as handed to the fleet. */
struct ChipSpec
{
    ChipSpec() = default;

    /** `{"chip0", capacity}` leaves the chip at the default corner. */
    ChipSpec(std::string chipId, ChipCapacity chipCapacity,
             VariationProfile chipVariation = {})
        : id(std::move(chipId)), capacity(chipCapacity),
          variation(chipVariation)
    {
    }

    std::string id;
    ChipCapacity capacity;

    /**
     * The chip's device-variation identity (sigma, retention drift,
     * stuck-at yield + the chip's deterministic noise seed).  Defaults
     * to the fabricated corner with no drift or faults; fleets built
     * from `sampleFleetProfiles` give every chip its own corner.
     */
    VariationProfile variation;
};

/** The N-chip serving substrate: per-chip engines + placement views. */
class ChipFleet
{
  public:
    /**
     * Build a fleet of one engine per spec.  `engineOptions` applies
     * to every chip (its `chipId` is overridden per chip).  Fails
     * with `InvalidArgument` on zero chips, an empty id or a
     * duplicate id.
     */
    static StatusOr<std::unique_ptr<ChipFleet>> create(
        std::vector<ChipSpec> specs, EngineOptions engineOptions = {});

    std::size_t size() const { return chips_.size(); }
    const std::string &id(std::size_t chip) const;
    Engine &engine(std::size_t chip);
    const Engine &engine(std::size_t chip) const;

    /** Index of the chip named `chipId`; InvalidArgument when absent. */
    StatusOr<std::size_t> indexOf(const std::string &chipId) const;

    /** The chip's device-variation profile, as specced. */
    const VariationProfile &variation(std::size_t chip) const;

    /** Placement snapshot: one `ChipLoadView` per chip, fleet order. */
    std::vector<ChipLoadView> loadViews() const;

    /**
     * Shut down every chip's engine (each drains its tenants); the
     * first failure wins, later chips still shut down.
     */
    Status shutdown();

    /** Per-chip registry utilization, as a JSON array in fleet order. */
    std::string utilizationJson() const;

  private:
    struct Chip
    {
        std::string id;
        ChipCapacity capacity;
        VariationProfile variation;
        std::unique_ptr<Engine> engine;
    };

    explicit ChipFleet(std::vector<Chip> chips);

    std::vector<Chip> chips_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_CHIP_FLEET_HH
