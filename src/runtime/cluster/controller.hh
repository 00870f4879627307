/**
 * @file
 * `fpsa::ClusterController`: the one control loop an operator runs
 * beside a `ClusterEngine`.
 *
 * Every tick runs four steps in order:
 *
 *  1. probe -- `probeChips()` feeds the fail-stop detector;
 *  2. repair -- `repairOnce()` moves replicas off `Failed` chips and
 *     tops tenants back up to their desired replica count;
 *  3. re-program -- `recalibrateOnce()` drains and re-places STALE
 *     (drift-degraded) replicas with fresh weights;
 *  4. scale -- only when a `ScalePolicy` is given: each tenant's
 *     desired replica count follows its load.  Scale UP when the
 *     per-replica backlog exceeds `scaleUpPendingPerReplica`, or (with
 *     a tail SLO) the p99 queue wait exceeds `scaleUpP99Millis`, for
 *     `scaleUpAfter` consecutive ticks; scale DOWN when the backlog
 *     stays below `scaleDownPendingPerReplica` for `scaleDownAfter`
 *     ticks.  Shrinking uses the hot-swap drain, so no accepted request
 *     is dropped.  A scale-up the fleet has no room for is recorded
 *     (reason = the per-chip Infeasible breakdown) and retried on
 *     later ticks.
 *
 * `evaluateOnce()` runs one tick synchronously -- determinism for
 * tests and benches; `start()` runs the same tick on one background
 * thread every `intervalMillis`.  Every event, applied or rejected,
 * lands in one bounded `history()`.
 */

#ifndef FPSA_RUNTIME_CLUSTER_CONTROLLER_HH
#define FPSA_RUNTIME_CLUSTER_CONTROLLER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/event_log.hh"

namespace fpsa
{

/** Replica-scaling thresholds, per tenant. */
struct ScalePolicy
{
    int minReplicas = 1;

    /** Upper bound per tenant; 0 means "the fleet size". */
    int maxReplicas = 0;

    /** Queued+inflight per replica that triggers growth. */
    double scaleUpPendingPerReplica = 8.0;

    /** p99 queue-wait SLO in ms that triggers growth; 0 disables. */
    double scaleUpP99Millis = 0.0;

    /** Per-replica backlog under which a replica is surplus. */
    double scaleDownPendingPerReplica = 1.0;

    int scaleUpAfter = 1;   //!< consecutive hot ticks to grow
    int scaleDownAfter = 3; //!< consecutive idle ticks to shrink
};

/** Controller pacing, history bound and optional scaling. */
struct ControllerOptions
{
    /** The scale step runs only when a policy is given. */
    std::optional<ScalePolicy> scaling;

    double intervalMillis = 20.0; //!< background tick period

    /**
     * Most recent events retained by `history()`.  The loop runs for
     * the life of the process, so the history is a bounded ring.
     */
    int historyCapacity = 256;
};

/** Probe, repair, re-program and scale in one tick over a cluster. */
class ClusterController
{
  public:
    /** `cluster` must outlive the controller. */
    explicit ClusterController(ClusterEngine &cluster,
                               ControllerOptions options = {});

    ~ClusterController();

    ClusterController(const ClusterController &) = delete;
    ClusterController &operator=(const ClusterController &) = delete;

    /** Start the background tick (idempotent). */
    void start();

    /** Stop and join the background tick (idempotent). */
    void stop();

    /**
     * One synchronous tick; returns the events it recorded.  Also the
     * body of the background loop.
     */
    std::vector<ClusterEvent> evaluateOnce();

    /** The most recent `historyCapacity` events, oldest first. */
    std::vector<ClusterEvent> history() const;

    /** Events ever recorded, including evicted ones. */
    std::int64_t totalEvents() const;

    const ControllerOptions &options() const { return options_; }

  private:
    /** Consecutive over/under-threshold ticks of one tenant load. */
    struct Streak
    {
        std::int64_t loadId = 0; //!< a reload starts a new streak
        int hot = 0;
        int idle = 0;
    };

    /** Requires mu_: the scale step over every tenant. */
    void scaleLocked(const ScalePolicy &policy,
                     std::vector<ClusterEvent> &events);

    ClusterEngine &cluster_;
    const ControllerOptions options_;

    mutable std::mutex mu_; //!< guards streaks_, history_; one tick at a time
    std::map<std::string, Streak> streaks_;
    EventLog<ClusterEvent> history_;

    std::mutex loopMu_; //!< guards the loop thread + stop flag
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    std::thread loop_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_CONTROLLER_HH
