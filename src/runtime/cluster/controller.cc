#include "runtime/cluster/controller.hh"

#include <algorithm>
#include <chrono>
#include <utility>

namespace fpsa
{

ClusterController::ClusterController(ClusterEngine &cluster,
                                     ControllerOptions options)
    : cluster_(cluster), options_(std::move(options)),
      history_(static_cast<std::size_t>(
          std::max(options_.historyCapacity, 1)))
{
}

ClusterController::~ClusterController()
{
    stop();
}

void
ClusterController::start()
{
    std::lock_guard<std::mutex> lock(loopMu_);
    if (loop_.joinable())
        return;
    stopRequested_ = false;
    loop_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(loopMu_);
        while (!stopRequested_) {
            lock.unlock();
            evaluateOnce();
            lock.lock();
            stopCv_.wait_for(
                lock,
                std::chrono::duration<double, std::milli>(
                    options_.intervalMillis),
                [this] { return stopRequested_; });
        }
    });
}

void
ClusterController::stop()
{
    std::thread joinable;
    {
        std::lock_guard<std::mutex> lock(loopMu_);
        stopRequested_ = true;
        stopCv_.notify_all();
        joinable = std::move(loop_);
    }
    if (joinable.joinable())
        joinable.join();
}

std::vector<ClusterEvent>
ClusterController::evaluateOnce()
{
    // One tick at a time (background loop vs direct calls); every
    // action goes through the cluster's own op serialization.
    std::lock_guard<std::mutex> lock(mu_);
    cluster_.probeChips();
    std::vector<ClusterEvent> events = cluster_.repairOnce();
    for (ClusterEvent &event : cluster_.recalibrateOnce())
        events.push_back(std::move(event));
    if (options_.scaling)
        scaleLocked(*options_.scaling, events);
    for (const ClusterEvent &event : events)
        history_.push(event);
    return events;
}

void
ClusterController::scaleLocked(const ScalePolicy &policy,
                               std::vector<ClusterEvent> &events)
{
    const int fleet_size = static_cast<int>(cluster_.fleet().size());
    const int max_replicas =
        policy.maxReplicas > 0 ? std::min(policy.maxReplicas, fleet_size)
                               : fleet_size;

    // Streaks of tenants absent this tick are dropped, and a tenant
    // reloaded under the same name starts from zero.
    std::map<std::string, Streak> streaks;
    for (const std::string &name : cluster_.modelNames()) {
        auto load = cluster_.tenantLoad(name);
        if (!load.ok())
            continue; // unloaded between listing and observation
        Streak &streak = streaks[name];
        if (auto it = streaks_.find(name);
            it != streaks_.end() && it->second.loadId == load->loadId)
            streak = it->second;
        streak.loadId = load->loadId;

        const bool hot =
            load->pendingPerReplica > policy.scaleUpPendingPerReplica ||
            (policy.scaleUpP99Millis > 0.0 &&
             load->p99QueueMillis > policy.scaleUpP99Millis);
        const bool idle =
            load->pendingPerReplica < policy.scaleDownPendingPerReplica;
        streak.hot = hot ? streak.hot + 1 : 0;
        streak.idle = idle ? streak.idle + 1 : 0;

        // Scale the desired count, not the live one: a tenant degraded
        // by failed chips must not lose the replicas repair restores.
        const int desired = load->desiredReplicas;
        int target = desired;
        std::string reason;
        if (streak.hot >= policy.scaleUpAfter && desired < max_replicas) {
            target = desired + 1;
            reason = "pending/replica " +
                     std::to_string(load->pendingPerReplica) + ", p99 " +
                     std::to_string(load->p99QueueMillis) + "ms";
        } else if (streak.idle >= policy.scaleDownAfter &&
                   desired > policy.minReplicas &&
                   load->replicas >= desired) {
            target = desired - 1;
            reason = "pending/replica " +
                     std::to_string(load->pendingPerReplica) +
                     " below scale-down threshold";
        }
        if (target == desired)
            continue;

        ClusterEvent event;
        event.model = name;
        event.fromReplicas = desired;
        event.status = cluster_.setReplicas(name, target);
        if (event.status.ok()) {
            event.toReplicas = target;
            event.reason = std::move(reason);
            streak.hot = 0;
            streak.idle = 0;
        } else {
            // Rejected (typically placement Infeasible on a full
            // fleet): record why and retry on later ticks.
            event.toReplicas = desired;
            event.reason = event.status.toString();
        }
        events.push_back(std::move(event));
    }
    streaks_ = std::move(streaks);
}

std::vector<ClusterEvent>
ClusterController::history() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return history_.snapshot();
}

std::int64_t
ClusterController::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return history_.totalRecorded();
}

} // namespace fpsa
