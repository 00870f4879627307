#include "runtime/cluster/cluster_engine.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "common/json.hh"

namespace fpsa
{

namespace
{

/**
 * Conservative cross-replica merge: counters and service rates sum,
 * queue-wait percentiles take the worst replica (a tail gate must not
 * be diluted by an idle replica), batch histograms add elementwise.
 */
void
mergeStats(EngineStats &into, const EngineStats &s)
{
    into.submitted += s.submitted;
    into.completed += s.completed;
    into.failed += s.failed;
    into.rejected += s.rejected;
    into.batches += s.batches;
    into.throughput += s.throughput;
    into.wallSeconds = std::max(into.wallSeconds, s.wallSeconds);
    into.p50QueueMillis = std::max(into.p50QueueMillis, s.p50QueueMillis);
    into.p95QueueMillis = std::max(into.p95QueueMillis, s.p95QueueMillis);
    into.p99QueueMillis = std::max(into.p99QueueMillis, s.p99QueueMillis);
    into.maxQueueMillis = std::max(into.maxQueueMillis, s.maxQueueMillis);
    into.modeledLatency = std::max(into.modeledLatency, s.modeledLatency);
    into.modeledEnergyPerSample = std::max(into.modeledEnergyPerSample,
                                           s.modeledEnergyPerSample);
    if (into.batchSizeCounts.size() < s.batchSizeCounts.size())
        into.batchSizeCounts.resize(s.batchSizeCounts.size(), 0);
    for (std::size_t i = 0; i < s.batchSizeCounts.size(); ++i)
        into.batchSizeCounts[i] += s.batchSizeCounts[i];
    if (into.batches > 0) {
        std::int64_t coalesced = 0;
        for (std::size_t n = 0; n < into.batchSizeCounts.size(); ++n)
            coalesced +=
                static_cast<std::int64_t>(n) * into.batchSizeCounts[n];
        into.avgBatchSize = static_cast<double>(coalesced) /
                            static_cast<double>(into.batches);
    }
}

} // namespace

StatusOr<std::unique_ptr<ClusterEngine>>
ClusterEngine::create(std::vector<ChipSpec> chips, ClusterOptions options)
{
    std::unique_ptr<PlacementPolicy> policy =
        makePlacementPolicy(options.placement);
    if (!policy) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: unknown placement policy");
    }
    if (options.retryBudget < 0) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: retryBudget must be >= 0");
    }
    auto fleet = ChipFleet::create(std::move(chips), options.engine);
    if (!fleet.ok())
        return fleet.status();
    return std::unique_ptr<ClusterEngine>(
        new ClusterEngine(std::move(fleet).value(), std::move(policy),
                          options));
}

ClusterEngine::ClusterEngine(std::unique_ptr<ChipFleet> fleet,
                             std::unique_ptr<PlacementPolicy> policy,
                             ClusterOptions options)
    : options_(std::move(options)), policy_(std::move(policy)),
      fleet_(std::move(fleet)),
      health_(std::make_unique<HealthTracker>(fleet_->size(),
                                              options_.health))
{
    if (options_.retryBudget > 0)
        backoffThread_ = std::thread(&ClusterEngine::backoffLoop, this);
}

ClusterEngine::~ClusterEngine()
{
    shutdown();
}

// ----------------------------------------------------------------- tenants

Status
ClusterEngine::loadModel(const std::string &name,
                         std::shared_ptr<const CompiledModel> model,
                         int replicas)
{
    return loadModel(name, std::move(model), replicas, TenantOptions{});
}

Status
ClusterEngine::loadModel(const std::string &name,
                         std::shared_ptr<const CompiledModel> model,
                         int replicas, const TenantOptions &tenant)
{
    if (!model) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: null compiled model for '" +
                                 name + "'");
    }
    if (replicas < 1) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: replicas must be >= 1 for '" +
                                 name + "'");
    }
    std::lock_guard<std::mutex> ops(opsMu_);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            return Status::error(StatusCode::Unavailable,
                                 "cluster is shut down; cannot load '" +
                                     name + "'");
        }
        if (tenants_.count(name) != 0) {
            return Status::error(StatusCode::InvalidArgument,
                                 "cluster: a model named '" + name +
                                     "' is already loaded");
        }
    }

    TenantEntry entry;
    entry.model = std::make_shared<const ShardedModel>(wholeModel(model));
    entry.tenant = tenant;
    entry.desiredReplicas = replicas;
    entry.loadId = nextLoadId_++;

    // Replicate-whole -> shard-across fallback: only a model that fits
    // no chip even empty gets multi-stage replicas (a fit-anywhere
    // model placed on a momentarily full fleet still fails Infeasible
    // with the per-chip breakdown -- draining or scaling can fix that,
    // sharding cannot improve it).
    Status split_failure;
    if (demandOversizedForFleet(model->resourceDemand(),
                                healthyLoadViews())) {
        std::vector<ChipCapacity> capacities;
        for (const ChipLoadView &view : healthyLoadViews()) {
            if (view.failed)
                continue;
            ChipCapacity residual = view.capacity;
            residual.peBlocks = std::max<std::int64_t>(
                residual.peBlocks - view.resident.peBlocks, 0);
            residual.smbBlocks = std::max<std::int64_t>(
                residual.smbBlocks - view.resident.smbBlocks, 0);
            residual.clbBlocks = std::max<std::int64_t>(
                residual.clbBlocks - view.resident.clbBlocks, 0);
            residual.routingTracks = std::max<std::int64_t>(
                residual.routingTracks - view.resident.routingTracks,
                0);
            capacities.push_back(residual);
        }
        ModelPartitioner partitioner;
        auto split = partitioner.partition(
            *model, capacities, /*minShards=*/2,
            /*maxShards=*/static_cast<int>(fleet_->size()));
        if (split.ok()) {
            entry.model = std::make_shared<const ShardedModel>(
                std::move(split).value());
        } else if (split.status().code() != StatusCode::Infeasible) {
            return split.status();
        } else {
            // No feasible split either: placing the whole model
            // surfaces the standard per-chip breakdown (it carries the
            // shard estimate), with the partitioner's reason appended.
            split_failure = split.status();
        }
    }
    Status grown = growLocked(name, entry, replicas);
    if (grown.ok())
        return grown;
    // Chains are published one at a time: retire the ones that made
    // it, so a failed load leaves no tenant behind.
    removeTenantLocked(name);
    if (!split_failure.ok()) {
        return Status::error(grown.code(),
                             grown.message() + " (" +
                                 split_failure.message() + ")");
    }
    return grown;
}

Status
ClusterEngine::growLocked(const std::string &name,
                          const TenantEntry &snapshot, int count)
{
    const ShardedModel &model = *snapshot.model;
    const std::vector<ShardSpec> &shards = model.plan.shards;
    const double slo = snapshot.tenant.minAccuracy;
    const std::uint64_t name_salt = std::hash<std::string>{}(name);
    // Piece `s` calibrated against `chip`'s variation profile.
    const auto calibrate = [&](std::size_t s, std::size_t chip) {
        const VariationProfile &profile = fleet_->variation(chip);
        return calibrator_.calibrate(
            model.pieces[s]->graph(), profile.model, slo,
            options_.calibrationSeed ^ profile.seed ^ name_salt);
    };
    const auto unload_stages = [&](const Replica &replica,
                                   std::size_t stages) {
        for (std::size_t s = 0; s < stages; ++s)
            fleet_->engine(replica.chips[s])
                .unloadModel(stageTenant(name, replica, s));
    };

    while (count > 0) {
        // Each round yields the stage chains of the replicas it adds,
        // and for an accuracy-gated whole model every chip's
        // calibration, which placement needs up front.
        std::vector<std::vector<std::size_t>> chains;
        std::vector<CalibrationResult> per_chip;
        const std::vector<ChipLoadView> views = healthyLoadViews();
        if (model.shardCount() == 1) {
            // All `count` replicas at once on distinct chips.
            // Accuracy-gated tenants calibrate the model against
            // every chip's variation profile, so placement can reject
            // chips that cannot meet the SLO and prefer the quietest
            // silicon among those that can.
            PlacementRequest request;
            request.model = name;
            request.demand = shards.front().demand;
            request.replicas = count;
            if (slo > 0.0) {
                request.minAccuracy = slo;
                for (std::size_t chip = 0; chip < views.size(); ++chip) {
                    CalibrationResult calibration = calibrate(0, chip);
                    request.predictedAccuracy.push_back(
                        calibration.predictedAccuracy);
                    request.mappingSummary.push_back(
                        calibration.mappingSummary());
                    per_chip.push_back(std::move(calibration));
                }
            }
            auto placed = policy_->place(request, views);
            if (!placed.ok())
                return placed.status();
            for (std::size_t chip : *placed)
                chains.push_back({chip});
        } else {
            // One hop-minimising chain, disjoint from the tenant's
            // live replicas so one chip loss never takes out two.
            ShardPlacementRequest request;
            request.model = name;
            for (std::size_t s = 0; s < shards.size(); ++s) {
                request.demands.push_back(shards[s].demand);
                if (s + 1 < shards.size())
                    request.cutBytes.push_back(shards[s].cutBytesAfter);
            }
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto it = tenants_.find(name);
                if (it != tenants_.end())
                    for (const Replica &replica : *it->second.replicas)
                        request.avoid.insert(request.avoid.end(),
                                             replica.chips.begin(),
                                             replica.chips.end());
            }
            auto chain = policy_->placeShards(request, views);
            if (!chain.ok())
                return chain.status();
            chains.push_back(std::move(chain).value());
        }

        // Calibrate and load every stage of every chain; roll the
        // round back on failure so a half-placed replica never serves.
        std::vector<Replica> fresh;
        const auto roll_back = [&](Status status) {
            for (const Replica &undo : fresh)
                unload_stages(undo, undo.chips.size());
            return status;
        };
        for (std::vector<std::size_t> &chain : chains) {
            Replica replica;
            replica.id = nextReplicaId_++;
            replica.chips = std::move(chain);
            // Every stage's piece must meet the SLO on its own chip
            // (placement already checked one-piece models).
            for (std::size_t s = 0; slo > 0.0 && s < shards.size(); ++s) {
                const std::size_t chip = replica.chips[s];
                CalibrationResult calibration =
                    per_chip.empty() ? calibrate(s, chip) : per_chip[chip];
                if (calibration.predictedAccuracy < slo) {
                    return roll_back(Status::error(
                        StatusCode::Infeasible,
                        "cluster: stage " + std::to_string(s) + " of '" +
                            name + "' on chip '" + fleet_->id(chip) +
                            "' predicts accuracy " +
                            std::to_string(calibration.predictedAccuracy) +
                            ", below the required " + std::to_string(slo)));
                }
                replica.calibrations.push_back(
                    ReplicaCalibration{std::move(calibration), 0.0});
            }
            std::vector<std::string> stages;
            for (std::size_t s = 0; s < replica.chips.size(); ++s) {
                stages.push_back(stageTenant(name, replica, s));
                Status status = fleet_->engine(replica.chips[s])
                                    .loadModel(stages[s], model.pieces[s],
                                               snapshot.tenant);
                if (!status.ok()) {
                    unload_stages(replica, s);
                    return roll_back(std::move(status));
                }
            }
            replica.router = std::make_shared<ShardRouter>(
                *fleet_, name, snapshot.model, replica.chips,
                std::move(stages), options_.interconnect);
            fresh.push_back(std::move(replica));
        }

        count -= static_cast<int>(fresh.size());
        {
            std::lock_guard<std::mutex> lock(mu_);
            TenantEntry &entry =
                tenants_.try_emplace(name, snapshot).first->second;
            auto table = std::make_shared<ReplicaTable>(*entry.replicas);
            for (Replica &replica : fresh) {
                // A fresh replica is programmed "now" on the drift
                // clock; its accuracy ages from here.
                for (ReplicaCalibration &calibration :
                     replica.calibrations)
                    calibration.programmedAtSeconds = driftClock_;
                table->push_back(std::move(replica));
            }
            entry.replicas = std::move(table);
        }
        if (slo > 0.0)
            refreshAccuracyHealth();
    }
    return Status();
}

std::vector<ClusterEngine::Replica>
ClusterEngine::detachReplicas(const std::string &name,
                              const std::vector<std::int64_t> &ids)
{
    std::vector<Replica> detached;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end())
        return detached;
    auto kept = std::make_shared<ReplicaTable>();
    for (const Replica &replica : *it->second.replicas) {
        if (std::find(ids.begin(), ids.end(), replica.id) != ids.end())
            detached.push_back(replica);
        else
            kept->push_back(replica);
    }
    it->second.replicas = std::move(kept);
    return detached;
}

Status
ClusterEngine::retireReplicas(const std::string &name,
                              const std::vector<Replica> &replicas)
{
    // A chain first stops accepting and lets every accepted request
    // flow out its tail while the stage engines still serve; each
    // stage's unload then releases that chip's budget.  Zero accepted
    // requests are dropped.
    Status first;
    for (const Replica &replica : replicas) {
        replica.router->beginDrain();
        replica.router->awaitDrained();
        for (std::size_t s = 0; s < replica.chips.size(); ++s) {
            health_->clearReplicaAccuracy(replica.chips[s], name);
            Status unloaded = fleet_->engine(replica.chips[s])
                                  .unloadModel(stageTenant(name, replica, s));
            if (!unloaded.ok() && first.ok())
                first = unloaded;
        }
    }
    return first;
}

std::string
ClusterEngine::stageTenant(const std::string &name, const Replica &replica,
                           std::size_t stage)
{
    if (replica.chips.size() == 1)
        return name;
    return name + "#r" + std::to_string(replica.id) + "s" +
           std::to_string(stage);
}

std::string
ClusterEngine::chipLabel(const Replica &replica) const
{
    std::string label;
    for (std::size_t chip : replica.chips) {
        if (!label.empty())
            label += "+";
        label += fleet_->id(chip);
    }
    return label;
}

StatusOr<ClusterEngine::TenantEntry>
ClusterEngine::tenantEntry(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: no model named '" + name + "'");
    }
    return it->second;
}

Status
ClusterEngine::setReplicas(const std::string &name, int replicas)
{
    if (replicas < 1) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster: setReplicas needs >= 1 (use "
                             "unloadModel to evict '" +
                                 name + "')");
    }
    std::lock_guard<std::mutex> ops(opsMu_);
    TenantEntry snapshot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tenants_.find(name);
        if (it == tenants_.end()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "cluster: no model named '" + name +
                                     "'");
        }
        snapshot = it->second;
        it->second.desiredReplicas = replicas;
    }

    const int current = static_cast<int>(snapshot.replicas->size());
    if (replicas > current) {
        Status grown = growLocked(name, snapshot, replicas - current);
        if (!grown.ok()) {
            // A rejected growth changes nothing the operator asked
            // for: keep the old target (or what did get placed).
            std::lock_guard<std::mutex> lock(mu_);
            auto it = tenants_.find(name);
            if (it != tenants_.end())
                it->second.desiredReplicas = std::max(
                    snapshot.desiredReplicas,
                    static_cast<int>(it->second.replicas->size()));
        }
        return grown;
    }

    // Scale down: stop routing to the victims first (newest replicas
    // drop first), then retire each -- accepted requests all resolve
    // before the chip budgets are released.
    std::vector<std::int64_t> victims;
    for (int r = replicas; r < current; ++r)
        victims.push_back(
            (*snapshot.replicas)[static_cast<std::size_t>(r)].id);
    if (victims.empty())
        return Status();
    return retireReplicas(name, detachReplicas(name, victims));
}

Status
ClusterEngine::unloadModel(const std::string &name)
{
    std::lock_guard<std::mutex> ops(opsMu_);
    return removeTenantLocked(name);
}

Status
ClusterEngine::removeTenantLocked(const std::string &name)
{
    std::shared_ptr<const ReplicaTable> replicas;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tenants_.find(name);
        if (it == tenants_.end()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "cluster: no model named '" + name +
                                     "'");
        }
        replicas = std::move(it->second.replicas);
        tenants_.erase(it);
    }
    return retireReplicas(name, *replicas);
}

int
ClusterEngine::replicaCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end())
        return 0;
    return static_cast<int>(it->second.replicas->size());
}

std::vector<std::string>
ClusterEngine::replicaChips(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> ids;
    auto it = tenants_.find(name);
    if (it == tenants_.end())
        return ids;
    for (const Replica &replica : *it->second.replicas)
        for (std::size_t chip : replica.chips)
            ids.push_back(fleet_->id(chip));
    return ids;
}

std::vector<std::string>
ClusterEngine::modelNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(tenants_.size());
    for (const auto &[name, entry] : tenants_)
        names.push_back(name);
    return names;
}

// ---------------------------------------------------------------- requests

std::vector<ChipLoadView>
ClusterEngine::healthyLoadViews() const
{
    std::vector<ChipLoadView> views = fleet_->loadViews();
    const std::vector<ChipHealth> health = health_->snapshot();
    for (std::size_t i = 0; i < views.size() && i < health.size(); ++i)
        views[i].failed = health[i] == ChipHealth::Failed;
    return views;
}

StatusOr<std::size_t>
ClusterEngine::pickReplica(const ReplicaTable &replicas,
                           const std::string &model,
                           std::size_t exclude) const
{
    // Rank: accuracy first (an ACCURATE replica beats any DRIFTING
    // one, DRIFTING beats STALE -- graceful degradation routes around
    // drifted weights whenever a fresher replica exists), then Healthy
    // before Degraded, then any replica off the chip that just failed
    // the request, then least outstanding requests; ties keep
    // placement order.  A replica with a Failed chip is out entirely.
    // A replica takes its worst stage on each criterion.
    bool found = false;
    std::size_t target = 0;
    std::int64_t best_rank = 0;
    std::int64_t best_pending = 0;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        const Replica &replica = replicas[r];
        bool dead = false;
        std::int64_t accuracy_rank = 0;
        std::int64_t health_rank = 0;
        std::int64_t exclude_rank = 0;
        for (std::size_t chip : replica.chips) {
            const ChipHealth health = health_->health(chip);
            if (health == ChipHealth::Failed) {
                dead = true;
                break;
            }
            const ReplicaAccuracy accuracy =
                health_->replicaAccuracy(chip, model).state;
            accuracy_rank = std::max<std::int64_t>(
                accuracy_rank,
                accuracy == ReplicaAccuracy::Stale
                    ? 8
                    : accuracy == ReplicaAccuracy::Drifting ? 4 : 0);
            if (health == ChipHealth::Degraded)
                health_rank = 2;
            if (chip == exclude)
                exclude_rank = 1;
        }
        if (dead)
            continue;
        const std::int64_t rank = accuracy_rank + health_rank + exclude_rank;
        const std::int64_t pending = replica.router->pending();
        if (!found || rank < best_rank ||
            (rank == best_rank && pending < best_pending)) {
            found = true;
            target = r;
            best_rank = rank;
            best_pending = pending;
        }
    }
    if (found)
        return target;

    std::string message =
        "cluster: no live replica for model '" + model + "': ";
    if (replicas.empty())
        message += "no replicas placed";
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        for (std::size_t s = 0; s < replicas[r].chips.size(); ++s) {
            const std::size_t chip = replicas[r].chips[s];
            if (r > 0 || s > 0)
                message += s == 0 ? "; " : ", ";
            message += "chip '" + fleet_->id(chip) + "': " +
                       chipHealthName(health_->health(chip));
        }
    }
    return Status::error(StatusCode::Unavailable, message);
}

std::future<StatusOr<InferenceResult>>
ClusterEngine::submit(const std::string &model, Tensor input)
{
    auto request = std::make_shared<Inflight>();
    request->model = model;
    request->input = std::move(input);
    auto future = request->promise.get_future();

    // With failover disabled, a refusal re-routes inline: one attempt
    // per live replica, plus one for a re-read of the table -- enough
    // to outlast any single scale operation.
    const std::size_t max_attempts = fleet_->size() + 1;
    for (std::size_t attempt = 0;; ++attempt) {
        std::shared_ptr<const ReplicaTable> replicas;
        // Shed bound: tenants with an explicit SLO shed at their EDF
        // deadline; best-effort tenants get the (generous) cluster
        // bound.
        double shed_millis = options_.bestEffortShedMillis;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopping_) {
                request->promise.set_value(Status::error(
                    StatusCode::Unavailable,
                    "cluster is shut down; request rejected"));
                return future;
            }
            auto it = tenants_.find(model);
            if (it == tenants_.end()) {
                request->promise.set_value(Status::error(
                    StatusCode::InvalidArgument,
                    "cluster: no model named '" + model + "'"));
                return future;
            }
            replicas = it->second.replicas;
            const TenantOptions &tenant = it->second.tenant;
            if (tenant.sloMillis > 0.0)
                shed_millis =
                    tenant.sloMillis / std::max(1, tenant.priorityClass);
        }

        auto picked = pickReplica(*replicas, model, kNoChip);

        // The replica copies the input per attempt; the request keeps
        // it for resubmission.
        if (options_.retryBudget <= 0) {
            if (!picked.ok()) {
                request->promise.set_value(picked.status());
                return future;
            }
            const Replica &replica = (*replicas)[*picked];
            Status admitted = replica.router->submit(
                request->input,
                [request](StatusOr<InferenceResult> result, std::size_t) {
                    request->promise.set_value(std::move(result));
                },
                /*block=*/true);
            if (admitted.ok())
                return future;
            if (admitted.code() != StatusCode::Unavailable ||
                attempt + 1 >= max_attempts) {
                request->promise.set_value(std::move(admitted));
                return future;
            }
            continue;
        }

        if (shed_millis > 0.0) {
            request->hasDeadline = true;
            request->deadline =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        shed_millis));
        }
        if (!picked.ok()) {
            // No live replica right now -- e.g. the tenant's only one is
            // detached for re-programming.  Wait it out in backoff, the
            // same as `retry` does, within the budget and shed deadline.
            settle(request, picked.status());
            return future;
        }
        const Replica &replica = (*replicas)[*picked];
        Status admitted = replica.router->submit(
            request->input, supervise(request, replica.chips),
            /*block=*/true);
        if (admitted.ok())
            return future;
        // Refused: the replica started draining between the table
        // read and the submit.  Model-level errors pass through; an
        // Unavailable refusal faces the same retry budget and shed
        // deadline as a failed attempt, but says nothing about the
        // chip's health.
        if (admitted.code() != StatusCode::Unavailable) {
            request->promise.set_value(std::move(admitted));
            return future;
        }
        settle(request, std::move(admitted));
        return future;
    }
}

ShardRouter::Completion
ClusterEngine::supervise(std::shared_ptr<Inflight> request,
                         std::vector<std::size_t> chips)
{
    return [this, request = std::move(request), chips = std::move(chips)](
               StatusOr<InferenceResult> result, std::size_t failedStage) {
        // A failed execution is a chip-side failure of its stage; a
        // refused forward says nothing about any chip's health.
        if (result.ok()) {
            for (std::size_t chip : chips)
                health_->recordOutcome(chip, true);
        } else if (failedStage < chips.size()) {
            request->chip = chips[failedStage];
            health_->recordOutcome(request->chip, false);
        }
        settle(request, std::move(result));
    };
}

void
ClusterEngine::settle(const std::shared_ptr<Inflight> &request,
                      StatusOr<InferenceResult> result)
{
    Inflight &entry = *request;
    // Anything but Unavailable / ResourceExhausted is final: success,
    // a model-level error, or a shed already applied.  Unavailable is
    // the retryable class (chip fault, drain race); ResourceExhausted
    // is backpressure -- a full queue on a healthy survivor, where
    // the front-door submit would simply have blocked.
    const bool backpressure =
        !result.ok() &&
        result.status().code() == StatusCode::ResourceExhausted;
    if (result.ok() ||
        (!backpressure &&
         result.status().code() != StatusCode::Unavailable)) {
        entry.promise.set_value(std::move(result));
        return;
    }
    entry.lastError = result.status();

    const auto now = std::chrono::steady_clock::now();
    if (entry.hasDeadline && now >= entry.deadline) {
        entry.promise.set_value(Status::error(
            StatusCode::DeadlineExceeded,
            "cluster: request for '" + entry.model +
                "' shed after " + std::to_string(entry.retries) +
                " failover retries; its deadline passed while "
                "failing over (last error: " +
                entry.lastError.message() + ")"));
        return;
    }
    // Waiting out backpressure consumes no retry budget -- only the
    // shed deadline above bounds it, exactly like a blocking submit.
    if (!backpressure) {
        if (entry.retries >= options_.retryBudget) {
            entry.promise.set_value(Status::error(
                StatusCode::Unavailable,
                "cluster: request for '" + entry.model +
                    "' failed after " + std::to_string(entry.retries) +
                    " failover retries: " + entry.lastError.message()));
            return;
        }
        ++entry.retries;
    }
    entry.backoffMillis =
        entry.backoffMillis <= 0.0
            ? options_.retryBackoffMillis
            : std::min(entry.backoffMillis * 2.0,
                       options_.maxRetryBackoffMillis);
    const auto wake =
        now + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      std::max(0.0, entry.backoffMillis)));
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!stopping_) {
            backoff_.emplace(wake, request);
            backoffCv_.notify_one();
            return;
        }
    }
    failAtShutdown(entry);
}

void
ClusterEngine::retry(std::shared_ptr<Inflight> request)
{
    bool stopping = false;
    std::shared_ptr<const ReplicaTable> replicas;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping = stopping_;
        auto tenant = tenants_.find(request->model);
        if (tenant != tenants_.end())
            replicas = tenant->second.replicas;
    }
    if (stopping) {
        failAtShutdown(*request);
        return;
    }

    StatusOr<std::size_t> target = Status::error(
        StatusCode::Unavailable,
        "cluster: model '" + request->model + "' is no longer loaded");
    if (replicas)
        target = pickReplica(*replicas, request->model, request->chip);
    if (!target.ok()) {
        // No live replica *right now* -- recovery may still re-place
        // one.  Burn a retry and wait again so a dead fleet cannot
        // park requests forever.
        settle(request, target.status());
        return;
    }
    const Replica &replica = (*replicas)[*target];
    Status admitted = replica.router->submit(
        request->input, supervise(request, replica.chips),
        /*block=*/false);
    if (admitted.ok())
        return;
    // Refused.  A drain race (Unavailable) counts against the budget;
    // a full queue (ResourceExhausted) is backpressure and only waits.
    // Neither charges a chip's health, and `request->chip` keeps
    // pointing at the stage chip that actually failed, so the next
    // pick still avoids it.
    settle(request, std::move(admitted));
}

void
ClusterEngine::backoffLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
        if (backoff_.empty()) {
            backoffCv_.wait(lock);
            continue;
        }
        const auto wake = backoff_.begin()->first;
        if (std::chrono::steady_clock::now() < wake) {
            backoffCv_.wait_until(lock, wake);
            continue;
        }
        std::shared_ptr<Inflight> request =
            std::move(backoff_.begin()->second);
        backoff_.erase(backoff_.begin());
        lock.unlock();
        retry(std::move(request));
        lock.lock();
    }
}

void
ClusterEngine::failAtShutdown(Inflight &request)
{
    request.promise.set_value(Status::error(
        StatusCode::Unavailable,
        "cluster: shut down while failing over a request for '" +
            request.model +
            "' (last error: " + request.lastError.message() + ")"));
}

StatusOr<InferenceResult>
ClusterEngine::infer(const std::string &model, const Tensor &input)
{
    return submit(model, input).get();
}

StatusOr<InferenceResult>
ClusterEngine::infer(const std::string &model, const Tensor &input,
                     double timeoutMillis)
{
    if (!(timeoutMillis > 0.0)) {
        return Status::error(StatusCode::InvalidArgument,
                             "cluster infer: timeoutMillis must be > 0");
    }
    auto future = submit(model, input);
    if (future.wait_for(std::chrono::duration<double, std::milli>(
            timeoutMillis)) == std::future_status::ready)
        return future.get();
    return Status::error(
        StatusCode::DeadlineExceeded,
        "cluster infer: request for '" + model + "' not served within " +
            std::to_string(timeoutMillis) +
            "ms; the request remains accepted and will still drain");
}

Status
ClusterEngine::shutdown()
{
    std::vector<std::shared_ptr<ShardRouter>> routers;
    std::multimap<std::chrono::steady_clock::time_point,
                  std::shared_ptr<Inflight>>
        parked;
    std::thread backoff;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        for (const auto &[name, entry] : tenants_)
            for (const Replica &replica : *entry.replicas)
                routers.push_back(replica.router);
        parked.swap(backoff_);
        backoff = std::move(backoffThread_);
    }
    // Requests waiting out a backoff can never be resubmitted now:
    // they fail Unavailable at once, and so does every attempt that
    // settles for a retry from here on (settle sees stopping_).
    backoffCv_.notify_all();
    if (backoff.joinable())
        backoff.join();
    for (auto &[wake, request] : parked)
        failAtShutdown(*request);

    // Drain every chain while its stage engines still serve -- accepted
    // requests flow out the tail before the fleet goes down.  New
    // submits are already rejected via stopping_.
    for (const auto &router : routers)
        router->beginDrain();
    for (const auto &router : routers)
        router->awaitDrained();
    // Chip engines' shutdown is idempotent and drains every queue:
    // after it returns, every accepted attempt's completion has run,
    // so every accepted request's future is resolved.
    return fleet_->shutdown();
}

// ------------------------------------------------------------------ health

void
ClusterEngine::probeChips()
{
    for (std::size_t chip = 0; chip < fleet_->size(); ++chip)
        health_->recordProbe(chip, fleet_->engine(chip).probe().ok());
    refreshAccuracyHealth();
}

ChipHealth
ClusterEngine::chipHealth(std::size_t chip) const
{
    return health_->health(chip);
}

std::vector<ClusterEvent>
ClusterEngine::repairOnce()
{
    std::vector<ClusterEvent> events;
    std::lock_guard<std::mutex> ops(opsMu_);

    std::map<std::string, TenantEntry> tenants;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return events;
        tenants = tenants_;
    }
    const std::vector<ChipHealth> health = health_->snapshot();
    for (const auto &[name, snapshot] : tenants) {
        // Every replica with a Failed chip goes; the top-up to the
        // desired count also retries deficits left by earlier passes
        // that found no room.
        std::vector<std::pair<std::int64_t, std::size_t>> failed;
        for (const Replica &replica : *snapshot.replicas)
            for (std::size_t chip : replica.chips)
                if (chip < health.size() &&
                    health[chip] == ChipHealth::Failed) {
                    failed.emplace_back(replica.id, chip);
                    break;
                }
        replaceLocked(name, failed, "failover", events);
    }
    return events;
}

bool
ClusterEngine::replaceLocked(
    const std::string &name,
    const std::vector<std::pair<std::int64_t, std::size_t>> &evict,
    const char *reason, std::vector<ClusterEvent> &events)
{
    // Pull the victims from the routing table first (new submits skip
    // them), then retire them: every accepted request resolves -- on a
    // dead chip it fails fast and its completion fails it over -- and
    // the chip budgets are released.
    std::vector<std::string> evicted;
    if (!evict.empty()) {
        std::vector<std::int64_t> ids;
        for (const auto &[id, chip] : evict)
            ids.push_back(id);
        const std::vector<Replica> victims = detachReplicas(name, ids);
        if (victims.empty())
            return true; // unloaded or re-placed concurrently
        for (const Replica &victim : victims)
            for (const auto &[id, chip] : evict)
                if (id == victim.id)
                    evicted.push_back(fleet_->id(chip));
        retireReplicas(name, victims);
    }

    // One replica at a time, so a partial recovery sticks (growLocked
    // rolls back its own failed step).
    for (std::size_t i = 0;; ++i) {
        auto entry = tenantEntry(name);
        if (!entry.ok() || static_cast<int>(entry->replicas->size()) >=
                               entry->desiredReplicas)
            return true;
        ClusterEvent event;
        event.model = name;
        event.reason = reason;
        if (i < evicted.size())
            event.fromChip = evicted[i];
        event.status = growLocked(name, *entry, 1);
        if (event.status.ok()) {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = tenants_.find(name);
            if (it != tenants_.end() && !it->second.replicas->empty())
                event.toChip = chipLabel(it->second.replicas->back());
        }
        events.push_back(std::move(event));
        // No room on the fleet: the event carries the per-chip
        // breakdown and the tenant keeps serving degraded.
        if (!events.back().status.ok())
            return false;
    }
}

// ---------------------------------------------------------------- accuracy

void
ClusterEngine::advanceDrift(double seconds)
{
    if (seconds <= 0.0)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        driftClock_ += seconds;
    }
    refreshAccuracyHealth();
}

double
ClusterEngine::driftClockSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return driftClock_;
}

void
ClusterEngine::refreshAccuracyHealth()
{
    struct Verdict
    {
        std::size_t chip;
        std::string model;
        ReplicaAccuracyRecord record;
    };
    std::vector<Verdict> verdicts;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[name, entry] : tenants_) {
            const double slo = entry.tenant.minAccuracy;
            for (const Replica &replica : *entry.replicas) {
                for (std::size_t s = 0; s < replica.calibrations.size();
                     ++s) {
                    const ReplicaCalibration &calibration =
                        replica.calibrations[s];
                    const std::size_t chip = replica.chips[s];
                    ReplicaAccuracyRecord record;
                    record.currentAccuracy = calibrator_.accuracyAtAge(
                        calibration.result, fleet_->variation(chip).model,
                        driftClock_ - calibration.programmedAtSeconds);
                    record.predictedAccuracy =
                        calibration.result.predictedAccuracy;
                    if (record.currentAccuracy >=
                        slo + options_.accuracyDriftingMargin)
                        record.state = ReplicaAccuracy::Accurate;
                    else if (record.currentAccuracy >= slo)
                        record.state = ReplicaAccuracy::Drifting;
                    else
                        record.state = ReplicaAccuracy::Stale;
                    verdicts.push_back(Verdict{chip, name, record});
                }
            }
        }
    }
    // Publish outside mu_: the tracker's mutex is a leaf.
    for (const Verdict &verdict : verdicts)
        health_->setReplicaAccuracy(verdict.chip, verdict.model,
                                    verdict.record);
}

std::vector<ClusterEvent>
ClusterEngine::recalibrateOnce()
{
    std::vector<ClusterEvent> events;
    std::lock_guard<std::mutex> ops(opsMu_);

    refreshAccuracyHealth();

    std::map<std::string, TenantEntry> tenants;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return events;
        tenants = tenants_;
    }

    for (const auto &[name, snapshot] : tenants) {
        for (const Replica &replica : *snapshot.replicas) {
            // One STALE stage re-programs the whole chain.
            const auto stale = std::find_if(
                replica.chips.begin(), replica.chips.end(),
                [&](std::size_t chip) {
                    return health_->replicaAccuracy(chip, name).state ==
                           ReplicaAccuracy::Stale;
                });
            if (stale == replica.chips.end())
                continue;
            // Re-programming is an evict + re-place through the
            // accuracy-gated placement path, one replica at a time so
            // the others keep serving.  The same chips are eligible
            // again: re-programming resets their age, so a quiet chip
            // whose stage merely aged out usually gets it right back.
            if (!replaceLocked(name, {{replica.id, *stale}},
                               "recalibration", events))
                break; // no room now; repairOnce's top-up retries
        }
    }
    return events;
}

// ------------------------------------------------------------------- stats

StatusOr<ClusterEngine::ReplicaStats>
ClusterEngine::replicaStats(const std::string &name,
                            const ShardedModel &model,
                            const Replica &replica) const
{
    std::vector<EngineStats> stages;
    for (std::size_t s = 0; s < replica.chips.size(); ++s) {
        auto stage = fleet_->engine(replica.chips[s])
                         .modelStats(stageTenant(name, replica, s));
        if (!stage.ok())
            return stage.status(); // mid-drain
        stages.push_back(std::move(stage).value());
    }
    // End to end: the head admits and the tail completes; every stage
    // can fail and adds its queue wait and modeled cost; every
    // completion short of the tail is one forward over a fixed hop.
    ReplicaStats out;
    EngineStats &serving = out.serving;
    serving = stages.back();
    serving.submitted = stages.front().submitted;
    for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
        const EngineStats &stage = stages[s];
        const std::int64_t bytes = model.plan.shards[s].cutBytesAfter;
        const NanoSeconds hop =
            forwardNanos(options_.interconnect, replica.chips[s],
                         replica.chips[s + 1], bytes);
        serving.failed += stage.failed;
        serving.rejected += stage.rejected;
        serving.p50QueueMillis += stage.p50QueueMillis;
        serving.p95QueueMillis += stage.p95QueueMillis;
        serving.p99QueueMillis += stage.p99QueueMillis;
        serving.maxQueueMillis += stage.maxQueueMillis;
        serving.modeledLatency += stage.modeledLatency + hop;
        serving.modeledEnergyPerSample += stage.modeledEnergyPerSample;
        out.forwards += stage.completed;
        out.interconnectBytes += stage.completed * bytes;
        out.interconnectNanos += static_cast<double>(stage.completed) * hop;
    }
    return out;
}

StatusOr<ClusterEngine::TenantLoad>
ClusterEngine::tenantLoad(const std::string &name) const
{
    auto entry = tenantEntry(name);
    if (!entry.ok())
        return entry.status();
    TenantLoad load;
    load.loadId = entry->loadId;
    load.desiredReplicas = entry->desiredReplicas;
    load.replicas = static_cast<int>(entry->replicas->size());
    for (const Replica &replica : *entry->replicas) {
        load.pending += replica.router->pending();
        auto stats = replicaStats(name, *entry->model, replica);
        if (!stats.ok())
            continue; // replica mid-drain
        load.p95QueueMillis =
            std::max(load.p95QueueMillis, stats->serving.p95QueueMillis);
        load.p99QueueMillis =
            std::max(load.p99QueueMillis, stats->serving.p99QueueMillis);
        load.completed += stats->serving.completed;
    }
    if (load.replicas > 0)
        load.pendingPerReplica = static_cast<double>(load.pending) /
                                 static_cast<double>(load.replicas);
    return load;
}

StatusOr<EngineStats>
ClusterEngine::modelStats(const std::string &name) const
{
    auto entry = tenantEntry(name);
    if (!entry.ok())
        return entry.status();
    EngineStats merged;
    for (const Replica &replica : *entry->replicas) {
        auto stats = replicaStats(name, *entry->model, replica);
        if (stats.ok())
            mergeStats(merged, stats->serving);
    }
    return merged;
}

EngineStats
ClusterEngine::stats() const
{
    EngineStats merged;
    for (std::size_t chip = 0; chip < fleet_->size(); ++chip)
        mergeStats(merged, fleet_->engine(chip).stats());
    return merged;
}

std::string
ClusterEngine::statsJson() const
{
    std::map<std::string, TenantEntry> tenants;
    double drift_clock = 0.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        tenants = tenants_;
        drift_clock = driftClock_;
    }
    JsonWriter j;
    j.beginObject();
    j.field("policy", policy_->name());
    j.field("chips", static_cast<std::int64_t>(fleet_->size()));
    j.key("aggregate").raw(stats().toJson());
    j.key("perChip").beginObject();
    for (std::size_t chip = 0; chip < fleet_->size(); ++chip)
        j.key(fleet_->id(chip)).raw(fleet_->engine(chip).statsJson());
    j.endObject();
    std::int64_t fleet_forwards = 0;
    std::int64_t fleet_interconnect_bytes = 0;
    NanoSeconds fleet_interconnect_nanos = 0.0;
    j.key("tenants").beginObject();
    for (const auto &[name, entry] : tenants) {
        j.key(name).beginObject();
        j.key("replicas").beginArray();
        for (const Replica &replica : *entry.replicas)
            j.value(chipLabel(replica));
        j.endArray();
        j.field("desiredReplicas", entry.desiredReplicas);
        std::int64_t forwards = 0;
        std::int64_t bytes = 0;
        NanoSeconds nanos = 0.0;
        for (const Replica &replica : *entry.replicas) {
            auto stats = replicaStats(name, *entry.model, replica);
            if (!stats.ok())
                continue; // replica mid-drain
            forwards += stats->forwards;
            bytes += stats->interconnectBytes;
            nanos += stats->interconnectNanos;
        }
        const int shards = entry.model->shardCount();
        j.field("shards", static_cast<std::int64_t>(shards));
        j.field("sharded", shards > 1);
        j.field("forwards", forwards);
        j.field("interconnectBytes", bytes);
        j.field("interconnectNanos", nanos);
        fleet_forwards += forwards;
        fleet_interconnect_bytes += bytes;
        fleet_interconnect_nanos += nanos;
        auto load = tenantLoad(name);
        if (load.ok()) {
            j.field("pending", load->pending);
            j.field("p99QueueMillis", load->p99QueueMillis);
        }
        j.endObject();
    }
    j.endObject();
    j.key("interconnect").beginObject();
    j.field("hopLatencyNs", options_.interconnect.hopLatencyNs);
    j.field("bytesPerNs", options_.interconnect.bytesPerNs);
    j.field("forwards", fleet_forwards);
    j.field("bytes", fleet_interconnect_bytes);
    j.field("nanos", fleet_interconnect_nanos);
    j.endObject();
    j.key("variation").beginObject();
    j.field("driftClockSeconds", drift_clock);
    j.key("chips").beginObject();
    for (std::size_t chip = 0; chip < fleet_->size(); ++chip) {
        const VariationModel &model = fleet_->variation(chip).model;
        j.key(fleet_->id(chip)).beginObject();
        j.field("sigmaOfRange", model.sigmaOfRange);
        j.field("driftPerSecond", model.driftPerSecond);
        j.field("stuckAtRate", model.stuckAtRate);
        j.endObject();
    }
    j.endObject();
    j.key("tenants").beginObject();
    for (const auto &[name, entry] : tenants) {
        if (entry.tenant.minAccuracy <= 0.0)
            continue;
        j.key(name).beginObject();
        j.field("minAccuracy", entry.tenant.minAccuracy);
        j.key("replicas").beginArray();
        for (const Replica &replica : *entry.replicas) {
            for (std::size_t s = 0; s < replica.calibrations.size(); ++s) {
                const ReplicaCalibration &calibration =
                    replica.calibrations[s];
                const std::size_t chip = replica.chips[s];
                const ReplicaAccuracyRecord record =
                    health_->replicaAccuracy(chip, name);
                j.beginObject();
                j.field("chip", fleet_->id(chip));
                j.field("mapping", calibration.result.mappingSummary());
                j.field("predictedAccuracy",
                        calibration.result.predictedAccuracy);
                j.field("currentAccuracy", record.currentAccuracy);
                j.field("ageSeconds",
                        drift_clock - calibration.programmedAtSeconds);
                j.field("accuracy", replicaAccuracyName(record.state));
                j.endObject();
            }
        }
        j.endArray();
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::vector<std::string> chip_ids;
    chip_ids.reserve(fleet_->size());
    for (std::size_t chip = 0; chip < fleet_->size(); ++chip)
        chip_ids.push_back(fleet_->id(chip));
    j.key("health").raw(health_->toJson(chip_ids));
    j.key("utilization").raw(fleet_->utilizationJson());
    j.endObject();
    return j.str();
}

} // namespace fpsa
