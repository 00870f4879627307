/**
 * @file
 * `fpsa::ClusterEngine`: one serving front for a fleet of FPSA chips
 * -- policy-driven model placement, replica-aware request routing and
 * replica scaling with zero-loss drains.
 *
 *     auto cluster = ClusterEngine::create(
 *         {{"chip0", cap}, {"chip1", cap}, {"chip2", cap}}).value();
 *     cluster->loadModel("hot", model, /.replicas=/ 2);   // 2 chips
 *     cluster->loadModel("cold", other);                  // 1 chip
 *     auto r = cluster->infer("hot", input);              // routed
 *     cluster->setReplicas("hot", 1);                     // drains one
 *
 * Every replica of a tenant is a chain of stage chips in pipeline
 * order, served by one `ShardRouter`.  A model that fits one chip is
 * one piece, so its replicas are one-stage chains; a model too big for
 * any chip is split by the `ModelPartitioner` at layer boundaries into
 * K >= 2 chip-sized pieces, each forward priced by the modeled
 * interconnect.  Routing, scaling, failover, health, calibration,
 * re-programming and stats run one code path for every K; only the
 * placement call differs (`place` for one piece, `placeShards` for a
 * chain).
 *
 * Contract:
 *  - Placement goes through the configured `PlacementPolicy`.
 *    One-stage replicas are bin-packed by `ResourceDemand` (first-fit
 *    or best-fit, accuracy-gated for `minAccuracy` tenants), K
 *    replicas of a tenant on K distinct chips; multi-stage replicas
 *    get a hop-minimising chain, disjoint from the tenant's other
 *    replicas.  A `minAccuracy` tenant calibrates every stage's piece
 *    against its chip, and a chain whose stage misses the SLO is not
 *    loaded.  Placement is deterministic given the fleet state, and
 *    an unplaceable request returns `Infeasible` with the full
 *    per-chip breakdown.
 *  - Routing picks the best live replica: a replica with any `Failed`
 *    chip is out; the rest rank by their worst stage's accuracy state,
 *    then Healthy before Degraded, then away from the stage chip that
 *    just failed the request, then fewest queued + inflight requests.
 *    Batches never mix tenants (the per-chip engine's invariant).  A
 *    submit that races a replica's drain is transparently re-routed to
 *    a surviving replica.
 *  - `setReplicas`/`unloadModel` scale with the hot-swap drain: a
 *    shrinking replica first stops receiving new requests, then its
 *    queued and inflight requests all resolve, then its chip budgets
 *    are released.  In-flight requests are never dropped by scaling.
 *    A multi-stage replica scales, drains, fails over and is
 *    re-programmed as a unit.
 *  - The per-chip engines run the SLO-aware deadline scheduler from
 *    `EngineOptions`, so cluster tenants inherit per-tenant SLOs.
 *  - Every request is event-driven: each attempt's completion callback
 *    settles it (resolve, or retry on a surviving replica), and a
 *    stage's completion starts the next stage.  A served request
 *    charges every stage chip's health a success; a failed one charges
 *    the stage chip that failed it, which the retry avoids.  Nothing
 *    polls for completions and no thread blocks on a request; the one
 *    background thread sleeps until the earliest failover retry is due.
 *
 * `probeChips()`, `repairOnce()`, `recalibrateOnce()` and
 * `setReplicas()` are the actions, and `tenantLoad()` the observation,
 * that a `ClusterController` tick is built from; `statsJson()` bundles
 * per-chip, per-tenant and fleet-utilization sections.
 */

#ifndef FPSA_RUNTIME_CLUSTER_CLUSTER_ENGINE_HH
#define FPSA_RUNTIME_CLUSTER_CLUSTER_ENGINE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accuracy/calibration.hh"
#include "common/status.hh"
#include "runtime/cluster/chip_fleet.hh"
#include "runtime/cluster/health.hh"
#include "runtime/cluster/placement.hh"
#include "runtime/cluster/sharding.hh"
#include "runtime/engine.hh"

namespace fpsa
{

/**
 * One control-plane event: a self-healing or re-programming
 * re-placement of a replica (`fromChip` -> `toChip`), or a scaling
 * decision on a tenant's replica count (`fromReplicas` ->
 * `toReplicas`).  Rejected ones are recorded too, with the error in
 * `status`.
 */
struct ClusterEvent
{
    std::string model;
    std::string fromChip; //!< the evicted replica's (first failed) chip
    std::string toChip;   //!< stage chips joined by '+'; empty on failure
    int fromReplicas = 0;
    int toReplicas = 0;   //!< == fromReplicas when rejected
    Status status;        //!< OK, or the placement/load error

    /**
     * "failover", "recalibration", or for a scaling decision its
     * trigger (the rejection Status when rejected).
     */
    std::string reason = "failover";
};

/** Cluster-serving knobs. */
struct ClusterOptions
{
    /** Per-chip serving knobs (`chipId` is set per chip). */
    EngineOptions engine;

    PlacementPolicyKind placement = PlacementPolicyKind::BestFit;

    /** Per-chip health state machine thresholds. */
    HealthOptions health;

    /**
     * Failover retries per request: an accepted request whose replica
     * fails (`Unavailable`) is resubmitted to a surviving replica up
     * to this many times before its error surfaces.  0 disables
     * failover: the first attempt's outcome resolves the request, no
     * outcome is charged to chip health, and no backoff thread runs.
     */
    int retryBudget = 3;

    /** First retry backoff; doubles per retry of the same request. */
    double retryBackoffMillis = 1.0;

    double maxRetryBackoffMillis = 50.0;

    /**
     * Load-shedding bound for tenants with no explicit SLO: a failed
     * request older than this is shed (`DeadlineExceeded`) instead of
     * retried.  Tenants with an explicit `TenantOptions::sloMillis`
     * shed at enqueue + sloMillis / priorityClass -- their EDF
     * deadline; retrying past it would serve an answer nobody is
     * waiting for.  0 disables shedding for best-effort tenants.
     */
    double bestEffortShedMillis = 10000.0;

    /** Modeled chip-to-chip interconnect for sharded pipelines. */
    InterconnectParams interconnect;

    /**
     * Accuracy-health hysteresis: a replica whose drift-degraded
     * accuracy sits within this margin above its tenant's
     * `minAccuracy` is DRIFTING (routed around when an ACCURATE
     * replica exists); below the SLO itself it is STALE (re-programmed
     * by `recalibrateOnce()`).
     */
    double accuracyDriftingMargin = 0.02;

    /** Base seed for the loadModel-time calibration passes. */
    std::uint64_t calibrationSeed = 0x5eed;
};

/** The multi-chip serving runtime fronting a `ChipFleet`. */
class ClusterEngine
{
  public:
    static StatusOr<std::unique_ptr<ClusterEngine>> create(
        std::vector<ChipSpec> chips, ClusterOptions options = {});

    ~ClusterEngine();

    ClusterEngine(const ClusterEngine &) = delete;
    ClusterEngine &operator=(const ClusterEngine &) = delete;

    // -------------------------------------------------------- tenants

    /**
     * Place `replicas` replicas of `model` on distinct chips via the
     * placement policy and start serving them as `name`.
     * `Infeasible` with the per-chip breakdown when the fleet cannot
     * host the request; `InvalidArgument` on a duplicate name, bad
     * replica count, or a model the backend rejects.
     *
     * A model that fits no chip even empty is served sharded: each
     * replica becomes a chain of up to fleet-size stages pipelined
     * across chips, and `infer`/`submit`/`setReplicas`/`unloadModel`
     * work unchanged.
     */
    Status loadModel(const std::string &name,
                     std::shared_ptr<const CompiledModel> model,
                     int replicas = 1);
    Status loadModel(const std::string &name,
                     std::shared_ptr<const CompiledModel> model,
                     int replicas, const TenantOptions &tenant);

    /**
     * Scale `name` to exactly `replicas` replicas (>= 1).  Growth
     * places new replicas via the policy; shrinkage drains removed
     * replicas without failing any accepted request.  A growth the
     * fleet has no room for fails and keeps the desired count it had.
     */
    Status setReplicas(const std::string &name, int replicas);

    /** Evict every replica of `name`, each with a full drain. */
    Status unloadModel(const std::string &name);

    /** Current replica count for `name`; 0 when absent. */
    int replicaCount(const std::string &name) const;

    /**
     * Chip ids hosting `name`, replica by replica in placement order
     * (every stage of a multi-stage replica, in pipeline order);
     * empty if absent.
     */
    std::vector<std::string> replicaChips(const std::string &name) const;

    std::vector<std::string> modelNames() const;

    // ------------------------------------------------------- requests

    /**
     * Route one sample to the least-loaded replica of `model`.  The
     * future resolves when served; a drain race re-routes internally.
     * With `retryBudget > 0`, finding no live replica (say, the only
     * one is detached for re-programming) waits in backoff like a
     * failover retry instead of failing at once.
     */
    std::future<StatusOr<InferenceResult>> submit(
        const std::string &model, Tensor input);

    StatusOr<InferenceResult> infer(const std::string &model,
                                    const Tensor &input);

    /**
     * Bounded-wait infer: `DeadlineExceeded` when the result is not
     * ready within `timeoutMillis`; the request itself stays accepted
     * and still drains.
     */
    StatusOr<InferenceResult> infer(const std::string &model,
                                    const Tensor &input,
                                    double timeoutMillis);

    /** Stop routing, drain every chip, return the first drain error. */
    Status shutdown();

    // --------------------------------------------------------- health

    /**
     * Probe every chip's engine once and feed the results to the
     * health tracker -- the fail-stop detector.  `ClusterController`
     * calls this at the start of every tick; tests call it directly.
     */
    void probeChips();

    ChipHealth chipHealth(std::size_t chip) const;

    const HealthTracker &health() const { return *health_; }

    /**
     * One synchronous self-healing pass: every replica living on a
     * `Failed` chip is routed around, drained off that chip, and
     * re-placed on a live chip via the placement policy.  When the
     * surviving fleet has no room the action records the per-chip
     * `Infeasible`/`Unavailable` breakdown and the tenant keeps
     * serving degraded (fewer replicas) until a later pass succeeds
     * -- e.g. after the chip rejoins.  Returns the actions taken.
     */
    std::vector<ClusterEvent> repairOnce();

    // ------------------------------------------------------- accuracy

    /**
     * Advance the cluster's logical retention clock by `seconds` and
     * re-derive every calibrated replica's accuracy health.  The drift
     * clock is logical (tests and benches inject time), so the
     * drift -> STALE -> re-program round trip is deterministic.
     */
    void advanceDrift(double seconds);

    /** The logical retention clock, in seconds since creation. */
    double driftClockSeconds() const;

    /**
     * One synchronous re-calibration pass: every STALE replica is
     * drained off its chip (zero accepted requests lost) and
     * re-placed through the accuracy-gated placement path, which
     * re-programs its weights fresh -- resetting its programming age.
     * The same chip is eligible again, so a quiet chip whose replica
     * merely aged out usually gets it right back.  Returns the
     * actions taken, `reason == "recalibration"`.
     */
    std::vector<ClusterEvent> recalibrateOnce();

    // ---------------------------------------------------------- stats

    /** The scale step's observation of one tenant's serving load. */
    struct TenantLoad
    {
        /** Cluster-unique per `loadModel`: a reloaded name gets a new one. */
        std::int64_t loadId = 0;
        int desiredReplicas = 0; //!< what `repairOnce()` tops up to
        int replicas = 0;        //!< live; below desired while degraded
        std::int64_t pending = 0; //!< queued + inflight, all replicas
        double pendingPerReplica = 0.0;
        double p95QueueMillis = 0.0; //!< max across replicas
        double p99QueueMillis = 0.0; //!< max across replicas
        std::int64_t completed = 0;
    };

    StatusOr<TenantLoad> tenantLoad(const std::string &name) const;

    /**
     * One tenant's serving telemetry merged across its replicas.  A
     * replica's numbers come from its stage engines: `submitted` from
     * the head stage; `completed`, `throughput` and the batch fields
     * from the tail; `failed`, `rejected`, queue-wait percentiles and
     * modeled cost summed over stages.  Across replicas counters sum,
     * queue-wait percentiles take the worst replica (conservative for
     * tails) and throughput is the summed per-replica service rate.
     */
    StatusOr<EngineStats> modelStats(const std::string &name) const;

    /** The same conservative merge across every chip's aggregate. */
    EngineStats stats() const;

    /**
     * JSON report: {"policy":..., "chips": N, "aggregate": merged
     * stats, "perChip": {id: engine report}, "tenants": {name:
     * {"replicas": [one entry per replica, its stage chip ids joined
     * by '+'], "shards": K, "sharded": K > 1, "forwards"/
     * "interconnectBytes"/"interconnectNanos" summed over replicas,
     * "pending": n, "p99QueueMillis": ms}}, "interconnect": the
     * modeled link parameters plus fleet-total traffic, "variation":
     * per-chip profiles and one entry per calibrated stage, "health",
     * "utilization": [per chip]}.
     */
    std::string statsJson() const;

    ChipFleet &fleet() { return *fleet_; }
    const ChipFleet &fleet() const { return *fleet_; }
    const PlacementPolicy &policy() const { return *policy_; }
    const ClusterOptions &options() const { return options_; }

  private:
    /** Marks "no chip": nothing to avoid. */
    static constexpr std::size_t kNoChip =
        std::numeric_limits<std::size_t>::max();

    /** One stage's calibration verdict + when it was programmed. */
    struct ReplicaCalibration
    {
        CalibrationResult result;
        double programmedAtSeconds = 0.0; //!< drift-clock timestamp
    };

    /**
     * One replica of a tenant's whole model: its stage chips in
     * pipeline order and the `ShardRouter` that streams requests
     * through them.  Stage `s` is the engine tenant
     * `stageTenant(name, replica, s)` on `chips[s]`.  One `Failed`
     * chip or one STALE stage retires the replica as a unit.
     */
    struct Replica
    {
        std::int64_t id = 0; //!< cluster-unique; names the stage tenants
        std::vector<std::size_t> chips;
        std::shared_ptr<ShardRouter> router;

        /** One per stage for `minAccuracy` tenants; empty otherwise. */
        std::vector<ReplicaCalibration> calibrations;
    };

    /**
     * A tenant's live replicas, oldest first.  Copy-on-write: edits
     * publish a new table, so a submit routes over the table it read
     * without copying it.
     */
    using ReplicaTable = std::vector<Replica>;

    struct TenantEntry
    {
        /**
         * The pieces every replica's stages serve: one, the whole
         * model, when it fits a chip (`wholeModel`); K >= 2 otherwise.
         */
        std::shared_ptr<const ShardedModel> model;
        TenantOptions tenant;

        std::shared_ptr<const ReplicaTable> replicas =
            std::make_shared<const ReplicaTable>();

        std::int64_t loadId = 0; //!< see `TenantLoad::loadId`

        /**
         * Replica count the operator asked for (loadModel/
         * setReplicas).  The table can fall below it when a chip
         * fails and the survivors have no room; `repairOnce()` keeps
         * topping the tenant back up to this until it succeeds.
         */
        int desiredReplicas = 0;
    };

    /**
     * One cluster request.  The caller holds the future of
     * `promise`, which resolves exactly once.  Exactly one party owns
     * the rest at a time: the attempt in flight (its completion runs
     * `settle`), the backoff queue, or the thread running `retry`.
     * With failover disabled the completion resolves `promise`
     * directly; otherwise `settle` resolves it -- with the first
     * success, a non-retryable error, the exhausted retry budget's
     * last error, or a `DeadlineExceeded` shed -- or parks it for a
     * retry after its backoff.
     */
    struct Inflight
    {
        std::string model;
        Tensor input; //!< retained for resubmission

        std::promise<StatusOr<InferenceResult>> promise;

        /**
         * The stage chip whose execution failed the last failed
         * attempt, avoided on retry; `kNoChip` until one fails.
         */
        std::size_t chip = kNoChip;
        int retries = 0;
        double backoffMillis = 0.0;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline; //!< shed bound
        Status lastError;
    };

    /** One replica's end-to-end telemetry, read from its stage engines. */
    struct ReplicaStats
    {
        EngineStats serving; //!< see `modelStats`
        std::int64_t forwards = 0; //!< stage-to-stage handoffs
        std::int64_t interconnectBytes = 0;
        NanoSeconds interconnectNanos = 0.0;
    };

    ClusterEngine(std::unique_ptr<ChipFleet> fleet,
                  std::unique_ptr<PlacementPolicy> policy,
                  ClusterOptions options);

    /** A copy of `name`'s entry; `InvalidArgument` when absent. */
    StatusOr<TenantEntry> tenantEntry(const std::string &name) const;

    /**
     * Requires opsMu_: drop `name` from the tenant table (new submits
     * fail) and retire every replica it had.  `InvalidArgument` when
     * absent.
     */
    Status removeTenantLocked(const std::string &name);

    /**
     * Requires opsMu_: place, calibrate, load and publish `count` >= 1
     * new replicas of `name`.  One-stage replicas are placed in one
     * `PlacementPolicy::place` round (accuracy-gated for `minAccuracy`
     * tenants); multi-stage replicas one `placeShards` chain at a
     * time, so each chain sees the chips the previous one filled.  A
     * `minAccuracy` tenant's stages are calibrated against their
     * chips; a stage that misses the SLO fails the round `Infeasible`.
     * A round that fails is rolled back whole; earlier rounds stay
     * published.
     */
    Status growLocked(const std::string &name, const TenantEntry &snapshot,
                      int count);

    /**
     * Requires opsMu_: re-place replicas of `name` -- the shared body
     * of `repairOnce` and `recalibrateOnce`.  Each `evict` entry is a
     * replica id and the chip to report it leaving; those replicas are
     * routed around, drained and retired.  The tenant then regrows one
     * replica at a time back to its desired count, appending one
     * `reason` event per attempt to `events` and stopping at the first
     * that finds no room (a later pass retries); false then.
     */
    bool replaceLocked(
        const std::string &name,
        const std::vector<std::pair<std::int64_t, std::size_t>> &evict,
        const char *reason, std::vector<ClusterEvent> &events);

    /**
     * Pull the replicas of `name` with the given ids out of the
     * routing table (new submits skip them) and return them.
     */
    std::vector<Replica> detachReplicas(const std::string &name,
                                        const std::vector<std::int64_t> &ids);

    /**
     * Drain detached replicas to zero in-flight requests, then unload
     * their stage tenants, releasing the chip budgets.  Returns the
     * first unload error.
     */
    Status retireReplicas(const std::string &name,
                          const std::vector<Replica> &replicas);

    /**
     * The engine tenant that serves stage `stage` of `replica`: the
     * public name for a one-stage replica (so per-chip engine stats
     * read under it), `name#r<id>s<stage>` otherwise.
     */
    static std::string stageTenant(const std::string &name,
                                   const Replica &replica,
                                   std::size_t stage);

    /** The replica's stage chip ids joined by '+'. */
    std::string chipLabel(const Replica &replica) const;

    /**
     * Re-derive every calibrated stage's accuracy health from its
     * programming age at the current drift clock and publish the
     * verdicts to the health tracker under (stage chip, tenant name).
     * Takes mu_ briefly for the snapshot; safe from any thread.
     */
    void refreshAccuracyHealth();

    /**
     * The fleet's placement views with `failed` stamped from the
     * health tracker, so placement routes around down chips.
     */
    std::vector<ChipLoadView> healthyLoadViews() const;

    /**
     * Index of the best live replica for `model`: any `Failed` chip
     * rules a replica out; the rest rank by their worst stage's
     * accuracy state, then Healthy before Degraded, then avoiding
     * `exclude` (the stage chip that just failed the request), then
     * least outstanding requests; ties keep placement order.
     * `Unavailable` with a per-chip health breakdown when every
     * replica is down.
     */
    StatusOr<std::size_t> pickReplica(const ReplicaTable &replicas,
                                      const std::string &model,
                                      std::size_t exclude) const;

    /** `name`'s telemetry on `replica` (serving `model`), end to end. */
    StatusOr<ReplicaStats> replicaStats(const std::string &name,
                                        const ShardedModel &model,
                                        const Replica &replica) const;

    /**
     * The completion for an attempt of `request` on the replica with
     * stage chips `chips`: it charges the outcome to stage health (a
     * success to every stage chip; a failed execution to its stage's
     * chip, which becomes the chip to avoid) and settles the request.
     */
    ShardRouter::Completion supervise(std::shared_ptr<Inflight> request,
                                      std::vector<std::size_t> chips);

    /**
     * Final decision for one settled attempt, with the retry, backoff
     * and shed policy: resolve the request, or park it in the backoff
     * queue.  Charges no health: `supervise` already did for an
     * executed attempt, and a refusal says nothing about a chip.
     * Never blocks; safe on an engine worker.
     */
    void settle(const std::shared_ptr<Inflight> &request,
                StatusOr<InferenceResult> result);

    /**
     * Resubmit a request whose backoff has expired to the best
     * surviving replica, avoiding the chip that just failed it, with
     * non-blocking admission; a refusal settles it again.
     */
    void retry(std::shared_ptr<Inflight> request);

    /**
     * The backoff thread: sleeps until the earliest parked retry is
     * due, runs it, and exits at shutdown.  Never sees a request that
     * is in flight.
     */
    void backoffLoop();

    /** Resolve a request that shutdown caught failing over. */
    static void failAtShutdown(Inflight &request);

    ClusterOptions options_;
    std::unique_ptr<PlacementPolicy> policy_;
    std::unique_ptr<ChipFleet> fleet_;
    std::unique_ptr<HealthTracker> health_;

    /**
     * Serializes multi-step tenant operations (load/scale/unload/
     * repair), so placement decisions see a stable fleet.  Never held
     * while waiting on a drain's request path -- drains only need the
     * chip engines' workers, which never take cluster locks.
     */
    std::mutex opsMu_;
    std::int64_t nextReplicaId_ = 0; //!< guarded by opsMu_
    std::int64_t nextLoadId_ = 0;    //!< guarded by opsMu_

    /**
     * Guards tenants_, stopping_, the drift clock and the backoff
     * queue.  Never held while calling into a chip engine or router,
     * so engine workers may take it inside completions.
     */
    mutable std::mutex mu_;
    std::map<std::string, TenantEntry> tenants_;
    bool stopping_ = false;

    /** Calibration pass shared by loads + the accuracy-health loop. */
    ModelCalibrator calibrator_;

    /** Logical retention clock, seconds; guarded by mu_. */
    double driftClock_ = 0.0;

    /**
     * Requests waiting out a failover backoff, by wake time (guarded
     * by mu_).  Requests in flight are never here.
     */
    std::multimap<std::chrono::steady_clock::time_point,
                  std::shared_ptr<Inflight>>
        backoff_;
    std::condition_variable backoffCv_; //!< wakes the backoff thread
    std::thread backoffThread_; //!< only when retryBudget > 0
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_CLUSTER_ENGINE_HH
