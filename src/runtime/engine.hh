/**
 * @file
 * `fpsa::Engine`: the concurrent, batched, multi-tenant inference
 * serving runtime.
 *
 * An engine owns one worker pool and a `ModelRegistry` of named
 * `CompiledModel`s sharing the chip.  Models are loaded and unloaded
 * at runtime, admitted against the chip's PE/SMB/CLB/routing budget;
 * requests are routed by model name through the batching scheduler:
 *
 *     auto engine = Engine::create(
 *         ChipCapacity::fromArch({.width = 32, .height = 32})).value();
 *     engine->loadModel("lenet", lenet,
 *                       ExecutionConfig{ExecutorKind::Spiking});
 *     engine->loadModel("mlp", mlp);
 *     auto f = engine->submit("lenet", image);     // async (future)
 *     engine->submit("lenet", image,               // async (callback)
 *                    [](StatusOr<InferenceResult> r) { ... });
 *     StatusOr<InferenceResult> r = engine->infer("mlp", sample);
 *     engine->unloadModel("mlp");                  // drains, then evicts
 *
 * The single-model PR-3 API remains as a one-tenant wrapper: `create`
 * from a `CompiledModel` loads it under `kDefaultModel` with unlimited
 * capacity, and the name-free `submit`/`infer` overloads route to the
 * engine's sole resident model.
 *
 * Multi-tenancy contract:
 *  - Every scheduler batch is drawn from exactly one tenant's queue --
 *    batches never mix tenants.  The scheduler is SLO-aware
 *    earliest-deadline-first: a request's deadline is its enqueue time
 *    plus its tenant's SLO budget (`TenantOptions::sloMillis`, scaled
 *    down by the priority class), and workers serve the tenant whose
 *    oldest queued request is due first.  Deadlines age, so one
 *    tenant's burst cannot starve the rest.
 *  - `loadModel` fails with `Status::Infeasible` (per-resource
 *    breakdown in the message) when resident demand + the new model's
 *    would exceed the `ChipCapacity`.
 *  - `unloadModel` hot-swaps: the tenant stops accepting requests,
 *    its queued/inflight requests all drain (their completions run),
 *    and only then is it evicted -- other tenants keep serving
 *    throughout.
 *  - Every request path is one completion callback: the worker that
 *    serves an accepted request runs its `Completion` exactly once;
 *    the future-returning `submit`/`infer` are thin wrappers over it.
 *  - `submit` applies per-tenant backpressure: when `queueDepth`
 *    requests of that model are waiting it blocks until the scheduler
 *    drains (or the tenant/engine goes away, which refuses the request
 *    with `StatusCode::Unavailable`); `trySubmit` refuses with
 *    `ResourceExhausted` instead of waiting.
 *  - `shutdown()` stops accepting work, drains every tenant's queue,
 *    joins the workers, and returns the drain Status.  It is
 *    idempotent and safe to call concurrently (with itself and with
 *    `submit`); later calls return the same drain Status.
 *
 * Idle workers are lent to executing requests, the way FPSA's mapper
 * duplicates a slow layer onto parallel PEs.  An engine with
 * `workerThreads` > 1 also starts `workerThreads - 1` helper threads
 * (nn/team.hh's `HelperPool`), parked on a condition variable.  Each
 * worker owns one lane of that pool and counts as busy while it
 * executes a batch; the planned executor then splits each large conv
 * or fc layer of the batch by output columns, recruiting for each
 * layer at most `workerThreads` - busy workers - helpers already lent
 * helpers, so the runnable plan threads never exceed `workerThreads`.
 * At low load a request runs on up to `workerThreads` cores; under
 * full load nobody is lent and every request runs on its own worker.
 * A one-worker engine starts no helper and never splits.  Outputs are
 * bit-identical either way (nn/plan.hh).  `shutdown()` joins the
 * helpers after the workers.
 *
 * `stats()` aggregates serving telemetry across tenants;
 * `modelStats(name)` scopes it to one tenant (throughput, p50/p95
 * queue wait, batch histogram, the model's modeled per-sample
 * latency/energy); `statsJson()` bundles aggregate, per-tenant and
 * chip-utilization sections.
 */

#ifndef FPSA_RUNTIME_ENGINE_HH
#define FPSA_RUNTIME_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "runtime/compiled_model.hh"
#include "runtime/executor.hh"
#include "runtime/fault_hook.hh"
#include "nn/team.hh"
#include "runtime/model_registry.hh"

namespace fpsa
{

/** Serving-runtime knobs. */
struct EngineOptions
{
    int workerThreads = 4;

    /**
     * Upper bound on requests coalesced per dequeue.  The scheduler
     * additionally caps each grab at an even share of the tenant's
     * backlog so a burst spreads across the pool instead of
     * serializing on one worker.
     */
    int maxBatch = 8;

    int queueDepth = 256; //!< per-tenant; submit() blocks beyond this

    /**
     * Default execution config (backend + precision + kernel ISA) for
     * models loaded without a per-tenant override.  Unset (the
     * default) serves each model with the `ExecutionConfig` stamped
     * into it at compile time -- `planned/fp32/auto` unless
     * `Pipeline::compile(ExecutionConfig)` said otherwise.  `Planned`
     * executes each scheduler batch through one batched plan
     * invocation (one multi-column GEMM per layer); `Reference` keeps
     * the naive golden kernels for validation.
     */
    std::optional<ExecutionConfig> execution;

    /**
     * SLO budget for tenants that do not set an explicit
     * `TenantOptions::sloMillis`: a request's deadline is its enqueue
     * time plus this budget divided by the tenant's priority class.
     */
    double defaultSloMillis = 50.0;

    /**
     * Name of the chip this engine serves; stamped into the
     * registry's admission-rejection messages so a fleet's per-chip
     * breakdowns stay attributable.
     */
    std::string chipId = "chip0";

    /**
     * Deadline-based batch closing: a batch closes at the first
     * request that arrived more than this many milliseconds after the
     * batch's head.  A late arrival has that much more deadline slack
     * than the head, so folding it in would only stretch the batch's
     * execution in front of other tenants' older deadlines; left
     * queued, it is still served within its own budget.  Burst
     * traffic (arrivals closer together than the window) still
     * coalesces up to `maxBatch`.
     */
    double batchWindowMillis = 5.0;

    /**
     * Chaos/test seam: consulted once per batch before execution and
     * by `probe()`.  Null (the default) is a no-op.  The engine keeps
     * a reference for its lifetime, so a `FaultInjector` shared across
     * a fleet's chips outlives every engine it is wired into.
     */
    std::shared_ptr<ExecutionFaultHook> faultHook;
};

/** Per-tenant serving configuration for `Engine::loadModel`. */
struct TenantOptions
{
    /**
     * Execution override (backend + precision + kernel ISA); unset
     * falls back to `EngineOptions::execution`, then to the model's
     * compile-time stamped config.  This is how one engine serves the
     * same `CompiledModel` to a latency tenant at int8 and an
     * accuracy tenant at fp32 simultaneously -- the per-(precision,
     * ISA) execution plans are cached on the model and shared.
     */
    std::optional<ExecutionConfig> execution;

    /**
     * Priority class, >= 1.  A tenant's effective SLO budget is
     * `sloMillis / priorityClass`, so a class-4 tenant's requests
     * carry deadlines four times tighter than a class-1 tenant's and
     * are served ahead of equally old best-effort traffic.
     */
    int priorityClass = 1;

    /** SLO budget in milliseconds; 0 uses `defaultSloMillis`. */
    double sloMillis = 0.0;

    /**
     * Accuracy SLO: minimum acceptable predicted model accuracy
     * (normalized, 0..1) under the serving chip's device-variation
     * profile; 0 disables accuracy-aware admission.  Enforced by the
     * cluster layer: loadModel runs a calibration pass that picks the
     * cheapest per-layer cell mapping meeting this bound, placement
     * prefers the lowest-variance feasible chips, and replicas whose
     * drift-degraded accuracy falls below the bound go STALE and are
     * re-programmed by `ClusterEngine::recalibrateOnce()`, one step of
     * the `ClusterController` tick.  A single-chip `Engine` ignores it.
     */
    double minAccuracy = 0.0;
};

/** One served request: the output plus its telemetry. */
struct InferenceResult
{
    Tensor output;
    std::string model; //!< tenant that served this request

    // Request-path telemetry (measured).
    double queueMillis = 0.0; //!< enqueue -> dequeue wait
    double execMillis = 0.0;  //!< wall-clock of this request's batch
    int batchSize = 1;        //!< size of the batch this request rode in

    // Modeled hardware cost of this sample (from the compiled model).
    NanoSeconds modeledLatency = 0.0;
    PicoJoules modeledEnergy = 0.0;

    // Stage-chain telemetry (set by the cluster's `ShardRouter`; 1 /
    // zero for a one-stage replica and single-chip serving).
    // `modeledLatency` already includes `interconnectNanos`.
    int shards = 1;                       //!< pipeline stages traversed
    std::int64_t interconnectBytes = 0;   //!< cut activations forwarded
    NanoSeconds interconnectNanos = 0.0;  //!< modeled transfer cost
};

/** Serving telemetry for one scope: a tenant, or the whole engine. */
struct EngineStats
{
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;   //!< executor returned an error
    std::int64_t rejected = 0; //!< refused at submit (shutdown/unknown)
    std::int64_t batches = 0;  //!< scheduler dequeues

    double p50QueueMillis = 0.0;
    double p95QueueMillis = 0.0;
    double p99QueueMillis = 0.0; //!< the tail the cluster bench gates
    double maxQueueMillis = 0.0;
    double avgBatchSize = 0.0;

    /** Completed requests / wall-clock from first submit to last. */
    double throughput = 0.0;
    double wallSeconds = 0.0;

    /**
     * Modeled per-sample chip cost.  For a tenant these are its
     * model's constants; for the aggregate, the completion-weighted
     * average across tenants.
     */
    NanoSeconds modeledLatency = 0.0;
    PicoJoules modeledEnergyPerSample = 0.0;

    /** batchSizeCounts[n] = batches that coalesced exactly n requests. */
    std::vector<std::int64_t> batchSizeCounts;

    /**
     * Resolved execution config the scope serves with (tenant scopes
     * only; empty strings for the aggregate, which may span mixed
     * configs).  `kernelIsa` is what actually dispatches -- never
     * "auto" -- so a deploy can verify the vector path is live.
     */
    std::string executor;
    std::string precision;
    std::string kernelIsa;

    std::string toJson() const;
};

/** The concurrent batched multi-tenant serving runtime. */
class Engine
{
  public:
    /** Name the single-model wrapper loads its model under. */
    static constexpr const char *kDefaultModel = "default";

    /**
     * Start an empty multi-tenant engine admitting models against
     * `capacity`.  Validates options and starts the workers.
     */
    static StatusOr<std::unique_ptr<Engine>> create(
        ChipCapacity capacity, EngineOptions options = {});

    /**
     * One-tenant wrapper (the PR-3 API): unlimited capacity with
     * `model` loaded under `kDefaultModel` using `options.execution`
     * (falling back to the model's stamped config; the backend may
     * reject the model, e.g. `Spiking` outside the MLP/LeNet family).
     */
    static StatusOr<std::unique_ptr<Engine>> create(
        std::shared_ptr<const CompiledModel> model,
        EngineOptions options = {});

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    // -------------------------------------------------------- tenants

    /**
     * Admit `model` against the chip budget and start serving it as
     * `name`.  The tenant's execution config resolves model stamp ->
     * `EngineOptions::execution` -> `TenantOptions::execution` (an
     * explicit `ExecutionConfig` argument binds as the tenant
     * override).  `Infeasible` with a per-resource breakdown when it
     * does not fit; `InvalidArgument` on a duplicate name or a model
     * the backend rejects; `Unavailable` after shutdown.
     */
    Status loadModel(const std::string &name,
                     std::shared_ptr<const CompiledModel> model);
    Status loadModel(const std::string &name,
                     std::shared_ptr<const CompiledModel> model,
                     const ExecutionConfig &execution);
    Status loadModel(const std::string &name,
                     std::shared_ptr<const CompiledModel> model,
                     const TenantOptions &tenant);

    /**
     * Hot-swap eviction: stop accepting requests for `name`, drain its
     * queued and inflight requests (their completions all run), then
     * release its chip resources.  Blocks the caller until the drain
     * completes; other tenants keep serving throughout.
     */
    Status unloadModel(const std::string &name);

    /** Names of resident tenants (admission order not preserved). */
    std::vector<std::string> modelNames() const;

    /**
     * Requests accepted for `name` but not yet served (queued +
     * executing; a request whose completion is running no longer
     * counts); 0 for an absent tenant.  The cluster router's
     * least-outstanding-requests signal.
     */
    std::int64_t pendingRequests(const std::string &name) const;

    // ------------------------------------------------------- requests

    /**
     * Receives one accepted request's outcome.  It runs on the engine
     * worker that served the request, outside every engine lock, so
     * it may submit further work (the cluster chains shard stages and
     * failover retries this way) -- but only through `trySubmit`: a
     * worker must never block inside a completion.  It must not throw.
     */
    using Completion = std::function<void(StatusOr<InferenceResult>)>;

    /**
     * Queue one sample for `model`; `done` receives the outcome.  An
     * error return means admission refused the request (shutdown,
     * unknown or unloading tenant) and `done` never runs.  OK means
     * the request is accepted and `done` runs exactly once -- with the
     * output, the executor's error, or a fault-hook failure -- after
     * the request's telemetry is recorded and before `unloadModel` or
     * `shutdown` can observe it drained.  Blocks while `queueDepth`
     * requests of `model` are waiting.
     */
    Status submit(const std::string &model, Tensor input, Completion done);

    /**
     * Non-blocking `submit`: where `submit` would wait on the tenant's
     * backpressure, admission refuses with `ResourceExhausted` ("queue
     * full") instead.  The distinct code tells a failover retry the
     * target is busy, not broken, so the wait must not consume retry
     * budget.
     */
    Status trySubmit(const std::string &model, Tensor input,
                     Completion done);

    /**
     * Future form of `submit`: a refused request comes back as an
     * immediately-ready future holding the admission error.
     */
    std::future<StatusOr<InferenceResult>> submit(const std::string &model,
                                                  Tensor input);

    /**
     * Name-free convenience: routes to the engine's sole resident
     * model; fails with `InvalidArgument` when zero or several models
     * are loaded (the route would be ambiguous).
     */
    std::future<StatusOr<InferenceResult>> submit(Tensor input);

    /** submit() + wait: the one-call convenience paths. */
    StatusOr<InferenceResult> infer(const std::string &model,
                                    const Tensor &input);
    StatusOr<InferenceResult> infer(const Tensor &input);

    /**
     * Bounded-wait infer: `DeadlineExceeded` when the result is not
     * ready within `timeoutMillis`, so a wedged executor or a stalled
     * tenant queue can never block a caller forever.  The request
     * itself stays queued/in flight and is still drained (and counted
     * in telemetry) like any other accepted request.
     */
    StatusOr<InferenceResult> infer(const std::string &model,
                                    const Tensor &input,
                                    double timeoutMillis);
    StatusOr<InferenceResult> infer(const Tensor &input,
                                    double timeoutMillis);

    /**
     * Liveness probe: OK when the engine accepts work and the fault
     * hook (when configured) reports the chip serviceable;
     * `Unavailable` after shutdown or under a fail-stop.  Never
     * touches tenant queues and never blocks.
     */
    Status probe() const;

    /**
     * Stop accepting requests, drain every tenant's queue, join the
     * workers; returns the drain Status.  Idempotent and thread-safe:
     * concurrent and repeated calls all return the same Status.
     */
    Status shutdown();

    // ---------------------------------------------------------- stats

    /** Aggregate serving telemetry across all tenants. */
    EngineStats stats() const;

    /**
     * Chunks of split layers that lent helpers (not the executing
     * workers) have run since creation; always 0 for a one-worker
     * engine.
     */
    std::int64_t helperChunks() const;

    /** One tenant's serving telemetry (InvalidArgument when absent). */
    StatusOr<EngineStats> modelStats(const std::string &name) const;

    /**
     * JSON report: {"aggregate": ..., "tenants": {name: ...},
     * "utilization": ...} -- the surface benches/CI consume.
     */
    std::string statsJson() const;

    const ModelRegistry &registry() const { return registry_; }
    const EngineOptions &options() const { return options_; }

  private:
    struct Tenant;    // per-model serving state (engine.cc)
    struct Telemetry; // per-scope counters (engine.cc)

    Engine(ChipCapacity capacity, EngineOptions options);

    /** Serve batches; `lane_index` is this worker's helper lane. */
    void workerLoop(int lane_index);

    /**
     * The admission path proper; consumes an already-held lock.  With
     * `block` false a full tenant queue refuses instead of waiting.
     */
    Status admitWithLock(std::unique_lock<std::mutex> lock,
                         const std::string &model, Tensor input,
                         Completion done, bool block);

    /**
     * Requires mu_: the tenant whose head-of-queue request has the
     * earliest deadline; null when every queue is empty.
     */
    std::shared_ptr<Tenant> pickTenantLocked();

    EngineOptions options_;
    ModelRegistry registry_;

    mutable std::mutex mu_;
    std::condition_variable notEmpty_; //!< workers wait for requests
    std::condition_variable notFull_;  //!< submitters wait for room
    std::condition_variable drained_;  //!< unloaders wait for the drain
    std::map<std::string, std::shared_ptr<Tenant>> tenants_;
    std::size_t queuedTotal_ = 0;
    bool stopping_ = false;

    // Engine-scope telemetry (guarded by mu_); per-tenant telemetry
    // lives in each Tenant.
    std::unique_ptr<Telemetry> aggregate_;

    std::once_flag shutdownOnce_;
    Status drainStatus_;
    std::unique_ptr<HelperPool> helpers_; //!< null for one worker
    std::vector<std::thread> workers_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_ENGINE_HH
