#include "runtime/engine.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace fpsa
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * Queue-wait samples kept for the percentile estimates: a ring buffer
 * so long-running engines report recent behaviour at bounded memory.
 */
constexpr std::size_t kMaxQueueWaitSamples = 1 << 16;

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** One queued request awaiting a worker. */
struct Request
{
    Tensor input;
    Engine::Completion done;
    Clock::time_point enqueued;
};

} // namespace

/**
 * Serving counters for one scope (a tenant, or the engine aggregate).
 * All mutation requires the engine lock.
 */
struct Engine::Telemetry
{
    explicit Telemetry(int maxBatch)
        : batchSizeCounts(static_cast<std::size_t>(maxBatch) + 1, 0)
    {
        queueWaitSamples.reserve(1024);
    }

    void
    recordSubmit(Clock::time_point now)
    {
        ++submitted;
        if (!timelineStarted) {
            timelineStarted = true;
            firstSubmit = now;
            lastCompletion = now;
        }
    }

    void
    recordBatch(std::size_t size)
    {
        ++batches;
        if (size < batchSizeCounts.size())
            ++batchSizeCounts[size];
    }

    /**
     * Modeled cost is accumulated per completion so the aggregate's
     * served-mix average stays correct after a tenant is unloaded.
     */
    void
    recordOutcome(double queueMs, Clock::time_point end, bool ok,
                  NanoSeconds modeledLatency, PicoJoules modeledEnergy)
    {
        if (queueWaitSamples.size() < kMaxQueueWaitSamples) {
            queueWaitSamples.push_back(queueMs);
        } else {
            queueWaitSamples[queueWaitAt] = queueMs;
            queueWaitAt = (queueWaitAt + 1) % kMaxQueueWaitSamples;
        }
        if (ok) {
            ++completed;
            lastCompletion = end;
            modeledLatencySum += modeledLatency;
            modeledEnergySum += modeledEnergy;
        } else {
            ++failed;
        }
    }

    /**
     * Counter snapshot + a raw copy of the wait samples; the caller
     * runs `finalizeStats` on them AFTER releasing the engine lock
     * (sorting up to 64K samples under it would stall the workers).
     */
    EngineStats
    snapshotLocked(std::vector<double> &waits_out) const
    {
        EngineStats s;
        s.submitted = submitted;
        s.completed = completed;
        s.failed = failed;
        s.rejected = rejected;
        s.batches = batches;
        s.batchSizeCounts = batchSizeCounts;
        if (timelineStarted)
            s.wallSeconds =
                millisBetween(firstSubmit, lastCompletion) / 1000.0;
        if (completed > 0) {
            s.modeledLatency =
                modeledLatencySum / static_cast<double>(completed);
            s.modeledEnergyPerSample =
                modeledEnergySum / static_cast<double>(completed);
        }
        waits_out = queueWaitSamples;
        return s;
    }

    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::int64_t rejected = 0;
    std::int64_t batches = 0;
    double modeledLatencySum = 0.0; //!< over completed requests
    double modeledEnergySum = 0.0;
    std::vector<std::int64_t> batchSizeCounts;
    std::vector<double> queueWaitSamples; //!< bounded ring buffer
    std::size_t queueWaitAt = 0;
    bool timelineStarted = false;
    Clock::time_point firstSubmit;
    Clock::time_point lastCompletion;
};

namespace
{

/** Percentile/average math on a counter snapshot, outside the lock. */
void
finalizeStats(EngineStats &s, std::vector<double> waits)
{
    std::sort(waits.begin(), waits.end());
    s.p50QueueMillis = percentile(waits, 0.50);
    s.p95QueueMillis = percentile(waits, 0.95);
    s.p99QueueMillis = percentile(waits, 0.99);
    s.maxQueueMillis = waits.empty() ? 0.0 : waits.back();
    if (s.batches > 0) {
        std::int64_t coalesced = 0;
        for (std::size_t n = 0; n < s.batchSizeCounts.size(); ++n)
            coalesced +=
                static_cast<std::int64_t>(n) * s.batchSizeCounts[n];
        s.avgBatchSize = static_cast<double>(coalesced) /
                         static_cast<double>(s.batches);
    }
    if (s.wallSeconds > 0.0)
        s.throughput = static_cast<double>(s.completed) / s.wallSeconds;
}

} // namespace

/**
 * Per-model serving state.  Held by shared_ptr so a worker mid-batch
 * (and a submitter blocked on backpressure) can outlive the tenant's
 * eviction from the map; all fields require the engine lock except
 * `model`/`executor`/the modeled constants, which are immutable after
 * construction.
 */
struct Engine::Tenant
{
    Tenant(std::string tenant_name,
           std::shared_ptr<const CompiledModel> tenant_model,
           std::unique_ptr<Executor> tenant_executor, int maxBatch,
           int tenant_priority, double tenant_slo_millis)
        : name(std::move(tenant_name)), model(std::move(tenant_model)),
          executor(std::move(tenant_executor)), telemetry(maxBatch),
          priorityClass(tenant_priority),
          sloBudgetMillis(tenant_slo_millis /
                          static_cast<double>(tenant_priority)),
          modeledLatency(model->performance().latency),
          modeledEnergy(model->energy().perSample())
    {
    }

    /** Deadline of this tenant's oldest queued request. */
    Clock::time_point
    headDeadline() const
    {
        return queue.front().enqueued +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       sloBudgetMillis));
    }

    const std::string name;
    const std::shared_ptr<const CompiledModel> model;
    const std::unique_ptr<Executor> executor;

    std::deque<Request> queue;
    int inflight = 0;      //!< dequeued, not yet served
    int completing = 0;    //!< served; completion still running
    bool draining = false; //!< unloadModel in progress: no new submits
    bool evicted = false;  //!< drained and removed from the engine
    Telemetry telemetry;

    const int priorityClass;
    const double sloBudgetMillis; //!< sloMillis / priorityClass
    const NanoSeconds modeledLatency;
    const PicoJoules modeledEnergy;
};

std::string
EngineStats::toJson() const
{
    JsonWriter j;
    j.beginObject();
    j.field("submitted", submitted);
    j.field("completed", completed);
    j.field("failed", failed);
    j.field("rejected", rejected);
    j.field("batches", batches);
    j.field("throughput", throughput);
    j.field("wallSeconds", wallSeconds);
    j.field("avgBatchSize", avgBatchSize);
    j.field("modeledLatencyNs", modeledLatency);
    j.field("modeledEnergyPerSamplePj", modeledEnergyPerSample);
    j.key("queueWaitMillis").beginObject();
    j.field("p50", p50QueueMillis);
    j.field("p95", p95QueueMillis);
    j.field("p99", p99QueueMillis);
    j.field("max", maxQueueMillis);
    j.endObject();
    j.key("batchSizeCounts").beginArray();
    for (std::int64_t n : batchSizeCounts)
        j.value(n);
    j.endArray();
    if (!executor.empty()) {
        j.key("execution").beginObject();
        j.field("executor", executor);
        j.field("precision", precision);
        j.field("kernelIsa", kernelIsa);
        j.endObject();
    }
    j.endObject();
    return j.str();
}

StatusOr<std::unique_ptr<Engine>>
Engine::create(ChipCapacity capacity, EngineOptions options)
{
    if (options.workerThreads < 1 || options.maxBatch < 1 ||
        options.queueDepth < 1) {
        return Status::error(
            StatusCode::InvalidArgument,
            "engine: workerThreads, maxBatch and queueDepth must all "
            "be >= 1");
    }
    if (options.defaultSloMillis <= 0.0 ||
        options.batchWindowMillis < 0.0) {
        return Status::error(
            StatusCode::InvalidArgument,
            "engine: defaultSloMillis must be > 0 and "
            "batchWindowMillis >= 0");
    }
    return std::unique_ptr<Engine>(new Engine(capacity, options));
}

StatusOr<std::unique_ptr<Engine>>
Engine::create(std::shared_ptr<const CompiledModel> model,
               EngineOptions options)
{
    if (!model) {
        return Status::error(StatusCode::InvalidArgument,
                             "engine: null compiled model");
    }
    auto engine = create(ChipCapacity::unlimited(), options);
    if (!engine.ok())
        return engine.status();
    Status loaded =
        (*engine)->loadModel(kDefaultModel, std::move(model));
    if (!loaded.ok())
        return loaded;
    return std::move(engine).value();
}

Engine::Engine(ChipCapacity capacity, EngineOptions options)
    : options_(options), registry_(capacity, options.chipId),
      aggregate_(new Telemetry(options.maxBatch))
{
    // One lane per worker; a one-worker engine has nobody to lend, so
    // it starts no helper and never splits.
    if (options_.workerThreads > 1)
        helpers_ = std::make_unique<HelperPool>(options_.workerThreads);
    workers_.reserve(static_cast<std::size_t>(options_.workerThreads));
    for (int i = 0; i < options_.workerThreads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

Engine::~Engine()
{
    shutdown();
}

// ----------------------------------------------------------------- tenants

Status
Engine::loadModel(const std::string &name,
                  std::shared_ptr<const CompiledModel> model)
{
    return loadModel(name, std::move(model), TenantOptions{});
}

Status
Engine::loadModel(const std::string &name,
                  std::shared_ptr<const CompiledModel> model,
                  const ExecutionConfig &execution)
{
    TenantOptions tenant;
    tenant.execution = execution;
    return loadModel(name, std::move(model), tenant);
}

Status
Engine::loadModel(const std::string &name,
                  std::shared_ptr<const CompiledModel> model,
                  const TenantOptions &tenant)
{
    if (tenant.priorityClass < 1 || tenant.sloMillis < 0.0) {
        return Status::error(
            StatusCode::InvalidArgument,
            "engine: tenant priorityClass must be >= 1 and sloMillis "
            ">= 0 for '" +
                name + "'");
    }
    if (!model) {
        return Status::error(StatusCode::InvalidArgument,
                             "engine: null compiled model for '" +
                                 name + "'");
    }

    // Resolve the tenant's execution config, most specific wins:
    // model stamp -> engine default -> tenant override.
    ExecutionConfig execution = model->executionConfig();
    if (options_.execution.has_value())
        execution = *options_.execution;
    if (tenant.execution.has_value())
        execution = *tenant.execution;
    const double slo_millis = tenant.sloMillis > 0.0
                                  ? tenant.sloMillis
                                  : options_.defaultSloMillis;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            return Status::error(StatusCode::Unavailable,
                                 "engine is shut down; cannot load '" +
                                     name + "'");
        }
    }

    // Admission first: reserves the name + chip resources atomically
    // (a tenant -- even one mid-drain -- owns its registry slot for
    // its whole lifetime, so duplicates fail here), and the backend
    // build below (potentially slow, e.g. a spiking lowering) happens
    // outside the engine lock.
    Status admitted = registry_.add(name, model);
    if (!admitted.ok())
        return admitted;

    auto backend = makeExecutor(model, execution);
    if (!backend.ok()) {
        registry_.remove(name);
        return backend.status();
    }

    auto entry = std::make_shared<Tenant>(
        name, std::move(model), std::move(backend).value(),
        options_.maxBatch, tenant.priorityClass, slo_millis);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            registry_.remove(name);
            return Status::error(StatusCode::Unavailable,
                                 "engine is shut down; cannot load '" +
                                     name + "'");
        }
        tenants_.emplace(name, std::move(entry));
    }
    return Status();
}

Status
Engine::unloadModel(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
        return Status::error(StatusCode::InvalidArgument,
                             "engine: no model named '" + name + "'");
    }
    std::shared_ptr<Tenant> tenant = it->second;
    if (tenant->draining) {
        // A concurrent unload owns the drain; wait for THIS tenant
        // object's eviction.  (Keying on the name would hang if the
        // name were reloaded -- or never erased -- in between.)
        drained_.wait(lock, [&] { return tenant->evicted; });
        return Status();
    }

    tenant->draining = true;
    // Submitters blocked on this tenant's backpressure must wake and
    // see the drain (they fail with Unavailable).
    notFull_.notify_all();
    drained_.wait(lock, [&] {
        return tenant->queue.empty() && tenant->inflight == 0 &&
               tenant->completing == 0;
    });
    tenants_.erase(name);
    registry_.remove(name);
    tenant->evicted = true;
    // Wake concurrent unloaders of the same tenant.
    drained_.notify_all();
    return Status();
}

std::vector<std::string>
Engine::modelNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(tenants_.size());
    for (const auto &[name, tenant] : tenants_)
        names.push_back(name);
    return names;
}

std::int64_t
Engine::pendingRequests(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end())
        return 0;
    return static_cast<std::int64_t>(it->second->queue.size()) +
           it->second->inflight;
}

// ---------------------------------------------------------------- requests

Status
Engine::submit(const std::string &model, Tensor input, Completion done)
{
    return admitWithLock(std::unique_lock<std::mutex>(mu_), model,
                         std::move(input), std::move(done),
                         /*block=*/true);
}

Status
Engine::trySubmit(const std::string &model, Tensor input, Completion done)
{
    return admitWithLock(std::unique_lock<std::mutex>(mu_), model,
                         std::move(input), std::move(done),
                         /*block=*/false);
}

Status
Engine::admitWithLock(std::unique_lock<std::mutex> lock,
                      const std::string &model, Tensor input,
                      Completion done, bool block)
{
    auto refuse = [&](StatusCode code, std::string why, Tenant *tenant) {
        ++aggregate_->rejected;
        if (tenant)
            ++tenant->telemetry.rejected;
        return Status::error(code, std::move(why));
    };

    if (stopping_) {
        return refuse(StatusCode::Unavailable,
                      "engine is shut down; request rejected", nullptr);
    }
    auto it = tenants_.find(model);
    if (it == tenants_.end()) {
        return refuse(StatusCode::InvalidArgument,
                      "engine: no model named '" + model + "'", nullptr);
    }
    std::shared_ptr<Tenant> tenant = it->second;
    if (tenant->draining) {
        return refuse(StatusCode::Unavailable,
                      "engine: model '" + model +
                          "' is unloading; request rejected",
                      tenant.get());
    }

    // Per-tenant backpressure: one tenant at its queueDepth does not
    // block submitters of the others.  A non-blocking submit reports
    // the full queue instead of waiting -- the failover router treats
    // it as a signal to back off or shed, never to park a worker.
    if (!block &&
        tenant->queue.size() >=
            static_cast<std::size_t>(options_.queueDepth)) {
        return refuse(StatusCode::ResourceExhausted,
                      "engine: model '" + model + "' queue full (" +
                          std::to_string(options_.queueDepth) +
                          " waiting) on chip '" + options_.chipId +
                          "'; request rejected",
                      tenant.get());
    }
    notFull_.wait(lock, [&] {
        return stopping_ || tenant->draining ||
               tenant->queue.size() <
                   static_cast<std::size_t>(options_.queueDepth);
    });
    if (stopping_ || tenant->draining) {
        return refuse(StatusCode::Unavailable,
                      "engine: model '" + model +
                          "' stopped accepting requests",
                      tenant.get());
    }

    const auto now = Clock::now();
    tenant->telemetry.recordSubmit(now);
    aggregate_->recordSubmit(now);
    tenant->queue.push_back(Request{std::move(input), std::move(done), now});
    ++queuedTotal_;
    lock.unlock();
    notEmpty_.notify_one();
    return Status();
}

namespace
{

/**
 * The future form of an admission: the completion resolves the
 * promise; a refusal resolves it right away with the admission error.
 */
template <typename Admit>
std::future<StatusOr<InferenceResult>>
futureOf(Admit &&admit)
{
    auto promise =
        std::make_shared<std::promise<StatusOr<InferenceResult>>>();
    auto future = promise->get_future();
    Status admitted = admit([promise](StatusOr<InferenceResult> result) {
        promise->set_value(std::move(result));
    });
    if (!admitted.ok())
        promise->set_value(std::move(admitted));
    return future;
}

} // namespace

std::future<StatusOr<InferenceResult>>
Engine::submit(const std::string &model, Tensor input)
{
    return futureOf([&](Completion done) {
        return submit(model, std::move(input), std::move(done));
    });
}

std::future<StatusOr<InferenceResult>>
Engine::submit(Tensor input)
{
    return futureOf([&](Completion done) {
        // Resolve the sole tenant and enqueue under ONE lock hold, so a
        // concurrent hot swap between resolution and routing cannot
        // fail a request while exactly one model is resident.
        std::unique_lock<std::mutex> lock(mu_);
        if (tenants_.size() != 1) {
            ++aggregate_->rejected;
            return Status::error(
                StatusCode::InvalidArgument,
                "engine: name-free submit needs exactly one loaded "
                "model, " +
                    std::to_string(tenants_.size()) + " are loaded");
        }
        const std::string sole = tenants_.begin()->first;
        return admitWithLock(std::move(lock), sole, std::move(input),
                             std::move(done), /*block=*/true);
    });
}

StatusOr<InferenceResult>
Engine::infer(const std::string &model, const Tensor &input)
{
    return submit(model, input).get();
}

StatusOr<InferenceResult>
Engine::infer(const Tensor &input)
{
    return submit(input).get();
}

namespace
{

/**
 * Bounded wait on a submitted future.  On timeout the future (and
 * with it this caller's claim on the result) is abandoned; the request
 * itself still drains through the scheduler like any accepted request.
 */
StatusOr<InferenceResult>
waitWithDeadline(std::future<StatusOr<InferenceResult>> future,
                 const std::string &what, double timeoutMillis)
{
    if (timeoutMillis <= 0.0) {
        return Status::error(StatusCode::InvalidArgument,
                             "infer: timeoutMillis must be > 0 for " +
                                 what);
    }
    const auto budget = std::chrono::duration<double, std::milli>(
        timeoutMillis);
    if (future.wait_for(budget) != std::future_status::ready) {
        return Status::error(
            StatusCode::DeadlineExceeded,
            "infer: " + what + " not served within " +
                std::to_string(timeoutMillis) +
                "ms; the request remains queued and will still drain");
    }
    return future.get();
}

} // namespace

StatusOr<InferenceResult>
Engine::infer(const std::string &model, const Tensor &input,
              double timeoutMillis)
{
    return waitWithDeadline(submit(model, input),
                            "model '" + model + "'", timeoutMillis);
}

StatusOr<InferenceResult>
Engine::infer(const Tensor &input, double timeoutMillis)
{
    return waitWithDeadline(submit(input), "the default model",
                            timeoutMillis);
}

Status
Engine::probe() const
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            return Status::error(StatusCode::Unavailable,
                                 "probe: engine on chip '" +
                                     options_.chipId +
                                     "' is shut down");
        }
    }
    if (options_.faultHook)
        return options_.faultHook->probe(options_.chipId);
    return Status();
}

// --------------------------------------------------------------- scheduler

std::shared_ptr<Engine::Tenant>
Engine::pickTenantLocked()
{
    // Earliest-deadline-first over head-of-queue requests: the
    // deadline is enqueue time + the tenant's priority-scaled SLO
    // budget, so high-priority traffic is served ahead of equally old
    // best-effort traffic, and deadlines age -- a backlogged tenant's
    // head only gets more urgent, so nobody starves.  Map order breaks
    // exact ties deterministically.
    std::shared_ptr<Tenant> best;
    Clock::time_point best_deadline{};
    for (const auto &[name, tenant] : tenants_) {
        if (tenant->queue.empty())
            continue;
        const Clock::time_point deadline = tenant->headDeadline();
        if (!best || deadline < best_deadline) {
            best = tenant;
            best_deadline = deadline;
        }
    }
    return best;
}

void
Engine::workerLoop(int lane_index)
{
    HelperPool::Lane *lane =
        helpers_ ? &helpers_->lane(lane_index) : nullptr;
    std::vector<Request> batch;
    for (;;) {
        batch.clear();
        std::shared_ptr<Tenant> tenant;
        {
            std::unique_lock<std::mutex> lock(mu_);
            notEmpty_.wait(lock, [this] {
                return stopping_ || queuedTotal_ > 0;
            });
            if (queuedTotal_ == 0)
                return; // stopping and fully drained
            tenant = pickTenantLocked();
            if (!tenant)
                continue; // raced another worker for the last requests

            // One tenant per batch -- batches never mix models.
            // maxBatch is an upper bound; cap the grab at an even
            // share of this tenant's backlog so one worker never
            // serializes a burst the rest of the pool could serve.
            const std::size_t workers =
                static_cast<std::size_t>(options_.workerThreads);
            const std::size_t fair =
                (tenant->queue.size() + workers - 1) / workers;
            std::size_t take = std::min(
                {tenant->queue.size(),
                 static_cast<std::size_t>(options_.maxBatch),
                 std::max<std::size_t>(1, fair)});
            // Deadline-based batch closing: close the batch at the
            // first request that arrived more than the batch window
            // after the head.  It has that much more deadline slack,
            // so it can wait its turn instead of stretching this batch
            // in front of other tenants' older deadlines.
            const Clock::time_point head = tenant->queue.front().enqueued;
            std::size_t within = 1;
            while (within < take &&
                   millisBetween(head, tenant->queue[within].enqueued) <=
                       options_.batchWindowMillis)
                ++within;
            take = within;
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(tenant->queue.front()));
                tenant->queue.pop_front();
            }
            queuedTotal_ -= take;
            tenant->inflight += static_cast<int>(take);
            tenant->telemetry.recordBatch(take);
            aggregate_->recordBatch(take);
        }
        notFull_.notify_all();

        // Execute the whole grab as ONE backend batch: the planned
        // executor turns it into a single multi-column GEMM per layer,
        // which is where the scheduler's coalescing pays off.
        const auto dequeued = Clock::now();
        std::vector<const Tensor *> inputs;
        inputs.reserve(batch.size());
        for (const Request &request : batch)
            inputs.push_back(&request.input);
        const auto exec_start = Clock::now();
        // The fault hook sits between dequeue and execution: a non-OK
        // return fails the whole batch through the normal result path
        // (so completions run, telemetry counts the failures and the
        // drain contract holds), and any hook-side stall or sleep is
        // charged to this batch's execution wall-clock.
        Status fault;
        if (options_.faultHook)
            fault = options_.faultHook->beforeExecute(options_.chipId);
        std::vector<StatusOr<Tensor>> outputs;
        if (fault.ok()) {
            // While this worker executes it counts as busy, and its
            // lane borrows whichever helpers the other busy workers
            // leave free.
            if (lane)
                lane->enter();
            outputs = tenant->executor->runBatch(inputs, lane);
            if (lane)
                lane->leave();
        } else {
            outputs.reserve(batch.size());
            for (std::size_t r = 0; r < batch.size(); ++r)
                outputs.push_back(fault);
        }
        const auto exec_end = Clock::now();
        const double exec_ms = millisBetween(exec_start, exec_end);

        for (std::size_t r = 0; r < batch.size(); ++r) {
            Request &request = batch[r];
            StatusOr<Tensor> &output = outputs[r];
            const double queue_ms =
                millisBetween(request.enqueued, dequeued);
            const bool ok = output.ok();

            // Ordering contract, per request: (1) telemetry, and the
            // request stops counting as pending, so a client acting on
            // its completion sees it counted and routes as if it were
            // gone; (2) run the completion, outside every engine lock;
            // (3) the completing decrement, so unloadModel never
            // returns before the drained requests' completions have
            // run.
            {
                std::lock_guard<std::mutex> lock(mu_);
                tenant->telemetry.recordOutcome(
                    queue_ms, exec_end, ok, tenant->modeledLatency,
                    tenant->modeledEnergy);
                aggregate_->recordOutcome(queue_ms, exec_end, ok,
                                          tenant->modeledLatency,
                                          tenant->modeledEnergy);
                --tenant->inflight;
                ++tenant->completing;
            }

            if (!ok) {
                request.done(output.status());
            } else {
                InferenceResult result;
                result.output = std::move(output).value();
                result.model = tenant->name;
                result.queueMillis = queue_ms;
                result.execMillis = exec_ms;
                result.batchSize = static_cast<int>(batch.size());
                result.modeledLatency = tenant->modeledLatency;
                result.modeledEnergy = tenant->modeledEnergy;
                request.done(std::move(result));
            }

            {
                std::lock_guard<std::mutex> lock(mu_);
                --tenant->completing;
                if (tenant->draining && tenant->queue.empty() &&
                    tenant->inflight == 0 && tenant->completing == 0) {
                    drained_.notify_all();
                }
            }
        }
    }
}

Status
Engine::shutdown()
{
    // call_once serializes concurrent callers: every call (including
    // repeats, and calls racing submit()) blocks until the drain is
    // complete and returns the same drain Status.
    std::call_once(shutdownOnce_, [this] {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
        drained_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
        if (helpers_)
            helpers_->stop();
        // Workers exit only once every queue is drained; every queued
        // request's completion has run.
        drainStatus_ = Status();
    });
    return drainStatus_;
}

// ------------------------------------------------------------------- stats

std::int64_t
Engine::helperChunks() const
{
    return helpers_ ? helpers_->helperChunks() : 0;
}

EngineStats
Engine::stats() const
{
    // The aggregate's modeled latency/energy are completion-weighted
    // sums recorded as requests finish, so the served-mix average
    // stays correct even after tenants are unloaded.
    EngineStats s;
    std::vector<double> waits;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s = aggregate_->snapshotLocked(waits);
    }
    finalizeStats(s, std::move(waits));
    return s;
}

StatusOr<EngineStats>
Engine::modelStats(const std::string &name) const
{
    EngineStats s;
    std::vector<double> waits;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tenants_.find(name);
        if (it == tenants_.end()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "engine: no model named '" + name +
                                     "'");
        }
        s = it->second->telemetry.snapshotLocked(waits);
        // A tenant's modeled cost is its model's constants, shown even
        // before it has served anything.
        s.modeledLatency = it->second->modeledLatency;
        s.modeledEnergyPerSample = it->second->modeledEnergy;
        // What the backend actually runs (resolved, never "auto").
        const ExecutionConfig info = it->second->executor->info();
        s.executor = executorKindName(info.executor);
        s.precision = precisionModeName(info.precision);
        s.kernelIsa = kernelIsaName(info.kernelIsa);
    }
    finalizeStats(s, std::move(waits));
    return s;
}

std::string
Engine::statsJson() const
{
    // Snapshot names first; stats()/modelStats take the lock per call.
    std::vector<std::string> names = modelNames();
    JsonWriter j;
    j.beginObject();
    j.key("aggregate").raw(stats().toJson());
    j.key("tenants").beginObject();
    for (const std::string &name : names) {
        auto s = modelStats(name);
        if (s.ok())
            j.key(name).raw(s->toJson());
    }
    j.endObject();
    j.key("utilization").raw(registry_.utilizationJson());
    j.endObject();
    return j.str();
}

} // namespace fpsa
