#include "loadgen.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "common/rng.hh"

namespace perfbench
{

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return fpsa::Rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL)).next();
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate, std::size_t requests,
                const std::vector<double> &mix, int inputsPerTenant)
{
    fpsa::Rng rng(seed);
    double weight_sum = 0.0;
    for (double w : mix)
        weight_sum += w;
    std::vector<std::uint32_t> tenants;
    tenants.reserve(requests);
    for (std::size_t t = 0; t < mix.size(); ++t) {
        std::size_t quota =
            t + 1 == mix.size()
                ? requests - tenants.size()
                : static_cast<std::size_t>(std::llround(
                      mix[t] / weight_sum * static_cast<double>(requests)));
        quota = std::min(quota, requests - tenants.size());
        tenants.insert(tenants.end(), quota, static_cast<std::uint32_t>(t));
    }
    rng.shuffle(tenants);

    std::vector<Arrival> schedule(requests);
    double at = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
        // Exponential inter-arrival gaps; 1 - u keeps log() finite.
        at += -std::log(1.0 - rng.uniform()) / rate;
        schedule[i].atSeconds = at;
        schedule[i].tenant = static_cast<int>(tenants[i]);
        schedule[i].input = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(inputsPerTenant)));
    }
    return schedule;
}

std::int64_t
LoadResult::completed() const
{
    std::int64_t n = 0;
    for (const RequestRecord &r : records)
        n += r.ok ? 1 : 0;
    return n;
}

std::int64_t
LoadResult::failed() const
{
    std::int64_t n = 0;
    for (const RequestRecord &r : records)
        n += (r.ok && r.correct) ? 0 : 1;
    return n;
}

namespace
{

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

using Future = std::future<fpsa::StatusOr<fpsa::InferenceResult>>;

struct Pending
{
    std::size_t index = 0;
    Future future;
};

/**
 * Completion watchers.  Each thread takes the oldest request nobody is
 * watching yet and blocks on its future, so a request is seen done the
 * moment it resolves even while an older, slower one still runs.  (A
 * sender that blocks on its oldest future charges every faster request
 * behind it with the older one's remaining time.)  The threads sleep in
 * `future::wait`, so they add no busy thread.  The destructor waits for
 * every watched future, so no request outlives the run.
 */
class Watchers
{
  public:
    using OnDone = std::function<void(Pending &, Clock::time_point)>;

    Watchers(int threads, OnDone onDone) : onDone_(std::move(onDone))
    {
        for (int i = 0; i < threads; ++i)
            threads_.emplace_back([this] { loop(); });
    }

    ~Watchers()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closing_ = true;
        }
        work_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    void watch(Pending p)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.push_back(std::move(p));
            ++watched_;
        }
        work_.notify_one();
    }

    /** Requests handed over and not yet done. */
    std::size_t outstanding()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return watched_ - done_;
    }

    /** Wait until every watched request is done or `deadline` passes. */
    void drain(Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait_until(lock, deadline,
                            [this] { return done_ == watched_; });
    }

  private:
    void loop()
    {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lock(mu_);
                work_.wait(lock,
                           [this] { return closing_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                p = std::move(queue_.front());
                queue_.pop_front();
            }
            p.future.wait();
            onDone_(p, Clock::now());
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++done_;
            }
            done_cv_.notify_all();
        }
    }

    OnDone onDone_;
    std::mutex mu_;
    std::condition_variable work_, done_cv_;
    std::deque<Pending> queue_;
    std::size_t watched_ = 0, done_ = 0;
    bool closing_ = false;
    std::vector<std::thread> threads_;
};

// More than the requests in flight at any reference rate, so each one
// is watched from the moment it is sent.  Under overload the extra
// requests wait for a free watcher, in send order.
constexpr int kWatcherThreads = 32;

} // namespace

LoadResult
runOpenLoop(const std::vector<Arrival> &schedule, const SubmitFn &submit,
            const CheckFn &check, Tracer &tracer, double drainSeconds,
            const std::vector<std::string> &tenantNames)
{
    LoadResult result;
    result.records.resize(schedule.size());
    std::vector<Clock::time_point> sent_at(schedule.size());
    std::vector<Clock::time_point> submitted_at(schedule.size());
    std::vector<Clock::time_point> done_at(schedule.size());

    // A short lead so the first arrival is not late by construction.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               schedule[i].atSeconds));
    };

    // Runs on a watcher thread; each request's record is its own.
    auto complete = [&](Pending &p, Clock::time_point now) {
        RequestRecord &rec = result.records[p.index];
        const Arrival &a = schedule[p.index];
        fpsa::StatusOr<fpsa::InferenceResult> r = p.future.get();
        done_at[p.index] = now;
        rec.latencyMs = millisBetween(due(p.index), now);
        rec.ok = r.ok();
        rec.code = r.status().code();
        if (r.ok()) {
            rec.correct = check(a, *r);
            rec.queueMs = r->queueMillis;
            rec.execMs = r->execMillis;
            rec.batch = r->batchSize;
            rec.shards = r->shards;
            rec.interconnectBytes = r->interconnectBytes;
        }
        if (tracer.enabled()) {
            fpsa::JsonWriter attrs;
            attrs.beginObject();
            attrs.field("tenant",
                        tenantNames[static_cast<std::size_t>(a.tenant)]);
            attrs.field("ok", rec.ok);
            attrs.field("queueMillis", rec.queueMs);
            attrs.field("execMillis", rec.execMs);
            attrs.field("batchSize",
                        static_cast<std::int64_t>(rec.batch));
            attrs.field("shards", static_cast<std::int64_t>(rec.shards));
            attrs.endObject();
            const auto id = static_cast<std::int64_t>(p.index);
            const int span = tracer.add("request", due(p.index), now, -1,
                                        id, attrs.str());
            tracer.add("submit", sent_at[p.index],
                       submitted_at[p.index], span, id);
        }
    };

    Clock::time_point drain_deadline;
    {
        Watchers watchers(kWatcherThreads, complete);
        for (std::size_t next = 0; next < schedule.size(); ++next) {
            std::this_thread::sleep_until(due(next));
            const Clock::time_point now = Clock::now();
            RequestRecord &rec = result.records[next];
            rec.tenant = schedule[next].tenant;
            sent_at[next] = now;
            rec.lateMs = millisBetween(due(next), now);
            Future future = submit(schedule[next]);
            submitted_at[next] = Clock::now();
            rec.submitUs =
                millisBetween(now, submitted_at[next]) * 1000.0;
            watchers.watch(Pending{next, std::move(future)});
        }
        result.backlogAtLastSend = watchers.outstanding();
        drain_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(drainSeconds));
        watchers.drain(drain_deadline);
    } // joins the watchers: every future has resolved
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (done_at[i] > drain_deadline) {
            RequestRecord &rec = result.records[i];
            rec.ok = false;
            rec.code = fpsa::StatusCode::DeadlineExceeded;
        }
    }
    result.wallSeconds = millisBetween(start, Clock::now()) / 1000.0;
    return result;
}

std::vector<double>
latenciesMs(const LoadResult &result, int tenant)
{
    std::vector<double> out;
    out.reserve(result.records.size());
    for (const RequestRecord &r : result.records) {
        if (r.ok && (tenant < 0 || r.tenant == tenant))
            out.push_back(r.latencyMs);
    }
    return out;
}

ProbeVerdict
judgeProbe(const LoadResult &result, int tenants, double limitMs,
           std::size_t maxBacklog)
{
    ProbeVerdict v;
    if (const std::int64_t failed = result.failed(); failed > 0) {
        v.reason = std::to_string(failed) + " failed";
        return v;
    }
    if (result.backlogAtLastSend > maxBacklog) {
        v.reason = "backlog " + std::to_string(result.backlogAtLastSend);
        return v;
    }
    for (int t = 0; t < tenants; ++t) {
        const Percentile p90 = percentile(latenciesMs(result, t), 0.9);
        if (!p90.supported) {
            v.reason = "tenant " + std::to_string(t) + ": " +
                       std::to_string(p90.samples) +
                       " samples do not support p90";
            return v;
        }
        if (p90.value > limitMs) {
            v.reason = "tenant " + std::to_string(t) + " p90 " +
                       std::to_string(p90.value) + " ms";
            return v;
        }
    }
    v.pass = true;
    return v;
}

Bisection
bisectPeak(double lo, double hi, double resolution,
           const std::function<bool(double)> &passes)
{
    Bisection b;
    b.peak = lo;
    while (hi / lo > 1.0 + resolution) {
        const double mid = std::sqrt(lo * hi);
        const bool ok = passes(mid);
        b.probes.emplace_back(mid, ok);
        if (ok) {
            lo = mid;
            b.peak = mid;
            b.anyPassed = true;
        } else {
            hi = mid;
        }
    }
    return b;
}

} // namespace perfbench
