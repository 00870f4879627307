/**
 * @file
 * The open-loop load generator: a seeded Poisson arrival schedule at a
 * fixed absolute rate, sent from one thread, with every request timed
 * from its *scheduled* send so a stall in the system also charges the
 * requests queued up behind it.  Completions are stamped by watcher
 * threads that block on the outstanding futures, so they are neither
 * quantized by a sleep-polling loop nor held back behind an older,
 * slower request.  Also the bisection used to find the highest rate
 * that meets a latency limit.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/status.hh"
#include "runtime/engine.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

/**
 * A sub-seed for one use of the run's seed (weights, inputs, schedule,
 * placer, ...), so each stream is independent and reproducible.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** One scheduled request. */
struct Arrival
{
    double atSeconds = 0.0; //!< offset from the schedule's start
    int tenant = 0;         //!< index into the workload's tenant list
    int input = 0;          //!< index into that tenant's input pool
};

/**
 * `requests` arrivals of a Poisson process at `rate` per second.  The
 * tenant mix is exact: tenant t gets round(mix[t] / sum * requests)
 * arrivals (the last tenant takes the remainder), shuffled into the
 * schedule by the seed.  Inputs are drawn uniformly from each
 * tenant's pool of `inputsPerTenant`.
 */
std::vector<Arrival> poissonSchedule(std::uint64_t seed, double rate,
                                     std::size_t requests,
                                     const std::vector<double> &mix,
                                     int inputsPerTenant);

/** What happened to one request. */
struct RequestRecord
{
    int tenant = 0;
    bool ok = false;      //!< the future resolved OK
    bool correct = false; //!< ... and its output passed the check
    fpsa::StatusCode code = fpsa::StatusCode::Ok;
    double latencyMs = 0.0; //!< scheduled send -> completion seen
    double lateMs = 0.0;    //!< scheduled send -> submit call began
    double submitUs = 0.0;  //!< duration of the submit call
    // The program's own per-request telemetry (InferenceResult).
    double queueMs = 0.0;
    double execMs = 0.0;
    int batch = 0;
    int shards = 0;
    std::int64_t interconnectBytes = 0;
};

/** Outcome of one open-loop run. */
struct LoadResult
{
    std::vector<RequestRecord> records; //!< one per arrival, in order
    /** Requests accepted but not completed when the last one was sent. */
    std::size_t backlogAtLastSend = 0;
    double wallSeconds = 0.0; //!< first scheduled send -> last completion
    std::int64_t completed() const;
    std::int64_t failed() const; //!< not ok, or ok with a wrong output
};

using SubmitFn = std::function<
    std::future<fpsa::StatusOr<fpsa::InferenceResult>>(const Arrival &)>;
using CheckFn =
    std::function<bool(const Arrival &, const fpsa::InferenceResult &)>;

/**
 * Send `schedule` open-loop through `submit` from the calling thread,
 * check each result with `check` (on a watcher thread, so `check` and
 * `tracer` must be safe to call concurrently), and wait at most
 * `drainSeconds` after the last send for the stragglers (any done
 * later count as failed, code DeadlineExceeded).  With `tracer` enabled each request becomes a
 * "request" span (scheduled send -> completion) with a "submit" child
 * and the program's telemetry attached.
 */
LoadResult runOpenLoop(const std::vector<Arrival> &schedule,
                       const SubmitFn &submit, const CheckFn &check,
                       Tracer &tracer, double drainSeconds,
                       const std::vector<std::string> &tenantNames);

/** Latency samples of one tenant (-1: every tenant), OK requests only. */
std::vector<double> latenciesMs(const LoadResult &result, int tenant);

/** Whether a bisection probe met the latency limit, and why not. */
struct ProbeVerdict
{
    bool pass = false;
    std::string reason;
};

/**
 * A probe passes when every request succeeded with a correct output,
 * every tenant's p90 is supported by the sample and under `limitMs`,
 * and the backlog at the last send is at most `maxBacklog`.
 */
ProbeVerdict judgeProbe(const LoadResult &result, int tenants,
                        double limitMs, std::size_t maxBacklog);

/** The bisection's answer plus its probe log. */
struct Bisection
{
    double peak = 0.0;       //!< highest passing rate found
    bool anyPassed = false;  //!< false: even the first probe failed
    std::vector<std::pair<double, bool>> probes; //!< (rate, passed)
};

/**
 * Highest rate in [lo, hi] that `passes`, by bisection on log(rate)
 * until hi / lo <= 1 + resolution.  The probe count depends only on
 * (lo, hi, resolution).  `lo` is assumed to pass and `hi` to fail;
 * neither is probed.  Assumes pass/fail is monotone in the rate.
 */
Bisection bisectPeak(double lo, double hi, double resolution,
                     const std::function<bool(double)> &passes);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
