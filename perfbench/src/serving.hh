/**
 * @file
 * What the two serving workloads share: the fixed-rate reference phase
 * (latency, CPU per request), the bisection for the highest rate that
 * meets the latency limit, and the per-layer numbers read off the
 * program's per-request telemetry.
 */

#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "loadgen.hh"
#include "report.hh"

namespace perfbench
{

/** A serving workload's traffic and the calls that carry it. */
struct Traffic
{
    std::vector<std::string> tenants;
    std::vector<double> mix;   //!< relative request shares
    int inputsPerTenant = 1;
    SubmitFn submit;
    CheckFn check;
};

/**
 * One fixed-rate phase: every request's record and the process CPU
 * spent while it ran.
 */
struct Phase
{
    LoadResult load;
    double cpuSeconds = 0.0;
};

/** Send `rate` req/s open-loop for `seconds` (Poisson, seeded). */
Phase runPhase(const Traffic &traffic, double rate, double seconds,
               std::uint64_t seed, Tracer &tracer);

/** CPU microseconds per completed request over the phase. */
double cpuUsPerRequest(const Phase &phase);

/** Rules for the peak-rate search. */
struct PeakSearch
{
    double lo = 0.0, hi = 0.0; //!< fixed absolute bracket, req/s
    double resolution = 0.02;  //!< stop when hi / lo <= 1 + this
    double limitMs = 0.0;      //!< every tenant's p90 must be under it
    std::size_t minRequests = 0; //!< per probe
    double minSeconds = 0.0;     //!< per probe
    std::size_t minBacklog = 0;  //!< backlog allowance floor
};

/** The search's answer; every probe request is counted in the totals. */
struct PeakResult
{
    Bisection bisection;
    std::int64_t attempted = 0;
    std::int64_t wrongOutputs = 0; //!< ok but failed the output check
};

/**
 * One warm-up probe at the middle of the bracket whose verdict is not
 * used (so the first judged probe does not pay for growing queues and
 * heap), then bisect for the highest rate whose probe passes `judgeProbe` with the
 * latency limit and a backlog allowance of max(minBacklog, rate x
 * limit): the requests Little's law would hold in flight if each took
 * the whole limit.  Logs each probe to `log`.
 */
PeakResult findPeak(const Traffic &traffic, const PeakSearch &search,
                    std::uint64_t seed, std::ostream &log);

/**
 * p50 and p90 of `tenant`'s latencies (-1: all tenants) over the
 * phase.  False (and a log line) when the sample does not support its
 * p90.
 */
bool addLatency(Report &report, const std::string &p50Name,
                const std::string &p90Name, const Phase &phase, int tenant,
                std::ostream &log);

/**
 * Per-layer numbers from one phase: the generator's lateness and
 * counts, the submit-call time, and the engine's own queue / exec /
 * batch telemetry returned in each `InferenceResult`.
 */
void addRequestLayers(Report &report, const Phase &phase);

/**
 * Tracing overhead: the median over requests of each request's traced
 * latency over its untraced one, as a percentage.  Both phases must
 * have run the same schedule, so record i is the same arrival in both.
 */
void addTraceOverhead(Report &report, const Phase &untraced,
                      const Phase &traced);

/** The phase's sample counts per tenant, for the human report. */
void logPhase(std::ostream &log, const std::string &label,
              const Traffic &traffic, const Phase &phase);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HH
