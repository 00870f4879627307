/**
 * @file
 * The benchmark's workloads.  Each runs in its own process, sets up
 * through the library's public API, measures for the requested time
 * and fills a `Report`.  With `trace` false it measures the end-to-end
 * metrics; with `trace` true it measures the per-layer metrics and the
 * tracing overhead instead, and writes its spans to `traceOut`.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "report.hh"
#include "trace.hh"

namespace perfbench
{

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; //!< span file for traced runs; empty: none
};

struct RunOutcome
{
    Report report;
    bool correct = true;      //!< every check passed, run is valid
    std::int64_t attempted = 0;
    std::int64_t failed = 0;  //!< failed, shed or wrong-output requests
};

/** VGG17 served by one Engine to an fp32 and an int8 tenant. */
RunOutcome runConvnet(const RunOptions &options, std::ostream &log);

/** Four tenants on a 3-chip ClusterEngine with a control script. */
RunOutcome runFleet(const RunOptions &options, std::ostream &log);

/** Per-layer self/total time table of a traced run's spans. */
std::string layerTable(const Tracer &tracer);

/** Write the spans and print where they went. */
void finishTrace(const Tracer &tracer, const RunOptions &options,
                 std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
