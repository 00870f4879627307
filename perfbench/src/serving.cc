#include "serving.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "stats.hh"
#include "sysinfo.hh"
#include "workloads.hh"

namespace perfbench
{

Phase
runPhase(const Traffic &traffic, double rate, double seconds,
         std::uint64_t seed, Tracer &tracer)
{
    const std::vector<Arrival> schedule = poissonSchedule(
        seed, rate, static_cast<std::size_t>(std::llround(rate * seconds)),
        traffic.mix, traffic.inputsPerTenant);
    Phase phase;
    const double cpu_before = processCpuSeconds();
    phase.load = runOpenLoop(schedule, traffic.submit, traffic.check,
                             tracer, /*drainSeconds=*/30.0,
                             traffic.tenants);
    phase.cpuSeconds = processCpuSeconds() - cpu_before;
    return phase;
}

double
cpuUsPerRequest(const Phase &phase)
{
    return cpuMicrosPerOp(0.0, phase.cpuSeconds, phase.load.completed());
}

PeakResult
findPeak(const Traffic &traffic, const PeakSearch &search,
         std::uint64_t seed, std::ostream &log)
{
    PeakResult out;
    Tracer off(false);
    int probe = 0;
    auto passes = [&](double rate) {
        const std::size_t requests = std::max(
            search.minRequests,
            static_cast<std::size_t>(std::ceil(rate * search.minSeconds)));
        const std::vector<Arrival> schedule =
            poissonSchedule(seed + static_cast<std::uint64_t>(++probe),
                            rate, requests, traffic.mix,
                            traffic.inputsPerTenant);
        const LoadResult load =
            runOpenLoop(schedule, traffic.submit, traffic.check, off,
                        /*drainSeconds=*/30.0, traffic.tenants);
        out.attempted += static_cast<std::int64_t>(load.records.size());
        for (const RequestRecord &r : load.records)
            out.wrongOutputs += (r.ok && !r.correct) ? 1 : 0;
        const std::size_t backlog = std::max(
            search.minBacklog, static_cast<std::size_t>(
                                   rate * search.limitMs / 1000.0));
        const ProbeVerdict v =
            judgeProbe(load, static_cast<int>(traffic.tenants.size()),
                       search.limitMs, backlog);
        const Percentile p90 = percentile(latenciesMs(load, -1), 0.9, 0);
        std::vector<double> late;
        for (const RequestRecord &r : load.records)
            late.push_back(r.lateMs);
        log << "probe " << probe << ": " << rate << " req/s, "
            << requests << " requests, p90 " << p90.value
            << " ms, sender late p99 " << percentile(late, 0.99, 0).value
            << " ms, " << (v.pass ? "pass" : "fail (" + v.reason + ")")
            << "\n";
        return v.pass;
    };
    // Warm-up: the first probe's verdict is not used (see serving.hh).
    passes(std::sqrt(search.lo * search.hi));
    out.bisection =
        bisectPeak(search.lo, search.hi, search.resolution, passes);
    return out;
}

bool
addLatency(Report &report, const std::string &p50Name,
           const std::string &p90Name, const Phase &phase, int tenant,
           std::ostream &log)
{
    const std::vector<double> lat = latenciesMs(phase.load, tenant);
    const Percentile p50 = percentile(lat, 0.5);
    const Percentile p90 = percentile(lat, 0.9);
    const std::string note = std::to_string(lat.size()) + " samples";
    report.add(p50Name, p50.value, "ms", note);
    report.add(p90Name, p90.value, "ms", note);
    if (!p90.supported) {
        log << "error: " << p90Name << ": " << p90.samples
            << " samples do not support p90\n";
    }
    return p90.supported;
}

void
addRequestLayers(Report &report, const Phase &phase)
{
    std::vector<double> late, submit, queue, exec;
    double batch_sum = 0.0;
    for (const RequestRecord &r : phase.load.records) {
        late.push_back(r.lateMs);
        submit.push_back(r.submitUs);
        if (!r.ok)
            continue;
        queue.push_back(r.queueMs);
        exec.push_back(r.execMs);
        batch_sum += r.batch;
    }
    const auto sent = static_cast<double>(phase.load.records.size());
    const auto completed = static_cast<double>(phase.load.completed());
    report.add("loadgen.sent", sent, "count");
    report.add("loadgen.completed", completed, "count");
    report.add("loadgen.late_p99_ms", percentile(late, 0.99, 0).value,
               "ms");
    report.add("runtime.submit_us", median(submit), "us",
               "median submit call");
    report.add("runtime.engine.queue_p50_ms",
               percentile(queue, 0.5, 0).value, "ms");
    report.add("runtime.engine.queue_p90_ms",
               percentile(queue, 0.9, 0).value, "ms");
    report.add("runtime.engine.exec_p50_ms",
               percentile(exec, 0.5, 0).value, "ms");
    report.add("runtime.engine.batch_mean",
               completed > 0 ? batch_sum / completed : 0.0, "requests");
}

void
addTraceOverhead(Report &report, const Phase &untraced,
                 const Phase &traced)
{
    const std::vector<RequestRecord> &plain = untraced.load.records;
    const std::vector<RequestRecord> &with = traced.load.records;
    std::vector<double> ratios;
    for (std::size_t i = 0; i < std::min(plain.size(), with.size()); ++i) {
        if (plain[i].ok && with[i].ok && plain[i].latencyMs > 0.0)
            ratios.push_back(with[i].latencyMs / plain[i].latencyMs);
    }
    report.add("trace.overhead_pct",
               ratios.empty() ? 0.0 : (median(ratios) - 1.0) * 100.0, "%",
               "median per-request traced / untraced latency, " +
                   std::to_string(ratios.size()) + " requests");
}

void
logPhase(std::ostream &log, const std::string &label,
         const Traffic &traffic, const Phase &phase)
{
    log << label << ": " << phase.load.records.size() << " sent, "
        << phase.load.completed() << " completed, " << phase.load.failed()
        << " failed, " << phase.load.wallSeconds << " s";
    std::map<std::string, int> failures;
    for (const RequestRecord &r : phase.load.records) {
        if (!r.ok)
            ++failures[fpsa::statusCodeName(r.code)];
        else if (!r.correct)
            ++failures["wrong output"];
    }
    for (const auto &[what, n] : failures)
        log << " [" << n << " " << what << "]";
    for (std::size_t t = 0; t < traffic.tenants.size(); ++t) {
        const std::vector<double> lat =
            latenciesMs(phase.load, static_cast<int>(t));
        log << "; " << traffic.tenants[t] << " n=" << lat.size()
            << " p50=" << percentile(lat, 0.5, 0).value
            << " p90=" << percentile(lat, 0.9, 0).value;
    }
    log << "; cpu " << phase.cpuSeconds << " s\n";
}

std::string
layerTable(const Tracer &tracer)
{
    std::ostringstream out;
    out << "spans by layer (self = duration minus time covered by child "
           "spans)\n";
    out << "  layer              count    total_ms     self_ms\n";
    out << std::fixed << std::setprecision(3);
    for (const auto &[name, t] : timeByName(tracer.spans())) {
        out << "  " << std::left << std::setw(16) << name << std::right
            << std::setw(8) << t.count << std::setw(12) << t.totalMs
            << std::setw(12) << t.selfMs << "\n";
    }
    return out.str();
}

void
finishTrace(const Tracer &tracer, const RunOptions &options,
            std::ostream &log)
{
    log << layerTable(tracer);
    if (options.traceOut.empty())
        return;
    if (tracer.writeJsonLines(options.traceOut))
        log << "spans written to " << options.traceOut << "\n";
    else
        log << "warning: could not write " << options.traceOut << "\n";
}

} // namespace perfbench
