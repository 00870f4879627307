/**
 * @file
 * In-memory span recorder for the traced run.  The benchmark records a
 * span around each public library call it makes (set-up stages,
 * submits, control-plane calls, kernel replays); spans are kept in
 * memory and written out as JSON lines when the run ends.  A disabled
 * tracer records nothing, so the untraced code path only pays a
 * branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds from `origin` to `t`. */
double microsSince(Clock::time_point origin, Clock::time_point t);

/** One timed interval; times are microseconds from the tracer origin. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;            //!< index of the enclosing span, or -1
    std::int64_t request = -1;  //!< request id, or -1 outside requests
    std::string attrs;          //!< JSON object text, or empty
};

/** Per-name totals: how many spans, their summed and self time. */
struct LayerTime
{
    std::int64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

/**
 * A span's self time: its duration minus the part of its interval
 * covered by the union of its children (each clipped to the parent).
 * Returned per span, in milliseconds.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Self and total time summed per span name. */
std::map<std::string, LayerTime> timeByName(const std::vector<Span> &spans);

/** Thread-safe span recorder. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    Clock::time_point origin() const { return origin_; }

    /** Record a finished span; returns its index (-1 when disabled). */
    int add(std::string name, Clock::time_point start,
            Clock::time_point end, int parent = -1,
            std::int64_t request = -1, std::string attrs = {});

    /** Open a span now; close it with `end`.  -1 when disabled. */
    int begin(std::string name, int parent = -1);
    void end(int span);

    std::vector<Span> spans() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    const bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< guarded by mu_
};

/** RAII span around a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, int parent = -1)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    const int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
