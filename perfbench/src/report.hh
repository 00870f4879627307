/**
 * @file
 * The benchmark's output: named metrics with units, printed one per
 * line for people and as the single JSON object on the last line of
 * standard output for tools.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; //!< sample count, "modeled", ... (human lines only)
};

class Report
{
  public:
    void add(std::string name, double value, std::string unit,
             std::string note = {});

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** "metric <name> = <value> <unit> (<note>)" lines. */
    std::string humanLines() const;

    /**
     * The result object: {"correct", "attempted", "failed",
     * "metrics": {name: {"value", "unit"}}}, values printed with every
     * digit needed to round-trip.  Only metrics named in `keep` are
     * included, in that order; every name in `keep` must exist.
     */
    std::string resultJson(bool correct, std::int64_t attempted,
                           std::int64_t failed,
                           const std::vector<std::string> &keep) const;

  private:
    std::vector<Metric> metrics_;
};

/** Shortest round-trip decimal for a double (JSON-safe for finite). */
std::string exactNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
