/**
 * @file
 * Order statistics with the benchmark's sample-size rule: a percentile
 * is reported only when at least `kMinBeyond` samples lie above it, so
 * a p90 needs 100 samples and a p50 needs 20.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported percentile. */
constexpr std::size_t kMinBeyond = 10;

/** One percentile read off a sample, with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0; //!< sample size it was read from
    std::size_t beyond = 0;  //!< samples strictly above its rank
    bool supported = false;  //!< beyond >= the required minimum
};

/**
 * Nearest-rank percentile `q` in (0, 1]: the ceil(q * n)-th smallest
 * sample.  `supported` is false when fewer than `minBeyond` samples
 * rank above it (or the sample is empty).
 */
Percentile percentile(std::vector<double> values, double q,
                      std::size_t minBeyond = kMinBeyond);

/** Median by nearest rank with no sample-size rule (set-up repeats). */
double median(std::vector<double> values);

/** Geometric mean of positive values; 0 for an empty input. */
double geomean(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
