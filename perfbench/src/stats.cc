#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

Percentile
percentile(std::vector<double> values, double q, std::size_t minBeyond)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty() || !(q > 0.0) || q > 1.0)
        return p;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    // ceil(q * n) with a guard against q * n landing a hair above an
    // integer through rounding (0.9 * 100 = 90.00000000000001).
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    p.supported = p.beyond >= minBeyond;
    return p;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5, 0).value;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace perfbench
