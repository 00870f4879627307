/**
 * @file
 * Process resource accounting read from outside the library: CPU time
 * from getrusage and peak resident memory (VmHWM) from /proc.
 */

#ifndef PERFBENCH_SYSINFO_HH
#define PERFBENCH_SYSINFO_HH

#include <cstdint>

namespace perfbench
{

/** User + system CPU seconds this process has consumed so far. */
double processCpuSeconds();

/**
 * CPU microseconds per completed operation between two
 * `processCpuSeconds()` readings; 0 when nothing completed.
 */
double cpuMicrosPerOp(double cpuBefore, double cpuAfter,
                      std::int64_t completed);

/** Peak resident set size of this process in MiB (VmHWM); 0 if unknown. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_SYSINFO_HH
