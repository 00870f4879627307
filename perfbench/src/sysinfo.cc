#include "sysinfo.hh"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench
{

double
processCpuSeconds()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
cpuMicrosPerOp(double cpuBefore, double cpuAfter, std::int64_t completed)
{
    if (completed <= 0)
        return 0.0;
    return (cpuAfter - cpuBefore) * 1e6 / static_cast<double>(completed);
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        double kib = 0.0;
        fields >> kib;
        return kib / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench
