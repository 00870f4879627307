// Unit tests for the benchmark's own helpers: the percentile rule, the
// peak bisection, span self time, the CPU accounting and the open-loop
// sender's completion timing.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "loadgen.hh"
#include "stats.hh"
#include "sysinfo.hh"
#include "trace.hh"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(Percentile, NearestRank)
{
    const Percentile p90 = percentile(oneTo(100), 0.9);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_TRUE(p90.supported);

    const Percentile p50 = percentile(oneTo(21), 0.5);
    EXPECT_EQ(p50.value, 11.0);
    EXPECT_EQ(p50.beyond, 10u);
    EXPECT_TRUE(p50.supported);
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    EXPECT_FALSE(percentile(oneTo(99), 0.9).supported); // 9 beyond
    EXPECT_TRUE(percentile(oneTo(100), 0.9).supported);
    EXPECT_FALSE(percentile(oneTo(19), 0.5).supported);
    EXPECT_TRUE(percentile(oneTo(20), 0.5).supported);
    EXPECT_FALSE(percentile({}, 0.5).supported);
    // The rule can be relaxed for diagnostics only.
    EXPECT_TRUE(percentile(oneTo(5), 0.9, 0).supported);
    EXPECT_EQ(percentile(oneTo(5), 0.9, 0).value, 5.0);
}

TEST(Percentile, MedianAndGeomean)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Bisection, FindsThresholdToResolution)
{
    int calls = 0;
    const double threshold = 123.4;
    const Bisection b = bisectPeak(10.0, 1000.0, 0.01, [&](double rate) {
        ++calls;
        return rate <= threshold;
    });
    EXPECT_TRUE(b.anyPassed);
    EXPECT_LE(b.peak, threshold);
    EXPECT_GE(b.peak * 1.01, threshold * (1.0 - 1e-9));
    EXPECT_EQ(static_cast<std::size_t>(calls), b.probes.size());
    // log2(ln(100) / ln(1.01)) = 8.9: the count is fixed by the bracket.
    EXPECT_EQ(calls, 9);
}

TEST(Bisection, AllFailReportsLowEnd)
{
    const Bisection b =
        bisectPeak(10.0, 1000.0, 0.05, [](double) { return false; });
    EXPECT_FALSE(b.anyPassed);
    EXPECT_EQ(b.peak, 10.0);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren)
{
    std::vector<Span> spans(4);
    spans[0] = {"parent", 0.0, 10000.0, -1, -1, {}};
    spans[1] = {"child", 1000.0, 4000.0, 0, -1, {}};
    spans[2] = {"child", 3000.0, 6000.0, 0, -1, {}};  // overlaps [1]
    spans[3] = {"child", 9000.0, 12000.0, 0, -1, {}}; // clipped at 10000
    const std::vector<double> self = selfTimesMs(spans);
    // Covered: [1000, 6000] + [9000, 10000] = 6000 us.
    EXPECT_NEAR(self[0], 4.0, 1e-9);
    EXPECT_NEAR(self[1], 3.0, 1e-9);
    const auto by_name = timeByName(spans);
    EXPECT_EQ(by_name.at("child").count, 3);
    EXPECT_NEAR(by_name.at("child").totalMs, 9.0, 1e-9);
    EXPECT_NEAR(by_name.at("parent").selfMs, 4.0, 1e-9);
}

TEST(Spans, DisabledTracerRecordsNothing)
{
    Tracer off(false);
    EXPECT_EQ(off.begin("x"), -1);
    off.end(-1);
    EXPECT_TRUE(off.spans().empty());
    Tracer on(true);
    {
        ScopedSpan outer(on, "outer");
        ScopedSpan inner(on, "inner", outer.id());
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_LE(spans[0].startUs, spans[1].startUs);
    EXPECT_GE(spans[0].endUs, spans[1].endUs);
}

TEST(Cpu, RusageCountsBusyWork)
{
    const double before = processCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    volatile double sink = 0.0;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(100))
        sink = sink + std::sqrt(static_cast<double>(sink) + 1.0);
    const double after = processCpuSeconds();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GT(after - before, 0.05);
    EXPECT_LT(after - before, wall + 0.05);
    EXPECT_NEAR(cpuMicrosPerOp(before, after, 4),
                (after - before) * 1e6 / 4.0, 1e-6);
    EXPECT_EQ(cpuMicrosPerOp(before, after, 0), 0.0);
}

TEST(Schedule, SeededPoissonWithExactMix)
{
    const std::vector<Arrival> a =
        poissonSchedule(7, 1000.0, 10000, {0.7, 0.1, 0.2}, 4);
    const std::vector<Arrival> b =
        poissonSchedule(7, 1000.0, 10000, {0.7, 0.1, 0.2}, 4);
    ASSERT_EQ(a.size(), 10000u);
    int counts[3] = {0, 0, 0};
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].atSeconds, b[i].atSeconds);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        ASSERT_GE(a[i].input, 0);
        ASSERT_LT(a[i].input, 4);
        ++counts[a[i].tenant];
        if (i > 0) {
            EXPECT_GE(a[i].atSeconds, a[i - 1].atSeconds);
        }
    }
    EXPECT_EQ(counts[0], 7000);
    EXPECT_EQ(counts[1], 1000);
    EXPECT_EQ(counts[2], 2000);
    // 10000 arrivals at 1000/s span ~10 s.
    EXPECT_NEAR(a.back().atSeconds, 10.0, 0.5);
    EXPECT_NE(poissonSchedule(8, 1000.0, 10, {1.0}, 1)[0].atSeconds,
              a[0].atSeconds);
}

TEST(OpenLoop, FastRequestIsNotTimedBehindSlowerOlderOne)
{
    // Request 0 takes 300 ms, request 1 (sent 1 ms later) 20 ms.  Each
    // must be timed by its own completion, not by the oldest one's.
    const std::vector<Arrival> schedule = {{0.0, 0, 0}, {0.001, 1, 0}};
    const int delays_ms[2] = {300, 20};
    std::vector<std::thread> servers;
    int sent = 0;
    const SubmitFn submit = [&](const Arrival &) {
        auto done = std::make_shared<
            std::promise<fpsa::StatusOr<fpsa::InferenceResult>>>();
        const int delay = delays_ms[sent++];
        servers.emplace_back([done, delay] {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
            done->set_value(fpsa::InferenceResult{});
        });
        return done->get_future();
    };
    const CheckFn check = [](const Arrival &,
                             const fpsa::InferenceResult &) {
        return true;
    };
    Tracer off(false);
    const LoadResult r =
        runOpenLoop(schedule, submit, check, off, 5.0, {"slow", "fast"});
    for (std::thread &t : servers)
        t.join();
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_EQ(r.completed(), 2);
    EXPECT_EQ(r.failed(), 0);
    EXPECT_GE(r.records[0].latencyMs, 300.0);
    EXPECT_GE(r.records[1].latencyMs, 20.0);
    EXPECT_LT(r.records[1].latencyMs, 150.0);
}

} // namespace
} // namespace perfbench
