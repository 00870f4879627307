/**
 * @file
 * Property-based tests: invariants that must hold across swept
 * parameter spaces rather than single examples.
 *
 *  - PE output is invariant to the input *coding* (uniform / burst /
 *    Bernoulli trains with equal counts) up to bounded slack.
 *  - PE count-domain arithmetic is homogeneous and monotone.
 *  - Weight codecs round-trip everywhere and deviations obey the
 *    closed forms.
 *  - Schedules from random graphs always satisfy RC/NBD/BD/BC/SW.
 *  - Router results are deterministic and congestion-legal across
 *    seeds and grid shapes.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "mapper/groups.hh"
#include "mapper/schedule.hh"
#include "pe/processing_element.hh"
#include "pnr/pnr_flow.hh"
#include "reram/variation.hh"
#include "spike/spike_train.hh"

namespace fpsa
{
namespace
{

// ---------------------------------------------------------------------
// PE properties.
// ---------------------------------------------------------------------

/** Run one window on a 4x2 PE with the given input counts. */
std::vector<std::uint32_t>
peOutputs(const std::vector<std::uint32_t> &x,
          const std::vector<std::int32_t> &w, double eta,
          bool carry = true)
{
    PeConfig cfg;
    cfg.xbar.rows = static_cast<int>(x.size());
    cfg.xbar.logicalCols = static_cast<int>(w.size() / x.size());
    cfg.xbar.cell.variation = VariationModel::ideal();
    cfg.etaLevels = eta;
    cfg.carryResidual = carry;
    ProcessingElement pe(cfg);
    Rng rng(1);
    pe.programWeights(w, rng);
    return pe.computeWindow(x).outputCounts;
}

class PeScaleSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PeScaleSweep, OutputScalesWithInputRate)
{
    // Doubling every input count doubles the output (within floor
    // slack), a direct consequence of Eq. 5.
    const std::uint32_t base = GetParam();
    const std::vector<std::int32_t> w{40, 80, 60, 20, 10, 120, 90, 30};
    const auto y1 = peOutputs({base, base, base, base}, w, 480.0);
    const auto y2 =
        peOutputs({2 * base, 2 * base, 2 * base, 2 * base}, w, 480.0);
    for (std::size_t c = 0; c < y1.size(); ++c) {
        EXPECT_NEAR(static_cast<double>(y2[c]),
                    2.0 * static_cast<double>(y1[c]), 3.0)
            << "col " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeScaleSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 24u));

TEST(PeProperties, MonotoneInInputs)
{
    const std::vector<std::int32_t> w{50, 50, 50, 50}; // 4x1, positive
    std::uint32_t prev = 0;
    for (std::uint32_t x = 0; x <= 64; x += 8) {
        const auto y = peOutputs({x, x, x, x}, w, 200.0);
        EXPECT_GE(y[0] + 1, prev) << "x=" << x; // allow 1-count slack
        prev = y[0];
    }
}

TEST(PeProperties, ZeroInputGivesZeroOutput)
{
    for (int cols : {1, 2, 4}) {
        std::vector<std::int32_t> w(static_cast<std::size_t>(4 * cols),
                                    120);
        const auto y = peOutputs({0, 0, 0, 0}, w, 10.0);
        for (auto v : y)
            EXPECT_EQ(v, 0u);
    }
}

TEST(PeProperties, AllNegativeWeightsSilence)
{
    std::vector<std::int32_t> w{-20, -40, -60, -120};
    const auto y = peOutputs({64, 64, 64, 64}, w, 100.0);
    EXPECT_EQ(y[0], 0u);
}

class CodingInvariance : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CodingInvariance, NeuronCountInsensitiveToSpikeTiming)
{
    // The IF neuron integrates conductance x time, so the window total
    // depends only on the spike count, not on where the spikes fall
    // (Eq. 3-4).  With residual carry the count is exact for all three
    // encoders of the same input count.
    const std::uint32_t count = GetParam();
    const std::uint32_t window = 64;
    Rng rng(7);
    const SpikeTrain uniform = encodeUniform(count, window);
    const SpikeTrain burst = encodeBurst(count, window);
    const SpikeTrain random = encodeBernoulli(count, window, rng);

    for (const SpikeTrain *t : {&uniform, &burst, &random}) {
        NeuronParams np;
        np.eta = 3.0;
        np.carryResidual = true;
        NeuronUnit n(np);
        for (std::uint32_t c = 0; c < window; ++c)
            n.step(t->spikeAt(c) ? 1.0 : 0.0);
        EXPECT_EQ(n.spikeCount(), count / 3)
            << "count=" << count;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodingInvariance,
                         ::testing::Values(0u, 3u, 9u, 21u, 33u, 63u));

TEST(PeProperties, ResidualDropNeverExceedsCarry)
{
    // Dropping the post-fire residual can only lose spikes.
    const std::vector<std::int32_t> w{35, 77, 13, 99};
    for (std::uint32_t x : {8u, 16u, 32u, 48u}) {
        const auto carry = peOutputs({x, x, x, x}, w, 97.0, true);
        const auto drop = peOutputs({x, x, x, x}, w, 97.0, false);
        EXPECT_LE(drop[0], carry[0]) << "x=" << x;
    }
}

// ---------------------------------------------------------------------
// Codec properties.
// ---------------------------------------------------------------------

class CodecSweep
    : public ::testing::TestWithParam<std::tuple<WeightMethod, int, int>>
{
};

TEST_P(CodecSweep, DeviationMatchesMonteCarlo)
{
    const auto [method, cell_bits, cells] = GetParam();
    WeightCodec codec(method, cell_bits, cells);
    const double sigma = 0.03;
    const double predicted = codec.normalizedDeviation(sigma);

    // Monte-Carlo: perturb each cell of a mid-scale magnitude and
    // measure the decoded deviation normalized by the range.
    Rng rng(11);
    const std::int64_t mag = codec.maxLevel() / 2;
    const auto enc = codec.encodeMagnitude(mag);
    const double cell_range = (1 << cell_bits) - 1;
    double sum_sq = 0.0;
    const int trials = 30000;
    std::vector<double> noisy(enc.size());
    for (int t = 0; t < trials; ++t) {
        for (std::size_t k = 0; k < enc.size(); ++k)
            noisy[k] = enc[k] + rng.normal(0.0, sigma * cell_range);
        const double err =
            (codec.decodeAnalog(noisy) - static_cast<double>(mag)) /
            static_cast<double>(codec.maxLevel());
        sum_sq += err * err;
    }
    const double measured = std::sqrt(sum_sq / trials);
    EXPECT_NEAR(measured, predicted, predicted * 0.05)
        << weightMethodName(method) << " " << cells << " cells";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecSweep,
    ::testing::Combine(::testing::Values(WeightMethod::Splice,
                                         WeightMethod::Add),
                       ::testing::Values(2, 4),
                       ::testing::Values(1, 2, 4, 8)));

// ---------------------------------------------------------------------
// Scheduling fuzz.
// ---------------------------------------------------------------------

/** Random layered DAG of core-ops with random weight groups. */
CoreOpGraph
randomGraph(Rng &rng, int layers, int width)
{
    CoreOpGraph g;
    std::vector<CoreOpId> prev;
    for (int l = 0; l < layers; ++l) {
        const int n =
            1 + static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(width)));
        // Some layers share one group (weight reuse), others do not.
        const bool shared = rng.bernoulli(0.5);
        GroupId group = shared ? g.newGroup() : -1;
        std::vector<CoreOpId> cur;
        for (int i = 0; i < n; ++i) {
            CoreOp op;
            op.name = "l";
            op.name += std::to_string(l);
            op.name += "n";
            op.name += std::to_string(i);
            op.group = shared ? group : g.newGroup();
            op.cols = 4;
            op.etaLevels = 4.0;
            if (prev.empty()) {
                op.rows = 4;
                op.inputs.push_back(CoreOpInput{-1, 0, 4});
            } else {
                // 1-2 random producers.
                const int fan =
                    1 + static_cast<int>(rng.uniformInt(
                            std::min<std::uint64_t>(2, prev.size())));
                op.rows = 4 * fan;
                for (int f = 0; f < fan; ++f) {
                    const CoreOpId p = prev[rng.uniformInt(prev.size())];
                    op.inputs.push_back(CoreOpInput{p, 0, 4});
                }
            }
            op.weightLevels.assign(
                static_cast<std::size_t>(op.rows * op.cols), 1);
            cur.push_back(g.add(std::move(op)));
        }
        prev = std::move(cur);
    }
    return g;
}

class ScheduleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ScheduleFuzz, RandomGraphsScheduleLegally)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    for (int round = 0; round < 6; ++round) {
        CoreOpGraph g = randomGraph(rng, 3 + round, 5);
        g.validate();
        for (std::int64_t dup : {1, 2, 8}) {
            const auto d = duplicationForGraph(g, dup);
            const auto [assign, pes] = assignPes(g, d);
            const ScheduleResult sched = scheduleCoreOps(g, assign, 64);
            EXPECT_EQ(validateSchedule(g, assign, sched, 64), "")
                << "seed " << GetParam() << " round " << round
                << " dup " << dup;
            EXPECT_GE(sched.makespan, 64);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------
// Router properties.
// ---------------------------------------------------------------------

Netlist
randomNetlist(Rng &rng, int blocks, int nets, int width)
{
    Netlist nl;
    for (int i = 0; i < blocks; ++i)
        nl.addBlock(BlockType::Pe,
                    std::string("b").append(std::to_string(i)));
    for (int i = 0; i < nets; ++i) {
        const BlockId a =
            static_cast<BlockId>(rng.uniformInt(
                static_cast<std::uint64_t>(blocks)));
        BlockId b;
        do {
            b = static_cast<BlockId>(rng.uniformInt(
                static_cast<std::uint64_t>(blocks)));
        } while (b == a);
        nl.addNet(std::string("n").append(std::to_string(i)), a, {b},
                  width);
    }
    return nl;
}

class RouterFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterFuzz, RandomNetlistsRouteWithoutOveruse)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    Netlist nl = randomNetlist(rng, 12, 20, 48);
    PnrOptions opt;
    opt.fullRoute = true;
    opt.placer.seed = static_cast<std::uint64_t>(GetParam());
    const PnrResult r = runPnr(nl, opt).value();
    EXPECT_TRUE(r.routed) << "seed " << GetParam();
    ASSERT_TRUE(r.routing.has_value());
    EXPECT_LE(r.routing->peakChannelUtilization, 1.0);
    EXPECT_EQ(r.routing->overusedSegments, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RouterProperties, DeterministicAcrossRuns)
{
    Rng rng(42);
    Netlist nl = randomNetlist(rng, 10, 14, 32);
    PnrOptions opt;
    opt.fullRoute = true;
    const PnrResult a = runPnr(nl, opt).value();
    const PnrResult b = runPnr(nl, opt).value();
    ASSERT_TRUE(a.routed);
    ASSERT_TRUE(b.routed);
    EXPECT_EQ(a.timing.avgNetDelay, b.timing.avgNetDelay);
    EXPECT_EQ(a.placementHpwl, b.placementHpwl);
}

TEST(RouterProperties, WiderChannelsNeverWorsenDelay)
{
    Rng rng(43);
    Netlist nl = randomNetlist(rng, 10, 24, 64);
    double prev = 1e18;
    for (int cw : {128, 512, 2048}) {
        PnrOptions opt;
        opt.fullRoute = true;
        opt.channelWidth = cw;
        const PnrResult r = runPnr(nl, opt).value();
        ASSERT_TRUE(r.routed) << "cw=" << cw;
        EXPECT_LE(r.timing.avgNetDelay, prev * 1.05) << "cw=" << cw;
        prev = r.timing.avgNetDelay;
    }
}

// ---------------------------------------------------------------------
// Failure injection.
// ---------------------------------------------------------------------

TEST(FailureInjection, StuckCellsDegradeGracefully)
{
    // With stuck-at faults the crossbar still computes, with error
    // proportional to the fault rate.
    std::vector<double> errs;
    for (double rate : {0.0, 0.02, 0.2}) {
        CrossbarParams params;
        params.rows = 16;
        params.logicalCols = 8;
        params.cell.variation = VariationModel::ideal();
        params.cell.variation.stuckAtRate = rate;
        Crossbar xbar(params);
        std::vector<std::int32_t> w(16 * 8, 60);
        Rng rng(99);
        xbar.programWeights(w, rng);
        std::vector<double> x(16, 1.0);
        const auto ideal = xbar.idealVmm(x);
        const auto real = xbar.noisyVmm(x);
        double err = 0.0;
        for (std::size_t i = 0; i < ideal.size(); ++i)
            err += std::fabs(ideal[i] - real[i]);
        errs.push_back(err);
    }
    EXPECT_NEAR(errs[0], 0.0, 1e-9);
    EXPECT_GT(errs[2], errs[1]);
}

} // namespace
} // namespace fpsa
