/**
 * @file
 * Unit tests for the neural synthesizer: tiling math, analytic
 * lowering, and end-to-end functional core-op execution vs the float
 * reference.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "synth/synthesizer.hh"
#include "synth/tiling.hh"

namespace fpsa
{
namespace
{

TEST(Tiling, SmallMatrixFitsOneCrossbar)
{
    Tiling t{100, 100};
    EXPECT_EQ(t.tiles(), 1);
    EXPECT_EQ(t.reduceTiles(), 0);
    EXPECT_NEAR(t.utilization(), 10000.0 / 65536.0, 1e-12);
}

TEST(Tiling, SplitsAndReduces)
{
    Tiling t{500, 300};
    EXPECT_EQ(t.rowTiles(), 2);
    EXPECT_EQ(t.colTiles(), 2);
    EXPECT_EQ(t.tiles(), 4);
    // First output tile: 2 partials x 256 outputs = 512 reduce rows ->
    // 2 crossbars; second tile: 2 x 44 = 88 rows -> 1 crossbar.
    EXPECT_EQ(t.reduceTiles(), 3);
    EXPECT_LT(tilingUtilizationWithReduce(t), t.utilization());
}

TEST(Tiling, PerfectFitHasFullUtilization)
{
    Tiling t{256, 256};
    EXPECT_EQ(t.tiles(), 1);
    EXPECT_DOUBLE_EQ(t.utilization(), 1.0);
}

TEST(SynthSummary, MlpGroups)
{
    Graph g = buildMlp(784, {500, 100}, 10);
    SynthesisSummary s = synthesizeSummary(g);
    // fc1: 784x500 -> 4x2 tiles + reduce; fc2: 500x100 -> 2x1 + reduce;
    // fc3: 100x10 -> 1 tile.  Groups: 3 weight + 2 reduce.
    int weight_groups = 0, reduce_groups = 0;
    for (const auto &grp : s.groups) {
        if (grp.role == CoreOpRole::Weight)
            ++weight_groups;
        if (grp.role == CoreOpRole::Reduce)
            ++reduce_groups;
    }
    EXPECT_EQ(weight_groups, 3);
    EXPECT_EQ(reduce_groups, 2);
    // MLP has no weight sharing: every group has one instance.
    EXPECT_EQ(s.maxReuse(), 1);
    EXPECT_GE(s.minPes(), 8 + 2 + 1);
}

TEST(SynthSummary, ConvReuseMatchesPositions)
{
    GraphBuilder b({3, 224, 224});
    b.convRelu(64, 3, 1, 1);
    SynthesisSummary s = synthesizeSummary(b.graph());
    ASSERT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].instances, 224 * 224);
    EXPECT_EQ(s.groups[0].tilesPerInstance, 1); // 27x64 fits one crossbar
}

TEST(SynthSummary, PoolingDominatesGoogLeNetPes)
{
    // The paper (Sec. 7.3): after synthesis, pooling occupies a majority
    // of PEs on GoogLeNet once allocation balances the pipeline.  At the
    // synthesis level, pooling instances dwarf their weight instances.
    Graph g = buildModel(ModelId::GoogLeNet);
    SynthesisSummary s = synthesizeSummary(g);
    std::int64_t pool_runs = 0, total_runs = 0;
    for (const auto &grp : s.groups) {
        const std::int64_t runs = grp.tilesPerInstance * grp.instances;
        total_runs += runs;
        if (grp.role == CoreOpRole::Pool)
            pool_runs += runs;
    }
    EXPECT_GT(pool_runs, 0);
    EXPECT_GT(total_runs, pool_runs);
}

TEST(SynthSummary, SpatialUtilizationBelowOne)
{
    Graph g = buildModel(ModelId::Vgg16);
    SynthesisSummary s = synthesizeSummary(g);
    EXPECT_GT(s.spatialUtilization(), 0.05);
    EXPECT_LT(s.spatialUtilization(), 1.0);
    EXPECT_GE(s.pipelineDepth, 16); // 13 convs + 3 fcs at least
    // VGG16 storage minimum ~ weights / crossbar capacity.
    EXPECT_GT(s.minPes(), 138300000 / 65536);
}

TEST(SynthSummary, GroupDataflowIsWired)
{
    GraphBuilder b({1, 8, 8});
    b.convRelu(4, 3, 1, 0).maxPool(2, 2).flatten().fc(10);
    SynthesisSummary s = synthesizeSummary(b.graph());
    // conv -> pool.cmp -> pool.sel -> fc; at least the fc must have a
    // predecessor and the first group none.
    ASSERT_GE(s.groups.size(), 4u);
    EXPECT_TRUE(s.groups[0].preds.empty());
    for (std::size_t i = 1; i < s.groups.size(); ++i)
        EXPECT_FALSE(s.groups[i].preds.empty()) << "group " << i;
}

// ---------------------------------------------------------------------
// Functional path.
// ---------------------------------------------------------------------

Tensor
rampInput(const Shape &shape, float lo, float hi)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = lo + (hi - lo) * static_cast<float>(i) /
                        static_cast<float>(std::max<std::int64_t>(
                            1, t.numel() - 1));
    return t;
}

/** Relative L2 error between float reference and decoded counts. */
double
relativeError(const Tensor &ref, const std::vector<double> &got)
{
    double num = 0.0, den = 1e-12;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        const double r = std::max(0.0, static_cast<double>(ref[i]));
        num += (r - got[static_cast<std::size_t>(i)]) *
               (r - got[static_cast<std::size_t>(i)]);
        den += r * r;
    }
    return std::sqrt(num / den);
}

TEST(Functional, SingleTileFcMatchesReference)
{
    GraphBuilder b({32});
    b.fc(16).relu();
    Graph g = b.build();
    Rng rng(7);
    randomizeWeights(g, rng);
    Tensor x = rampInput({32}, 0.0f, 1.0f);

    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    const auto counts = runCoreOps(synth, encodeInputCounts(synth, x));
    const auto values = decodeOutputValues(synth, counts);
    const Tensor ref = relu(runGraphFinal(g, x));
    // Saturation-aware thresholds stretch the count grid slightly
    // (the per-count quantum grows with the positive partial sums).
    EXPECT_LT(relativeError(ref, values), 0.08);
}

TEST(Functional, MultiTileFcSplitsAndReduces)
{
    GraphBuilder b({600}); // forces 3 row tiles
    b.fc(20).relu();
    Graph g = b.build();
    Rng rng(8);
    randomizeWeights(g, rng);
    Tensor x = rampInput({600}, 0.0f, 1.0f);

    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    // Expect weight tiles plus reduce ops in the graph.
    int reduces = 0;
    for (const auto &op : synth.coreOps.ops())
        reduces += op.role == CoreOpRole::Reduce ? 1 : 0;
    EXPECT_GE(reduces, 1);

    const auto counts = runCoreOps(synth, encodeInputCounts(synth, x));
    const auto values = decodeOutputValues(synth, counts);
    const Tensor ref = relu(runGraphFinal(g, x));
    EXPECT_LT(relativeError(ref, values), 0.20);
}

TEST(Functional, MaxPoolIsExactInCountDomain)
{
    GraphBuilder b({2, 4, 4});
    b.maxPool(2, 2);
    Graph g = b.build();
    Tensor x = rampInput({2, 4, 4}, 0.0f, 1.0f);
    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    const auto in_counts = encodeInputCounts(synth, x);
    const auto counts = runCoreOps(synth, in_counts);

    // Compute the expected max over the quantized counts directly.
    ASSERT_EQ(counts.size(), 8u);
    for (std::int64_t ch = 0; ch < 2; ++ch) {
        for (std::int64_t oy = 0; oy < 2; ++oy) {
            for (std::int64_t ox = 0; ox < 2; ++ox) {
                std::uint32_t expect = 0;
                for (std::int64_t ky = 0; ky < 2; ++ky)
                    for (std::int64_t kx = 0; kx < 2; ++kx)
                        expect = std::max(
                            expect,
                            in_counts[static_cast<std::size_t>(
                                (ch * 4 + oy * 2 + ky) * 4 + ox * 2 +
                                kx)]);
                EXPECT_EQ(counts[static_cast<std::size_t>(
                              (ch * 2 + oy) * 2 + ox)],
                          expect);
            }
        }
    }
}

TEST(Functional, ConvMatchesReference)
{
    GraphBuilder b({2, 6, 6});
    b.conv(4, 3, 1, 0).relu();
    Graph g = b.build();
    Rng rng(9);
    randomizeWeights(g, rng);
    Tensor x = rampInput({2, 6, 6}, 0.0f, 1.0f);

    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    const auto counts = runCoreOps(synth, encodeInputCounts(synth, x));
    const auto values = decodeOutputValues(synth, counts);
    const Tensor ref = relu(runGraphFinal(g, x));
    // 6-bit spike counts floor-quantize; small conv outputs sit near
    // zero so the relative L2 is dominated by the +/-1-count grid.
    EXPECT_LT(relativeError(ref, values), 0.18);
}

TEST(Functional, SmallCnnEndToEnd)
{
    // conv -> pool -> fc: the LeNet pattern at toy scale.
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(6).relu();
    Graph g = b.build();
    Rng rng(10);
    randomizeWeights(g, rng);
    Tensor x = rampInput({1, 8, 8}, 0.0f, 1.0f);

    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    synth.coreOps.validate();
    const auto counts = runCoreOps(synth, encodeInputCounts(synth, x));
    const auto values = decodeOutputValues(synth, counts);
    const Tensor ref = relu(runGraphFinal(g, x));
    EXPECT_LT(relativeError(ref, values), 0.15);
}

TEST(Functional, ConvGroupSharingAcrossPositions)
{
    GraphBuilder b({1, 6, 6});
    b.conv(2, 3, 1, 0).relu();
    Graph g = b.build();
    Rng rng(11);
    randomizeWeights(g, rng);
    Tensor x = rampInput({1, 6, 6}, 0.0f, 1.0f);
    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    // 4x4 positions, one tile each, all in one weight group.
    std::map<GroupId, int> group_sizes;
    for (const auto &op : synth.coreOps.ops())
        ++group_sizes[op.group];
    int max_group = 0;
    for (const auto &[gid, n] : group_sizes)
        max_group = std::max(max_group, n);
    EXPECT_EQ(max_group, 16);
}

TEST(Functional, UnsupportedGraphsComeBackAsInvalidArgument)
{
    // Unsupported op kind (AvgPool).
    GraphBuilder b({1, 4, 4});
    b.avgPool(2, 2);
    Tensor x(Shape{1, 4, 4});
    auto unsupported = synthesizeFunctional(b.build(), x);
    ASSERT_FALSE(unsupported.ok());
    EXPECT_EQ(unsupported.status().code(), StatusCode::InvalidArgument);

    // Missing weights.
    GraphBuilder fcb({1, 4, 4});
    fcb.flatten().fc(2);
    auto unweighted = synthesizeFunctional(fcb.build(), x);
    ASSERT_FALSE(unweighted.ok());
    EXPECT_EQ(unweighted.status().code(), StatusCode::InvalidArgument);

    // Calibration shape mismatch.
    GraphBuilder ok({1, 4, 4});
    ok.flatten().fc(2);
    Graph g = ok.build();
    Rng rng(3);
    randomizeWeights(g, rng);
    auto mismatched = synthesizeFunctional(g, Tensor(Shape{1, 2, 2}));
    ASSERT_FALSE(mismatched.ok());
    EXPECT_EQ(mismatched.status().code(), StatusCode::InvalidArgument);
}

TEST(Functional, OutOfRangeOptionsComeBackAsInvalidArgument)
{
    // A 16 -> 8 fc: a crossbar of 0 rows would divide by zero in the
    // lowering, and a 32-bit window would shift `1u` out of range.
    GraphBuilder b({16});
    b.fc(8);
    Graph g = b.build();
    Rng rng(5);
    randomizeWeights(g, rng);
    const Tensor x(Shape{16});

    SynthOptions no_rows;
    no_rows.crossbarRows = 0;
    auto rows = synthesizeFunctional(g, x, no_rows);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(rows.status().message().find("synth.crossbarRows"),
              std::string::npos)
        << rows.status().message();

    SynthOptions wide;
    wide.ioBits = 32;
    auto bits = synthesizeFunctional(g, x, wide);
    ASSERT_FALSE(bits.ok());
    EXPECT_EQ(bits.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(bits.status().message().find("synth.ioBits"),
              std::string::npos)
        << bits.status().message();

    // The bounds are the ones Pipeline applies.
    EXPECT_EQ(validateSynthOptions(no_rows), rows.status());
    EXPECT_EQ(validateSynthOptions(wide), bits.status());
    EXPECT_TRUE(synthesizeFunctional(g, x).ok());
}

} // namespace
} // namespace fpsa
