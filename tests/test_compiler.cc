/**
 * @file
 * Integration tests for the whole-stack compile (`Pipeline::result()`):
 * CG to evaluated FPSA configuration, including the optional full
 * placement & routing path on a small model.
 */

#include <gtest/gtest.h>

#include "nn/builder.hh"
#include "nn/models.hh"
#include "pipeline.hh"

namespace fpsa
{
namespace
{

TEST(Compiler, MlpEndToEnd)
{
    Graph g = buildMlp(784, {500, 100}, 10);
    auto r = Pipeline(g).result();
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_GT(r->performance.throughput, 0.0);
    EXPECT_GT(r->performance.area, 0.0);
    EXPECT_GT(r->energy.perSample(), 0.0);
    EXPECT_EQ(r->netlist.countBlocks(BlockType::Pe),
              static_cast<int>(r->allocation.totalPes));
    // Table 3: MLP-500-100 reaches ~130M samples/s on ~28 mm^2 at the
    // default 64x duplication (whole-model replication).
    EXPECT_GT(r->performance.throughput, 5e7);
    EXPECT_GT(r->performance.area, 10.0);
    EXPECT_LT(r->performance.area, 60.0);
    EXPECT_EQ(r->allocation.replicas, 64);
}

TEST(Compiler, SmallCnnWithFullPnr)
{
    GraphBuilder b({1, 12, 12});
    b.convRelu(8, 3, 1, 0).maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();

    CompileOptions opt;
    opt.duplicationDegree = 2;
    opt.runPlaceAndRoute = true;
    opt.pnr.fullRoute = true;
    auto r = Pipeline(g, opt).result();
    ASSERT_TRUE(r.ok()) << r.status().toString();
    ASSERT_TRUE(r->pnr.has_value());
    EXPECT_TRUE(r->pnr->routed);
    EXPECT_GT(r->pnr->timing.avgNetDelay, 0.0);
    // Measured wire delay flows into the perf report.
    EXPECT_NEAR(r->performance.commPerPe,
                64.0 * r->pnr->timing.avgNetDelay,
                64.0 * r->pnr->timing.avgNetDelay * 0.01 + 1e-9);
}

TEST(Compiler, DuplicationKnobScalesThroughput)
{
    Graph g = buildModel(ModelId::LeNet);
    CompileOptions d1, d16;
    d1.duplicationDegree = 1;
    d16.duplicationDegree = 16;
    auto r1 = Pipeline(g, d1).result();
    ASSERT_TRUE(r1.ok()) << r1.status().toString();
    auto r16 = Pipeline(g, d16).result();
    ASSERT_TRUE(r16.ok()) << r16.status().toString();
    EXPECT_GT(r16->performance.throughput,
              r1->performance.throughput * 8.0);
    EXPECT_GT(r16->performance.area, r1->performance.area);
}

TEST(Compiler, AllZooModelsCompile)
{
    for (ModelId id : allModels()) {
        Graph g = buildModel(id);
        CompileOptions opt;
        opt.duplicationDegree = 4;
        auto r = Pipeline(g, opt).result();
        ASSERT_TRUE(r.ok()) << modelName(id) << ": "
                            << r.status().toString();
        EXPECT_GT(r->performance.throughput, 0.0) << modelName(id);
        EXPECT_GT(r->performance.area, 0.0) << modelName(id);
        EXPECT_GT(r->allocation.totalPes, 0) << modelName(id);
    }
}

TEST(Compiler, MeasuredWireDelayNearCalibration)
{
    // The PnR-measured average net delay on a mid-size netlist should
    // land in the neighbourhood of the calibrated 9.9 ns/bit constant
    // used for zoo-scale sweeps (README, "Evaluation models").
    Graph g = buildModel(ModelId::LeNet);
    CompileOptions opt;
    opt.duplicationDegree = 1;
    opt.runPlaceAndRoute = true;
    opt.pnr.fullRoute = false; // fast geometric estimate
    auto r = Pipeline(g, opt).result();
    ASSERT_TRUE(r.ok()) << r.status().toString();
    ASSERT_TRUE(r->pnr.has_value());
    EXPECT_GT(r->pnr->timing.avgNetDelay, 2.0);
    EXPECT_LT(r->pnr->timing.avgNetDelay, 30.0);
}

} // namespace
} // namespace fpsa
