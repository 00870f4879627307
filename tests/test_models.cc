/**
 * @file
 * Model-zoo validation: weight/op counts against Table 3.
 *
 * Exact-architecture models (MLP, LeNet, AlexNet, VGG16, GoogLeNet,
 * ResNet152) must land close to the paper's numbers; the reconstructed
 * VGG17 is held to a looser band (its exact architecture is not
 * published -- README, "Evaluation models", gives its shapes).
 */

#include <gtest/gtest.h>

#include "nn/models.hh"

namespace fpsa
{
namespace
{

struct Tolerance
{
    double weights;
    double ops;
};

Tolerance
toleranceFor(ModelId id)
{
    switch (id) {
      case ModelId::Vgg17Cifar:
        return {0.10, 0.30}; // reconstructed architecture
      case ModelId::ResNet152:
        return {0.06, 0.05}; // paper likely excludes projection shortcuts
      default:
        return {0.03, 0.05};
    }
}

class ZooCounts : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(ZooCounts, MatchesTable3)
{
    const ModelId id = GetParam();
    const Graph g = buildModel(id);
    const PaperCounts paper = paperCounts(id);
    const Tolerance tol = toleranceFor(id);
    const double w = static_cast<double>(g.weightCount());
    const double o = static_cast<double>(g.opCount());
    EXPECT_NEAR(w, paper.weights, paper.weights * tol.weights)
        << modelName(id) << " weights";
    EXPECT_NEAR(o, paper.ops, paper.ops * tol.ops)
        << modelName(id) << " ops";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooCounts,
                         ::testing::ValuesIn(allModels()),
                         [](const auto &info) {
                             std::string name = modelName(info.param);
                             for (char &c : name)
                                 if (!std::isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             return name;
                         });

TEST(Zoo, MlpExactCounts)
{
    const Graph g = buildModel(ModelId::Mlp500_100);
    EXPECT_EQ(g.weightCount(), 443000);
    EXPECT_EQ(g.opCount(), 886000);
}

TEST(Zoo, LeNetExactCounts)
{
    const Graph g = buildModel(ModelId::LeNet);
    EXPECT_EQ(g.weightCount(), 430500);
    EXPECT_EQ(g.opCount(), 4586000);
}

TEST(Zoo, Vgg16ConvFcSplit)
{
    const Graph g = buildModel(ModelId::Vgg16);
    // Standard VGG16: 14.71M conv weights + 123.63M fc weights.
    std::int64_t conv_w = 0, fc_w = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
        if (g.node(id).kind == OpKind::Conv2d)
            conv_w += g.nodeWeightCount(id);
        if (g.node(id).kind == OpKind::FullyConnected)
            fc_w += g.nodeWeightCount(id);
    }
    EXPECT_NEAR(static_cast<double>(conv_w), 14.71e6, 0.05e6);
    EXPECT_NEAR(static_cast<double>(fc_w), 123.63e6, 0.05e6);
}

TEST(Zoo, Vgg17HasSeventeenWeightLayers)
{
    const Graph g = buildModel(ModelId::Vgg17Cifar);
    int weight_layers = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
        const OpKind k = g.node(id).kind;
        if (k == OpKind::Conv2d || k == OpKind::FullyConnected)
            ++weight_layers;
    }
    EXPECT_EQ(weight_layers, 17);
}

TEST(Zoo, GoogLeNetOutputShapes)
{
    const Graph g = buildModel(ModelId::GoogLeNet);
    EXPECT_EQ(g.nodes().back().outShape, (Shape{1000}));
    // 5b concat produces 1024 channels at 7x7.
    bool found_1024 = false;
    for (const auto &n : g.nodes())
        if (n.kind == OpKind::Concat && n.outShape == Shape{1024, 7, 7})
            found_1024 = true;
    EXPECT_TRUE(found_1024);
}

TEST(Zoo, ResNet152Depth)
{
    const Graph g = buildModel(ModelId::ResNet152);
    int convs = 0;
    for (const auto &n : g.nodes())
        convs += n.kind == OpKind::Conv2d ? 1 : 0;
    // 1 stem + 3x(50 blocks x 3) + 4 projections = 155 convs.
    EXPECT_EQ(convs, 1 + (3 + 8 + 36 + 3) * 3 + 4);
    EXPECT_EQ(g.nodes().back().outShape, (Shape{1000}));
}

TEST(Zoo, ConvLayersDominateReuse)
{
    // The load-balance premise of Sec. 3: early VGG16 conv layers have
    // tiny weights but huge reuse.
    const Graph g = buildModel(ModelId::Vgg16);
    NodeId first_conv = -1;
    for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
        if (g.node(id).kind == OpKind::Conv2d) {
            first_conv = id;
            break;
        }
    }
    ASSERT_GE(first_conv, 0);
    EXPECT_EQ(g.nodeReuseDegree(first_conv), 224 * 224);
    const double w_frac =
        static_cast<double>(g.nodeWeightCount(first_conv)) /
        static_cast<double>(g.weightCount());
    const double op_frac =
        static_cast<double>(g.nodeOpCount(first_conv)) /
        static_cast<double>(g.opCount());
    EXPECT_LT(w_frac, 2e-5);  // ~0.001% of weights
    EXPECT_GT(op_frac, 5e-3); // but ~0.6% of ops
}

} // namespace
} // namespace fpsa
