/**
 * @file
 * The benchmark model zoo (paper Section 6.1 / Table 3): MLP-500-100,
 * LeNet, VGG17 for CIFAR-10, AlexNet, VGG16, GoogLeNet and ResNet152.
 *
 * Models are layer-shape definitions (weights are materialized only for
 * the small nets when functional execution is requested).  Weight and
 * op counts reproduce Table 3; VGG17's exact architecture is not
 * published, so we reconstruct a 17-weight-layer VGG-style CIFAR net
 * and report our counts beside the paper's (README, "Evaluation
 * models", gives its layer shapes and counts).
 */

#ifndef FPSA_NN_MODELS_HH
#define FPSA_NN_MODELS_HH

#include <string>
#include <vector>

#include "nn/graph.hh"

namespace fpsa
{

/** Identifier for a zoo model. */
enum class ModelId
{
    Mlp500_100,
    LeNet,
    Vgg17Cifar,
    AlexNet,
    Vgg16,
    GoogLeNet,
    ResNet152,
};

/** All models in Table 3 order. */
const std::vector<ModelId> &allModels();

const char *modelName(ModelId id);

/** Paper-reported reference counts (Table 3). */
struct PaperCounts
{
    double weights;
    double ops;
};

PaperCounts paperCounts(ModelId id);

/** Build the computational graph of a zoo model. */
Graph buildModel(ModelId id);

/** MLP with hidden sizes (e.g.\ {500, 100}) on a flat input. */
Graph buildMlp(std::int64_t input_dim, const std::vector<int> &hidden,
               int classes);

/** Caffe-style LeNet on 1x28x28. */
Graph buildLeNet();

/** Reconstructed 17-weight-layer VGG-style net on 3x32x32. */
Graph buildVgg17Cifar();

/** Grouped AlexNet on 3x227x227. */
Graph buildAlexNet();

/** VGG16 on 3x224x224. */
Graph buildVgg16();

/** GoogLeNet (inception v1) on 3x224x224. */
Graph buildGoogLeNet();

/** ResNet152 on 3x224x224. */
Graph buildResNet152();

} // namespace fpsa

#endif // FPSA_NN_MODELS_HH
