/**
 * @file
 * Tests for the planned inference data path (nn/plan.hh): golden
 * equivalence of the im2col/GEMM kernels against the naive reference
 * executor across a {kernel, stride, pad, groups, odd-shape} sweep,
 * bit-identity of batched vs single-sample execution and of
 * back-to-back requests through one reused arena, zero-heap-allocation
 * behaviour of the planned path, the liveness allocator actually
 * reusing buffers, the quantized conv's bit-equality with a
 * per-channel quantize-after-im2col oracle, bit-identical int8
 * zoo-model outputs between the madd and VNNI kernel tables,
 * bit-identity of steps split across a fork-join team (nn/team.hh),
 * the ReLU fused into conv/fc epilogues (bit-identical to an unfused
 * plan, adding no arena buffer), and the vector quantize and abs-max
 * passes against scalar oracles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "nn/team.hh"
#include "tensor/kernels.hh"
#include "tensor/tensor.hh"

namespace fpsa
{
namespace
{

Tensor
randomInput(const Shape &shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    // Mixed-sign values so maxpool padding semantics are exercised.
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
}

Graph
weighted(GraphBuilder &b, std::uint64_t seed)
{
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

/** Planned output of one sample (fresh plan + context). */
Tensor
runPlanned(const Graph &g, const Tensor &input)
{
    auto plan = ExecutionPlan::build(g);
    EXPECT_TRUE(plan.ok()) << plan.status().toString();
    PlanContext context = plan->makeContext();
    Tensor out(plan->outputShape());
    plan->run(input.data(), out.data(), context);
    return out;
}

/** Assert planned == reference within float-vs-double accumulation. */
void
expectGoldenEquivalent(const Graph &g, const Tensor &input)
{
    const Tensor reference = runGraphFinal(g, input);
    const Tensor planned = runPlanned(g, input);
    ASSERT_EQ(planned.shape(), reference.shape());
    const float tol =
        1e-4f * std::max(1.0f, reference.absMax());
    for (std::int64_t i = 0; i < reference.numel(); ++i)
        ASSERT_NEAR(planned[i], reference[i], tol) << "element " << i;
}

// ----------------------------------------------------- golden equivalence

TEST(PlanGolden, ConvKernelStridePadSweep)
{
    for (int kernel : {1, 2, 3, 5}) {
        for (int stride : {1, 2, 3}) {
            for (int pad : {0, 1, 2}) {
                if (pad >= kernel)
                    continue; // all-padding windows are degenerate
                GraphBuilder b({3, 11, 9}); // odd, rectangular
                b.conv(6, kernel, stride, pad).relu();
                Graph g = weighted(
                    b, 1000u + static_cast<std::uint64_t>(
                                   kernel * 100 + stride * 10 + pad));
                expectGoldenEquivalent(g, randomInput({3, 11, 9}, 5));
            }
        }
    }
}

TEST(PlanGolden, KernelWiderThanPaddedInput)
{
    // Regression: when a kernel tap can never land in range
    // (kernel > width + pad) with stride >= 2, the im2col valid-range
    // arithmetic used to truncate a negative bound toward zero and
    // read one element past the row instead of writing padding.
    GraphBuilder b({1, 2, 2});
    b.conv(2, 5, 2, 2);
    Graph g = weighted(b, 71);
    expectGoldenEquivalent(g, randomInput({1, 2, 2}, 72));

    GraphBuilder b2({3, 6, 3});
    b2.conv(4, 5, 2, 2).relu();
    Graph g2 = weighted(b2, 73);
    expectGoldenEquivalent(g2, randomInput({3, 6, 3}, 74));
}

TEST(PlanGolden, GroupedConvSweep)
{
    for (int groups : {1, 2, 4}) {
        for (int kernel : {1, 3}) {
            GraphBuilder b({8, 10, 7});
            b.conv(12, kernel, 1, kernel / 2, groups).relu();
            Graph g = weighted(
                b, 2000u + static_cast<std::uint64_t>(groups * 10 +
                                                      kernel));
            expectGoldenEquivalent(g, randomInput({8, 10, 7}, 11));
        }
    }
}

TEST(PlanGolden, PoolingSweepIncludingPaddedWindows)
{
    for (bool average : {false, true}) {
        for (int kernel : {2, 3}) {
            for (int stride : {1, 2}) {
                for (int pad : {0, 1}) {
                    GraphBuilder b({2, 9, 7});
                    if (average)
                        b.avgPool(kernel, stride, pad);
                    else
                        b.maxPool(kernel, stride, pad);
                    Graph g = b.build();
                    expectGoldenEquivalent(
                        g, randomInput({2, 9, 7}, 21));
                }
            }
        }
    }
}

TEST(PlanGolden, LeNetStyleStack)
{
    GraphBuilder b({1, 28, 28});
    b.conv(6, 5, 1, 0).relu().maxPool(2, 2);
    b.conv(16, 5, 1, 0).relu().maxPool(2, 2);
    b.flatten().fc(120).relu().fc(84).relu().fc(10);
    Graph g = weighted(b, 3);
    expectGoldenEquivalent(g, randomInput({1, 28, 28}, 31));
}

TEST(PlanGolden, BranchyGraphWithConcatAddAndGlobalPool)
{
    GraphBuilder b({4, 12, 12});
    const NodeId in = b.tip();
    const NodeId left = b.at(in).conv(6, 1, 1, 0).relu().tip();
    const NodeId right = b.at(in).conv(6, 3, 1, 1).relu().tip();
    b.concat({left, right});
    const NodeId trunk = b.tip();
    b.conv(12, 3, 1, 1).batchNorm();
    b.add({trunk}).relu();
    b.globalAvgPool().fc(5);
    Graph g = weighted(b, 4);
    expectGoldenEquivalent(g, randomInput({4, 12, 12}, 41));
}

TEST(PlanGolden, AvgPoolAndStridedGroupedStack)
{
    GraphBuilder b({6, 13, 13});
    b.conv(12, 3, 2, 1, 2).relu().avgPool(2, 2, 1);
    b.conv(8, 1, 1, 0).relu().flatten().fc(7);
    Graph g = weighted(b, 6);
    expectGoldenEquivalent(g, randomInput({6, 13, 13}, 61));
}

TEST(PlanGolden, ReluOnAConvWithASecondConsumerIsNotFused)
{
    // The first conv feeds a Relu and an Add: fusing that Relu into the
    // conv would hand the Add rectified values (relu(c) + relu(c), not
    // relu(c) + c).  The closing conv's Relu fuses and is the graph's
    // output.
    GraphBuilder b({4, 9, 9});
    const NodeId conv = b.conv(6, 3, 1, 1).tip();
    b.relu().add({conv});
    b.conv(5, 3, 1, 1).relu();
    Graph g = weighted(b, 81);
    expectGoldenEquivalent(g, randomInput({4, 9, 9}, 82));
}

// -------------------------------------------- batched / arena bit-identity

/** Every kernel ISA whose table can actually run on this host. */
std::vector<KernelIsa>
availablePlanIsas()
{
    std::vector<KernelIsa> isas{KernelIsa::Scalar};
    for (KernelIsa isa :
         {KernelIsa::Avx2, KernelIsa::AvxVnni, KernelIsa::Neon})
        if (kernelIsaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

TEST(PlanBatch, BatchedExecutionIsBitIdenticalToSingle)
{
    GraphBuilder b({2, 14, 14});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(12, 3, 2, 1, 2).relu().flatten().fc(20).relu().fc(6);
    Graph g = weighted(b, 8);

    // Seven samples: the fc GEMMs (m = batch) cross one 6-row register
    // tile of the vector tables plus a 1-row tail.
    constexpr int kBatch = 7;
    std::vector<Tensor> inputs;
    for (int i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(
            {2, 14, 14}, 100u + static_cast<std::uint64_t>(i)));

    for (KernelIsa isa : availablePlanIsas()) {
        auto plan = ExecutionPlan::build(g, {PrecisionMode::Fp32, isa});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();

        PlanContext single_ctx = plan->makeContext();
        std::vector<Tensor> singles;
        for (int i = 0; i < kBatch; ++i) {
            Tensor out(plan->outputShape());
            plan->run(inputs[static_cast<std::size_t>(i)].data(),
                      out.data(), single_ctx);
            singles.push_back(std::move(out));
        }

        std::vector<const float *> in_ptrs;
        std::vector<Tensor> batched(static_cast<std::size_t>(kBatch),
                                    Tensor(plan->outputShape()));
        std::vector<float *> out_ptrs;
        for (int i = 0; i < kBatch; ++i) {
            in_ptrs.push_back(inputs[static_cast<std::size_t>(i)].data());
            out_ptrs.push_back(
                batched[static_cast<std::size_t>(i)].data());
        }
        PlanContext batch_ctx = plan->makeContext(kBatch);
        plan->runBatch(in_ptrs.data(), out_ptrs.data(), kBatch,
                       batch_ctx);

        for (int i = 0; i < kBatch; ++i) {
            for (std::int64_t v = 0;
                 v < singles[static_cast<std::size_t>(i)].numel(); ++v) {
                ASSERT_EQ(batched[static_cast<std::size_t>(i)][v],
                          singles[static_cast<std::size_t>(i)][v])
                    << kernelIsaName(isa) << " sample " << i
                    << " element " << v;
            }
        }
    }
}

TEST(PlanArena, BackToBackRequestsThroughOnePlanAreBitIdentical)
{
    GraphBuilder b({3, 10, 10});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2).flatten().fc(12);
    Graph g = weighted(b, 9);
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());

    const Tensor input = randomInput({3, 10, 10}, 77);
    PlanContext context = plan->makeContext();
    Tensor first(plan->outputShape()), second(plan->outputShape());
    plan->run(input.data(), first.data(), context);
    // Disturb the arena with a different request, then repeat the
    // first: a stale-state or liveness bug would surface here.
    Tensor other(plan->outputShape());
    plan->run(randomInput({3, 10, 10}, 78).data(), other.data(),
              context);
    plan->run(input.data(), second.data(), context);
    for (std::int64_t i = 0; i < first.numel(); ++i)
        ASSERT_EQ(first[i], second[i]) << "element " << i;
}

TEST(PlanArena, PlannedRequestPerformsZeroHeapAllocations)
{
    GraphBuilder b({2, 12, 12});
    b.conv(6, 3, 1, 1).relu().maxPool(2, 2, 1);
    b.conv(8, 3, 2, 1, 2).relu().flatten().fc(16).relu().fc(4);
    Graph g = weighted(b, 12);
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());

    const Tensor input = randomInput({2, 12, 12}, 99);
    Tensor out(plan->outputShape());
    PlanContext context = plan->makeContext(4);
    // Warm-up sizes the context buffers once.
    plan->run(input.data(), out.data(), context);

    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the planned path must not allocate per request";

    // The batched path is allocation-free too once the context has
    // served that width.
    std::vector<const float *> in_ptrs(4, input.data());
    std::vector<Tensor> outs(4, Tensor(plan->outputShape()));
    std::vector<float *> out_ptrs;
    for (Tensor &t : outs)
        out_ptrs.push_back(t.data());
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 4, context);
    alloc_probe::arm();
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 4, context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the batched planned path must not allocate per request";
}

TEST(PlanArena, LivenessReusesBuffersAndAliasesReshapes)
{
    // A deep chain where every activation has a short life: the arena
    // must be much smaller than the sum of all node activations.
    GraphBuilder b({4, 16, 16});
    for (int i = 0; i < 6; ++i)
        b.conv(4, 3, 1, 1).relu();
    b.flatten().fc(10);
    Graph g = weighted(b, 13);

    std::int64_t total = 0;
    for (const GraphNode &n : g.nodes())
        total += shapeNumel(n.outShape);

    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());
    EXPECT_LT(plan->arenaFloatsPerSample(), total / 2)
        << "liveness allocation should reuse expired buffers";
    // Flatten aliases its producer: it must not add its own numel on
    // top of the three live buffers a conv chain needs.
    EXPECT_GE(plan->arenaFloatsPerSample(), 4 * 16 * 16 * 2);
}

TEST(PlanGolden, ReluIsStdMaxFromZeroBitForBit)
{
    // std::max(0.0f, x) gives +0.0 for -0.0 and for NaN.  A Relu on the
    // input runs as a step of its own; one on a 1x1 conv, whose NaN
    // inputs give NaN outputs, runs fused into the conv's epilogue.
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    Tensor input = randomInput({2, 5, 5}, 83);
    for (std::int64_t i = 0; i < input.numel(); i += 3)
        input[i] = i % 2 == 0 ? -0.0f : kNan;
    const auto expectRectified = [](const Tensor &got, const Tensor &pre) {
        ASSERT_EQ(got.numel(), pre.numel());
        for (std::int64_t i = 0; i < got.numel(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                      std::bit_cast<std::uint32_t>(std::max(0.0f, pre[i])))
                << "element " << i;
    };

    GraphBuilder step({2, 5, 5});
    step.relu();
    expectRectified(runPlanned(step.build(), input), input);

    GraphBuilder conv({2, 5, 5}), fused({2, 5, 5});
    conv.conv(3, 1, 1, 0);
    fused.conv(3, 1, 1, 0).relu();
    expectRectified(runPlanned(weighted(fused, 84), input),
                    runPlanned(weighted(conv, 84), input));
}

TEST(PlanArena, FusedReluAddsNoBuffer)
{
    // Six conv -> relu pairs with shrinking channel counts, where a
    // Relu step of its own would need a second buffer of its conv's
    // size: fused, each Relu aliases its conv's buffer, so the arena
    // is exactly that of the six convs alone.
    GraphBuilder with({4, 16, 16}), without({4, 16, 16});
    for (int channels : {32, 24, 16, 12, 8, 4}) {
        with.conv(channels, 3, 1, 1).relu();
        without.conv(channels, 3, 1, 1);
    }
    auto fused = ExecutionPlan::build(weighted(with, 14));
    auto plain = ExecutionPlan::build(weighted(without, 14));
    ASSERT_TRUE(fused.ok()) << fused.status().toString();
    ASSERT_TRUE(plain.ok()) << plain.status().toString();
    EXPECT_EQ(fused->arenaFloatsPerSample(), plain->arenaFloatsPerSample());
}

TEST(PlanBuild, RejectsGraphsWithoutWeights)
{
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().flatten().fc(10);
    Graph g = b.build(); // no randomizeWeights
    auto plan = ExecutionPlan::build(g);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::InvalidArgument);
}

// ------------------------------------------------ precision / ISA variants

Graph
mixedStackGraph(std::uint64_t seed)
{
    GraphBuilder b({3, 13, 11});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(12, 3, 2, 1, 2).relu().flatten().fc(24).relu().fc(9);
    return weighted(b, seed);
}

TEST(PlanIsa, EveryAvailableIsaStaysGoldenEquivalent)
{
    const Graph g = mixedStackGraph(301);
    const Tensor input = randomInput({3, 13, 11}, 302);
    const Tensor reference = runGraphFinal(g, input);
    for (KernelIsa isa : availablePlanIsas()) {
        auto plan =
            ExecutionPlan::build(g, {PrecisionMode::Fp32, isa});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        EXPECT_EQ(plan->kernelIsa(), isa);
        PlanContext context = plan->makeContext();
        Tensor out(plan->outputShape());
        plan->run(input.data(), out.data(), context);
        const float tol = 1e-4f * std::max(1.0f, reference.absMax());
        for (std::int64_t i = 0; i < reference.numel(); ++i)
            ASSERT_NEAR(out[i], reference[i], tol)
                << kernelIsaName(isa) << " element " << i;
    }
}

TEST(PlanInt8, TracksFp32WithinQuantizationError)
{
    const Graph g = mixedStackGraph(303);
    const Tensor input = randomInput({3, 13, 11}, 304);
    const Tensor fp32 = runPlanned(g, input);
    for (PrecisionMode mode :
         {PrecisionMode::Int8, PrecisionMode::Int6}) {
        auto plan =
            ExecutionPlan::build(g, {mode, KernelIsa::Auto});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        EXPECT_EQ(plan->precision(), mode);
        PlanContext context = plan->makeContext();
        Tensor out(plan->outputShape());
        plan->run(input.data(), out.data(), context);
        // Quantization noise grows through the stack; gate RMSE
        // relative to the fp32 output's scale rather than elementwise.
        double err2 = 0.0, ref2 = 0.0;
        for (std::int64_t i = 0; i < fp32.numel(); ++i) {
            const double d = out[i] - fp32[i];
            err2 += d * d;
            ref2 += static_cast<double>(fp32[i]) * fp32[i];
        }
        const double rel =
            std::sqrt(err2) / std::max(1e-12, std::sqrt(ref2));
        EXPECT_LT(rel, mode == PrecisionMode::Int8 ? 0.12 : 0.35)
            << precisionModeName(mode);
        EXPECT_GT(rel, 0.0) << "quantization should not be a no-op";
    }
}

TEST(PlanInt8, BatchedBitIdenticalToSingleAndAcrossIsas)
{
    const Graph g = mixedStackGraph(305);
    constexpr int kBatch = 4;
    std::vector<Tensor> inputs;
    for (int i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(
            {3, 13, 11}, 400u + static_cast<std::uint64_t>(i)));

    std::vector<Tensor> first_isa;
    for (KernelIsa isa : availablePlanIsas()) {
        auto plan =
            ExecutionPlan::build(g, {PrecisionMode::Int8, isa});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();

        PlanContext single_ctx = plan->makeContext();
        std::vector<Tensor> singles;
        for (int i = 0; i < kBatch; ++i) {
            Tensor out(plan->outputShape());
            plan->run(inputs[static_cast<std::size_t>(i)].data(),
                      out.data(), single_ctx);
            singles.push_back(std::move(out));
        }

        std::vector<const float *> in_ptrs;
        std::vector<Tensor> batched(static_cast<std::size_t>(kBatch),
                                    Tensor(plan->outputShape()));
        std::vector<float *> out_ptrs;
        for (int i = 0; i < kBatch; ++i) {
            in_ptrs.push_back(
                inputs[static_cast<std::size_t>(i)].data());
            out_ptrs.push_back(
                batched[static_cast<std::size_t>(i)].data());
        }
        PlanContext batch_ctx = plan->makeContext(kBatch);
        plan->runBatch(in_ptrs.data(), out_ptrs.data(), kBatch,
                       batch_ctx);

        for (int i = 0; i < kBatch; ++i)
            for (std::int64_t v = 0;
                 v < singles[static_cast<std::size_t>(i)].numel(); ++v)
                ASSERT_EQ(batched[static_cast<std::size_t>(i)][v],
                          singles[static_cast<std::size_t>(i)][v])
                    << kernelIsaName(isa) << " sample " << i
                    << " element " << v;

        // Integer GEMM + scalar quantization: the whole int8 forward
        // pass is bit-identical across instruction sets.
        if (first_isa.empty()) {
            first_isa = std::move(singles);
        } else {
            for (int i = 0; i < kBatch; ++i)
                for (std::int64_t v = 0;
                     v <
                     first_isa[static_cast<std::size_t>(i)].numel();
                     ++v)
                    ASSERT_EQ(
                        singles[static_cast<std::size_t>(i)][v],
                        first_isa[static_cast<std::size_t>(i)][v])
                        << kernelIsaName(isa) << " vs scalar, sample "
                        << i << " element " << v;
        }
    }
}

/** Outputs of `plan` for `inputs`, run as one batch. */
std::vector<Tensor>
runBatchOf(const ExecutionPlan &plan, const std::vector<Tensor> &inputs)
{
    std::vector<Tensor> outs(inputs.size(), Tensor(plan.outputShape()));
    std::vector<const float *> in_ptrs;
    std::vector<float *> out_ptrs;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        in_ptrs.push_back(inputs[i].data());
        out_ptrs.push_back(outs[i].data());
    }
    const int batch = static_cast<int>(inputs.size());
    PlanContext context = plan.makeContext(batch);
    plan.runBatch(in_ptrs.data(), out_ptrs.data(), batch, context);
    return outs;
}

TEST(PlanInt8, ZooModelsBitIdenticalBetweenMaddAndVnniKernels)
{
    if (!kernelIsaAvailable(KernelIsa::AvxVnni))
        GTEST_SKIP() << "no AVX-VNNI or AVX512-VNNI+VL on this host (or "
                        "FPSA_KERNEL_ISA masks it): the avxvnni table "
                        "went untested";
    // The served models end to end: convolutions take the packed VNNI
    // GEMM (VGG17's first, signed-input layer included); fc layers run
    // it only from batch 5 up (fewer rows defer to madd), so batch 8
    // puts the MLP on it too.
    for (ModelId id : {ModelId::Vgg17Cifar, ModelId::LeNet,
                       ModelId::Mlp500_100}) {
        Graph g = buildModel(id);
        Rng rng(1234);
        randomizeWeights(g, rng);
        const Shape in_shape = g.node(g.topoOrder().front()).outShape;
        for (PrecisionMode mode :
             {PrecisionMode::Int8, PrecisionMode::Int6}) {
            auto madd = ExecutionPlan::build(g, {mode, KernelIsa::Avx2});
            auto vnni = ExecutionPlan::build(g, {mode, KernelIsa::AvxVnni});
            ASSERT_TRUE(madd.ok()) << madd.status().toString();
            ASSERT_TRUE(vnni.ok()) << vnni.status().toString();
            ASSERT_EQ(vnni->kernelIsa(), KernelIsa::AvxVnni);
            for (int batch : {1, 4, 8}) {
                std::vector<Tensor> inputs;
                for (int i = 0; i < batch; ++i)
                    inputs.push_back(randomInput(
                        in_shape, 700u + static_cast<std::uint64_t>(i)));
                const auto want = runBatchOf(*madd, inputs);
                const auto got = runBatchOf(*vnni, inputs);
                for (int i = 0; i < batch; ++i)
                    for (std::int64_t v = 0;
                         v < want[static_cast<std::size_t>(i)].numel(); ++v)
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                      got[static_cast<std::size_t>(i)][v]),
                                  std::bit_cast<std::uint32_t>(
                                      want[static_cast<std::size_t>(i)][v]))
                            << modelName(id) << " "
                            << precisionModeName(mode) << " batch "
                            << batch << " sample " << i << " element "
                            << v;
            }
        }
    }
}

TEST(PlanInt8, QuantizedRequestPerformsZeroHeapAllocations)
{
    const Graph g = mixedStackGraph(306);
    auto plan = ExecutionPlan::build(
        g, {PrecisionMode::Int8, KernelIsa::Auto});
    ASSERT_TRUE(plan.ok()) << plan.status().toString();

    const Tensor input = randomInput({3, 13, 11}, 307);
    Tensor out(plan->outputShape());
    PlanContext context = plan->makeContext(3);
    plan->run(input.data(), out.data(), context); // warm-up

    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the int8 path must not allocate per request";

    std::vector<const float *> in_ptrs(3, input.data());
    std::vector<Tensor> outs(3, Tensor(plan->outputShape()));
    std::vector<float *> out_ptrs;
    for (Tensor &t : outs)
        out_ptrs.push_back(t.data());
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 3, context);
    alloc_probe::arm();
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 3, context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the batched int8 path must not allocate per request";
}

/**
 * A quantized conv computed the way the plan used to: pack the float
 * im2col matrix, quantize every packed element against the sample's own
 * input scale (per group slice), multiply with a naive int32 loop, then
 * rescale each output channel by its own weight scale.  The plan
 * quantizes the input before packing instead, so this oracle is what
 * proves the two orders agree bit for bit.
 */
std::vector<float>
quantizeAfterIm2colConv(const GraphNode &conv, const Shape &in,
                        const float *sample, float actQmax)
{
    const std::int64_t ci = in[0], hi = in[1], wi = in[2];
    const std::int64_t co = conv.outShape[0];
    const std::int64_t ho = conv.outShape[1], wo = conv.outShape[2];
    const std::int64_t kern = conv.attrs.kernel;
    const std::int64_t groups = conv.attrs.groups;
    const std::int64_t ci_g = ci / groups, co_g = co / groups;
    const std::int64_t kk = ci_g * kern * kern, hw = ho * wo;
    const auto level = [](float x, float mult, float qmax) {
        return std::clamp(static_cast<std::int32_t>(std::lrintf(x * mult)),
                          -static_cast<std::int32_t>(qmax),
                          static_cast<std::int32_t>(qmax));
    };

    // One symmetric int8 scale per output channel (OIHW row).
    const Tensor &w = *conv.weights;
    std::vector<float> sw(static_cast<std::size_t>(co), 0.0f);
    std::vector<std::int32_t> wq(static_cast<std::size_t>(w.numel()), 0);
    for (std::int64_t oc = 0; oc < co; ++oc) {
        float wmax = 0.0f;
        for (std::int64_t r = 0; r < kk; ++r)
            wmax = std::max(wmax, std::fabs(w[oc * kk + r]));
        if (wmax == 0.0f)
            continue;
        sw[static_cast<std::size_t>(oc)] = wmax / 127.0f;
        const float wmult = 1.0f / sw[static_cast<std::size_t>(oc)];
        for (std::int64_t r = 0; r < kk; ++r)
            wq[static_cast<std::size_t>(oc * kk + r)] =
                level(w[oc * kk + r], wmult, 127.0f);
    }

    std::vector<float> out(static_cast<std::size_t>(co * hw));
    std::vector<float> cols(static_cast<std::size_t>(kk * hw));
    std::vector<std::int32_t> qcols(cols.size());
    for (std::int64_t g = 0; g < groups; ++g) {
        const float *x = sample + g * ci_g * hi * wi;
        float amax = 0.0f;
        for (std::int64_t v = 0; v < ci_g * hi * wi; ++v)
            amax = std::max(amax, std::fabs(x[v]));
        const float sa = amax > 0.0f ? amax / actQmax : 0.0f;
        const float mult = amax > 0.0f ? 1.0f / sa : 0.0f;
        kernelTable().im2colChw(x, ci_g, hi, wi, kern, kern,
                                conv.attrs.stride, conv.attrs.pad, ho, wo,
                                cols.data(), hw, 0.0f);
        for (std::size_t v = 0; v < cols.size(); ++v)
            qcols[v] = level(cols[v], mult, actQmax);
        for (std::int64_t oc = g * co_g; oc < (g + 1) * co_g; ++oc) {
            for (std::int64_t p = 0; p < hw; ++p) {
                std::int32_t acc = 0;
                for (std::int64_t r = 0; r < kk; ++r)
                    acc += wq[static_cast<std::size_t>(oc * kk + r)] *
                           qcols[static_cast<std::size_t>(r * hw + p)];
                out[static_cast<std::size_t>(oc * hw + p)] =
                    static_cast<float>(acc) *
                    (sw[static_cast<std::size_t>(oc)] * sa);
            }
        }
    }
    return out;
}

TEST(PlanInt8, MatchesQuantizeAfterIm2colOracle)
{
    struct Case
    {
        const char *name;
        Shape in;
        int co, kernel, stride, pad, groups, batch;
        int zeroSample; //!< index of an all-zero (scale 0) sample, or -1
    };
    // hw < 1024 with batch > 1 takes the coalesced branch; the 40x32
    // layer (hw = 1280) runs per sample.
    const Case cases[] = {
        {"pad", {3, 9, 7}, 6, 3, 1, 1, 1, 1, -1},
        {"stride2", {3, 11, 9}, 5, 3, 2, 1, 1, 1, -1},
        {"groups2", {4, 9, 7}, 6, 3, 1, 1, 2, 1, -1},
        {"identity1x1", {5, 6, 7}, 4, 1, 1, 0, 1, 1, -1},
        {"coalesced", {4, 8, 8}, 6, 3, 1, 1, 2, 3, 1},
        {"coalescedIdentity", {3, 5, 5}, 4, 1, 1, 0, 1, 3, 2},
        {"perSampleWide", {2, 40, 32}, 4, 3, 1, 1, 1, 2, 1},
        {"zeroSample", {3, 6, 6}, 4, 3, 1, 1, 1, 1, 0},
    };
    for (const Case &c : cases) {
        GraphBuilder b(c.in);
        b.conv(c.co, c.kernel, c.stride, c.pad, c.groups);
        const Graph g = weighted(b, 310);
        const GraphNode &conv = g.node(b.tip());

        std::vector<Tensor> inputs;
        for (int i = 0; i < c.batch; ++i) {
            inputs.push_back(
                i == c.zeroSample
                    ? Tensor(c.in)
                    : randomInput(c.in,
                                  320u + static_cast<std::uint64_t>(i)));
        }
        for (PrecisionMode mode :
             {PrecisionMode::Int8, PrecisionMode::Int6}) {
            const float qmax = mode == PrecisionMode::Int8 ? 127.0f
                                                           : 31.0f;
            for (KernelIsa isa : availablePlanIsas()) {
                auto plan = ExecutionPlan::build(g, {mode, isa});
                ASSERT_TRUE(plan.ok()) << plan.status().toString();
                std::vector<Tensor> outs(
                    static_cast<std::size_t>(c.batch),
                    Tensor(plan->outputShape()));
                std::vector<const float *> in_ptrs;
                std::vector<float *> out_ptrs;
                for (int i = 0; i < c.batch; ++i) {
                    in_ptrs.push_back(
                        inputs[static_cast<std::size_t>(i)].data());
                    out_ptrs.push_back(
                        outs[static_cast<std::size_t>(i)].data());
                }
                PlanContext context = plan->makeContext(c.batch);
                plan->runBatch(in_ptrs.data(), out_ptrs.data(), c.batch,
                               context);
                for (int i = 0; i < c.batch; ++i) {
                    const auto want = quantizeAfterIm2colConv(
                        conv, c.in,
                        inputs[static_cast<std::size_t>(i)].data(), qmax);
                    const Tensor &got = outs[static_cast<std::size_t>(i)];
                    ASSERT_EQ(static_cast<std::size_t>(got.numel()),
                              want.size());
                    for (std::int64_t v = 0; v < got.numel(); ++v)
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[v]),
                                  std::bit_cast<std::uint32_t>(
                                      want[static_cast<std::size_t>(v)]))
                            << c.name << " " << precisionModeName(mode)
                            << " " << kernelIsaName(isa) << " sample "
                            << i << " element " << v;
                }
            }
        }
    }
}

// ------------------------------------------------- elementwise passes

/**
 * The level `quantizeTo` must give: `std::lrintf`, then the clamp.
 * lrintf of a NaN is unspecified, and the plan defines that level as 0.
 */
std::int8_t
lrintfLevel(float x, float mult, std::int32_t qmax)
{
    const float p = x * mult;
    if (std::isnan(p))
        return 0;
    return static_cast<std::int8_t>(std::clamp(
        static_cast<std::int32_t>(std::lrintf(p)), -qmax, qmax));
}

/**
 * Values that probe every rounding and clamping edge at `qmax` (with a
 * multiplier of 1): exact k + 0.5 ties and their float neighbours,
 * integers, +-qmax and beyond, +-0.0, denormals and a NaN.
 */
std::vector<float>
quantizeProbes(std::int32_t qmax)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    std::vector<float> v;
    for (std::int32_t k = -qmax - 2; k <= qmax + 1; ++k) {
        const float tie = static_cast<float>(k) + 0.5f;
        v.push_back(tie);
        v.push_back(static_cast<float>(k));
        v.push_back(std::nextafter(tie, kInf));
        v.push_back(std::nextafter(tie, -kInf));
    }
    const float q = static_cast<float>(qmax);
    for (float x : {q + 0.49f, q + 0.5f, q + 1.0f, 1e6f, 1e8f, 0.0f,
                    1e-40f, 0.49999997f,
                    std::numeric_limits<float>::quiet_NaN()}) {
        v.push_back(x);
        v.push_back(-x);
    }
    return v;
}

TEST(PlanQuantize, VectorQuantizeMatchesLrintfOracleBitForBit)
{
    // Every length 0..40 runs the 16-wide vector body and every tail
    // width; sliding the window moves each probe across all lanes.
    for (std::int32_t qmax : {127, 31}) {
        const std::vector<float> probes = quantizeProbes(qmax);
        std::vector<float> random(200);
        Rng rng(static_cast<std::uint64_t>(qmax));
        for (float &x : random)
            x = static_cast<float>(rng.normal(0.0, 1.0));
        const float data_mult =
            static_cast<float>(qmax) / absMaxOf(random.data(), 200);
        struct Source
        {
            const std::vector<float> *values;
            float mult;
        };
        for (const Source &src :
             {Source{&probes, 1.0f}, Source{&probes, 0.37f},
              Source{&probes, 3.3f}, Source{&random, data_mult}}) {
            const std::vector<float> &vals = *src.values;
            for (std::int64_t n = 0; n <= 40; ++n) {
                for (std::size_t off = 0;
                     off + static_cast<std::size_t>(n) <= vals.size();
                     off += 3) {
                    std::vector<std::int8_t> got(
                        static_cast<std::size_t>(n) + 16,
                        std::int8_t{0x5a});
                    quantizeTo(vals.data() + off, got.data(), n, src.mult,
                               qmax);
                    for (std::int64_t v = 0; v < n; ++v) {
                        const float x =
                            vals[off + static_cast<std::size_t>(v)];
                        ASSERT_EQ(got[static_cast<std::size_t>(v)],
                                  lrintfLevel(x, src.mult, qmax))
                            << "x " << x << " mult " << src.mult
                            << " qmax " << qmax << " n " << n << " lane "
                            << v;
                    }
                    for (std::size_t g = static_cast<std::size_t>(n);
                         g < got.size(); ++g)
                        ASSERT_EQ(got[g], std::int8_t{0x5a})
                            << "wrote past n " << n;
                }
            }
        }
    }
}

TEST(PlanQuantize, VectorAbsMaxMatchesScalarFoldBitForBit)
{
    const auto fold = [](const float *p, std::int64_t n) {
        float m = 0.0f;
        for (std::int64_t v = 0; v < n; ++v)
            m = std::max(m, std::fabs(p[v]));
        return m;
    };
    const std::vector<float> base = [] {
        std::vector<float> v(40);
        Rng rng(90);
        for (float &x : v)
            x = static_cast<float>(rng.normal(0.0, 1.0));
        return v;
    }();
    for (std::int64_t n = 0; n <= 40; ++n) {
        // Each position in turn holds the largest magnitude (either
        // sign), a NaN or a -0.0; plus an all -0.0 input.
        std::vector<std::vector<float>> inputs{
            std::vector<float>(static_cast<std::size_t>(n), -0.0f)};
        for (std::int64_t j = 0; j < n; ++j) {
            for (float special :
                 {1e3f, -1e3f, -0.0f,
                  std::numeric_limits<float>::quiet_NaN()}) {
                std::vector<float> v(base.begin(), base.begin() + n);
                v[static_cast<std::size_t>(j)] = special;
                inputs.push_back(std::move(v));
            }
        }
        for (const std::vector<float> &v : inputs)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(absMaxOf(v.data(), n)),
                      std::bit_cast<std::uint32_t>(fold(v.data(), n)))
                << "n " << n;
    }
}

// ------------------------------------------------- split across a team

/**
 * Every step above the split threshold, with the shapes the split has
 * to get right: 65 x 65 = 4225 output columns (not a multiple of 16,
 * and wide enough that batches of 2 and 3 still run per sample), a
 * grouped conv, a 1x1 identity conv, and an fc layer of 3990 units;
 * all wide enough to split in the quantized path's 1024-column chunks
 * too.
 */
Graph
splitStackGraph(std::uint64_t seed)
{
    GraphBuilder b({8, 65, 65});
    b.conv(64, 3, 1, 1).relu();    // 64 x 72 x 4225
    b.conv(32, 3, 1, 1, 2).relu(); // 2 groups of 16 x 288 x 4225
    b.conv(128, 1, 1, 0).relu();   // identity: 128 x 32 x 4225
    b.maxPool(3, 3).maxPool(7, 7).flatten(); // 128 x 3 x 3
    b.fc(3990).relu().fc(10);                // 1152 x 3990
    return weighted(b, seed);
}

/** `runBatch` of `inputs` through a fresh context using `team`. */
std::vector<Tensor>
runBatchWithTeam(const ExecutionPlan &plan,
                 const std::vector<Tensor> &inputs, PlanTeam *team)
{
    std::vector<const float *> in_ptrs;
    std::vector<Tensor> outs(inputs.size(), Tensor(plan.outputShape()));
    std::vector<float *> out_ptrs;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        in_ptrs.push_back(inputs[i].data());
        out_ptrs.push_back(outs[i].data());
    }
    PlanContext context = plan.makeContext();
    context.setTeam(team);
    plan.runBatch(in_ptrs.data(), out_ptrs.data(),
                  static_cast<int>(inputs.size()), context);
    return outs;
}

void
expectBitsEqual(const std::vector<Tensor> &got,
                const std::vector<Tensor> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        for (std::int64_t v = 0; v < want[i].numel(); ++v) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i][v]),
                      std::bit_cast<std::uint32_t>(want[i][v]))
                << what << " sample " << i << " element " << v;
        }
    }
}

/** A team that cuts every job for `participants` but runs it alone. */
class RecordingTeam final : public PlanTeam
{
  public:
    explicit RecordingTeam(int participants) : participants_(participants)
    {
    }

    void
    run(SplitJob &job) override
    {
        job.partition(participants_);
        job.drain();
    }

  private:
    int participants_;
};

TEST(PlanSplit, ChunksAreSixteenAlignedAtLeastSixtyFourWideAndCoverAll)
{
    for (std::int64_t n : {128, 200, 256, 1000, 1089}) {
        for (int participants = 1; participants <= 4; ++participants) {
            std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
            std::mutex mu;
            RecordingTeam team(participants);
            forkJoin(&team, SplitRange{n, 16, 4},
                     [&](std::int64_t x0, std::int64_t x1) {
                         std::lock_guard<std::mutex> lock(mu);
                         chunks.emplace_back(x0, x1);
                     });
            std::sort(chunks.begin(), chunks.end());
            ASSERT_FALSE(chunks.empty());
            EXPECT_EQ(chunks.front().first, 0);
            EXPECT_EQ(chunks.back().second, n);
            if (participants == 1) {
                EXPECT_EQ(chunks.size(), 1u) << "n " << n;
            } else {
                EXPECT_GE(chunks.size(), 2u) << "n " << n;
            }
            for (std::size_t c = 0; c < chunks.size(); ++c) {
                EXPECT_EQ(chunks[c].first % 16, 0) << "n " << n;
                EXPECT_GE(chunks[c].second - chunks[c].first, 64)
                    << "n " << n;
                if (c > 0) {
                    EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
                }
            }
        }
    }
}

TEST(PlanSplit, BitIdenticalToUnsplitAcrossTablesTeamsAndBatches)
{
    const Graph g = splitStackGraph(410);
    std::vector<Tensor> inputs;
    for (int i = 0; i < 3; ++i)
        inputs.push_back(randomInput(
            {8, 65, 65}, 411u + static_cast<std::uint64_t>(i)));

    for (PrecisionMode mode :
         {PrecisionMode::Fp32, PrecisionMode::Int8, PrecisionMode::Int6}) {
        for (KernelIsa isa : availablePlanIsas()) {
            auto plan = ExecutionPlan::build(g, {mode, isa});
            ASSERT_TRUE(plan.ok()) << plan.status().toString();
            for (int batch = 1; batch <= 3; ++batch) {
                const std::vector<Tensor> sub(inputs.begin(),
                                              inputs.begin() + batch);
                const std::vector<Tensor> want =
                    runBatchWithTeam(*plan, sub, nullptr);
                for (int lanes = 1; lanes <= 3; ++lanes) {
                    HelperPool pool(lanes);
                    HelperPool::Lane &lane = pool.lane(0);
                    lane.enter();
                    const std::vector<Tensor> got =
                        runBatchWithTeam(*plan, sub, &lane);
                    lane.leave();
                    expectBitsEqual(got, want,
                                    std::string(precisionModeName(mode)) +
                                        " " + kernelIsaName(isa) +
                                        " batch " + std::to_string(batch) +
                                        " team " + std::to_string(lanes));
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
}

/**
 * A stack whose every Relu follows a conv or fc with no other consumer,
 * so each fuses into its producer's epilogue; with `unfused`, a
 * BatchNorm (an identity at inference) sits before each Relu, which
 * keeps the same arithmetic but leaves every Relu a step of its own.
 * The 65 x 65 conv splits across a team at every batch size, and the
 * 576 x 2048 fc at batch 4, on the quantized path too; the 8 x 8 conv
 * takes the batch-coalesced branch.  An average pool follows the split
 * conv, because a max pool would hide a Relu skipped on some chunk.
 */
Graph
fusedReluGraph(std::uint64_t seed, bool unfused)
{
    GraphBuilder b({8, 65, 65});
    const auto relu = [&] {
        if (unfused)
            b.batchNorm();
        b.relu();
    };
    b.conv(64, 3, 1, 1);
    relu();
    b.avgPool(8, 8).conv(64, 3, 1, 1);
    relu();
    b.maxPool(3, 3, 1).flatten().fc(2048);
    relu();
    b.fc(10);
    return weighted(b, seed);
}

TEST(PlanSplit, FusedReluEpilogueBitIdenticalAcrossBatchesSplitsAndModes)
{
    std::vector<Tensor> inputs;
    for (int i = 0; i < 4; ++i)
        inputs.push_back(randomInput(
            {8, 65, 65}, 450u + static_cast<std::uint64_t>(i)));
    const Graph fused_graph = fusedReluGraph(451, false);
    const Graph unfused_graph = fusedReluGraph(451, true);
    for (PrecisionMode mode :
         {PrecisionMode::Fp32, PrecisionMode::Int8, PrecisionMode::Int6}) {
        auto fused = ExecutionPlan::build(fused_graph, {mode});
        auto unfused = ExecutionPlan::build(unfused_graph, {mode});
        ASSERT_TRUE(fused.ok()) << fused.status().toString();
        ASSERT_TRUE(unfused.ok()) << unfused.status().toString();
        EXPECT_LT(fused->arenaFloatsPerSample(),
                  unfused->arenaFloatsPerSample())
            << "the fused Relus should alias their producers' buffers";
        HelperPool pool(3);
        HelperPool::Lane &lane = pool.lane(0);
        for (int batch = 1; batch <= 4; ++batch) {
            const std::vector<Tensor> sub(inputs.begin(),
                                          inputs.begin() + batch);
            const std::string what = std::string(precisionModeName(mode)) +
                                     " batch " + std::to_string(batch);
            const std::vector<Tensor> want =
                runBatchWithTeam(*unfused, sub, nullptr);
            expectBitsEqual(runBatchWithTeam(*fused, sub, nullptr), want,
                            what + " unsplit");
            lane.enter();
            const std::vector<Tensor> split =
                runBatchWithTeam(*fused, sub, &lane);
            lane.leave();
            expectBitsEqual(split, want, what + " split");
            if (HasFatalFailure())
                return;
        }
        // A helper may wake too late for a few short requests; allow
        // more, so that the check below really covers split epilogues.
        const std::vector<Tensor> one(inputs.begin(), inputs.begin() + 1);
        const std::vector<Tensor> want = runBatchWithTeam(*unfused, one,
                                                          nullptr);
        for (int r = 0; r < 50 && pool.helperChunks() == 0; ++r) {
            lane.enter();
            const std::vector<Tensor> got =
                runBatchWithTeam(*fused, one, &lane);
            lane.leave();
            expectBitsEqual(got, want, precisionModeName(mode));
        }
        EXPECT_GT(pool.helperChunks(), 0) << precisionModeName(mode);
    }
}

TEST(PlanSplit, SteadyStateSplitRequestPerformsZeroHeapAllocations)
{
    const Graph g = splitStackGraph(420);
    const Tensor input = randomInput({8, 65, 65}, 421);
    HelperPool pool(3);
    HelperPool::Lane &lane = pool.lane(0);
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8}) {
        auto plan = ExecutionPlan::build(g, {mode, KernelIsa::Auto});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        Tensor out(plan->outputShape());
        PlanContext context = plan->makeContext();
        context.setTeam(&lane);
        lane.enter();
        plan->run(input.data(), out.data(), context); // warm-up
        alloc_probe::arm();
        plan->run(input.data(), out.data(), context);
        const long allocations = alloc_probe::disarm();
        lane.leave();
        EXPECT_EQ(allocations, 0)
            << precisionModeName(mode)
            << ": a split request must not allocate";
    }
}

TEST(PlanSplit, IdlePoolHelpersRunChunksOfALoneCallersJob)
{
    // The caller's first chunk waits until a chunk has run on another
    // thread, so the check passes only if the pool really lends its
    // idle helpers (the caller alone would drain every chunk and pass
    // any output check).  The deadline only turns a hang into a
    // failure.
    HelperPool pool(3);
    HelperPool::Lane &lane = pool.lane(0);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> offCaller{0};
    bool waited = false;
    lane.enter();
    forkJoin(&lane, SplitRange{12, 1, 1},
             [&](std::int64_t, std::int64_t) {
                 if (std::this_thread::get_id() != caller) {
                     ++offCaller;
                     return;
                 }
                 if (waited)
                     return;
                 waited = true;
                 const auto deadline = std::chrono::steady_clock::now() +
                                       std::chrono::seconds(30);
                 while (offCaller.load() == 0 &&
                        std::chrono::steady_clock::now() < deadline)
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(100));
             });
    lane.leave();
    EXPECT_GT(offCaller.load(), 0) << "no helper joined an idle pool's job";
    EXPECT_EQ(pool.helperChunks(), offCaller.load());
}

TEST(PlanSplit, LoneSplitRequestOnAnIdlePoolLendsHelpers)
{
    // Through the plan: its large steps must reach the team.  A helper
    // may wake too late for one short request, so allow a few.
    const Graph g = splitStackGraph(440);
    const Tensor input = randomInput({8, 65, 65}, 441);
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8}) {
        auto plan = ExecutionPlan::build(g, {mode, KernelIsa::Auto});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        HelperPool pool(3);
        HelperPool::Lane &lane = pool.lane(0);
        PlanContext context = plan->makeContext();
        context.setTeam(&lane);
        Tensor out(plan->outputShape());
        for (int r = 0; r < 50 && pool.helperChunks() == 0; ++r) {
            lane.enter();
            plan->run(input.data(), out.data(), context);
            lane.leave();
        }
        EXPECT_GT(pool.helperChunks(), 0) << precisionModeName(mode);
    }
}

TEST(PlanSplit, ConcurrentLanesOfOnePoolStayBitIdentical)
{
    // Three callers share one pool, each on its own lane and context,
    // so helpers move between lanes mid-run; every output must still
    // be the unsplit one.
    GraphBuilder b({8, 65, 65});
    b.conv(64, 3, 1, 1).relu().maxPool(3, 3).flatten().fc(10);
    const Graph g = weighted(b, 430);
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8}) {
        auto plan = ExecutionPlan::build(g, {mode, KernelIsa::Auto});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        std::vector<Tensor> inputs, want;
        for (int t = 0; t < 3; ++t) {
            inputs.push_back(randomInput(
                {8, 65, 65}, 431u + static_cast<std::uint64_t>(t)));
            want.push_back(
                runBatchWithTeam(*plan, {inputs.back()}, nullptr)[0]);
        }
        HelperPool pool(3);
        std::atomic<int> mismatches{0};
        std::vector<std::thread> callers;
        for (int t = 0; t < 3; ++t) {
            callers.emplace_back([&, t] {
                HelperPool::Lane &lane = pool.lane(t);
                PlanContext context = plan->makeContext();
                context.setTeam(&lane);
                Tensor out(plan->outputShape());
                const Tensor &in = inputs[static_cast<std::size_t>(t)];
                const Tensor &expect = want[static_cast<std::size_t>(t)];
                for (int r = 0; r < 8; ++r) {
                    lane.enter();
                    plan->run(in.data(), out.data(), context);
                    lane.leave();
                    for (std::int64_t v = 0; v < out.numel(); ++v)
                        if (std::bit_cast<std::uint32_t>(out[v]) !=
                            std::bit_cast<std::uint32_t>(expect[v]))
                            ++mismatches;
                }
            });
        }
        for (std::thread &caller : callers)
            caller.join();
        EXPECT_EQ(mismatches.load(), 0) << precisionModeName(mode);
    }
}

// ----------------------------------------------------------- gemm kernels

TEST(Gemm, MatchesNaiveTripleLoop)
{
    Rng rng(55);
    const std::int64_t m = 9, k = 300, n = 17;
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> bm(static_cast<std::size_t>(k * n));
    for (float &v : a)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float &v : bm)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    kernelTable().gemmRowMajor(a.data(), k, bm.data(), n, c.data(), n, m,
                               k, n);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<double>(
                           a[static_cast<std::size_t>(i * k + p)]) *
                       bm[static_cast<std::size_t>(p * n + j)];
            ASSERT_NEAR(c[static_cast<std::size_t>(i * n + j)], acc,
                        1e-3)
                << i << "," << j;
        }
    }
}

TEST(Gemm, ColumnResultsIndependentOfWidth)
{
    // The determinism contract: a column's result does not depend on
    // how many columns ride in the call (the batched path relies on
    // bit-identity here).
    Rng rng(66);
    const std::int64_t m = 5, k = 700, n = 13;
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> bm(static_cast<std::size_t>(k * n));
    for (float &v : a)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float &v : bm)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> wide(static_cast<std::size_t>(m * n));
    kernelTable().gemmRowMajor(a.data(), k, bm.data(), n, wide.data(), n,
                               m, k, n);
    // One column at a time, reading the same strided B.
    for (std::int64_t j = 0; j < n; ++j) {
        std::vector<float> narrow(static_cast<std::size_t>(m));
        kernelTable().gemmRowMajor(a.data(), k, bm.data() + j, n,
                                   narrow.data(), 1, m, k, 1);
        for (std::int64_t i = 0; i < m; ++i)
            ASSERT_EQ(narrow[static_cast<std::size_t>(i)],
                      wide[static_cast<std::size_t>(i * n + j)])
                << i << "," << j;
    }
}

TEST(Im2col, ResolvesPaddingAtPackTime)
{
    // 1 channel 3x3 image, 3x3 kernel, pad 1: the center column (output
    // position 1,1) is the whole image; corners carry pad zeros.
    std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<float> cols(9 * 9, -1.0f);
    kernelTable().im2colChw(img.data(), 1, 3, 3, 3, 3, 1, 1, 3, 3,
                            cols.data(), 9, 0.0f);
    // Row of tap (ky=1, kx=1) (the center tap) is the image itself.
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(cols[static_cast<std::size_t>(4 * 9 + i)],
                  img[static_cast<std::size_t>(i)]);
    // Tap (0,0) at output (0,0) reads the padded corner.
    EXPECT_EQ(cols[0], 0.0f);
    // Tap (0,0) at output (2,2) reads image (1,1) = 5.
    EXPECT_EQ(cols[8], 5.0f);
}

} // namespace
} // namespace fpsa
