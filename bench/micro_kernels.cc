/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * crossbar current summation, spiking PE windows, SA placement moves,
 * PathFinder routing, synthesis and scheduling, plus the fp32 and int8
 * GEMMs of every kernel table the host can run.  These guard the
 * simulator's own performance (not the modeled hardware's).
 *
 * Run only the GEMMs with `--benchmark_filter=Gemm`; each row is
 * labelled with its kernel table and reports GFLOP/s (GOP/s for int8)
 * computed from the shape.  `--benchmark_filter='Gemm|Im2col|Quantize'`
 * adds the passes around a quantized conv's GEMM at VGG17's 96 x 16 x 16
 * 3 x 3 shape: fp32 im2col per table, int8 im2col and the activation
 * quantize, each reporting bytes written per second.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mapper/groups.hh"
#include "mapper/schedule.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "pe/processing_element.hh"
#include "pipeline.hh"
#include "pnr/pnr_flow.hh"
#include "reram/crossbar.hh"
#include "synth/synthesizer.hh"
#include "tensor/kernels.hh"

namespace
{

using namespace fpsa;

void
BM_CrossbarColumnCurrents(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    CrossbarParams params;
    params.rows = rows;
    params.logicalCols = rows;
    params.cell.variation = VariationModel::ideal();
    Crossbar xbar(params);
    Rng rng(1);
    std::vector<std::int32_t> w(
        static_cast<std::size_t>(rows) * rows, 60);
    xbar.programWeights(w, rng);
    std::vector<std::uint8_t> spikes(static_cast<std::size_t>(rows), 1);
    for (auto _ : state) {
        auto currents = xbar.columnCurrents(spikes);
        benchmark::DoNotOptimize(currents);
    }
    state.SetItemsProcessed(state.iterations() * rows * rows);
}
BENCHMARK(BM_CrossbarColumnCurrents)->Arg(64)->Arg(128)->Arg(256);

void
BM_PeWindow(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    PeConfig cfg;
    cfg.xbar.rows = rows;
    cfg.xbar.logicalCols = rows;
    cfg.xbar.cell.variation = VariationModel::ideal();
    cfg.carryResidual = true;
    ProcessingElement pe(cfg);
    Rng rng(2);
    pe.programWeights(
        std::vector<std::int32_t>(static_cast<std::size_t>(rows) * rows,
                                  30),
        rng);
    std::vector<std::uint32_t> x(static_cast<std::size_t>(rows), 32);
    for (auto _ : state) {
        auto result = pe.computeWindow(x);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 64 * rows * rows);
}
BENCHMARK(BM_PeWindow)->Arg(32)->Arg(64)->Arg(128);

void
BM_SynthesizeVgg16Summary(benchmark::State &state)
{
    Graph graph = buildModel(ModelId::Vgg16);
    for (auto _ : state) {
        auto summary = synthesizeSummary(graph);
        benchmark::DoNotOptimize(summary);
    }
}
BENCHMARK(BM_SynthesizeVgg16Summary);

void
BM_PipelineSweepPoint(benchmark::State &state)
{
    // The design-space-sweep hot path: one sweep point = invalidate
    // mapping onward, re-run map + evaluate on the cached synthesis.
    Graph graph = buildModel(ModelId::Vgg16);
    Pipeline pipeline(graph);
    pipeline.evaluate(); // warm the synthesis cache outside the timing
    std::int64_t degree = 1;
    for (auto _ : state) {
        degree = degree >= 64 ? 1 : degree * 4;
        pipeline.setDuplicationDegree(degree);
        auto eval = pipeline.evaluate();
        benchmark::DoNotOptimize(eval);
    }
}
BENCHMARK(BM_PipelineSweepPoint)->Unit(benchmark::kMillisecond);

void
BM_PlaceAndRouteChain(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Netlist nl;
    std::vector<BlockId> pes;
    for (int i = 0; i < n; ++i)
        pes.push_back(nl.addBlock(BlockType::Pe, "pe"));
    for (int i = 0; i + 1 < n; ++i)
        nl.addNet("n", pes[static_cast<std::size_t>(i)],
                  {pes[static_cast<std::size_t>(i + 1)]}, 64);
    PnrOptions opt;
    opt.fullRoute = true;
    for (auto _ : state) {
        auto result = runPnr(nl, opt);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_PlaceAndRouteChain)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_ScheduleFunctionalCnn(benchmark::State &state)
{
    GraphBuilder b({1, 10, 10});
    b.conv(6, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(3);
    randomizeWeights(g, rng);
    Tensor x({1, 10, 10});
    x.fill(0.5f);
    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    const auto dup = duplicationForGraph(synth.coreOps, 4);
    for (auto _ : state) {
        auto [assign, pes] = assignPes(synth.coreOps, dup);
        auto sched = scheduleCoreOps(synth.coreOps, assign, 64);
        benchmark::DoNotOptimize(sched);
    }
}
BENCHMARK(BM_ScheduleFunctionalCnn)->Unit(benchmark::kMicrosecond);

void
BM_RunCoreOpsCnn(benchmark::State &state)
{
    GraphBuilder b({1, 10, 10});
    b.conv(6, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(4);
    randomizeWeights(g, rng);
    Tensor x({1, 10, 10});
    x.fill(0.5f);
    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();
    const auto counts = encodeInputCounts(synth, x);
    for (auto _ : state) {
        auto out = runCoreOps(synth, counts);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_RunCoreOpsCnn)->Unit(benchmark::kMicrosecond);

/**
 * GEMM shapes (m, k, n) of the served models: the VGG17 convolutions
 * of perfbench's `convnet` workload, then 96 x 864 at n = 4 and 12
 * (n % 8 != 0: the int8 madd tiles' tail columns), the fleet CNN's,
 * then LeNet's first fc layer at batch 1 and 4 through 8 (around the
 * VNNI table's row-count crossover).
 */
constexpr std::int64_t kGemmShapes[][3] = {
    {48, 432, 1024}, {96, 864, 256},  {96, 864, 64},  {96, 864, 16},
    {96, 864, 4},    {96, 864, 12},   {32, 27, 16384}, {64, 288, 4096},
    {64, 576, 1024}, {1, 800, 500},   {4, 800, 500},   {5, 800, 500},
    {6, 800, 500},   {7, 800, 500},   {8, 800, 500},
};

constexpr KernelIsa kGemmIsas[] = {KernelIsa::Scalar, KernelIsa::Avx2,
                                   KernelIsa::AvxVnni, KernelIsa::Neon};

/** Args {isa, m, k, n} for every available table and every shape. */
void
gemmArgs(benchmark::internal::Benchmark *b)
{
    for (KernelIsa isa : kGemmIsas) {
        if (!kernelIsaAvailable(isa))
            continue;
        for (const auto &shape : kGemmShapes)
            b->Args({static_cast<std::int64_t>(isa), shape[0], shape[1],
                     shape[2]});
    }
    b->ArgNames({"isa", "m", "k", "n"});
}

/** Label the row with its table and report 2mkn ops per iteration. */
void
reportGemm(benchmark::State &state, const KernelTable &table,
           const char *unit, std::int64_t m, std::int64_t k,
           std::int64_t n)
{
    state.SetLabel(kernelIsaName(table.isa));
    state.counters[unit] = benchmark::Counter(
        2e-9 * static_cast<double>(m * k * n),
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_GemmFp32(benchmark::State &state)
{
    const KernelTable &table =
        kernelTable(static_cast<KernelIsa>(state.range(0)));
    const std::int64_t m = state.range(1), k = state.range(2),
                       n = state.range(3);
    Rng rng(5);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (float &v : a)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float &v : b)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto _ : state) {
        table.gemmRowMajor(a.data(), k, b.data(), n, c.data(), n, m, k,
                           n);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    reportGemm(state, table, "GFLOP/s", m, k, n);
}
BENCHMARK(BM_GemmFp32)->Apply(gemmArgs)->Unit(benchmark::kMicrosecond);

void
BM_GemmInt8(benchmark::State &state)
{
    const KernelTable &table =
        kernelTable(static_cast<KernelIsa>(state.range(0)));
    const std::int64_t m = state.range(1), k = state.range(2),
                       n = state.range(3);
    Rng rng(6);
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    for (std::int8_t &v : a)
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.uniformInt(255)) - 127);
    for (std::int8_t &v : b)
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.uniformInt(255)) - 127);
    for (auto _ : state) {
        table.gemmInt8(a.data(), k, b.data(), n, c.data(), n, m, k, n);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    reportGemm(state, table, "GOP/s", m, k, n);
}
BENCHMARK(BM_GemmInt8)->Apply(gemmArgs)->Unit(benchmark::kMicrosecond);

/**
 * VGG17's 96-channel 16 x 16 layers: a same-padded stride-1 3 x 3
 * conv, whose im2col rows are shifted copies of the input planes.
 */
constexpr std::int64_t kIm2colC = 96, kIm2colH = 16, kIm2colK = 3;
constexpr std::int64_t kIm2colRows = kIm2colC * kIm2colK * kIm2colK;
constexpr std::int64_t kIm2colCols = kIm2colH * kIm2colH;

/** Args {isa} for every available table. */
void
tableArgs(benchmark::internal::Benchmark *b)
{
    for (KernelIsa isa : kGemmIsas)
        if (kernelIsaAvailable(isa))
            b->Arg(static_cast<std::int64_t>(isa));
    b->ArgNames({"isa"});
}

void
BM_Im2colFp32(benchmark::State &state)
{
    const KernelTable &table =
        kernelTable(static_cast<KernelIsa>(state.range(0)));
    Rng rng(7);
    std::vector<float> in(
        static_cast<std::size_t>(kIm2colC * kIm2colCols));
    for (float &v : in)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> cols(
        static_cast<std::size_t>(kIm2colRows * kIm2colCols));
    for (auto _ : state) {
        table.im2colChw(in.data(), kIm2colC, kIm2colH, kIm2colH,
                        kIm2colK, kIm2colK, 1, 1, kIm2colH, kIm2colH,
                        cols.data(), kIm2colCols, 0.0f);
        benchmark::DoNotOptimize(cols.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(kernelIsaName(table.isa));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(cols.size()) *
                            static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_Im2colFp32)->Apply(tableArgs)->Unit(benchmark::kMicrosecond);

void
BM_Im2colInt8(benchmark::State &state)
{
    Rng rng(8);
    std::vector<std::int8_t> in(
        static_cast<std::size_t>(kIm2colC * kIm2colCols));
    for (std::int8_t &v : in)
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.uniformInt(255)) - 127);
    std::vector<std::int8_t> cols(
        static_cast<std::size_t>(kIm2colRows * kIm2colCols));
    for (auto _ : state) {
        im2colChwInt8(in.data(), kIm2colC, kIm2colH, kIm2colH, kIm2colK,
                      kIm2colK, 1, 1, kIm2colH, kIm2colH, cols.data(),
                      kIm2colCols);
        benchmark::DoNotOptimize(cols.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(cols.size()));
}
BENCHMARK(BM_Im2colInt8)->Unit(benchmark::kMicrosecond);

/** One conv input's activation quantize, as the int8 plan runs it. */
void
BM_QuantizeInt8(benchmark::State &state)
{
    Rng rng(9);
    std::vector<float> in(
        static_cast<std::size_t>(kIm2colC * kIm2colCols));
    for (float &v : in)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<std::int8_t> out(in.size());
    const auto n = static_cast<std::int64_t>(in.size());
    for (auto _ : state) {
        const float mult = 127.0f / absMaxOf(in.data(), n);
        quantizeTo(in.data(), out.data(), n, mult, 127);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuantizeInt8)->Unit(benchmark::kMicrosecond);

} // namespace

/**
 * google-benchmark's main, after one line naming the kernel tables
 * this host can run, each vector one with its register width, and those
 * it cannot: a GEMM row missing for a table means the table went
 * untested here, and the line says so up front.  The width tells which
 * `avxvnni` table ran: 512 means the AVX-512 tiles, 256 the AVX-VNNI
 * ones (on such a runner the 512-bit tiles went untested, and on a
 * 512-bit runner the VEX int8 GEMM did).
 */
int
main(int argc, char **argv)
{
    std::string have, missing;
    for (KernelIsa isa : kGemmIsas) {
        std::string &list = kernelIsaAvailable(isa) ? have : missing;
        list += std::string(" ") + kernelIsaName(isa);
        const int bits = kernelTable(isa).vectorBits;
        if (kernelIsaAvailable(isa) && bits > 0) {
            list += '(';
            list += std::to_string(bits);
            list += "-bit)";
        }
    }
    std::printf("kernel tables available:%s; unavailable:%s\n",
                have.c_str(), missing.empty() ? " none" : missing.c_str());
    std::fflush(stdout);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
