/**
 * @file
 * Ablation studies for the design choices the paper argues in
 * Sections 4.1, 7.1 and 7.2 (README, "Evaluation models"):
 *
 *  1. Spike trains vs spike counts on the wires (Sec. 7.1): end-to-end
 *     latency and buffer-bit trade for the NBD streaming pattern.
 *  2. Routed channel width (Sec. 4.1): how much wiring the massive
 *     fabric actually needs before congestion stretches delays.
 *  3. Cells per weight with the add method (Sec. 7.2): accuracy vs
 *     crossbar area.
 *  4. Buffer insertion (Algorithm 1): schedule makespan with forced
 *     buffering vs negotiated NBD streaming.
 */

#include <iostream>

#include "fpsa.hh"

using namespace fpsa;

namespace
{

void
ablateTrainVsCount()
{
    std::cout << "==== Ablation 1 (Sec. 7.1): transmit spike trains vs "
                 "spike counts ====\n";
    const int n_bits = 6;
    const std::uint32_t window = 1u << n_bits;
    Table t({"Scheme", "Traffic (bits/value)", "NBD start lag (cycles)",
             "Buffer per value (bits)", "End-to-end gain"});
    // Trains: consumer starts 1 cycle behind; 1-bit latch per wire.
    t.addRow({"spike trains (FPSA)", std::to_string(window), "1", "1",
              fmtDouble(static_cast<double>(window) / 1.0, 0) +
                  "x lower NBD latency"});
    // Counts: consumer waits the full window; n-bit register per value.
    t.addRow({"spike counts (PipeLayer-style)", std::to_string(n_bits),
              std::to_string(window), std::to_string(n_bits),
              std::to_string(n_bits) + "x more buffer"});
    t.print(std::cout);
    std::cout << "Paper: trains win 2^n x on NBD latency and n x on "
                 "buffers, costing 2^n/n x traffic -- affordable on the "
                 "dedicated fabric.\n\n";
}

void
ablateChannelWidth()
{
    std::cout << "==== Ablation 2 (Sec. 4.1): channel width vs routed "
                 "delay ====\n";
    // A congested 16-block all-to-neighbour netlist.
    Rng rng(5);
    Netlist nl;
    std::vector<BlockId> pes;
    for (int i = 0; i < 16; ++i)
        pes.push_back(nl.addBlock(BlockType::Pe, "pe"));
    for (int i = 0; i < 16; ++i)
        nl.addNet("n", pes[static_cast<std::size_t>(i)],
                  {pes[static_cast<std::size_t>((i + 3) % 16)],
                   pes[static_cast<std::size_t>((i + 7) % 16)]},
                  128);

    Table t({"Channel width (tracks)", "Routed", "Avg net delay (ns)",
             "Peak utilization"});
    for (int cw : {128, 256, 512, 1024, 2048}) {
        PnrOptions opt;
        opt.fullRoute = true;
        opt.channelWidth = cw;
        const PnrResult r = runPnr(nl, opt).value();
        t.addRow({std::to_string(cw), r.routed ? "yes" : "NO",
                  fmtDouble(r.timing.avgNetDelay, 2),
                  r.routing ? fmtDouble(
                                  r.routing->peakChannelUtilization, 2)
                            : "-"});
    }
    t.print(std::cout);
    std::cout << "Narrow channels force detours (or fail); the paper's "
                 "massive wiring keeps nets near their Manhattan "
                 "minimum.\n\n";
}

void
ablateCellsPerWeight()
{
    std::cout << "==== Ablation 3 (Sec. 7.2): add-method cells per "
                 "weight ====\n";
    AnalyticAccuracyModel model;
    const PeParams &pe = TechnologyLibrary::fpsa45().pe;
    Table t({"Cells/weight", "Normalized accuracy (VGG16-scale)",
             "ReRAM mat area share of PE"});
    for (int k : {1, 2, 4, 8, 16}) {
        // Mats scale linearly with cells per weight (8 -> Table 1 area).
        const double mat_area = pe.reramAreaTotal * k / 8.0;
        const double pe_area =
            pe.peArea - pe.reramAreaTotal + mat_area;
        t.addRow({std::to_string(k),
                  fmtDouble(model.normalizedAccuracy(WeightMethod::Add, 4,
                                                     k), 3),
                  fmtDouble(mat_area / pe_area * 100.0, 1) + "%"});
    }
    t.print(std::cout);
    std::cout << "8 cells (the paper's pick) buys ~0.95 normalized "
                 "accuracy for a modest mat-area share; 16 adds little."
                 "\n\n";
}

void
ablateBufferInsertion()
{
    std::cout << "==== Ablation 4 (Algorithm 1): NBD streaming vs "
                 "all-buffered schedules ====\n";
    // Functional CNN lowering scheduled two ways.
    GraphBuilder b({1, 10, 10});
    b.conv(6, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(6);
    randomizeWeights(g, rng);
    Tensor x({1, 10, 10});
    x.fill(0.5f);
    FunctionalSynthesis synth = synthesizeFunctional(g, x).value();

    Table t({"Duplication", "PEs", "Makespan (cycles)", "Buffers",
             "Makespan if fully buffered (lower bound)"});
    for (std::int64_t dup : {1, 4, 16}) {
        const auto d = duplicationForGraph(synth.coreOps, dup);
        const auto [assign, pes] = assignPes(synth.coreOps, d);
        const ScheduleResult sched =
            scheduleCoreOps(synth.coreOps, assign, 64);
        // Fully buffered lower bound: every edge costs a whole window
        // of separation, so depth x window is unavoidable.
        std::int64_t depth = 0;
        {
            std::vector<std::int64_t> d2(synth.coreOps.size(), 1);
            for (CoreOpId v = 0;
                 v < static_cast<CoreOpId>(synth.coreOps.size()); ++v) {
                for (const auto &in : synth.coreOps.op(v).inputs)
                    if (in.producer >= 0)
                        d2[static_cast<std::size_t>(v)] = std::max(
                            d2[static_cast<std::size_t>(v)],
                            d2[static_cast<std::size_t>(in.producer)] +
                                1);
                depth = std::max(depth,
                                 d2[static_cast<std::size_t>(v)]);
            }
        }
        t.addRow({std::to_string(dup), std::to_string(pes),
                  std::to_string(sched.makespan),
                  std::to_string(sched.buffersUsed),
                  std::to_string(depth * 65)});
    }
    t.print(std::cout);
    std::cout << "NBD streaming starts consumers one cycle behind "
                 "producers; buffering only where RC forces it keeps "
                 "the makespan near the streaming optimum.\n";
}

void
ablatePeSize()
{
    std::cout << "\n==== Ablation 5 (Sec. 7.3): crossbar size vs spatial "
                 "utilization, GoogLeNet ====\n";
    // The paper observes pooling structures waste most cells of a
    // 256x256 PE (after synthesis the spatial bound sits far below
    // peak) and suggests heterogeneous PE scales as future work.
    Graph g = buildModel(ModelId::GoogLeNet);
    const PeParams &base = TechnologyLibrary::fpsa45().pe;
    Table t({"Crossbar", "Min PEs", "Spatial utilization",
             "Storage area (mm^2)"});
    // Crossbar size scopes to the synthesizer, so each sweep point
    // re-runs exactly the synthesis stage of one pipeline.
    Pipeline pipeline(g);
    for (int size : {64, 128, 256, 512}) {
        SynthOptions opt;
        opt.crossbarRows = size;
        opt.crossbarCols = size;
        pipeline.setSynthOptions(opt);
        auto synthesis = pipeline.synthesize();
        if (!synthesis.ok()) {
            std::cerr << "synthesis failed: "
                      << synthesis.status().toString() << "\n";
            continue;
        }
        const SynthesisSummary &s = **synthesis;
        const PeParams pe = base.scaledTo(size, size);
        t.addRow({std::to_string(size) + "x" + std::to_string(size),
                  std::to_string(s.minPes()),
                  fmtDouble(s.spatialUtilization(), 3),
                  fmtDouble(um2ToMm2(static_cast<double>(s.minPes()) *
                                     pe.peArea),
                            2)});
    }
    t.print(std::cout);
    std::cout << "Smaller crossbars fit the synthesizer's small aux "
                 "matrices (pooling, reductions) far better -- the "
                 "heterogeneous-PE direction the paper proposes.\n";
}

} // namespace

int
main()
{
    ablateTrainVsCount();
    ablateChannelWidth();
    ablateCellsPerWeight();
    ablateBufferInsertion();
    ablatePeSize();
    return 0;
}
