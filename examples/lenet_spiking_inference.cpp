/**
 * @file
 * End-to-end functional demo: a LeNet-style CNN is trained... no --
 * weights are randomized, then the *whole stack* runs for real:
 *
 *   float reference  ->  neural synthesizer (core-op graph with
 *   quantized weights)  ->  spatial-to-temporal mapper (PE assignment,
 *   Algorithm-1 schedule)  ->  spiking cycle simulation on real
 *   IF-neuron PEs  ->  outputs compared against the float reference.
 *
 * This is the deepest validation path in the repository: every spike
 * is individually integrated by the neuron model of paper Eq. 1-6.
 * The same model is then compiled into a `CompiledModel` and served
 * through `fpsa::Engine`'s spiking backend, which must agree with the
 * count-domain execution the cycle simulation validates.
 */

#include <cmath>
#include <iostream>
#include <memory>

#include "fpsa.hh"

using namespace fpsa;

int
main()
{
    // A reduced LeNet (smaller maps keep the spiking sim quick).
    GraphBuilder b({1, 12, 12});
    b.conv(6, 3, 1, 0).relu().maxPool(2, 2);
    b.conv(8, 3, 1, 0).relu();
    b.flatten().fc(10).relu();
    Graph model = b.build();

    Rng rng(2024);
    randomizeWeights(model, rng);

    // A deterministic test image.
    Tensor image({1, 12, 12});
    for (std::int64_t i = 0; i < image.numel(); ++i)
        image[i] = 0.5f + 0.5f * std::sin(static_cast<float>(i) * 0.37f);

    // Float reference.
    const Tensor reference = relu(runGraphFinal(model, image));

    // Synthesize to core-ops (6-bit spike counts, 8-bit add weights).
    FunctionalSynthesis synth = synthesizeFunctional(model, image).value();
    std::cout << "core-op graph: " << synth.coreOps.size() << " core-ops, "
              << synth.coreOps.groupCount() << " weight groups\n";

    // Map: duplication 4, PE assignment, Algorithm-1 schedule.
    const auto dup = duplicationForGraph(synth.coreOps, 4);
    const auto [assignment, pe_count] = assignPes(synth.coreOps, dup);
    ScheduleResult schedule =
        scheduleCoreOps(synth.coreOps, assignment, 64);
    const std::string violation =
        validateSchedule(synth.coreOps, assignment, schedule, 64);
    std::cout << "schedule: " << pe_count << " PEs, makespan "
              << schedule.makespan << " cycles, "
              << schedule.buffersUsed << " buffered edges, constraints "
              << (violation.empty() ? "OK" : violation.c_str()) << "\n";

    // Control program (CLB work) and netlist, for completeness.
    ControlProgram control =
        generateControl(synth.coreOps, assignment, schedule, 64);
    Netlist netlist = netlistFromSchedule(synth.coreOps, assignment,
                                          pe_count, schedule);
    std::cout << "control: " << control.events.size() << " events on "
              << control.clbsNeeded << " CLBs; netlist "
              << netlist.blocks().size() << " blocks / "
              << netlist.nets().size() << " nets\n";

    // Spiking execution on real PEs.
    const auto input_counts = encodeInputCounts(synth, image);
    CycleSimResult sim = simulateSpiking(synth, assignment, pe_count,
                                         schedule, input_counts);
    const auto values = decodeOutputValues(synth, sim.outputCounts);

    std::cout << "\nspiking sim: " << sim.cycles << " cycles ("
              << fmtDouble(sim.wallTime / 1000.0, 2) << " us modeled), "
              << fmtEng(sim.energy * 1e-12) << " J, "
              << sim.neuronFires << " neuron fires, PE utilization "
              << fmtDouble(sim.avgPeUtilization, 3) << "\n";

    std::cout << "\nlogit comparison (float reference vs spiking):\n";
    double max_err = 0.0;
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
        const double err =
            std::fabs(reference[i] - values[static_cast<std::size_t>(i)]);
        max_err = std::max(max_err, err);
        std::cout << "  class " << i << ": " << fmtDouble(reference[i], 4)
                  << " vs " << fmtDouble(values[static_cast<std::size_t>(
                                             i)], 4)
                  << "\n";
    }
    std::cout << "max abs error " << fmtDouble(max_err, 4)
              << " (6-bit spike counts quantize to "
              << fmtDouble(synth.outputScale / 64.0, 4)
              << " per count)\n";

    // Both executions should pick the same class.
    std::int64_t ref_best = 0, sim_best = 0;
    for (std::int64_t i = 1; i < reference.numel(); ++i) {
        if (reference[i] > reference[ref_best])
            ref_best = i;
        if (values[static_cast<std::size_t>(i)] >
            values[static_cast<std::size_t>(sim_best)])
            sim_best = i;
    }
    std::cout << "argmax: reference class " << ref_best
              << ", spiking class " << sim_best
              << (ref_best == sim_best ? " (match)" : " (MISMATCH)")
              << "\n";
    if (ref_best != sim_best)
        return 1;

    // Serve the same model through the runtime's spiking backend: the
    // engine lowers the CompiledModel through the synthesizer once and
    // answers requests in the PE's exact count domain.
    CompileOptions compile_options;
    compile_options.duplicationDegree = 4;
    Pipeline pipeline(model, compile_options);
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile failed: " << compiled.status().toString()
                  << "\n";
        return 1;
    }
    EngineOptions serving;
    serving.workerThreads = 2;
    auto engine = Engine::create(ChipCapacity::unlimited(), serving);
    if (!engine.ok()) {
        std::cerr << "engine failed: " << engine.status().toString()
                  << "\n";
        return 1;
    }
    TenantOptions spiking;
    spiking.execution = ExecutionConfig{ExecutorKind::Spiking};
    if (Status s = (*engine)->loadModel(
            "lenet",
            std::make_shared<CompiledModel>(std::move(compiled).value()),
            spiking);
        !s.ok()) {
        std::cerr << "load failed: " << s.toString() << "\n";
        return 1;
    }
    auto served = (*engine)->infer("lenet", image);
    if (!served.ok()) {
        std::cerr << "inference failed: " << served.status().toString()
                  << "\n";
        return 1;
    }
    std::int64_t served_best = 0;
    for (std::int64_t i = 1; i < served->output.numel(); ++i) {
        if (served->output[i] > served->output[served_best])
            served_best = i;
    }
    std::cout << "\nengine (spiking backend): class " << served_best
              << " in " << fmtDouble(served->execMillis, 2)
              << " ms wall, modeled "
              << fmtDouble(served->modeledLatency / 1000.0, 2)
              << " us on-chip"
              << (served_best == ref_best ? " (match)" : " (MISMATCH)")
              << "\n";
    return served_best == ref_best ? 0 : 1;
}
