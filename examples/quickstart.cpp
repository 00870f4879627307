/**
 * @file
 * Quickstart: define a network with the builder API, compile it with
 * the staged `Pipeline` API, read each stage's artifact, then freeze
 * it into a `CompiledModel` and serve it with the concurrent `Engine`
 * (compile once -> save -> load -> submit).
 *
 *   $ ./quickstart
 */

#include <cstdio>
#include <iostream>

#include "fpsa.hh"

using namespace fpsa;

int
main()
{
    // 1. Describe the network (a small CIFAR-style CNN).
    GraphBuilder b({3, 32, 32});
    b.convRelu(32, 3, 1, 1)
        .convRelu(32, 3, 1, 1)
        .maxPool(2, 2)
        .convRelu(64, 3, 1, 1)
        .maxPool(2, 2)
        .flatten()
        .fc(10);
    Graph model = b.build();

    std::cout << "model: " << fmtEng(static_cast<double>(
                                  model.weightCount()))
              << " weights, "
              << fmtEng(static_cast<double>(model.opCount()))
              << " ops per sample\n";

    // 2. Build the pipeline: synthesizer -> mapper -> evaluation.
    //    Stages run on demand and cache their artifacts; errors come
    //    back as Status values instead of aborts.
    CompileOptions options;
    options.duplicationDegree = 16;
    Pipeline pipeline(model, options);

    // 3. Walk the stages and inspect what each one produced.
    auto synthesis = pipeline.synthesize();
    if (!synthesis.ok()) {
        std::cerr << "synthesis failed: "
                  << synthesis.status().toString() << "\n";
        return 1;
    }
    std::cout << "\nsynthesis: " << (*synthesis)->groups.size()
              << " weight groups, min " << (*synthesis)->minPes()
              << " PEs, spatial utilization "
              << fmtDouble((*synthesis)->spatialUtilization(), 3)
              << "\n";

    auto mapped = pipeline.map();
    if (!mapped.ok()) {
        std::cerr << "mapping failed: " << mapped.status().toString()
                  << "\n";
        return 1;
    }
    std::cout << "allocation: " << (*mapped)->allocation.totalPes
              << " PEs, " << (*mapped)->allocation.smbBlocks << " SMBs, "
              << (*mapped)->allocation.clbBlocks << " CLBs ("
              << (*mapped)->allocation.duplicationDegree
              << "x duplication)\n";
    std::cout << "netlist: " << (*mapped)->netlist.blocks().size()
              << " blocks, " << (*mapped)->netlist.nets().size()
              << " nets\n";

    auto eval = pipeline.evaluate();
    if (!eval.ok()) {
        std::cerr << "evaluation failed: " << eval.status().toString()
                  << "\n";
        return 1;
    }
    const PerfReport &perf = (*eval)->performance;
    const EnergyReport &energy = (*eval)->energy;

    std::cout << "\nperformance:\n";
    std::cout << "  throughput " << fmtEng(perf.throughput)
              << " samples/s\n";
    std::cout << "  latency    "
              << fmtDouble(perf.latency / 1000.0, 2) << " us\n";
    std::cout << "  area       " << fmtDouble(perf.area, 2) << " mm^2\n";
    std::cout << "  energy     " << fmtEng(energy.perSample() * 1e-12)
              << " J/sample ("
              << fmtDouble(energy.wattsAt(perf.throughput), 2)
              << " W at full rate)\n";

    // 4. Re-evaluating under a changed evaluation knob reuses the
    //    synthesis and mapping caches (see duplication_sweep for a full
    //    design-space sweep).
    FpsaPerfOptions ideal = options.perf;
    ideal.wireDelayPerBit = 0.0;
    pipeline.setPerfOptions(ideal);
    auto bound = pipeline.evaluate();
    if (bound.ok()) {
        std::cout << "\nideal-wire bound: "
                  << fmtEng((*bound)->performance.throughput)
                  << " samples/s (synthesize ran "
                  << pipeline.stats(Stage::Synthesize).runs
                  << "x total)\n";
    }

    // 5. Freeze the compile into a deployable artifact and serve it.
    //    compile() needs real weights; save/load shows the
    //    compile-once / serve-many split (load() in a fresh process
    //    skips the whole compile stack).
    Rng rng(7);
    randomizeWeights(model, rng);
    Pipeline serving_pipeline(model, options);
    auto compiled = serving_pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile failed: " << compiled.status().toString()
                  << "\n";
        return 1;
    }
    const std::string artifact = "quickstart.fpsa.json";
    if (Status s = compiled->save(artifact); !s.ok()) {
        std::cerr << "save failed: " << s.toString() << "\n";
        return 1;
    }
    auto loaded = CompiledModel::load(artifact);
    if (!loaded.ok()) {
        std::cerr << "load failed: " << loaded.status().toString() << "\n";
        return 1;
    }
    std::cout << "\ncompiled artifact: " << artifact << " (input "
              << shapeToString(loaded->inputShape()) << ", "
              << loaded->performance().pes << " PEs)\n";

    EngineOptions serving;
    serving.workerThreads = 2;
    serving.maxBatch = 4;
    auto engine = Engine::create(
        std::make_shared<CompiledModel>(std::move(loaded).value()),
        serving);
    if (!engine.ok()) {
        std::cerr << "engine failed: " << engine.status().toString()
                  << "\n";
        return 1;
    }

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 8; ++i) {
        Tensor image({3, 32, 32});
        image.fill(static_cast<float>(i) / 8.0f);
        futures.push_back((*engine)->submit(std::move(image)));
    }
    for (auto &f : futures) {
        auto r = f.get();
        if (!r.ok()) {
            std::cerr << "inference failed: " << r.status().toString()
                      << "\n";
            return 1;
        }
    }
    auto one = (*engine)->infer(Tensor({3, 32, 32}));
    if (!one.ok()) {
        std::cerr << "inference failed: " << one.status().toString()
                  << "\n";
        return 1;
    }
    std::cout << "served " << ((*engine)->stats().completed)
              << " requests; modeled "
              << fmtDouble(one->modeledLatency / 1000.0, 2)
              << " us and " << fmtEng(one->modeledEnergy * 1e-12)
              << " J per sample on-chip\n";
    std::cout << "engine stats: " << (*engine)->statsJson() << "\n";
    std::remove(artifact.c_str());
    return 0;
}
