/**
 * @file
 * Multi-tenant quickstart: serve a LeNet-class CNN (spiking backend)
 * and an MLP (reference backend) concurrently from ONE engine sharing
 * one chip's budget, then demonstrate the two runtime-management
 * paths the registry enables:
 *
 *  - admission control: a third, over-duplicated model is rejected as
 *    Infeasible with a per-resource breakdown (PE/SMB/CLB/routing);
 *  - hot swap: the MLP is unloaded mid-traffic -- its inflight
 *    requests drain, the CNN keeps serving, and the freed budget
 *    admits the previously rejected model.
 *
 *   $ ./multi_tenant_serving
 */

#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "fpsa.hh"

using namespace fpsa;

namespace
{

/** LeNet-class CNN (28x28 input), the spiking-family tenant. */
Graph
lenetModel()
{
    GraphBuilder b({1, 28, 28});
    b.conv(6, 5, 1, 0).relu().maxPool(2, 2);
    b.conv(16, 5, 1, 0).relu().maxPool(2, 2);
    b.flatten().fc(120).relu().fc(84).relu().fc(10);
    Graph g = b.build();
    Rng rng(2019);
    randomizeWeights(g, rng);
    return g;
}

/** A small MLP tenant (16x16 input). */
Graph
mlpModel()
{
    GraphBuilder b({1, 16, 16});
    b.flatten().fc(64).relu().fc(32).relu().fc(10);
    Graph g = b.build();
    Rng rng(7);
    randomizeWeights(g, rng);
    return g;
}

std::shared_ptr<const CompiledModel>
compile(Graph g, std::int64_t duplication)
{
    CompileOptions options;
    options.duplicationDegree = duplication;
    Pipeline pipeline(std::move(g), options);
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile failed: " << compiled.status().toString()
                  << "\n";
        std::exit(1);
    }
    return std::make_shared<CompiledModel>(std::move(compiled).value());
}

Tensor
sample(const Shape &shape, int id)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 1)) % 97) / 97.0f;
    return t;
}

void
printDemand(const char *name, const ResourceDemand &d)
{
    std::cout << "  " << name << ": " << d.peBlocks << " PE, "
              << d.smbBlocks << " SMB, " << d.clbBlocks << " CLB, "
              << d.routingTracks << " routing tracks\n";
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);

    // 1. Compile the tenants (in production these arrive as saved
    //    .fpsa.json artifacts; see quickstart.cpp for save/load).
    auto lenet = compile(lenetModel(), 4);
    auto mlp = compile(mlpModel(), 2);
    auto lenet_wide = compile(lenetModel(), 64); // the over-budget one

    std::cout << "resource demand (stamped by Pipeline::compile):\n";
    printDemand("lenet x4", lenet->resourceDemand());
    printDemand("mlp x2", mlp->resourceDemand());
    printDemand("lenet x64", lenet_wide->resourceDemand());

    // 2. Size a chip that fits lenet + mlp (and, once the mlp leaves,
    //    lenet + the 64x variant) but NOT all three at once:
    //    capacity = lenet + lenet_wide + half of mlp, per resource.
    const ResourceDemand &dl = lenet->resourceDemand();
    const ResourceDemand &dm = mlp->resourceDemand();
    const ResourceDemand &dw = lenet_wide->resourceDemand();
    ChipCapacity capacity;
    capacity.peBlocks = dl.peBlocks + dw.peBlocks + dm.peBlocks / 2;
    capacity.smbBlocks = dl.smbBlocks + dw.smbBlocks + dm.smbBlocks / 2;
    capacity.clbBlocks = dl.clbBlocks + dw.clbBlocks + dm.clbBlocks / 2;
    capacity.routingTracks =
        dl.routingTracks + dw.routingTracks + dm.routingTracks / 2;
    std::cout << "\nchip budget: " << capacity.peBlocks << " PE, "
              << capacity.smbBlocks << " SMB, " << capacity.clbBlocks
              << " CLB, " << capacity.routingTracks
              << " routing tracks\n";

    // 3. One engine, two tenants, two different backends.
    EngineOptions options;
    options.workerThreads = 4;
    options.maxBatch = 8;
    auto engine = Engine::create(capacity, options);
    if (!engine.ok()) {
        std::cerr << "engine: " << engine.status().toString() << "\n";
        return 1;
    }
    TenantOptions spiking;
    spiking.execution = ExecutionConfig{ExecutorKind::Spiking};
    if (Status s = (*engine)->loadModel("lenet", lenet, spiking); !s.ok()) {
        std::cerr << "load lenet: " << s.toString() << "\n";
        return 1;
    }
    if (Status s = (*engine)->loadModel("mlp", mlp); !s.ok()) {
        std::cerr << "load mlp: " << s.toString() << "\n";
        return 1;
    }

    // 4. Admission control: the 64x LeNet does not fit next to them.
    Status rejected = (*engine)->loadModel("lenet-wide", lenet_wide);
    std::cout << "\nadmission of 64x LeNet -> "
              << statusCodeName(rejected.code()) << "\n  "
              << rejected.message() << "\n";

    // 5. Serve both tenants concurrently; batches never mix tenants.
    constexpr int kPerTenant = 64;
    std::vector<std::future<StatusOr<InferenceResult>>> lenet_futures,
        mlp_futures;
    std::thread lenet_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            lenet_futures.push_back((*engine)->submit(
                "lenet", sample(lenet->inputShape(), i)));
    });
    std::thread mlp_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            mlp_futures.push_back(
                (*engine)->submit("mlp", sample(mlp->inputShape(), i)));
    });
    lenet_client.join();
    mlp_client.join();
    for (auto &f : lenet_futures) {
        if (auto r = f.get(); !r.ok()) {
            std::cerr << "lenet infer: " << r.status().toString() << "\n";
            return 1;
        }
    }

    // 6. Hot swap: unload the MLP while its requests are still being
    //    served -- they all drain; the LeNet tenant is untouched.
    Status unloaded = (*engine)->unloadModel("mlp");
    if (!unloaded.ok()) {
        std::cerr << "unload: " << unloaded.toString() << "\n";
        return 1;
    }
    int drained = 0;
    for (auto &f : mlp_futures) {
        if (auto r = f.get(); r.ok())
            ++drained;
    }
    std::cout << "\nhot swap: unloaded 'mlp' mid-traffic; " << drained
              << "/" << kPerTenant << " of its requests drained OK\n";

    // 7. The freed budget now admits the model rejected in step 4.
    Status readmitted = (*engine)->loadModel("lenet-wide", lenet_wide);
    std::cout << "re-admission of 64x LeNet after the swap -> "
              << (readmitted.ok() ? "OK"
                                  : readmitted.toString().c_str())
              << "\n";

    // 8. Per-tenant + aggregate + chip-utilization telemetry.
    auto lenet_stats = (*engine)->modelStats("lenet");
    if (lenet_stats.ok()) {
        std::cout << "\nlenet tenant: " << lenet_stats->completed
                  << " served, p95 queue wait "
                  << fmtDouble(lenet_stats->p95QueueMillis, 2)
                  << " ms, modeled "
                  << fmtDouble(lenet_stats->modeledLatency / 1000.0, 2)
                  << " us/sample on-chip\n";
    }
    std::cout << "engine report: " << (*engine)->statsJson() << "\n";
    return 0;
}
