/**
 * @file
 * Model-sharding walkthrough: serving a model that fits on NO single
 * chip of the fleet.
 *
 *  - `loadModel` first tries to replicate the model whole; every chip
 *    rejects it, so the cluster falls back to the `ModelPartitioner`,
 *    which cuts the layer chain at the cheapest activation edges and
 *    places the pieces as a chip-to-chip pipeline (a shard group).
 *  - Requests stream through the `ShardRouter`: each one reports how
 *    many shards served it and what the modeled interconnect charged
 *    for the cut tensors it crossed.
 *  - A `FaultInjector` fail-stops one of the pipeline's chips; health
 *    probes mark it Failed, and `repairOnce` fails the WHOLE group
 *    over to a re-placed pipeline on the surviving chips -- shard
 *    groups live and die as a unit, and accepted requests ride the
 *    retry path instead of being lost.
 *
 *   $ ./sharded_serving
 */

#include <future>
#include <iostream>
#include <vector>

#include "fpsa.hh"

using namespace fpsa;

namespace
{

/** LeNet-class CNN (28x28 input) -- "big" relative to our tiny chips. */
Graph
bigModel()
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

Tensor
sample(int id)
{
    Tensor t({1, 28, 28});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 1)) % 97) / 97.0f;
    return t;
}

/** ~`factor` of `demand`, the per-chip budget for this walkthrough. */
ChipCapacity
fractionOf(const ResourceDemand &demand, double factor)
{
    auto scale = [factor](std::int64_t units) {
        return std::max<std::int64_t>(
            1,
            static_cast<std::int64_t>(static_cast<double>(units) *
                                      factor) +
                1);
    };
    ChipCapacity c;
    c.peBlocks = scale(demand.peBlocks);
    c.smbBlocks = scale(demand.smbBlocks);
    c.clbBlocks = scale(demand.clbBlocks);
    c.routingTracks = scale(demand.routingTracks);
    return c;
}

void
printPipeline(const ClusterEngine &cluster, const char *name)
{
    std::cout << "  '" << name << "' pipeline: [";
    bool first = true;
    for (const std::string &chip : cluster.replicaChips(name)) {
        std::cout << (first ? "" : " -> ") << chip;
        first = false;
    }
    std::cout << "]\n";
}

} // namespace

int
main()
{
    CompileOptions compile_options;
    compile_options.duplicationDegree = 2;
    Pipeline pipeline(bigModel(), compile_options);
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile: " << compiled.status().toString()
                  << "\n";
        return 1;
    }
    auto model =
        std::make_shared<CompiledModel>(std::move(compiled).value());
    const ResourceDemand demand = model->resourceDemand();

    // A fleet of four chips, each holding ~70% of the model: the
    // model is infeasible EVERYWHERE whole, but two pieces fit.
    auto chaos = std::make_shared<FaultInjector>();
    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.faultHook = chaos;
    options.health.probeFailuresToFail = 2;
    options.retryBudget = 200;
    options.retryBackoffMillis = 0.2;
    options.bestEffortShedMillis = 0.0;
    const ChipCapacity capacity = fractionOf(demand, 0.7);
    auto created = ClusterEngine::create({{"chip0", capacity},
                                          {"chip1", capacity},
                                          {"chip2", capacity},
                                          {"chip3", capacity}},
                                         options);
    if (!created.ok()) {
        std::cerr << "cluster: " << created.status().toString() << "\n";
        return 1;
    }
    auto cluster = std::move(created).value();

    std::cout << "model demand: " << demand.peBlocks
              << " PE blocks; per-chip budget: " << capacity.peBlocks
              << " -- fits nowhere whole\n\n";

    // 1. Load: replicate-whole fails everywhere, shard-across kicks in.
    if (Status s = cluster->loadModel("big", model); !s.ok()) {
        std::cerr << "load: " << s.toString() << "\n";
        return 1;
    }
    std::cout << "loaded sharded:\n";
    printPipeline(*cluster, "big");

    // 2. Serve: per-request telemetry carries the shard count and the
    //    modeled interconnect cost of the cut tensors.
    auto first = cluster->infer("big", sample(0));
    if (!first.ok()) {
        std::cerr << "infer: " << first.status().toString() << "\n";
        return 1;
    }
    std::cout << "\nfirst request: " << first->shards << " shards, "
              << first->interconnectBytes
              << " interconnect bytes, modeled transfer "
              << fmtDouble(first->interconnectNanos, 0) << " ns\n";

    // 3. Stream a burst, fail-stop a pipeline chip mid-flight.
    const std::vector<std::string> before =
        cluster->replicaChips("big");
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(cluster->submit("big", sample(i)));
    chaos->failStop(before.front());
    std::cout << "\nfail-stopped '" << before.front()
              << "' (stage 0 of the pipeline)\n";
    for (int i = 12; i < 24; ++i)
        futures.push_back(cluster->submit("big", sample(i)));

    // 4. Detect and repair: the group retires AS A UNIT and a fresh
    //    pipeline is placed on the surviving chips.
    cluster->probeChips();
    cluster->probeChips();
    for (const ClusterEvent &action :
         cluster->repairOnce()) {
        std::cout << "repair: '" << action.model << "' "
                  << action.fromChip << " -> " << action.toChip << " ("
                  << (action.status.ok() ? "ok"
                                         : action.status.toString())
                  << ")\n";
    }
    printPipeline(*cluster, "big");

    // 5. Zero loss: every accepted request resolves.
    int resolved = 0;
    for (auto &f : futures) {
        auto r = f.get();
        if (!r.ok()) {
            std::cerr << "lost request: " << r.status().toString()
                      << "\n";
            return 1;
        }
        ++resolved;
    }
    std::cout << "\nall " << resolved
              << " accepted requests resolved (injected faults: "
              << chaos->injectedFaults() << ")\n";

    // 6. Fleet telemetry: the sharded tenant and the interconnect
    //    section in the cluster report.
    std::cout << "\ncluster report: " << cluster->statsJson() << "\n";
    return cluster->shutdown().ok() ? 0 : 1;
}
