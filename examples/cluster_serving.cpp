/**
 * @file
 * Fleet-serving walkthrough: three FPSA chips behind one
 * `fpsa::ClusterEngine`, demonstrating the cluster-layer mechanics in
 * order:
 *
 *  - best-fit placement packs three tenants onto the fleet;
 *  - a model too wide for ANY chip is rejected with the per-chip
 *    breakdown;
 *  - the SLO-driven scale step of a `ClusterController` tick
 *    replicates the hot tenant onto a second chip under backlog, and
 *    least-outstanding-requests routing spreads its traffic over both
 *    replicas (batches never mix tenants);
 *  - when the burst passes, the next tick drains the extra replica
 *    back without failing one accepted request, and the freed chip
 *    budget lets an evicted tenant be re-placed.
 *
 *   $ ./cluster_serving
 */

#include <future>
#include <iostream>
#include <vector>

#include "fpsa.hh"

using namespace fpsa;

namespace
{

/** LeNet-class CNN (28x28 input), the hot tenant. */
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

/** A small MLP (16x16 input), the cold tenants. */
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
printReplicas(const ClusterEngine &cluster, const char *name)
{
    std::cout << "  " << name << " -> [";
    bool first = true;
    for (const std::string &chip : cluster.replicaChips(name)) {
        std::cout << (first ? "" : ", ") << chip;
        first = false;
    }
    std::cout << "]\n";
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);

    auto lenet = compile(lenetModel(), 4);
    auto mlp = compile(mlpModel(), 2);
    auto lenet_wide = compile(lenetModel(), 64); // fits no chip

    // 1. A fleet of three chips, each sized for one LeNet replica plus
    //    one MLP -- big enough for the working set, small enough that
    //    placement decisions are visible.
    const ResourceDemand &dl = lenet->resourceDemand();
    const ResourceDemand &dm = mlp->resourceDemand();
    ChipCapacity chip;
    chip.peBlocks = dl.peBlocks + dm.peBlocks;
    chip.smbBlocks = dl.smbBlocks + dm.smbBlocks;
    chip.clbBlocks = dl.clbBlocks + dm.clbBlocks;
    chip.routingTracks = dl.routingTracks + dm.routingTracks;

    ClusterOptions options;
    options.engine.workerThreads = 2;
    options.engine.maxBatch = 8;
    options.engine.queueDepth = 1024;
    options.placement = PlacementPolicyKind::BestFit;
    auto created = ClusterEngine::create(
        {{"chip0", chip}, {"chip1", chip}, {"chip2", chip}}, options);
    if (!created.ok()) {
        std::cerr << "cluster: " << created.status().toString() << "\n";
        return 1;
    }
    ClusterEngine &cluster = **created;

    // 2. Place the tenants: the hot LeNet starts at one replica; the
    //    MLP tenants go wherever best-fit leaves the least slack.
    for (Status s : {cluster.loadModel("lenet-hot", lenet),
                     cluster.loadModel("mlp-a", mlp),
                     cluster.loadModel("mlp-b", mlp)}) {
        if (!s.ok()) {
            std::cerr << "load: " << s.toString() << "\n";
            return 1;
        }
    }
    std::cout << "placement (" << cluster.policy().name() << "):\n";
    for (const char *name : {"lenet-hot", "mlp-a", "mlp-b"})
        printReplicas(cluster, name);

    // 3. A model too wide for ANY single chip: rejected with the full
    //    per-chip breakdown (no sharding across chips).
    Status rejected = cluster.loadModel("lenet-wide", lenet_wide);
    std::cout << "\nadmission of 64x LeNet -> "
              << statusCodeName(rejected.code()) << "\n  "
              << rejected.message() << "\n";

    // 4. A burst hits the hot tenant (plus steady cold traffic).
    constexpr int kHot = 96, kCold = 24;
    std::vector<std::future<StatusOr<InferenceResult>>> hot_futures,
        cold_futures;
    for (int i = 0; i < kHot / 2; ++i)
        hot_futures.push_back(
            cluster.submit("lenet-hot", sample(lenet->inputShape(), i)));
    for (int i = 0; i < kCold; ++i) {
        cold_futures.push_back(
            cluster.submit("mlp-a", sample(mlp->inputShape(), i)));
        cold_futures.push_back(
            cluster.submit("mlp-b", sample(mlp->inputShape(), i)));
    }

    // 5. The backlog trips the controller's scale step: the hot tenant
    //    grows onto a second chip, and the rest of the burst is routed
    //    to whichever replica has the fewest outstanding requests.
    ScalePolicy scaling;
    scaling.scaleUpPendingPerReplica = 4.0;
    scaling.scaleDownPendingPerReplica = 1.0;
    scaling.scaleUpAfter = 1;
    scaling.scaleDownAfter = 1;
    ControllerOptions control;
    control.scaling = scaling;
    ClusterController controller(cluster, control);
    controller.evaluateOnce();
    std::cout << "\nafter the burst tripped the scale step:\n";
    printReplicas(cluster, "lenet-hot");
    for (int i = kHot / 2; i < kHot; ++i)
        hot_futures.push_back(
            cluster.submit("lenet-hot", sample(lenet->inputShape(), i)));

    for (auto &f : hot_futures) {
        if (auto r = f.get(); !r.ok()) {
            std::cerr << "hot infer: " << r.status().toString() << "\n";
            return 1;
        }
    }
    for (auto &f : cold_futures) {
        if (auto r = f.get(); !r.ok()) {
            std::cerr << "cold infer: " << r.status().toString() << "\n";
            return 1;
        }
    }

    // 6. The burst has passed: the next tick drains the second LeNet
    //    replica (no accepted request was failed by the hot-swap
    //    drain) and its chip budget frees up.
    controller.evaluateOnce();
    std::cout << "\nscaling decisions:\n";
    for (const ClusterEvent &e : controller.history()) {
        std::cout << "  " << e.model << ": " << e.fromReplicas << " -> "
                  << e.toReplicas << " (" << e.reason << ")\n";
    }
    printReplicas(cluster, "lenet-hot");

    // 7. Scale-down made room: evict a cold tenant and re-place it --
    //    best-fit now has a freed chip to choose from.
    if (Status s = cluster.unloadModel("mlp-b"); !s.ok()) {
        std::cerr << "unload: " << s.toString() << "\n";
        return 1;
    }
    if (Status s = cluster.loadModel("mlp-b", mlp); !s.ok()) {
        std::cerr << "re-place: " << s.toString() << "\n";
        return 1;
    }
    std::cout << "\n'mlp-b' evicted and re-placed after scale-down:\n";
    printReplicas(cluster, "mlp-b");

    // 8. Fleet-wide telemetry: per-chip, per-tenant and utilization.
    auto hot_stats = cluster.modelStats("lenet-hot");
    if (hot_stats.ok()) {
        std::cout << "\nlenet-hot: " << hot_stats->completed
                  << " served across its replicas, p99 queue wait "
                  << fmtDouble(hot_stats->p99QueueMillis, 2) << " ms\n";
    }
    std::cout << "cluster report: " << cluster.statsJson() << "\n";
    return 0;
}
