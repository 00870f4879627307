/**
 * @file
 * Tests for multi-tenant serving: the `ResourceDemand` admission
 * currency (derived from the mapped netlist by `Pipeline::compile()`,
 * re-derived on load -- a version 3 document's stored demand is
 * ignored), the artifact version gate, `ChipCapacity`,
 * `ModelRegistry` admission control with per-resource breakdowns, and
 * the multi-tenant `Engine` -- request routing by model name, disjoint
 * per-tenant batches, hot-swap unload that drains one tenant without
 * stalling the rest, shutdown idempotence under concurrency, and the
 * completion contract every request path rests on (admission error =>
 * the completion never runs; OK => it runs exactly once) under seeded
 * 4-thread schedules.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/cluster/sharding.hh"
#include "runtime/engine.hh"
#include "runtime/model_registry.hh"

namespace fpsa
{
namespace
{

/** A small weighted CNN (10 outputs) in the functional family. */
Graph
smallCnn(std::uint64_t seed = 42)
{
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

/** A small weighted MLP (4 outputs) -- a distinguishable second tenant. */
Graph
smallMlp(std::uint64_t seed = 7)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(12).relu().fc(4);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

std::shared_ptr<const CompiledModel>
compileShared(Graph g, std::int64_t duplication = 2)
{
    CompileOptions options;
    options.duplicationDegree = duplication;
    Pipeline p(std::move(g), options);
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::make_shared<CompiledModel>(std::move(compiled).value());
}

Tensor
probeInput(float scale = 1.0f)
{
    Tensor t({1, 8, 8});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = scale * static_cast<float>(i % 7) / 7.0f;
    return t;
}

/** A capacity that fits `copies` models of this demand exactly. */
ChipCapacity
capacityFor(const ResourceDemand &demand, std::int64_t copies)
{
    ChipCapacity c;
    c.peBlocks = demand.peBlocks * copies;
    c.smbBlocks = demand.smbBlocks * copies;
    c.clbBlocks = demand.clbBlocks * copies;
    c.routingTracks = demand.routingTracks * copies;
    return c;
}

// --------------------------------------------------------- ResourceDemand

TEST(ResourceDemand, CompileStampsNetlistFootprint)
{
    CompileOptions options;
    options.duplicationDegree = 2;
    Pipeline p(smallCnn(), options);
    auto model = p.compile();
    ASSERT_TRUE(model.ok()) << model.status().toString();
    const Netlist &netlist = p.mapArtifact()->netlist;
    const ResourceDemand &demand = model->resourceDemand();
    EXPECT_EQ(demand.peBlocks, netlist.countBlocks(BlockType::Pe));
    EXPECT_EQ(demand.smbBlocks, netlist.countBlocks(BlockType::Smb));
    EXPECT_EQ(demand.clbBlocks, netlist.countBlocks(BlockType::Clb));
    EXPECT_EQ(demand.routingTracks, netlist.totalWireDemand());
    EXPECT_GT(demand.peBlocks, 0);
    EXPECT_GT(demand.routingTracks, 0);
}

TEST(ResourceDemand, SurvivesJsonRoundTrip)
{
    auto model = compileShared(smallCnn());
    auto reloaded = CompiledModel::fromJson(model->toJson());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    EXPECT_EQ(reloaded->resourceDemand(), model->resourceDemand());
}

TEST(ResourceDemand, ShardPieceRederivesOnLoad)
{
    // A ShardRouter stage serves a piece compiled from a subgraph whose
    // input is the upstream cut tensor; its derived values survive a
    // save/load like a whole model's.
    auto whole = compileShared(smallMlp(), 1);
    const ResourceDemand demand = whole->resourceDemand();
    ChipCapacity capacity;
    capacity.peBlocks = demand.peBlocks - 1;
    capacity.smbBlocks = demand.smbBlocks;
    capacity.clbBlocks = demand.clbBlocks;
    capacity.routingTracks = demand.routingTracks;
    auto sharded = ModelPartitioner().partition(
        *whole, std::vector<ChipCapacity>(2, capacity), 2);
    ASSERT_TRUE(sharded.ok()) << sharded.status().toString();
    const CompiledModel &piece = *sharded->pieces.back();

    auto reloaded = CompiledModel::fromJson(piece.toJson());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    EXPECT_EQ(reloaded->performance(), piece.performance());
    EXPECT_EQ(reloaded->energy(), piece.energy());
    EXPECT_EQ(reloaded->resourceDemand(), piece.resourceDemand());
    EXPECT_EQ(reloaded->timing(), piece.timing());
}

/**
 * A version 3 document, written by the build before artifacts stopped
 * storing derived sections (synthesis, allocation, netlist,
 * resourceDemand, performance, energy).  Generated with:
 *
 *     GraphBuilder b({4});
 *     b.fc(3).relu().fc(2);
 *     Graph g = b.build();
 *     Rng rng(3);
 *     randomizeWeights(g, rng);
 *     CompileOptions options;
 *     options.duplicationDegree = 2;
 *     Pipeline p(g, options);
 *     std::cout << p.compile()->toJson();
 */
constexpr const char *kVersion3Mlp = R"json({"format":"fpsa.compiled_model","version":3,"options":{"duplicationDegree":2,"runPlaceAndRoute":false,"synth":{"crossbarRows":256,"crossbarCols":256,"ioBits":6,"weightBits":8,"maxWeightLevel":120},"allocation":{"pesPerClb":8,"smbsPerEdge":1},"mapper":{"busWidth":256,"controlWidth":4,"pesPerClb":8},"perf":{"ioBits":6,"wireDelayPerBit":9.9}},"graph":{"nodes":[{"kind":"input","name":"input","inputs":[],"attrs":{"kernel":0,"stride":1,"pad":0,"outChannels":0,"groups":1,"units":0},"outShape":[4],"weights":null},{"kind":"fc","name":"fc_1","inputs":[0],"attrs":{"kernel":0,"stride":1,"pad":0,"outChannels":0,"groups":1,"units":3},"outShape":[3],"weights":{"shape":[3,4],"data":[0.98381317,0.72548616,-1.0566988,0.12737812,-0.99753416,-1.3294213,-0.64704156,0.4812636,0.3759004,0.15971114,0.5117329,0.898851]}},{"kind":"relu","name":"relu_2","inputs":[1],"attrs":{"kernel":0,"stride":1,"pad":0,"outChannels":0,"groups":1,"units":0},"outShape":[3],"weights":null},{"kind":"fc","name":"fc_3","inputs":[2],"attrs":{"kernel":0,"stride":1,"pad":0,"outChannels":0,"groups":1,"units":2},"outShape":[2],"weights":{"shape":[2,3],"data":[0.26930717,-0.5656285,0.47519696,0.24929518,2.0526173,0.23196961]}}]},"synthesis":{"options":{"crossbarRows":256,"crossbarCols":256,"ioBits":6,"weightBits":8,"maxWeightLevel":120},"pipelineDepth":2,"groups":[{"name":"fc_1","sourceNode":1,"role":"weight","tilesPerInstance":1,"instances":1,"macsPerInstance":12,"utilization":0.00018310546875,"stageDepth":1,"preds":[]},{"name":"fc_3","sourceNode":3,"role":"weight","tilesPerInstance":1,"instances":1,"macsPerInstance":6,"utilization":9.1552734375e-05,"stageDepth":1,"preds":[0]}]},"allocation":{"duplicationDegree":2,"totalPes":4,"maxIterations":1,"replicas":2,"smbBlocks":4,"clbBlocks":2,"groups":[{"group":0,"duplication":1,"pes":1,"iterations":1},{"group":1,"duplication":1,"pes":1,"iterations":1}]},"netlist":{"blocks":[{"type":"PE","name":"r0.fc_1.d0.t0","groupId":0},{"type":"PE","name":"r0.fc_3.d0.t0","groupId":1},{"type":"SMB","name":"r0.fc_1.inbuf","groupId":-1},{"type":"SMB","name":"r0.fc_1->fc_3","groupId":-1},{"type":"PE","name":"r1.fc_1.d0.t0","groupId":0},{"type":"PE","name":"r1.fc_3.d0.t0","groupId":1},{"type":"SMB","name":"r1.fc_1.inbuf","groupId":-1},{"type":"SMB","name":"r1.fc_1->fc_3","groupId":-1},{"type":"CLB","name":"ctl0","groupId":-1}],"nets":[{"name":"r0.fc_1.ext","driver":2,"sinks":[0],"width":256},{"name":"r0.fc_3.in","driver":0,"sinks":[3],"width":256},{"name":"r0.fc_3.out","driver":3,"sinks":[1],"width":256},{"name":"r1.fc_1.ext","driver":6,"sinks":[4],"width":256},{"name":"r1.fc_3.in","driver":4,"sinks":[7],"width":256},{"name":"r1.fc_3.out","driver":7,"sinks":[5],"width":256},{"name":"ctl","driver":8,"sinks":[0,1,4,5],"width":4}]},"timing":null,"resourceDemand":{"peBlocks":4,"smbBlocks":4,"clbBlocks":1,"routingTracks":1540},"execution":{"executor":"planned","precision":"fp32","kernelIsa":"auto"},"performance":{"throughput":3156565.6565656564,"latencyNs":2213.504,"opsPerSecond":113636363.63636363,"areaMm2":0.12188979999999998,"energyPerSamplePj":6596.8099999999995,"computePerPeNs":156.352,"commPerPeNs":633.6,"pes":4,"duplicationDegree":2,"iterations":1},"energy":{"pePj":3724.032,"smbPj":1177.6,"clbPj":397.568,"routingPj":1297.6100000000001}})json";

/** A fresh compile of a loaded model's stored inputs. */
CompiledModel
recompiled(const CompiledModel &model)
{
    Pipeline p(model.graph(), model.options());
    auto fresh = p.compile(model.executionConfig());
    EXPECT_TRUE(fresh.ok()) << fresh.status().toString();
    return std::move(fresh).value();
}

TEST(ResourceDemand, Version3DocumentLoadsByRederiving)
{
    auto loaded = CompiledModel::fromJson(kVersion3Mlp);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const CompiledModel fresh = recompiled(*loaded);
    EXPECT_EQ(loaded->performance(), fresh.performance());
    EXPECT_EQ(loaded->energy(), fresh.energy());
    EXPECT_EQ(loaded->resourceDemand(), fresh.resourceDemand());
    EXPECT_FALSE(loaded->timing().has_value());
    // The stored v3 demand agrees with the re-derivation.
    EXPECT_EQ(loaded->resourceDemand(), (ResourceDemand{4, 4, 1, 1540}));

    // It re-serializes as a version 4 document without the derived
    // sections, and that document loads to the same model.
    const std::string v4 = loaded->toJson();
    EXPECT_NE(v4.find("\"version\":4"), std::string::npos);
    for (const char *derived : {"\"synthesis\"", "\"allocation\":{\"dup",
                                "\"netlist\"", "\"resourceDemand\"",
                                "\"performance\"", "\"energy\""})
        EXPECT_EQ(v4.find(derived), std::string::npos) << derived;
    auto again = CompiledModel::fromJson(v4);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_EQ(again->toJson(), v4);
    EXPECT_EQ(again->resourceDemand(), loaded->resourceDemand());
}

TEST(ResourceDemand, NegatedDemandInVersion3DocumentIsIgnored)
{
    // Negative demand in a hand-edited artifact would be admitted
    // against an inflated budget (resident sums go negative),
    // bypassing admission control.  A v3 document's stored demand is
    // never read: the loaded demand is the re-derived, non-negative
    // one.
    const std::string text = kVersion3Mlp;
    const std::string key = "\"resourceDemand\":{\"peBlocks\":";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos);
    std::string negated = text.substr(0, at + key.size());
    negated += '-';
    negated += text.substr(at + key.size());
    auto poisoned = CompiledModel::fromJson(negated);
    ASSERT_TRUE(poisoned.ok()) << poisoned.status().toString();
    const ResourceDemand &demand = poisoned->resourceDemand();
    EXPECT_EQ(demand, recompiled(*poisoned).resourceDemand());
    EXPECT_GT(demand.peBlocks, 0);
    EXPECT_GE(demand.smbBlocks, 0);
    EXPECT_GE(demand.clbBlocks, 0);
    EXPECT_GE(demand.routingTracks, 0);
}

TEST(ResourceDemand, RejectsVersion1And2Documents)
{
    // Versions 3 and 4 are read: an older artifact is rejected with the
    // version found and the versions this build reads.
    auto model = compileShared(smallCnn());
    for (const char *version : {"1", "2"}) {
        std::string text = model->toJson();
        const std::string v4 = "\"version\":4";
        const std::size_t at = text.find(v4);
        ASSERT_NE(at, std::string::npos);
        text.replace(at, v4.size(), std::string("\"version\":") + version);

        auto old = CompiledModel::fromJson(text);
        ASSERT_FALSE(old.ok()) << version;
        EXPECT_EQ(old.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(old.status().message().find(
                      std::string("unsupported version ") + version),
                  std::string::npos)
            << old.status().message();
        EXPECT_NE(old.status().message().find("reads versions 3 and 4"),
                  std::string::npos)
            << old.status().message();
    }
}

TEST(ResourceDemand, RejectsUnknownFutureVersions)
{
    auto model = compileShared(smallCnn());
    std::string text = model->toJson();
    const std::string v4 = "\"version\":4";
    text.replace(text.find(v4), v4.size(), "\"version\":5");
    auto future_doc = CompiledModel::fromJson(text);
    ASSERT_FALSE(future_doc.ok());
    EXPECT_EQ(future_doc.status().code(), StatusCode::InvalidArgument);
}

// ----------------------------------------------------------- ChipCapacity

TEST(ChipCapacity, FromArchCountsSitesAndChannelTracks)
{
    ArchParams params;
    params.width = 8;
    params.height = 8;
    params.channelWidth = 512;
    const ChipCapacity capacity = ChipCapacity::fromArch(params);
    // Site families partition the grid.
    EXPECT_EQ(capacity.peBlocks + capacity.smbBlocks + capacity.clbBlocks,
              64);
    EXPECT_GT(capacity.peBlocks, 0);
    EXPECT_GT(capacity.smbBlocks, 0);
    EXPECT_GT(capacity.clbBlocks, 0);
    // W x (H+1) + H x (W+1) channel segments, channelWidth tracks each.
    EXPECT_EQ(capacity.routingTracks, (8 * 9 + 8 * 9) * 512);

    const ChipCapacity huge = ChipCapacity::unlimited();
    EXPECT_GT(huge.peBlocks, capacity.peBlocks * 1000000);
}

// ---------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, AdmitsUntilCapacityAndReportsBreakdown)
{
    auto model = compileShared(smallCnn());
    const ResourceDemand demand = model->resourceDemand();

    ModelRegistry registry(capacityFor(demand, 2));
    ASSERT_TRUE(registry.add("a", model).ok());
    ASSERT_TRUE(registry.add("b", model).ok());
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_TRUE(registry.contains("a"));
    EXPECT_EQ(registry.find("a").get(), model.get());
    EXPECT_EQ(registry.residentDemand().peBlocks, 2 * demand.peBlocks);

    // The third of the same demand busts every resource.
    Status third = registry.add("c", model);
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.code(), StatusCode::Infeasible);
    EXPECT_NE(third.message().find("admission rejected for model 'c'"),
              std::string::npos)
        << third.message();
    // Per-resource breakdown: every family itemized, violators flagged.
    for (const char *label : {"PE ", "SMB ", "CLB ", "routing "})
        EXPECT_NE(third.message().find(label), std::string::npos)
            << third.message();
    EXPECT_NE(third.message().find("over by"), std::string::npos)
        << third.message();

    // Dry-run admission agrees with add().
    EXPECT_EQ(registry.admissionCheck("c", demand).code(),
              StatusCode::Infeasible);

    // Eviction returns the resources; the third model then fits.
    ASSERT_TRUE(registry.remove("a").ok());
    EXPECT_TRUE(registry.add("c", model).ok());

    // Duplicate names and unknown evictions are InvalidArgument.
    EXPECT_EQ(registry.add("b", model).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(registry.remove("a").code(), StatusCode::InvalidArgument);

    auto util = parseJson(registry.utilizationJson());
    ASSERT_TRUE(util.ok());
    EXPECT_DOUBLE_EQ((*util)["pe"]["fraction"].number(), 1.0);
    EXPECT_EQ((*util)["models"].size(), 2u);
}

// ------------------------------------------------------ multi-tenant Engine

TEST(MultiTenantEngine, RoutesByNameWithDisjointBatchesAndPerTenantStats)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());

    EngineOptions options;
    options.workerThreads = 3;
    options.maxBatch = 4;
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    ASSERT_TRUE((*engine)->loadModel("cnn", cnn).ok());
    ASSERT_TRUE((*engine)->loadModel("mlp", mlp).ok());
    EXPECT_EQ((*engine)->modelNames().size(), 2u);

    // Name-free submit is ambiguous with two tenants.
    auto ambiguous = (*engine)->infer(probeInput());
    ASSERT_FALSE(ambiguous.ok());
    EXPECT_EQ(ambiguous.status().code(), StatusCode::InvalidArgument);

    // Ground truth through the engine's default (planned) backend:
    // batched serving is bit-identical to single-sample execution.
    auto direct_cnn = makeExecutor(cnn, ExecutionConfig{});
    auto direct_mlp = makeExecutor(mlp, ExecutionConfig{});
    ASSERT_TRUE(direct_cnn.ok() && direct_mlp.ok());
    const Tensor expect_cnn = (*direct_cnn)->run(probeInput()).value();
    const Tensor expect_mlp = (*direct_mlp)->run(probeInput()).value();

    constexpr int kPerTenant = 24;
    std::vector<std::future<StatusOr<InferenceResult>>> cnn_futures,
        mlp_futures;
    std::thread cnn_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            cnn_futures.push_back(
                (*engine)->submit("cnn", probeInput()));
    });
    std::thread mlp_client([&] {
        for (int i = 0; i < kPerTenant; ++i)
            mlp_futures.push_back(
                (*engine)->submit("mlp", probeInput()));
    });
    cnn_client.join();
    mlp_client.join();

    for (auto &f : cnn_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "cnn");
        ASSERT_EQ(r->output.shape(), expect_cnn.shape());
        for (std::int64_t i = 0; i < expect_cnn.numel(); ++i)
            ASSERT_EQ(r->output[i], expect_cnn[i]);
        EXPECT_EQ(r->modeledLatency, cnn->performance().latency);
    }
    for (auto &f : mlp_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "mlp");
        ASSERT_EQ(r->output.shape(), expect_mlp.shape());
        for (std::int64_t i = 0; i < expect_mlp.numel(); ++i)
            ASSERT_EQ(r->output[i], expect_mlp[i]);
    }

    auto cnn_stats = (*engine)->modelStats("cnn");
    auto mlp_stats = (*engine)->modelStats("mlp");
    ASSERT_TRUE(cnn_stats.ok() && mlp_stats.ok());
    EXPECT_EQ(cnn_stats->completed, kPerTenant);
    EXPECT_EQ(mlp_stats->completed, kPerTenant);
    EXPECT_EQ(cnn_stats->failed, 0);
    EXPECT_EQ(cnn_stats->modeledLatency, cnn->performance().latency);
    EXPECT_EQ(mlp_stats->modeledEnergyPerSample,
              mlp->energy().perSample());

    // Batches never mix tenants: every scheduler dequeue is attributed
    // to exactly one tenant, so the per-tenant batch counts partition
    // the aggregate.
    const EngineStats aggregate = (*engine)->stats();
    EXPECT_EQ(aggregate.completed, 2 * kPerTenant);
    EXPECT_EQ(aggregate.batches,
              cnn_stats->batches + mlp_stats->batches);

    EXPECT_EQ((*engine)->modelStats("nope").status().code(),
              StatusCode::InvalidArgument);

    // The JSON surface carries both tenants and the utilization.
    auto parsed = parseJson((*engine)->statsJson());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)["tenants"]["cnn"]["completed"].asInt(),
              kPerTenant);
    EXPECT_EQ((*parsed)["tenants"]["mlp"]["completed"].asInt(),
              kPerTenant);
    EXPECT_GT((*parsed)["utilization"]["pe"]["used"].asInt(), 0);
}

TEST(MultiTenantEngine, RejectsOverBudgetModelWithBreakdown)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());
    const ResourceDemand cnn_demand = cnn->resourceDemand();
    const ResourceDemand mlp_demand = mlp->resourceDemand();

    ChipCapacity capacity;
    capacity.peBlocks = cnn_demand.peBlocks + mlp_demand.peBlocks;
    capacity.smbBlocks = cnn_demand.smbBlocks + mlp_demand.smbBlocks;
    capacity.clbBlocks = cnn_demand.clbBlocks + mlp_demand.clbBlocks;
    capacity.routingTracks =
        cnn_demand.routingTracks + mlp_demand.routingTracks;

    auto engine = Engine::create(capacity, EngineOptions{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->loadModel("cnn", cnn).ok());
    ASSERT_TRUE((*engine)->loadModel("mlp", mlp).ok());

    // The chip is now full; a third tenant must be rejected with the
    // per-resource breakdown, and serving must be unaffected.
    Status rejected = (*engine)->loadModel("third", cnn);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::Infeasible);
    EXPECT_NE(rejected.message().find("PE "), std::string::npos);
    EXPECT_NE(rejected.message().find("over by"), std::string::npos);
    EXPECT_FALSE((*engine)->registry().contains("third"));

    auto served = (*engine)->infer("cnn", probeInput());
    EXPECT_TRUE(served.ok());

    // Unloading a tenant frees its budget for an equal-demand load.
    ASSERT_TRUE((*engine)->unloadModel("mlp").ok());
    EXPECT_TRUE((*engine)->loadModel("third", mlp).ok());
}

TEST(MultiTenantEngine, DuplicateNameAndUnknownModelAreInvalid)
{
    auto cnn = compileShared(smallCnn());
    auto engine = Engine::create(cnn);
    ASSERT_TRUE(engine.ok());

    EXPECT_EQ((*engine)
                  ->loadModel(Engine::kDefaultModel, cnn)
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ((*engine)->unloadModel("ghost").code(),
              StatusCode::InvalidArgument);

    auto unknown = (*engine)->infer("ghost", probeInput());
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ((*engine)->stats().rejected, 1);

    // The single-model wrapper still serves name-free.
    auto served = (*engine)->infer(probeInput());
    EXPECT_TRUE(served.ok());
}

// ----------------------------------------------------------------- hot swap

TEST(MultiTenantEngine, UnloadDrainsInflightWithoutStallingOtherTenants)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());

    EngineOptions options;
    options.workerThreads = 2;
    options.maxBatch = 4;
    options.queueDepth = 512;
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->loadModel("keeper", cnn).ok());
    ASSERT_TRUE((*engine)->loadModel("victim", mlp).ok());

    // Build a backlog for the victim so the unload genuinely overlaps
    // inflight and queued requests.
    constexpr int kVictimRequests = 64;
    std::vector<std::future<StatusOr<InferenceResult>>> victim_futures;
    for (int i = 0; i < kVictimRequests; ++i)
        victim_futures.push_back(
            (*engine)->submit("victim", probeInput()));

    // The keeper submits continuously through the hot swap.
    std::atomic<bool> stop{false};
    std::atomic<int> keeper_ok{0}, keeper_failed{0};
    std::thread keeper_client([&] {
        while (!stop.load()) {
            auto r = (*engine)->infer("keeper", probeInput());
            if (r.ok())
                keeper_ok.fetch_add(1);
            else
                keeper_failed.fetch_add(1);
        }
    });

    // Hot swap: drain + evict the victim while both queues are busy.
    Status unloaded = (*engine)->unloadModel("victim");
    EXPECT_TRUE(unloaded.ok()) << unloaded.toString();

    // Every victim request submitted before the unload resolves
    // successfully -- drained, not dropped.
    for (auto &f : victim_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->model, "victim");
    }

    // The victim is gone; its budget is released.
    EXPECT_FALSE((*engine)->registry().contains("victim"));
    auto late = (*engine)->infer("victim", probeInput());
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::InvalidArgument);

    // The keeper is still fully serviceable right after the swap (a
    // deterministic check -- under heavy CPU contention the client
    // thread may not have been scheduled at all yet), and it never saw
    // a failure.
    auto post_swap = (*engine)->infer("keeper", probeInput());
    EXPECT_TRUE(post_swap.ok()) << post_swap.status().toString();
    stop.store(true);
    keeper_client.join();
    EXPECT_EQ(keeper_failed.load(), 0);
    EXPECT_GE(keeper_ok.load(), 0);
    auto keeper_stats = (*engine)->modelStats("keeper");
    ASSERT_TRUE(keeper_stats.ok());
    EXPECT_EQ(keeper_stats->failed, 0);
    EXPECT_EQ(keeper_stats->completed, keeper_stats->submitted);
}

TEST(MultiTenantEngine, ConcurrentUnloadsOfTheSameTenantBothSucceed)
{
    auto cnn = compileShared(smallCnn());
    auto engine = Engine::create(ChipCapacity::unlimited(),
                                 EngineOptions{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->loadModel("m", cnn).ok());
    for (int i = 0; i < 8; ++i)
        (void)(*engine)->submit("m", probeInput());

    // Whichever unloader arrives while the drain is in progress joins
    // it and succeeds too; one arriving after the eviction sees the
    // model already gone (InvalidArgument).  Exactly zero or one may
    // lose the race -- never both, and never a hang.
    Status a, b;
    std::thread t1([&] { a = (*engine)->unloadModel("m"); });
    std::thread t2([&] { b = (*engine)->unloadModel("m"); });
    t1.join();
    t2.join();
    EXPECT_TRUE(a.ok() || b.ok()) << a.toString() << " / "
                                  << b.toString();
    for (const Status &s : {a, b}) {
        if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
        }
    }
    EXPECT_EQ((*engine)->modelNames().size(), 0u);
}

// ----------------------------------------------------------------- shutdown

TEST(MultiTenantEngine, ShutdownIsIdempotentAndSafeUnderConcurrency)
{
    auto cnn = compileShared(smallCnn());
    EngineOptions options;
    options.workerThreads = 2;
    options.maxBatch = 2;
    auto engine = Engine::create(cnn, options);
    ASSERT_TRUE(engine.ok());

    // Submitters hammer the engine while two threads race shutdown();
    // every future must resolve (served or Unavailable), and both
    // shutdown calls must return the drain status.
    constexpr int kClientThreads = 3;
    constexpr int kPerThread = 16;
    std::vector<std::vector<std::future<StatusOr<InferenceResult>>>>
        futures(kClientThreads);
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                futures[static_cast<std::size_t>(t)].push_back(
                    (*engine)->submit(probeInput()));
        });
    }

    Status first, second;
    std::thread s1([&] { first = (*engine)->shutdown(); });
    std::thread s2([&] { second = (*engine)->shutdown(); });
    for (auto &c : clients)
        c.join();
    s1.join();
    s2.join();
    EXPECT_TRUE(first.ok()) << first.toString();
    EXPECT_TRUE(second.ok()) << second.toString();

    std::int64_t served = 0, unavailable = 0;
    for (auto &per_thread : futures) {
        for (auto &f : per_thread) {
            auto r = f.get();
            if (r.ok()) {
                ++served;
            } else {
                EXPECT_EQ(r.status().code(), StatusCode::Unavailable);
                ++unavailable;
            }
        }
    }
    EXPECT_EQ(served + unavailable, kClientThreads * kPerThread);
    const EngineStats stats = (*engine)->stats();
    EXPECT_EQ(stats.completed, served);
    EXPECT_EQ(stats.rejected, unavailable);

    // Repeated shutdown after the fact: still the same drain status.
    EXPECT_TRUE((*engine)->shutdown().ok());
    // Tenants stay resident for post-mortem stats.
    EXPECT_TRUE((*engine)->registry().contains(Engine::kDefaultModel));
}

TEST(ModelRegistry, RejectionMessageNamesChipAndItemizesEveryResource)
{
    auto model = compileShared(smallCnn());
    const ResourceDemand demand = model->resourceDemand();

    auto countOccurrences = [](const std::string &text,
                               const std::string &needle) {
        std::size_t count = 0;
        for (std::size_t at = text.find(needle);
             at != std::string::npos;
             at = text.find(needle, at + needle.size()))
            ++count;
        return count;
    };

    // The rejection names the chip and itemizes all four resource
    // families uniformly, each with its "over by" amount -- the shape
    // the cluster's per-chip Infeasible breakdown is built from.
    ModelRegistry registry(capacityFor(demand, 1), "chipX");
    EXPECT_EQ(registry.chipId(), "chipX");
    ASSERT_TRUE(registry.add("a", model).ok());
    Status rejected = registry.add("b", model);
    ASSERT_FALSE(rejected.ok());
    const std::string &message = rejected.message();
    EXPECT_NE(message.find("admission rejected for model 'b' on chip "
                           "'chipX':"),
              std::string::npos)
        << message;
    for (const char *label : {"PE ", "SMB ", "CLB ", "routing "})
        EXPECT_EQ(countOccurrences(message, label), 1u) << message;
    EXPECT_EQ(countOccurrences(message, "(over by "), 4u) << message;
    // A satisfied resource reads "over by 0": capacity for one model
    // is fully held by 'a', so each family is over by its own demand.
    EXPECT_NE(message.find("(over by " +
                           std::to_string(demand.peBlocks) + ")"),
              std::string::npos)
        << message;

    // The same breakdown is available standalone for placement
    // messages, and a fitting demand reports "over by 0" everywhere.
    const std::string fits =
        admissionBreakdown(demand, capacityFor(demand, 2));
    EXPECT_EQ(countOccurrences(fits, "(over by 0)"), 4u) << fits;

    // The default registry identity stays the single-chip 'chip0'.
    ModelRegistry defaulted(capacityFor(demand, 1));
    EXPECT_EQ(defaulted.chipId(), "chip0");
    ASSERT_TRUE(defaulted.add("a", model).ok());
    Status again = defaulted.add("b", model);
    ASSERT_FALSE(again.ok());
    EXPECT_NE(again.message().find("on chip 'chip0'"),
              std::string::npos)
        << again.message();
}

// ------------------------------------------------------ SLO scheduler

TEST(SloScheduler, StatsCarryAnOrderedP99Tail)
{
    auto cnn = compileShared(smallCnn());
    EngineOptions options;
    options.workerThreads = 2;
    options.maxBatch = 4;
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->loadModel("m", cnn).ok());

    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back((*engine)->submit("m", probeInput()));
    for (auto &f : futures)
        ASSERT_TRUE(f.get().ok());

    const EngineStats stats = (*engine)->stats();
    EXPECT_LE(stats.p50QueueMillis, stats.p95QueueMillis);
    EXPECT_LE(stats.p95QueueMillis, stats.p99QueueMillis);
    EXPECT_LE(stats.p99QueueMillis, stats.maxQueueMillis);

    auto parsed = parseJson((*engine)->statsJson());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &waits = (*parsed)["aggregate"]["queueWaitMillis"];
    ASSERT_TRUE(waits.isObject());
    EXPECT_NE(waits.find("p99"), nullptr);
    EXPECT_DOUBLE_EQ((*waits.find("p99")).number(),
                     stats.p99QueueMillis);
}

TEST(SloScheduler, HigherPriorityClassJumpsTheQueue)
{
    auto cnn = compileShared(smallCnn());
    EngineOptions options;
    options.workerThreads = 1;
    options.maxBatch = 4;
    options.queueDepth = 1024;
    options.defaultSloMillis = 1000.0; // deadlines dominated by class
    auto engine = Engine::create(ChipCapacity::unlimited(), options);
    ASSERT_TRUE(engine.ok());

    TenantOptions batch_class;
    batch_class.priorityClass = 1;
    TenantOptions interactive;
    interactive.priorityClass = 16; // 1000ms / 16 = 62.5ms budget
    ASSERT_TRUE((*engine)->loadModel("batch", cnn, batch_class).ok());
    ASSERT_TRUE(
        (*engine)->loadModel("interactive", cnn, interactive).ok());

    // Prefill the low-priority queue first, then the high-priority
    // one.  Under round-robin or FIFO the earlier 'batch' requests
    // would win; under EDF the interactive tenant's tighter deadline
    // budget pulls it ahead of the backlog.
    constexpr int kPerTenant = 48;
    std::vector<std::future<StatusOr<InferenceResult>>> batch_futures,
        interactive_futures;
    for (int i = 0; i < kPerTenant; ++i)
        batch_futures.push_back(
            (*engine)->submit("batch", probeInput()));
    for (int i = 0; i < kPerTenant; ++i)
        interactive_futures.push_back(
            (*engine)->submit("interactive", probeInput()));

    double batch_wait = 0.0, interactive_wait = 0.0;
    for (auto &f : batch_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        batch_wait += r->queueMillis;
    }
    for (auto &f : interactive_futures) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.status().toString();
        interactive_wait += r->queueMillis;
    }
    EXPECT_LT(interactive_wait, batch_wait);

    // Both tenants fully served regardless of priority.
    EXPECT_EQ((*engine)->modelStats("batch")->completed, kPerTenant);
    EXPECT_EQ((*engine)->modelStats("interactive")->completed,
              kPerTenant);

    // Priority classes must be positive and SLOs non-negative.
    TenantOptions bad;
    bad.priorityClass = 0;
    EXPECT_EQ((*engine)->loadModel("bad", cnn, bad).code(),
              StatusCode::InvalidArgument);
    bad.priorityClass = 1;
    bad.sloMillis = -1.0;
    EXPECT_EQ((*engine)->loadModel("bad", cnn, bad).code(),
              StatusCode::InvalidArgument);
}

// ------------------------------------------------- completion contract

/**
 * One admission slot and one run counter per request: the ledger the
 * completion-contract tests check.  `admission[id]` is written only by
 * the thread that submitted `id`; `runs[id]` by the engine worker that
 * ran its completion.
 */
struct CompletionLedger
{
    explicit CompletionLedger(int requests)
        : admission(static_cast<std::size_t>(requests), StatusCode::Ok),
          runs(static_cast<std::size_t>(requests))
    {
    }

    Engine::Completion
    doneFor(int id)
    {
        return [this, id](StatusOr<InferenceResult> result) {
            runs[static_cast<std::size_t>(id)].fetch_add(1);
            (result.ok() ? served : failed).fetch_add(1);
        };
    }

    void
    admit(int id, const Status &status)
    {
        admission[static_cast<std::size_t>(id)] = status.code();
        if (status.ok())
            accepted.fetch_add(1);
    }

    int
    totalRuns() const
    {
        int total = 0;
        for (const auto &count : runs)
            total += count.load();
        return total;
    }

    /** Admission error => 0 runs; OK => exactly 1.  Returns accepted. */
    int
    expectContract() const
    {
        int ok = 0;
        for (std::size_t id = 0; id < runs.size(); ++id) {
            const int expected = admission[id] == StatusCode::Ok ? 1 : 0;
            EXPECT_EQ(runs[id].load(), expected)
                << "request " << id << " admitted "
                << statusCodeName(admission[id]);
            ok += expected;
        }
        return ok;
    }

    std::vector<StatusCode> admission;
    std::vector<std::atomic<int>> runs;
    std::atomic<int> accepted{0};
    std::atomic<int> served{0};
    std::atomic<int> failed{0};
};

constexpr int kContractThreads = 4;
constexpr std::uint64_t kContractSeeds[] = {11, 12, 13};

/**
 * Four submitting threads, each replaying its own seeded schedule:
 * request `t * perThread + i` is handed to `submit(rng, id)`, with a
 * seeded yield in front of some submits so the interleaving varies
 * by seed.
 */
template <typename Submit>
void
runSeededSubmitters(int perThread, std::uint64_t seed, Submit submit)
{
    std::vector<std::thread> threads;
    for (int t = 0; t < kContractThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(seed * 1000 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < perThread; ++i) {
                if (rng.bernoulli(0.25))
                    std::this_thread::yield();
                submit(rng, t * perThread + i);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
}

TEST(EngineCompletionContract, NormalServeRunsEachCompletionOnce)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());
    for (std::uint64_t seed : kContractSeeds) {
        SCOPED_TRACE(seed);
        EngineOptions options;
        options.workerThreads = 2;
        auto engine = Engine::create(ChipCapacity::unlimited(), options);
        ASSERT_TRUE(engine.ok());
        ASSERT_TRUE((*engine)->loadModel("cnn", cnn).ok());
        ASSERT_TRUE((*engine)->loadModel("mlp", mlp).ok());

        constexpr int kPerThread = 24;
        CompletionLedger ledger(kContractThreads * kPerThread);
        runSeededSubmitters(kPerThread, seed, [&](Rng &rng, int id) {
            const char *tenant = rng.bernoulli(0.5) ? "cnn" : "mlp";
            ledger.admit(id, (*engine)->submit(tenant, probeInput(),
                                               ledger.doneFor(id)));
        });
        ASSERT_TRUE((*engine)->shutdown().ok());
        EXPECT_EQ(ledger.expectContract(), kContractThreads * kPerThread);
        EXPECT_EQ(ledger.served.load(), kContractThreads * kPerThread);
        EXPECT_EQ(ledger.failed.load(), 0);
    }
}

TEST(EngineCompletionContract, CompletionSeesItsRequestServed)
{
    // Inside its completion a request is already counted as completed
    // and no longer pending, so routing on pendingRequests() right
    // after a result arrives sees an idle replica.
    auto engine = Engine::create(compileShared(smallCnn()));
    ASSERT_TRUE(engine.ok());
    std::promise<std::pair<std::int64_t, std::int64_t>> seen;
    auto observed = seen.get_future();
    ASSERT_TRUE((*engine)
                    ->submit(Engine::kDefaultModel, probeInput(),
                             [&](StatusOr<InferenceResult> r) {
                                 EXPECT_TRUE(r.ok());
                                 seen.set_value(
                                     {(*engine)->pendingRequests(
                                          Engine::kDefaultModel),
                                      (*engine)->stats().completed});
                             })
                    .ok());
    const auto [pending, completed] = observed.get();
    EXPECT_EQ(pending, 0);
    EXPECT_EQ(completed, 1);
    ASSERT_TRUE((*engine)->shutdown().ok());
}

TEST(EngineCompletionContract, FaultFailedBatchesRunEachCompletionOnce)
{
    auto cnn = compileShared(smallCnn());
    for (std::uint64_t seed : kContractSeeds) {
        SCOPED_TRACE(seed);
        auto chaos = std::make_shared<FaultInjector>(seed);
        chaos->setTransientErrorRate("chip0", 0.5);
        EngineOptions options;
        options.workerThreads = 2;
        options.faultHook = chaos;
        auto engine = Engine::create(cnn, options);
        ASSERT_TRUE(engine.ok());

        constexpr int kPerThread = 24;
        CompletionLedger ledger(kContractThreads * kPerThread);
        runSeededSubmitters(kPerThread, seed, [&](Rng &, int id) {
            ledger.admit(id, (*engine)->submit(Engine::kDefaultModel,
                                               probeInput(),
                                               ledger.doneFor(id)));
        });
        ASSERT_TRUE((*engine)->shutdown().ok());
        EXPECT_EQ(ledger.expectContract(), kContractThreads * kPerThread);
        // Every injected fault failed a whole batch of >= 1 request.
        EXPECT_GE(chaos->injectedFaults(), 1);
        EXPECT_GE(ledger.failed.load(), chaos->injectedFaults());
        EXPECT_EQ(ledger.served.load() + ledger.failed.load(),
                  kContractThreads * kPerThread);
    }
}

TEST(EngineCompletionContract, UnloadDrainRacingSubmittersRunsEachOnce)
{
    auto cnn = compileShared(smallCnn());
    auto mlp = compileShared(smallMlp());
    for (std::uint64_t seed : kContractSeeds) {
        SCOPED_TRACE(seed);
        EngineOptions options;
        options.workerThreads = 2;
        auto engine = Engine::create(ChipCapacity::unlimited(), options);
        ASSERT_TRUE(engine.ok());
        ASSERT_TRUE((*engine)->loadModel("keeper", cnn).ok());
        ASSERT_TRUE((*engine)->loadModel("victim", mlp).ok());

        constexpr int kPerThread = 32;
        CompletionLedger ledger(kContractThreads * kPerThread);
        std::thread submitters([&] {
            runSeededSubmitters(kPerThread, seed, [&](Rng &rng, int id) {
                const char *tenant =
                    rng.bernoulli(0.75) ? "victim" : "keeper";
                ledger.admit(id, (*engine)->submit(tenant, probeInput(),
                                                   ledger.doneFor(id)));
            });
        });
        while (ledger.accepted.load() < 16)
            std::this_thread::yield();
        ASSERT_TRUE((*engine)->unloadModel("victim").ok());
        submitters.join();
        ASSERT_TRUE((*engine)->shutdown().ok());

        ledger.expectContract();
        for (StatusCode code : ledger.admission)
            EXPECT_TRUE(code == StatusCode::Ok ||
                        code == StatusCode::Unavailable ||
                        code == StatusCode::InvalidArgument)
                << statusCodeName(code);
        EXPECT_EQ(ledger.failed.load(), 0);
    }
}

TEST(EngineCompletionContract, ShutdownRacingSubmittersRunsEachOnce)
{
    auto cnn = compileShared(smallCnn());
    for (std::uint64_t seed : kContractSeeds) {
        SCOPED_TRACE(seed);
        EngineOptions options;
        options.workerThreads = 2;
        auto engine = Engine::create(cnn, options);
        ASSERT_TRUE(engine.ok());

        constexpr int kPerThread = 32;
        CompletionLedger ledger(kContractThreads * kPerThread);
        std::thread submitters([&] {
            runSeededSubmitters(kPerThread, seed, [&](Rng &, int id) {
                ledger.admit(id, (*engine)->submit(Engine::kDefaultModel,
                                                   probeInput(),
                                                   ledger.doneFor(id)));
            });
        });
        while (ledger.accepted.load() < 16)
            std::this_thread::yield();
        ASSERT_TRUE((*engine)->shutdown().ok());
        // Shutdown has drained: every completion admitted so far has
        // run, and nothing admitted from here on.
        const int runs_at_shutdown = ledger.totalRuns();
        submitters.join();
        EXPECT_EQ(ledger.totalRuns(), runs_at_shutdown);

        EXPECT_EQ(ledger.expectContract(), runs_at_shutdown);
        for (StatusCode code : ledger.admission)
            EXPECT_TRUE(code == StatusCode::Ok ||
                        code == StatusCode::Unavailable)
                << statusCodeName(code);
        EXPECT_EQ(ledger.failed.load(), 0);
    }
}

TEST(EngineCompletionContract, FullQueueRefusesWithoutRunningCompletion)
{
    auto cnn = compileShared(smallCnn());
    for (std::uint64_t seed : kContractSeeds) {
        SCOPED_TRACE(seed);
        auto chaos = std::make_shared<FaultInjector>(seed);
        EngineOptions options;
        options.workerThreads = 2;
        options.maxBatch = 1;
        options.queueDepth = 2;
        options.faultHook = chaos;
        auto engine = Engine::create(cnn, options);
        ASSERT_TRUE(engine.ok());

        // Wedged workers hold at most one request each and the queue
        // two more, so at most 4 of the 64 non-blocking submits fit.
        chaos->wedge("chip0");
        constexpr int kPerThread = 16;
        CompletionLedger ledger(kContractThreads * kPerThread);
        runSeededSubmitters(kPerThread, seed, [&](Rng &, int id) {
            ledger.admit(id, (*engine)->trySubmit(Engine::kDefaultModel,
                                                  probeInput(),
                                                  ledger.doneFor(id)));
        });
        EXPECT_EQ(ledger.totalRuns(), 0);
        int refused = 0;
        for (StatusCode code : ledger.admission) {
            if (code == StatusCode::Ok)
                continue;
            EXPECT_EQ(code, StatusCode::ResourceExhausted)
                << statusCodeName(code);
            ++refused;
        }
        EXPECT_GE(refused, kContractThreads * kPerThread - 4);

        chaos->unwedge("chip0");
        ASSERT_TRUE((*engine)->shutdown().ok());
        EXPECT_EQ(ledger.expectContract(),
                  kContractThreads * kPerThread - refused);
        EXPECT_EQ(ledger.served.load(), ledger.accepted.load());
    }
}

} // namespace
} // namespace fpsa
