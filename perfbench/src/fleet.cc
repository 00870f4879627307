/**
 * @file
 * The `fleet` workload: a 3-chip `ClusterEngine` (1 worker per chip,
 * each chip with its own sampled `VariationProfile`) serving requests
 * open-loop to four tenants:
 *
 *  - `cnn`: a small-weight 3-conv CNN on 128x128 images in fp32
 *    (~11 ms, 33 PEs), 3 replicas, 40% of the traffic;
 *  - `cnn_int8`: the same artifact served int8 (per-tenant
 *    ExecutionConfig), 2 replicas, 20%;
 *  - `cnn_acc`: the same artifact with `minAccuracy` 0.90 on 2
 *    replicas, so it is calibrated at load and tracked for drift (the
 *    second replica serves while the first is re-programmed), 20%;
 *  - `wide`: an FC stack whose chip demand fits no single chip, so it
 *    is served as a shard group through `ShardRouter`, 20%.
 *
 * A fixed control script runs beside the requests: `setReplicas`
 * scales `cnn_int8` to 3 and back to 2, then `advanceDrift` pushes
 * `cnn_acc` to STALE and `recalibrateOnce` re-programs it.  Routing,
 * sharding and the control plane work beside the kernels.  Requests
 * are not smaller because on a shared VM a request of a millisecond or
 * less has its p90 set by how often a vCPU stalls for a few
 * milliseconds, which changes from run to run.  The router breaks
 * ties in placement order, so at the reference rate nearly every `cnn`
 * request goes to its first replica and waits there whenever another
 * tenant's request holds that chip's single worker; `p90_ms` includes
 * that wait and `runtime.replica_skew` shows the imbalance.
 */

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "accuracy/calibration.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "reram/variation.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "serving.hh"
#include "stack.hh"
#include "stats.hh"
#include "sysinfo.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kChips = 3;
constexpr int kInputs = 8;
constexpr int kSetupRepeats = 9;
// ~30% of the 3 workers' capacity.  A third or more of the `cnn`
// requests then wait behind another tenant's request on their chip, so
// the p90 sits well inside the waits.  Near 10% of them (at ~40 req/s)
// it would sit on the edge between requests that waited and requests
// that did not, and swing with the host's speed.
constexpr double kReferenceRate = 60.0; // req/s
constexpr double kLimitMs = 250.0;      // p90 limit for peak_rps
constexpr double kMinAccuracy = 0.90;
constexpr int kQueueDepth = 64;
constexpr double kDriftStepSeconds = 5.0; // logical retention clock
constexpr int kPlanRepeats = 50;

// Duplication degrees: the CNN stays small on the chip, and the wide FC
// stack is duplicated until it outgrows one chip (304 PEs against 99
// for the three CNN tenants) while its host cost stays that of a
// 0.5M-weight GEMV chain.
constexpr std::int64_t kCnnDuplication = 1;
constexpr std::int64_t kWideDuplication = 16;

enum Tenant
{
    kCnn,
    kCnnInt8,
    kCnnAcc,
    kWide,
    kTenants
};
const std::vector<std::string> kNames = {"cnn", "cnn_int8", "cnn_acc",
                                         "wide"};
const std::vector<double> kMix = {0.4, 0.2, 0.2, 0.2};

const fpsa::ExecutionConfig kInt8{fpsa::ExecutorKind::Planned,
                                  fpsa::PrecisionMode::Int8,
                                  fpsa::KernelIsa::Auto};

void
check(const fpsa::Status &status, const std::string &what)
{
    if (!status.ok())
        throw std::runtime_error(what + ": " + status.toString());
}

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

fpsa::Graph
cnnGraph()
{
    fpsa::GraphBuilder b({3, 128, 128});
    b.conv(32, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(64, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(64, 3, 1, 1).relu().maxPool(2, 2).maxPool(2, 2);
    b.flatten().fc(10);
    return b.build();
}

fpsa::Graph
wideGraph()
{
    return fpsa::buildMlp(512, {512, 512}, 10);
}

/** Everything one set-up produced. */
struct Stack
{
    std::shared_ptr<const fpsa::CompiledModel> cnn, wide;
    std::unique_ptr<fpsa::ClusterEngine> cluster;
    CompileMeasure compile; //!< summed over both artifacts
    std::vector<double> chipSps;
    double planBuildMs = 0.0;
    double loadMs = 0.0;
    double seconds = 0.0;
};

/**
 * Per-chip capacity: room for one replica of each CNN tenant plus 60%
 * of `wide`.  `wide` then fits no chip whole (it needs more than 0.4 x
 * its demand beyond the CNNs' on some resource) but each half of it
 * fits beside them.
 */
fpsa::ChipCapacity
chipCapacity(const std::vector<const fpsa::ResourceDemand *> &small,
             const fpsa::ResourceDemand &wide)
{
    auto cap = [&](auto field) {
        std::int64_t total = 0;
        for (const fpsa::ResourceDemand *d : small)
            total += d->*field;
        return total + static_cast<std::int64_t>(
                           std::ceil(0.6 * static_cast<double>(wide.*field)));
    };
    fpsa::ChipCapacity c;
    c.peBlocks = cap(&fpsa::ResourceDemand::peBlocks);
    c.smbBlocks = cap(&fpsa::ResourceDemand::smbBlocks);
    c.clbBlocks = cap(&fpsa::ResourceDemand::clbBlocks);
    c.routingTracks = cap(&fpsa::ResourceDemand::routingTracks);
    return c;
}

Stack
setUp(std::uint64_t seed, int rep,
      const std::vector<std::vector<fpsa::Tensor>> &inputs,
      Tracer &tracer)
{
    Stack st;
    const Clock::time_point start = Clock::now();
    ScopedSpan root(tracer, "setup");

    std::vector<fpsa::Graph> graphs;
    const std::vector<std::int64_t> degrees = {kCnnDuplication,
                                               kWideDuplication};
    {
        ScopedSpan span(tracer, "buildGraph", root.id());
        graphs = {cnnGraph(), wideGraph()};
        fpsa::Rng rng(deriveSeed(seed, 1));
        for (fpsa::Graph &g : graphs)
            fpsa::randomizeWeights(g, rng);
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        fpsa::CompileOptions options;
        options.duplicationDegree = degrees[i];
        options.runPlaceAndRoute = true;
        options.pnr.placer.seed = deriveSeed(
            seed, 100 + 10 * static_cast<std::uint64_t>(rep) + i);
        ScopedSpan span(tracer, "compile", root.id());
        CompileMeasure m;
        auto compiled = compileMeasured(std::move(graphs[i]), options,
                                        tracer, span.id(), m);
        check(compiled.status(), "compile");
        // Unroutable is a verdict, not an error (see compileMeasured);
        // pnr.overused_segments carries it.
        st.compile += m;
        st.chipSps.push_back(m.chipSps);
        (i == 0 ? st.cnn : st.wide) =
            std::make_shared<const fpsa::CompiledModel>(
                std::move(compiled).value());
    }
    {
        ScopedSpan span(tracer, "executionPlan", root.id());
        const Clock::time_point t = Clock::now();
        check(st.cnn->executionPlan().status(), "cnn plan");
        check(st.cnn->executionPlan(kInt8.precision, kInt8.kernelIsa)
                  .status(),
              "cnn int8 plan");
        st.planBuildMs = millisSince(t);
    }

    fpsa::VariationModel corner;
    // Quiet enough that every sampled chip can meet kMinAccuracy with
    // some mapping, so placement never depends on the seed's luck.
    corner.sigmaOfRange = 0.012;
    corner.driftPerSecond = 0.002;
    corner.stuckAtRate = 1e-4;
    const std::vector<fpsa::VariationProfile> profiles =
        fpsa::sampleFleetProfiles(corner, deriveSeed(seed, 8), kChips);
    const fpsa::ChipCapacity capacity = chipCapacity(
        {&st.cnn->resourceDemand(), &st.cnn->resourceDemand(),
         &st.cnn->resourceDemand()},
        st.wide->resourceDemand());
    std::vector<fpsa::ChipSpec> chips;
    for (std::size_t c = 0; c < kChips; ++c) {
        fpsa::ChipSpec spec;
        spec.id = "chip" + std::to_string(c);
        spec.capacity = capacity;
        spec.variation = profiles[c];
        chips.push_back(std::move(spec));
    }
    fpsa::ClusterOptions options;
    options.engine.workerThreads = 1;
    // A short per-tenant queue turns overload into back-pressure on
    // the sender (which the latency, timed from the schedule, sees)
    // instead of an ever longer list of requests in flight.
    options.engine.queueDepth = kQueueDepth;
    // Failover supervision off: its reaper resolves each request on a
    // 500 us poll, which makes the light-load median flip between
    // ~0.25 and ~0.75 ms from one run to the next on a VM, depending
    // on how fast an idle vCPU wakes -- a bimodal number no bound can
    // hold.  Routing, scheduling, batching, sharding and the control
    // plane all still run; retries and sheds are then 0 by design.
    options.retryBudget = 0;
    options.calibrationSeed = deriveSeed(seed, 7);
    auto cluster = fpsa::ClusterEngine::create(std::move(chips), options);
    check(cluster.status(), "cluster");
    st.cluster = std::move(cluster).value();

    {
        ScopedSpan span(tracer, "loadModel", root.id());
        const Clock::time_point t = Clock::now();
        // The shard group goes first, onto empty chips; the small
        // tenants then fit beside its stages.
        check(st.cluster->loadModel("wide", st.wide, 1), "load wide");
        check(st.cluster->loadModel("cnn", st.cnn, 3), "load cnn");
        fpsa::TenantOptions int8;
        int8.execution = kInt8;
        check(st.cluster->loadModel("cnn_int8", st.cnn, 2, int8),
              "load cnn_int8");
        fpsa::TenantOptions gated;
        gated.minAccuracy = kMinAccuracy;
        check(st.cluster->loadModel("cnn_acc", st.cnn, 2, gated),
              "load cnn_acc");
        st.loadMs = millisSince(t);
    }
    {
        ScopedSpan span(tracer, "warmup", root.id());
        for (int t = 0; t < kTenants; ++t) {
            for (int i = 0; i < 3; ++i) {
                check(st.cluster
                          ->infer(kNames[static_cast<std::size_t>(t)],
                                  inputs[static_cast<std::size_t>(t)][0])
                          .status(),
                      "warm-up");
            }
        }
    }
    st.seconds = millisSince(start) / 1000.0;
    return st;
}

/** What the control script did during one phase. */
struct ControlLog
{
    std::vector<double> setReplicasMs;
    double driftMs = 0.0;
    int driftSteps = 0;
    bool reachedStale = false;
    double recalibrateMs = 0.0;
    int recalibrations = 0;
    double minServed = 1.0; //!< lowest best-replica accuracy sampled
    std::string error;
};

/** Current accuracy of `model`'s best replica and whether any is STALE. */
std::pair<double, bool>
replicaAccuracy(const fpsa::ClusterEngine &cluster,
                const std::string &model)
{
    double best = 0.0;
    bool stale = false;
    for (const std::string &id : cluster.replicaChips(model)) {
        auto chip = cluster.fleet().indexOf(id);
        if (!chip.ok())
            continue;
        const fpsa::ReplicaAccuracyRecord r =
            cluster.health().replicaAccuracy(*chip, model);
        best = std::max(best, r.currentAccuracy);
        stale = stale || r.state == fpsa::ReplicaAccuracy::Stale;
    }
    return {best, stale};
}

/**
 * The fixed control script, run beside the phase that starts at
 * `start` and lasts `seconds`: each step fires at a fixed fraction of
 * the phase.  The served accuracy is sampled where the serving contract
 * must hold -- before drift and after re-programming.
 */
ControlLog
runControl(fpsa::ClusterEngine &cluster, Clock::time_point start,
           double seconds, Tracer &tracer)
{
    ControlLog c;
    auto at = [&](double fraction) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(fraction * seconds)));
    };
    auto timed = [&](const char *name, auto &&call) {
        const Clock::time_point t = Clock::now();
        call();
        tracer.add(name, t, Clock::now());
        return millisSince(t);
    };
    c.minServed = replicaAccuracy(cluster, "cnn_acc").first;
    for (auto [fraction, replicas] : {std::pair{0.15, 3}, {0.35, 2}}) {
        at(fraction);
        fpsa::Status s;
        c.setReplicasMs.push_back(timed("setReplicas", [&] {
            s = cluster.setReplicas("cnn_int8", replicas);
        }));
        if (!s.ok())
            c.error = "setReplicas: " + s.toString();
        else if (cluster.replicaCount("cnn_int8") != replicas)
            c.error = "setReplicas: cnn_int8 has " +
                      std::to_string(cluster.replicaCount("cnn_int8")) +
                      " replicas, asked for " + std::to_string(replicas);
    }
    at(0.55);
    c.driftMs = timed("advanceDrift", [&] {
        while (!c.reachedStale && c.driftSteps < 1000) {
            cluster.advanceDrift(kDriftStepSeconds);
            ++c.driftSteps;
            c.reachedStale = replicaAccuracy(cluster, "cnn_acc").second;
        }
    });
    // One pass re-programs one STALE replica per tenant; both replicas
    // may have drifted, and each pass keeps the other one serving.
    at(0.60);
    c.recalibrateMs = timed("recalibrateOnce", [&] {
        for (int pass = 0; pass < 3; ++pass) {
            if (!replicaAccuracy(cluster, "cnn_acc").second)
                break;
            for (const auto &action : cluster.recalibrateOnce()) {
                if (action.reason != "recalibration")
                    continue;
                if (action.status.ok())
                    ++c.recalibrations;
                else
                    c.error = "recalibrate: " + action.status.toString();
            }
        }
    });
    const auto [served, stale] = replicaAccuracy(cluster, "cnn_acc");
    c.minServed = std::min(c.minServed, served);
    if (!c.reachedStale || c.recalibrations < 1 || stale)
        c.error += " drift/recalibration did not complete";
    if (c.minServed < kMinAccuracy)
        c.error += " cnn_acc served accuracy " +
                   std::to_string(c.minServed) + " < " +
                   std::to_string(kMinAccuracy);
    return c;
}

/** A phase at the reference rate with the control script beside it. */
std::pair<Phase, ControlLog>
controlledPhase(fpsa::ClusterEngine &cluster, const Traffic &traffic,
                double seconds, std::uint64_t seed,
                Tracer &requests, Tracer &control)
{
    ControlLog log;
    const Clock::time_point start = Clock::now();
    std::thread script(
        [&] { log = runControl(cluster, start, seconds, control); });
    Phase phase;
    try {
        phase = runPhase(traffic, kReferenceRate, seconds, seed, requests);
    } catch (...) {
        script.join();
        throw;
    }
    script.join();
    return {std::move(phase), std::move(log)};
}

/** Chip-engine submissions (retries included) across the fleet. */
std::int64_t
chipSubmissions(const fpsa::ClusterEngine &cluster)
{
    std::int64_t n = 0;
    for (std::size_t c = 0; c < cluster.fleet().size(); ++c)
        n += cluster.fleet().engine(c).stats().submitted;
    return n;
}

/** Completed `cnn` requests per chip. */
std::vector<std::int64_t>
cnnCompleted(const fpsa::ClusterEngine &cluster)
{
    std::vector<std::int64_t> out;
    for (std::size_t c = 0; c < cluster.fleet().size(); ++c) {
        auto s = cluster.fleet().engine(c).modelStats("cnn");
        out.push_back(s.ok() ? s->completed : 0);
    }
    return out;
}

} // namespace

RunOutcome
runFleet(const RunOptions &opts, std::ostream &log)
{
    RunOutcome out;
    Report &report = out.report;
    Tracer tracer(opts.trace);
    Tracer untraced(false);

    // Per-tenant seeded input pools; the three CNN tenants share one
    // artifact.
    const fpsa::Shape cnn_shape = cnnGraph().node(0).outShape;
    const std::vector<fpsa::Shape> shapes = {
        cnn_shape, cnn_shape, cnn_shape, wideGraph().node(0).outShape};
    std::vector<std::vector<fpsa::Tensor>> inputs;
    for (std::size_t t = 0; t < shapes.size(); ++t) {
        inputs.push_back(seededInputs(shapes[t], kInputs,
                                      deriveSeed(opts.seed, 20 + t)));
    }

    // Each set-up is torn down before the next, so the peak RSS is that
    // of one deployment.
    std::vector<double> setup_s, compile_s, chip_sps;
    Stack stack;
    const int reps = opts.trace ? 1 : kSetupRepeats;
    for (int rep = 0; rep < reps; ++rep) {
        if (stack.cluster) {
            check(stack.cluster->shutdown(), "shutdown");
            stack = Stack{};
        }
        Stack st = setUp(opts.seed, rep, inputs, tracer);
        setup_s.push_back(st.seconds);
        compile_s.push_back(st.compile.totalMs() / 1000.0);
        chip_sps.push_back(geomean(st.chipSps));
        log << "setup " << rep << ": " << st.seconds << " s, compile "
            << st.compile.totalMs() << " ms, load " << st.loadMs
            << " ms, modeled " << geomean(st.chipSps)
            << " samples/s (geomean of 2 artifacts), wide in "
            << st.cluster->replicaChips("wide").size() << " chips\n";
        stack = std::move(st);
    }
    fpsa::ClusterEngine &cluster = *stack.cluster;

    const std::vector<const fpsa::CompiledModel *> tenant_models = {
        stack.cnn.get(), stack.cnn.get(), stack.cnn.get(),
        stack.wide.get()};
    std::vector<std::vector<fpsa::Tensor>> refs;
    for (int t = 0; t < kTenants; ++t) {
        refs.push_back(referenceOutputs(
            tenant_models[static_cast<std::size_t>(t)]->graph(),
            inputs[static_cast<std::size_t>(t)]));
    }

    Traffic traffic;
    traffic.tenants = kNames;
    traffic.mix = kMix;
    traffic.inputsPerTenant = kInputs;
    traffic.submit = [&](const Arrival &a) {
        const auto t = static_cast<std::size_t>(a.tenant);
        return cluster.submit(kNames[t],
                              inputs[t][static_cast<std::size_t>(a.input)]);
    };
    traffic.check = [&](const Arrival &a, const fpsa::InferenceResult &r) {
        const fpsa::Tensor &want =
            refs[static_cast<std::size_t>(a.tenant)]
                [static_cast<std::size_t>(a.input)];
        return a.tenant == kCnnInt8 ? matchesInt8(r.output, want)
                                : matchesFp32(r.output, want);
    };

    auto control_ok = [&](const ControlLog &c) {
        if (!c.error.empty()) {
            log << "error: control script:" << c.error << "\n";
            out.correct = false;
        }
        log << "control: setReplicas " << c.setReplicasMs[0] << " / "
            << c.setReplicasMs[1] << " ms, drift " << c.driftSteps
            << " steps of " << kDriftStepSeconds << " s, "
            << c.recalibrations << " re-programmed in "
            << c.recalibrateMs << " ms, min served accuracy "
            << c.minServed << "\n";
    };
    auto count = [&](const Phase &p) {
        out.attempted += static_cast<std::int64_t>(p.load.records.size());
        out.failed += p.load.failed();
    };

    const std::uint64_t phase_seed = deriveSeed(opts.seed, 3);
    if (!opts.trace) {
        auto [phase, control] =
            controlledPhase(cluster, traffic, 0.5 * opts.seconds,
                            phase_seed, untraced, untraced);
        logPhase(log, "reference rate", traffic, phase);
        // Before the saturation probes, whose backlogs of queued inputs
        // would make the high-water mark a measure of the overload.
        report.add("rss_mb", peakRssMiB(), "MiB",
                   "VmHWM after the reference phase");
        control_ok(control);
        count(phase);

        PeakSearch search;
        search.lo = 64.0;
        search.hi = 256.0;
        search.resolution = 0.05;
        search.limitMs = kLimitMs;
        search.minRequests = 550; // >= 110 per 20% tenant for its p90
        search.minSeconds = 0.5 * opts.seconds / 6; // 5 probes + warm-up
        search.minBacklog = 2 * kChips * 8;
        const PeakResult peak =
            findPeak(traffic, search, deriveSeed(opts.seed, 4), log);
        out.attempted += peak.attempted;
        out.failed += peak.wrongOutputs;
        out.correct = out.correct && peak.bisection.anyPassed;

        report.add("setup_s", median(setup_s), "s",
                   std::to_string(reps) + " set-ups, median");
        report.add("compile_s", median(compile_s), "s",
                   "2 artifacts, median of set-ups");
        report.add("chip_sps", median(chip_sps), "samples/s",
                   "modeled, geomean of 2 artifacts, median of set-ups");
        // As on convnet: p50/p90 of the main fp32 tenant.  Over all
        // tenants the p90 would sit where the int8 tenant's slower
        // requests start, and flip with the mix's small fluctuations.
        out.correct &=
            addLatency(report, "p50_ms", "p90_ms", phase, kCnn, log);
        out.correct &= addLatency(report, "int8_p50_ms", "int8_p90_ms",
                                  phase, kCnnInt8, log);
        report.add("peak_rps", peak.bisection.peak, "1/s",
                   std::to_string(peak.bisection.probes.size()) +
                       " probes");
        report.add("cpu_us", cpuUsPerRequest(phase), "us",
                   "per completed request");
    } else {
        auto [plain, plain_control] =
            controlledPhase(cluster, traffic, 0.3 * opts.seconds,
                            phase_seed, untraced, untraced);
        logPhase(log, "untraced", traffic, plain);
        control_ok(plain_control);
        count(plain);

        const std::int64_t submitted_before = chipSubmissions(cluster);
        const std::vector<std::int64_t> cnn_before =
            cnnCompleted(cluster);
        auto [traced, control] =
            controlledPhase(cluster, traffic, 0.3 * opts.seconds,
                            phase_seed, tracer, tracer);
        logPhase(log, "traced", traffic, traced);
        control_ok(control);
        count(traced);

        // Each accepted request costs one chip submission per stage
        // it crosses; anything beyond that is a failover resubmission.
        std::int64_t expected = 0, shed = 0;
        for (const RequestRecord &r : traced.load.records) {
            expected += r.ok ? std::max(1, r.shards) : 1;
            shed += r.code == fpsa::StatusCode::DeadlineExceeded ? 1 : 0;
        }
        const std::vector<std::int64_t> cnn_after =
            cnnCompleted(cluster);
        std::int64_t most = 0, least = -1;
        for (std::size_t c = 0; c < cnn_after.size(); ++c) {
            const std::int64_t n = cnn_after[c] - cnn_before[c];
            most = std::max(most, n);
            least = least < 0 ? n : std::min(least, n);
        }

        addCompileLayers(report, stack.compile);
        report.add("runtime.compiled_model.plan_build_ms",
                   stack.planBuildMs, "ms", "cnn fp32 + int8");
        report.add("runtime.load_ms", stack.loadMs, "ms",
                   "ClusterEngine::loadModel, 4 tenants");
        addRequestLayers(report, traced);
        report.add("runtime.retries",
                   static_cast<double>(std::max<std::int64_t>(
                       0, chipSubmissions(cluster) - submitted_before -
                              expected)),
                   "count", "chip submissions beyond one per stage");
        report.add("runtime.shed", static_cast<double>(shed), "count");
        report.add("runtime.replica_skew",
                   least > 0 ? static_cast<double>(most) / least : 0.0,
                   "ratio", "cnn completions, busiest / idlest chip");
        std::vector<double> shard_ms, shard_bytes;
        for (const RequestRecord &r : traced.load.records) {
            if (r.ok && r.tenant == kWide) {
                shard_ms.push_back(r.latencyMs);
                shard_bytes.push_back(
                    static_cast<double>(r.interconnectBytes));
            }
        }
        report.add("runtime.interconnect_bytes", median(shard_bytes),
                   "bytes", "per wide request");
        // Fleet-only layers (printed, not in the result object).
        report.add("runtime.cluster.shard_p50_ms", median(shard_ms), "ms",
                   std::to_string(shard_ms.size()) + " wide requests");
        report.add("runtime.cluster.set_replicas_ms",
                   (control.setReplicasMs[0] + control.setReplicasMs[1]) /
                       2.0,
                   "ms", "mean of up + down");
        report.add("runtime.cluster.recalibrate_ms", control.recalibrateMs,
                   "ms");
        report.add("accuracy.min_served",
                   std::min(plain_control.minServed, control.minServed),
                   "ratio", "best cnn_acc replica, normalized");

        // Calibration, timed directly against each chip's profile.
        std::vector<double> calibrate_ms;
        const fpsa::ModelCalibrator calibrator;
        for (std::size_t c = 0; c < kChips; ++c) {
            const Clock::time_point t = Clock::now();
            calibrator.calibrate(stack.cnn->graph(),
                                 cluster.fleet().variation(c).model,
                                 kMinAccuracy, deriveSeed(opts.seed, 9));
            calibrate_ms.push_back(millisSince(t));
            tracer.add("calibrate", t, Clock::now());
        }
        report.add("accuracy.calibrate_ms", median(calibrate_ms), "ms",
                   "ModelCalibrator::calibrate, median of 3 chips");

        auto fp32_plan = stack.cnn->executionPlan();
        auto int8_plan =
            stack.cnn->executionPlan(kInt8.precision, kInt8.kernelIsa);
        check(fp32_plan.status(), "cnn plan");
        check(int8_plan.status(), "cnn int8 plan");
        PlanTiming fp32, int8;
        {
            ScopedSpan span(tracer, "planRun");
            fp32 = timePlan(**fp32_plan, inputs[kCnn][0], 8, kPlanRepeats);
            int8 = timePlan(**int8_plan, inputs[kCnn][0], 8, kPlanRepeats);
        }
        KernelReplay replay;
        {
            ScopedSpan span(tracer, "kernelReplay");
            replay = replayKernels(stack.cnn->graph(),
                                   deriveSeed(opts.seed, 5), 20, tracer);
        }
        log << replay.table();
        addExecutionLayers(report, fp32, int8, replay, replay);
        addTraceOverhead(report, plain, traced);
        finishTrace(tracer, opts, log);
        report.add("rss_mb", peakRssMiB(), "MiB", "VmHWM");
    }
    out.correct = out.correct && out.failed == 0;
    check(cluster.shutdown(), "shutdown");
    return out;
}

} // namespace perfbench
