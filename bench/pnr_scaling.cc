/**
 * @file
 * PnR scaling bench: sweeps synthetic netlist sizes through the full
 * place-and-route flow with the reference (pre-optimization) and
 * incremental (default) placer/router algorithms, and emits one JSON
 * object per line so successive PRs accumulate a machine-readable perf
 * trajectory.
 *
 *   $ ./pnr_scaling > pnr_scaling.jsonl        # full sweep
 *   $ ./pnr_scaling --small > smoke.jsonl      # CI smoke (small sizes)
 *   $ ./pnr_scaling 64 128                     # explicit sweep points
 *
 * The final line is a summary with per-size speedups and quality
 * ratios (routed wirelength, placement HPWL) of incremental vs
 * reference; `largestSpeedup` is the end-to-end speedup at the biggest
 * sweep point.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "pnr/pnr_flow.hh"

using namespace fpsa;

namespace
{

/**
 * A synthetic netlist shaped like the mapper's output (see
 * `netlistFromAllocation`): PEs partitioned into groups of replicas,
 * an SMB buffer per group fanning a wide bus out to every group PE,
 * narrow chain nets between consecutive groups, a control CLB per 8
 * PEs, and sparse random PE-to-PE nets for routing richness.  Group
 * fanout grows with netlist size, the way the duplication degree grows
 * in the paper's Fig. 8 sweep.
 */
Netlist
scalingNetlist(std::uint64_t seed, int blocks)
{
    Rng rng(seed);
    Netlist nl;
    constexpr int kGroups = 8;

    const int pes = std::max(kGroups, blocks * 8 / 10);
    std::vector<std::vector<BlockId>> group_pes(kGroups);
    for (int i = 0; i < pes; ++i) {
        group_pes[static_cast<std::size_t>(i % kGroups)].push_back(
            nl.addBlock(BlockType::Pe, "pe" + std::to_string(i)));
    }

    // Group input buffers: a wide bus fanning out to every replica.
    BlockId prev_smb = -1;
    for (int g = 0; g < kGroups; ++g) {
        const BlockId smb =
            nl.addBlock(BlockType::Smb,
                        std::string("buf").append(std::to_string(g)));
        const std::string group = std::string("g").append(std::to_string(g));
        nl.addNet(group + ".out", smb,
                  group_pes[static_cast<std::size_t>(g)], 64);
        if (prev_smb >= 0) {
            nl.addNet(group + ".in",
                      group_pes[static_cast<std::size_t>(g - 1)][0],
                      {smb}, 64);
        }
        prev_smb = smb;
    }

    // Control CLBs: one per 8 PEs.
    std::vector<BlockId> all_pes;
    for (const auto &g : group_pes)
        all_pes.insert(all_pes.end(), g.begin(), g.end());
    for (std::size_t at = 0; at < all_pes.size(); at += 8) {
        const BlockId clb = nl.addBlock(
            BlockType::Clb, "ctl" + std::to_string(at / 8));
        std::vector<BlockId> targets(
            all_pes.begin() + static_cast<std::ptrdiff_t>(at),
            all_pes.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(at + 8, all_pes.size())));
        nl.addNet("ctl" + std::to_string(at / 8), clb,
                  std::move(targets), 8);
    }

    // Sparse random point-to-point traffic.
    const int widths[3] = {16, 32, 64};
    for (std::size_t i = 0; i < all_pes.size() / 2; ++i) {
        const BlockId a = all_pes[rng.uniformInt(all_pes.size())];
        BlockId b;
        do {
            b = all_pes[rng.uniformInt(all_pes.size())];
        } while (b == a);
        nl.addNet(std::string("r").append(std::to_string(i)), a, {b},
                  widths[rng.uniformInt(3)]);
    }
    return nl;
}

struct ModeResult
{
    double totalMs = 0.0;
    double placeMs = 0.0;
    double routeMs = 0.0;
    bool routed = false;
    int iterations = 0;
    std::int64_t netsRouted = 0;
    std::int64_t wirelength = 0;
    double hpwl = 0.0;
    double avgNetDelay = 0.0;
};

ModeResult
runModeOnce(const Netlist &nl, bool incremental)
{
    PnrOptions opt;
    opt.fullRoute = true;
    opt.placer.algorithm = incremental ? PlacerAlgorithm::Incremental
                                       : PlacerAlgorithm::Reference;
    opt.router.algorithm = incremental ? RouterAlgorithm::Incremental
                                       : RouterAlgorithm::Reference;

    const auto start = std::chrono::steady_clock::now();
    auto result = runPnr(nl, opt);
    const double total =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!result.ok()) {
        std::cerr << "PnR failed: " << result.status().toString() << "\n";
        std::exit(1);
    }

    ModeResult m;
    m.totalMs = total;
    m.placeMs = result->placeMillis;
    m.routeMs = result->routeMillis;
    m.routed = result->routed;
    m.hpwl = result->placementHpwl;
    m.avgNetDelay = result->timing.avgNetDelay;
    if (result->routing) {
        m.iterations = result->routing->iterations;
        m.netsRouted = result->routing->netsRouted;
        m.wirelength = result->routing->totalWirelength;
    }
    return m;
}

/**
 * Best-of-N timing: the algorithms are seed-deterministic, so quality
 * metrics are identical across repeats and only the wall-clock varies
 * with scheduler noise.  Keeping the fastest repeat makes the
 * speedup/regression trajectory stable enough for CI to gate on.
 */
ModeResult
runMode(const Netlist &nl, bool incremental, int repeats)
{
    ModeResult best = runModeOnce(nl, incremental);
    for (int i = 1; i < repeats; ++i) {
        const ModeResult next = runModeOnce(nl, incremental);
        if (next.totalMs < best.totalMs)
            best = next;
    }
    return best;
}

void
emitLine(int blocks, const Netlist &nl, const char *mode,
         const ModeResult &m)
{
    JsonWriter j;
    j.beginObject();
    j.field("bench", "pnr_scaling");
    j.field("blocks", blocks);
    j.field("nets", static_cast<std::int64_t>(nl.nets().size()));
    j.field("wireDemand", nl.totalWireDemand());
    j.field("mode", mode);
    j.field("totalMs", m.totalMs);
    j.field("placeMs", m.placeMs);
    j.field("routeMs", m.routeMs);
    j.field("routed", m.routed);
    j.field("routeIterations", m.iterations);
    j.field("netsRouted", m.netsRouted);
    j.field("wirelength", m.wirelength);
    j.field("placementHpwl", m.hpwl);
    j.field("avgNetDelay", m.avgNetDelay);
    j.endObject();
    std::cout << j.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> sizes{64, 128, 256, 512, 1024, 2048};
    int repeats = 1;
    if (argc > 1 && std::strcmp(argv[1], "--small") == 0) {
        // CI smoke: small sizes are noise-dominated, so take the best
        // of several repeats to stabilize the gated speedup metrics.
        sizes = {64, 128, 256};
        repeats = 5;
    } else if (argc > 1) {
        sizes.clear();
        for (int i = 1; i < argc; ++i)
            sizes.push_back(std::atoi(argv[i]));
    }

    struct Point
    {
        int blocks;
        double speedup;
        double wlRatio;
        double hpwlRatio;
    };
    std::vector<Point> points;

    for (int blocks : sizes) {
        const Netlist nl = scalingNetlist(7, blocks);
        const ModeResult ref = runMode(nl, false, repeats);
        const ModeResult inc = runMode(nl, true, repeats);
        emitLine(blocks, nl, "reference", ref);
        emitLine(blocks, nl, "incremental", inc);
        points.push_back(
            {blocks, inc.totalMs > 0.0 ? ref.totalMs / inc.totalMs : 0.0,
             ref.wirelength > 0
                 ? static_cast<double>(inc.wirelength) / ref.wirelength
                 : 0.0,
             ref.hpwl > 0.0 ? inc.hpwl / ref.hpwl : 0.0});
    }

    JsonWriter j;
    j.beginObject();
    j.field("bench", "pnr_scaling");
    j.field("summary", true);
    j.key("points").beginArray();
    for (const Point &p : points) {
        j.beginObject();
        j.field("blocks", p.blocks);
        j.field("speedup", p.speedup);
        j.field("wirelengthRatio", p.wlRatio);
        j.field("hpwlRatio", p.hpwlRatio);
        j.endObject();
    }
    j.endArray();
    const auto largest = std::max_element(
        points.begin(), points.end(),
        [](const Point &a, const Point &b) { return a.blocks < b.blocks; });
    j.field("largestSpeedup",
            largest == points.end() ? 0.0 : largest->speedup);
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
