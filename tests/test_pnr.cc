/**
 * @file
 * Unit tests for the routing-resource graph, SA placer, PathFinder
 * router, and the combined PnR flow.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/fpsa_arch.hh"
#include "common/rng.hh"
#include "pnr/pnr_flow.hh"
#include "pnr/placement.hh"
#include "pnr/router.hh"
#include "pnr/timing.hh"
#include "routing/rr_graph.hh"

namespace fpsa
{
namespace
{

FpsaArch
smallArch(int side, int channel_width = 512)
{
    ArchParams params;
    params.width = side;
    params.height = side;
    params.channelWidth = channel_width;
    return FpsaArch(params);
}

/** A chain netlist pe0 -> pe1 -> ... -> pe(n-1) of bus width w. */
Netlist
chainNetlist(int n, int width)
{
    Netlist nl;
    std::vector<BlockId> pes;
    for (int i = 0; i < n; ++i)
        pes.push_back(nl.addBlock(BlockType::Pe, "pe" + std::to_string(i)));
    for (int i = 0; i + 1 < n; ++i)
        nl.addNet(std::string("n").append(std::to_string(i)),
                  pes[static_cast<std::size_t>(i)],
                  {pes[static_cast<std::size_t>(i + 1)]}, width);
    return nl;
}

TEST(RrGraph, NodeCountsMatchTopology)
{
    FpsaArch arch = smallArch(4);
    RrGraph g(arch);
    // ChanX: 4*5, ChanY: 5*4, Source+Sink: 16 each.
    EXPECT_EQ(g.nodeCount(), 20u + 20u + 16u + 16u);
    EXPECT_EQ(g.channelSegmentCount(), 40u);
}

TEST(RrGraph, SourceReachesPerimeterChannels)
{
    FpsaArch arch = smallArch(3);
    RrGraph g(arch);
    const auto &adj = g.adjacent(g.sourceAt(1, 1));
    const std::set<RrNodeId> expect{g.chanX(1, 1), g.chanX(1, 2),
                                    g.chanY(1, 1), g.chanY(2, 1)};
    EXPECT_EQ(std::set<RrNodeId>(adj.begin(), adj.end()), expect);
}

TEST(RrGraph, ChannelsConnectThroughSwitchboxes)
{
    FpsaArch arch = smallArch(3);
    RrGraph g(arch);
    // ChanX(1,1) shares corner (1,1) with ChanX(0,1), ChanY(1,0),
    // ChanY(1,1) and corner (2,1) with ChanX(2,1), ChanY(2,0), ChanY(2,1).
    const auto &adj = g.adjacent(g.chanX(1, 1));
    const std::set<RrNodeId> got(adj.begin(), adj.end());
    EXPECT_TRUE(got.count(g.chanX(0, 1)));
    EXPECT_TRUE(got.count(g.chanX(2, 1)));
    EXPECT_TRUE(got.count(g.chanY(1, 0)));
    EXPECT_TRUE(got.count(g.chanY(2, 1)));
}

TEST(RrGraph, CapacityIsChannelWidth)
{
    FpsaArch arch = smallArch(2, 77);
    RrGraph g(arch);
    EXPECT_EQ(g.node(g.chanX(0, 0)).capacity, 77);
    EXPECT_EQ(g.node(g.sourceAt(0, 0)).capacity, 0);
}

TEST(Placer, InitialPlacementIsLegal)
{
    Netlist nl = chainNetlist(10, 64);
    nl.addBlock(BlockType::Smb, "buf");
    nl.addBlock(BlockType::Clb, "ctl");
    FpsaArch arch = FpsaArch::forNetlist(nl);
    Rng rng(1);
    SaPlacer placer;
    Placement p = placer.initialPlacement(nl, arch, rng).value();
    std::set<std::pair<int, int>> used;
    for (std::size_t b = 0; b < nl.blocks().size(); ++b) {
        const auto [x, y] = p.loc[b];
        EXPECT_EQ(arch.siteType(x, y), nl.blocks()[b].type);
        EXPECT_TRUE(used.insert({x, y}).second) << "site reused";
    }
}

TEST(Placer, AnnealingImprovesCost)
{
    Netlist nl = chainNetlist(30, 64);
    FpsaArch arch = smallArch(8);
    Rng rng(2);
    SaPlacer placer;
    const double initial =
        placementCost(nl, placer.initialPlacement(nl, arch, rng).value());
    Placement annealed = placer.place(nl, arch).value();
    const double final_cost = placementCost(nl, annealed);
    EXPECT_LT(final_cost, initial * 0.7);
    // A 30-block chain placed well has cost near 30 (unit steps x 64).
    EXPECT_LT(final_cost, 80.0 * 64.0);
}

TEST(Placer, PlacementStaysLegalAfterAnnealing)
{
    Netlist nl = chainNetlist(12, 32);
    nl.addBlock(BlockType::Smb, "buf0");
    nl.addBlock(BlockType::Clb, "ctl0");
    FpsaArch arch = FpsaArch::forNetlist(nl, 1.5);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    std::set<std::pair<int, int>> used;
    for (std::size_t b = 0; b < nl.blocks().size(); ++b) {
        const auto [x, y] = p.loc[b];
        EXPECT_EQ(arch.siteType(x, y), nl.blocks()[b].type);
        EXPECT_TRUE(used.insert({x, y}).second);
    }
}

TEST(Router, RoutesSimpleChain)
{
    Netlist nl = chainNetlist(5, 64);
    FpsaArch arch = smallArch(4);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    PathFinderRouter router;
    RoutingResult r = router.route(nl, g, p);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.nets.size(), 4u);
    for (const auto &net : r.nets) {
        ASSERT_EQ(net.sinkPaths.size(), 1u);
        EXPECT_GE(net.sinkPaths[0].size(), 3u); // src, >=1 chan, sink
        EXPECT_GT(net.delay, 0.0);
    }
}

TEST(Router, PathsAreContiguousAndEndCorrectly)
{
    Netlist nl = chainNetlist(6, 32);
    FpsaArch arch = smallArch(4);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    RoutingResult r = PathFinderRouter().route(nl, g, p);
    ASSERT_TRUE(r.success);
    for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n) {
        const Net &net = nl.net(n);
        const auto &path = r.nets[static_cast<std::size_t>(n)].sinkPaths[0];
        const auto &[sx, sy] = p.of(net.driver);
        const auto &[tx, ty] = p.of(net.sinks[0]);
        EXPECT_EQ(path.front(), g.sourceAt(sx, sy));
        EXPECT_EQ(path.back(), g.sinkAt(tx, ty));
        // Every consecutive pair is an edge of the graph.
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const auto &adj = g.adjacent(path[i]);
            EXPECT_NE(std::find(adj.begin(), adj.end(), path[i + 1]),
                      adj.end())
                << "broken path in net " << n;
        }
    }
}

TEST(Router, NegotiatesCongestion)
{
    // Many wide nets crossing a tiny chip with narrow channels: the
    // first iteration must overuse, later iterations spread the load.
    Netlist nl;
    std::vector<BlockId> left, right;
    for (int i = 0; i < 6; ++i) {
        left.push_back(nl.addBlock(BlockType::Pe, "l"));
        right.push_back(nl.addBlock(BlockType::Pe, "r"));
    }
    for (int i = 0; i < 6; ++i)
        nl.addNet("n", left[static_cast<std::size_t>(i)],
                  {right[static_cast<std::size_t>(i)]}, 60);
    FpsaArch arch = smallArch(4, 128); // 2 nets/channel tops
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    RoutingResult r = PathFinderRouter().route(nl, g, p);
    EXPECT_TRUE(r.success);
    EXPECT_LE(r.peakChannelUtilization, 1.0);
}

TEST(Router, FailsWhenDemandExceedsSupply)
{
    // Two blocks, 5 nets of width 200 through channels of 256: any
    // legal route of all nets must overuse the perimeter of the source.
    Netlist nl;
    const BlockId a = nl.addBlock(BlockType::Pe, "a");
    const BlockId b = nl.addBlock(BlockType::Pe, "b");
    for (int i = 0; i < 5; ++i)
        nl.addNet("n", a, {b}, 200);
    ArchParams params;
    params.width = 2;
    params.height = 1;
    params.channelWidth = 256;
    params.smbFraction = 0.0;
    params.clbFraction = 0.0;
    FpsaArch arch(params);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    RouterParams rp;
    rp.maxIterations = 8;
    RoutingResult r = PathFinderRouter(rp).route(nl, g, p);
    EXPECT_FALSE(r.success);
    EXPECT_GT(r.overusedSegments, 0);
}

TEST(Router, MultiSinkSharesRouteTree)
{
    Netlist nl;
    const BlockId src = nl.addBlock(BlockType::Pe, "src");
    std::vector<BlockId> sinks;
    for (int i = 0; i < 3; ++i)
        sinks.push_back(nl.addBlock(BlockType::Pe, "snk"));
    nl.addNet("fan", src, sinks, 64);
    FpsaArch arch = smallArch(3);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    RoutingResult r = PathFinderRouter().route(nl, g, p);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.nets[0].sinkPaths.size(), 3u);
}

TEST(Timing, ReportMatchesRouting)
{
    Netlist nl = chainNetlist(5, 16);
    FpsaArch arch = smallArch(4);
    SaPlacer placer;
    Placement p = placer.place(nl, arch).value();
    RrGraph g(arch);
    RoutingResult r = PathFinderRouter().route(nl, g, p);
    ASSERT_TRUE(r.success);
    TimingReport t = analyzeRouting(r);
    ASSERT_EQ(t.netDelay.size(), 4u);
    double mx = 0.0;
    for (double d : t.netDelay)
        mx = std::max(mx, d);
    EXPECT_DOUBLE_EQ(t.maxNetDelay, mx);
    EXPECT_GT(t.avgNetDelay, 0.0);
    EXPECT_LE(t.avgNetDelay, t.maxNetDelay);
    // Serial transfer latencies (Sec. 7.1): counts vs trains.
    EXPECT_NEAR(t.serialTransferLatency(64),
                t.serialTransferLatency(6) * 64.0 / 6.0, 1e-9);
}

TEST(Timing, EstimateTracksDistance)
{
    Netlist nl;
    const BlockId a = nl.addBlock(BlockType::Pe, "a");
    const BlockId b = nl.addBlock(BlockType::Pe, "b");
    nl.addNet("n", a, {b}, 1);
    Placement near, far;
    near.loc = {{0, 0}, {1, 0}};
    far.loc = {{0, 0}, {5, 5}};
    SwitchParams sw;
    EXPECT_LT(estimateNetDelay(nl.net(0), near, sw),
              estimateNetDelay(nl.net(0), far, sw));
    EXPECT_NEAR(estimateNetDelay(nl.net(0), far, sw), sw.pathDelay(10),
                1e-12);
}

/** A pseudo-random netlist with mixed widths and fanouts. */
Netlist
randomNetlist(Rng &rng, int blocks, int nets, int max_width)
{
    Netlist nl;
    for (int b = 0; b < blocks; ++b)
        nl.addBlock(BlockType::Pe, "pe" + std::to_string(b));
    for (int i = 0; i < nets; ++i) {
        const BlockId a = static_cast<BlockId>(
            rng.uniformInt(static_cast<std::uint64_t>(blocks)));
        const int fanout = 1 + static_cast<int>(rng.uniformInt(3));
        std::vector<BlockId> sinks;
        for (int s = 0; s < fanout; ++s) {
            BlockId b;
            do {
                b = static_cast<BlockId>(rng.uniformInt(
                    static_cast<std::uint64_t>(blocks)));
            } while (b == a);
            sinks.push_back(b);
        }
        nl.addNet(std::string("n").append(std::to_string(i)), a,
                  std::move(sinks),
                  1 + static_cast<int>(rng.uniformInt(
                          static_cast<std::uint64_t>(max_width))));
    }
    return nl;
}

/** Check every routed-net invariant the router promises on success:
 *  contiguous source-to-sink paths and no capacitated node used beyond
 *  its capacity (usage recomputed from scratch, not trusted from the
 *  router's own bookkeeping). */
void
expectLegalRouting(const Netlist &nl, const RrGraph &g,
                   const Placement &p, const RoutingResult &r)
{
    ASSERT_EQ(r.nets.size(), nl.nets().size());
    std::vector<std::int64_t> usage(g.nodeCount(), 0);
    for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n) {
        const Net &net = nl.net(n);
        const RoutedNet &routed = r.nets[static_cast<std::size_t>(n)];
        ASSERT_EQ(routed.sinkPaths.size(), net.sinks.size());
        std::set<RrNodeId> charged;
        const auto &[sx, sy] = p.of(net.driver);
        for (std::size_t k = 0; k < net.sinks.size(); ++k) {
            const auto &path = routed.sinkPaths[k];
            const auto &[tx, ty] = p.of(net.sinks[k]);
            ASSERT_GE(path.size(), 2u) << "net " << n;
            EXPECT_EQ(path.front(), g.sourceAt(sx, sy)) << "net " << n;
            EXPECT_EQ(path.back(), g.sinkAt(tx, ty)) << "net " << n;
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                const auto &adj = g.adjacent(path[i]);
                ASSERT_NE(std::find(adj.begin(), adj.end(), path[i + 1]),
                          adj.end())
                    << "broken path in net " << n;
            }
            for (RrNodeId id : path) {
                if (g.node(id).capacity > 0)
                    charged.insert(id);
            }
        }
        for (RrNodeId id : charged)
            usage[static_cast<std::size_t>(id)] += net.width;
    }
    for (std::size_t id = 0; id < g.nodeCount(); ++id) {
        const RrNode &node = g.node(static_cast<RrNodeId>(id));
        if (node.capacity > 0) {
            EXPECT_LE(usage[id], node.capacity)
                << "node " << id << " overused on a successful route";
        }
    }
}

TEST(Router, LegalityInvariantsOnRandomNetlists)
{
    for (int seed : {1, 2, 3}) {
        Rng rng(static_cast<std::uint64_t>(seed) * 7919);
        Netlist nl = randomNetlist(rng, 14, 20, 48);
        FpsaArch arch = FpsaArch::forNetlist(nl);
        SaPlacer placer;
        Placement p = placer.place(nl, arch).value();
        RrGraph g(arch);
        RoutingResult r = PathFinderRouter().route(nl, g, p);
        ASSERT_TRUE(r.success) << "seed " << seed;
        expectLegalRouting(nl, g, p, r);
    }
}

TEST(Router, IncrementalMatchesReferenceQuality)
{
    // Same placement through both router algorithms: both must route
    // legally, and the incremental router's wirelength must stay
    // within 10% of the reference (pre-rewrite) router's.
    for (int seed : {1, 2, 3}) {
        Rng rng(static_cast<std::uint64_t>(seed) * 104729);
        Netlist nl = randomNetlist(rng, 16, 24, 40);
        FpsaArch arch = FpsaArch::forNetlist(nl);
        SaPlacer placer;
        Placement p = placer.place(nl, arch).value();
        RrGraph g(arch);

        RouterParams ref_params;
        ref_params.algorithm = RouterAlgorithm::Reference;
        RoutingResult ref = PathFinderRouter(ref_params).route(nl, g, p);
        RoutingResult inc = PathFinderRouter().route(nl, g, p);
        ASSERT_TRUE(ref.success) << "seed " << seed;
        ASSERT_TRUE(inc.success) << "seed " << seed;
        expectLegalRouting(nl, g, p, inc);
        EXPECT_GT(inc.totalWirelength, 0);
        EXPECT_LE(inc.totalWirelength,
                  static_cast<std::int64_t>(
                      static_cast<double>(ref.totalWirelength) * 1.10))
            << "seed " << seed;
    }
}

TEST(Placer, IncrementalQualityWithinToleranceOfReference)
{
    Rng rng(17);
    Netlist nl = randomNetlist(rng, 24, 30, 64);
    FpsaArch arch = FpsaArch::forNetlist(nl);

    PlacerParams ref_params;
    ref_params.algorithm = PlacerAlgorithm::Reference;
    const double ref_cost = placementCost(
        nl, SaPlacer(ref_params).place(nl, arch).value());
    const double inc_cost =
        placementCost(nl, SaPlacer().place(nl, arch).value());
    EXPECT_GT(inc_cost, 0.0);
    EXPECT_LE(inc_cost, ref_cost * 1.10);
}

TEST(Pnr, SameSeedSameResult)
{
    // Same options (and thus the same seed) must reproduce the exact
    // placement and every routed path, byte for byte: the pipeline is
    // deterministic across runs and platforms.
    Rng rng(99);
    Netlist nl = randomNetlist(rng, 12, 18, 32);
    PnrOptions opt;
    opt.fullRoute = true;
    const PnrResult a = runPnr(nl, opt).value();
    const PnrResult b = runPnr(nl, opt).value();
    ASSERT_TRUE(a.routed);
    ASSERT_TRUE(b.routed);
    EXPECT_EQ(a.placement.loc, b.placement.loc);
    ASSERT_TRUE(a.routing.has_value() && b.routing.has_value());
    ASSERT_EQ(a.routing->nets.size(), b.routing->nets.size());
    for (std::size_t n = 0; n < a.routing->nets.size(); ++n) {
        EXPECT_EQ(a.routing->nets[n].sinkPaths,
                  b.routing->nets[n].sinkPaths)
            << "net " << n;
    }
}

TEST(Placer, InfeasibleNetlistReturnsStatus)
{
    // 9 PEs cannot fit a 2x2 chip: the placer must report Infeasible
    // through the Status channel instead of aborting the process (the
    // same channel Pipeline::placeAndRoute() propagates).
    Netlist nl = chainNetlist(9, 16);
    ArchParams params;
    params.width = 2;
    params.height = 2;
    params.smbFraction = 0.0;
    params.clbFraction = 0.0;
    FpsaArch arch(params);

    SaPlacer placer;
    auto placed = placer.place(nl, arch);
    ASSERT_FALSE(placed.ok());
    EXPECT_EQ(placed.status().code(), StatusCode::Infeasible);

    auto flow = runPnrOnArch(nl, arch, PnrOptions{});
    ASSERT_FALSE(flow.ok());
    EXPECT_EQ(flow.status().code(), StatusCode::Infeasible);
    EXPECT_NE(flow.status().message().find("sites"), std::string::npos);
}

TEST(PnrFlow, ReportsPhaseTimings)
{
    Netlist nl = chainNetlist(8, 64);
    PnrOptions opt;
    const PnrResult r = runPnr(nl, opt).value();
    EXPECT_GE(r.placeMillis, 0.0);
    EXPECT_GE(r.routeMillis, 0.0);
    EXPECT_GT(r.placeMillis + r.routeMillis, 0.0);
}

TEST(PnrFlow, FullFlowOnAutoSizedChip)
{
    Netlist nl = chainNetlist(9, 128);
    PnrOptions opt;
    PnrResult result = runPnr(nl, opt).value();
    EXPECT_TRUE(result.routed);
    ASSERT_TRUE(result.routing.has_value());
    EXPECT_GT(result.timing.avgNetDelay, 0.0);
    EXPECT_GT(result.placementHpwl, 0.0);
}

TEST(PnrFlow, FastModeApproximatesFullMode)
{
    Netlist nl = chainNetlist(16, 64);
    PnrOptions full, fast;
    full.fullRoute = true;
    fast.fullRoute = false;
    fast.placer.seed = full.placer.seed;
    PnrResult rf = runPnr(nl, full).value();
    PnrResult re = runPnr(nl, fast).value();
    ASSERT_TRUE(rf.routed);
    ASSERT_TRUE(re.routed);
    // Same placement seed: estimated delay within 2x of routed delay.
    EXPECT_GT(re.timing.avgNetDelay, rf.timing.avgNetDelay * 0.4);
    EXPECT_LT(re.timing.avgNetDelay, rf.timing.avgNetDelay * 2.5);
}

} // namespace
} // namespace fpsa
