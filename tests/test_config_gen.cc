/**
 * @file
 * Tests for FPSA configuration generation (the Fig. 5 flow's final
 * artifact): site programs, switch programs, and dump format.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mapper/netlist.hh"
#include "pnr/config_gen.hh"
#include "pnr/pnr_flow.hh"

namespace fpsa
{
namespace
{

PnrResult
routedChain(Netlist &nl, int n)
{
    std::vector<BlockId> pes;
    for (int i = 0; i < n; ++i)
        pes.push_back(nl.addBlock(BlockType::Pe, "pe" + std::to_string(i)));
    for (int i = 0; i + 1 < n; ++i)
        nl.addNet(std::string("n").append(std::to_string(i)),
                  pes[static_cast<std::size_t>(i)],
                  {pes[static_cast<std::size_t>(i + 1)]}, 64);
    PnrOptions opt;
    opt.fullRoute = true;
    return runPnr(nl, opt).value();
}

TEST(ConfigGen, SiteProgramsCoverTheGrid)
{
    Netlist nl;
    const PnrResult pnr = routedChain(nl, 6);
    ASSERT_TRUE(pnr.routed);
    const FpsaConfiguration config =
        FpsaConfiguration::generate(nl, pnr);
    EXPECT_EQ(config.sites().size(),
              static_cast<std::size_t>(pnr.arch.width() *
                                       pnr.arch.height()));
    EXPECT_EQ(config.usedSites(), 6);
    // Every used site names its block and matches the placement.
    int named = 0;
    for (const auto &s : config.sites()) {
        if (s.block < 0)
            continue;
        EXPECT_FALSE(s.blockName.empty());
        EXPECT_EQ(pnr.placement.of(s.block),
                  (std::pair<int, int>{s.x, s.y}));
        ++named;
    }
    EXPECT_EQ(named, 6);
}

TEST(ConfigGen, SwitchProgramsFollowRoutedPaths)
{
    Netlist nl;
    const PnrResult pnr = routedChain(nl, 5);
    ASSERT_TRUE(pnr.routed);
    const FpsaConfiguration config =
        FpsaConfiguration::generate(nl, pnr);
    // Each routed path of length L contributes L-1 switch points.
    std::size_t expected = 0;
    for (const auto &net : pnr.routing->nets)
        for (const auto &path : net.sinkPaths)
            expected += path.size() - 1;
    EXPECT_EQ(config.switches().size(), expected);
    // Programmed ReRAM cells scale with bus width.
    EXPECT_EQ(config.programmedSwitchCells(),
              static_cast<std::int64_t>(expected) * 64);
}

TEST(ConfigGen, CrossbarWriteVolume)
{
    Netlist nl;
    const PnrResult pnr = routedChain(nl, 3);
    const FpsaConfiguration config =
        FpsaConfiguration::generate(nl, pnr);
    // 3 PEs x 256 rows x 512 physical cols x 8 cells.
    EXPECT_EQ(config.crossbarCellWrites(), 3LL * 256 * 512 * 8);
}

TEST(ConfigGen, TextDumpContainsSummary)
{
    Netlist nl;
    const PnrResult pnr = routedChain(nl, 4);
    const FpsaConfiguration config =
        FpsaConfiguration::generate(nl, pnr);
    std::ostringstream os;
    config.writeText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("FPSA configuration"), std::string::npos);
    EXPECT_NE(text.find("site map"), std::string::npos);
    EXPECT_NE(text.find("programmed routing switch points"),
              std::string::npos);
    // The site map shows used PEs as 'P'.
    EXPECT_NE(text.find('P'), std::string::npos);
}

TEST(ConfigGen, MixedBlockTypes)
{
    Netlist nl;
    const BlockId pe = nl.addBlock(BlockType::Pe, "pe");
    const BlockId smb = nl.addBlock(BlockType::Smb, "buf");
    const BlockId clb = nl.addBlock(BlockType::Clb, "ctl");
    nl.addNet("a", pe, {smb}, 64);
    nl.addNet("b", clb, {pe}, 4);
    PnrOptions opt;
    opt.fullRoute = true;
    const PnrResult pnr = runPnr(nl, opt).value();
    ASSERT_TRUE(pnr.routed);
    const FpsaConfiguration config =
        FpsaConfiguration::generate(nl, pnr);
    EXPECT_EQ(config.usedSites(), 3);
    std::ostringstream os;
    config.writeText(os);
    EXPECT_NE(os.str().find('S'), std::string::npos);
    EXPECT_NE(os.str().find('C'), std::string::npos);
}

} // namespace
} // namespace fpsa
