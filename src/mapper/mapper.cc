#include "mapper/mapper.hh"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace fpsa
{

Netlist
netlistFromAllocation(const SynthesisSummary &summary,
                      const AllocationResult &allocation,
                      const MapperOptions &options)
{
    fpsa_assert(allocation.groups.size() == summary.groups.size(),
                "allocation does not match the summary");
    Netlist nl;

    // Whole-model replicas are independent pipelines; build each one.
    for (std::int64_t rep = 0; rep < allocation.replicas; ++rep) {
        const std::string rp =
            allocation.replicas > 1 ? "r" + std::to_string(rep) + "." : "";

        // PE blocks: per group, `duplication` copies of each tile.
        std::vector<std::vector<BlockId>> group_pes(summary.groups.size());
        for (const auto &a : allocation.groups) {
            const SynthGroup &g =
                summary.groups[static_cast<std::size_t>(a.group)];
            for (std::int64_t copy = 0; copy < a.duplication; ++copy) {
                for (std::int64_t t = 0; t < g.tilesPerInstance; ++t) {
                    group_pes[static_cast<std::size_t>(a.group)].push_back(
                        nl.addBlock(BlockType::Pe,
                                    rp + g.name + ".d" +
                                        std::to_string(copy) + ".t" +
                                        std::to_string(t),
                                    a.group));
                }
            }
        }

        // Inter-group edges: producer copy -> SMB -> consumer copies.
        // One SMB per edge decouples the pipeline stages (Algorithm 1's
        // buffer insertion, applied at group granularity).
        for (std::size_t gi = 0; gi < summary.groups.size(); ++gi) {
            const SynthGroup &g = summary.groups[gi];
            for (int pred : g.preds) {
                const auto &src =
                    group_pes[static_cast<std::size_t>(pred)];
                const auto &dst = group_pes[gi];
                fpsa_assert(!src.empty() && !dst.empty(), "empty group");
                const BlockId smb = nl.addBlock(
                    BlockType::Smb,
                    rp +
                        summary.groups[static_cast<std::size_t>(pred)]
                            .name +
                        "->" + g.name);
                // Producer copies feed the buffer.
                nl.addNet(rp + g.name + ".in", src[0],
                          std::vector<BlockId>{smb}, options.busWidth);
                // The buffer fans out to every consumer copy.
                nl.addNet(rp + g.name + ".out", smb, dst,
                          options.busWidth);
            }
            if (g.preds.empty()) {
                // External input lands in a buffer first.
                const BlockId smb =
                    nl.addBlock(BlockType::Smb, rp + g.name + ".inbuf");
                nl.addNet(rp + g.name + ".ext", smb, group_pes[gi],
                          options.busWidth);
            }
        }
    }

    // Control CLBs: one per `pesPerClb` PEs, driving them.
    const int total_pes = nl.countBlocks(BlockType::Pe);
    int assigned = 0;
    BlockId pe_cursor = 0;
    while (assigned < total_pes) {
        const BlockId clb = nl.addBlock(
            BlockType::Clb, "ctl" + std::to_string(assigned));
        std::vector<BlockId> targets;
        while (static_cast<int>(targets.size()) < options.pesPerClb &&
               assigned < total_pes) {
            while (nl.block(pe_cursor).type != BlockType::Pe)
                ++pe_cursor;
            targets.push_back(pe_cursor++);
            ++assigned;
        }
        nl.addNet("ctl", clb, targets, options.controlWidth);
    }

    nl.validate();
    return nl;
}

Netlist
netlistFromSchedule(const CoreOpGraph &graph,
                    const std::vector<int> &pe_assignment, int pe_count,
                    const ScheduleResult &schedule,
                    const MapperOptions &options)
{
    Netlist nl;
    std::vector<BlockId> pe_blocks;
    pe_blocks.reserve(static_cast<std::size_t>(pe_count));
    for (int p = 0; p < pe_count; ++p)
        pe_blocks.push_back(
            nl.addBlock(BlockType::Pe, "pe" + std::to_string(p)));

    // Buffered edges get an SMB; everything else is a direct net.
    // Aggregate by (producer PE, consumer PE) so fanout shares one bus.
    std::map<CoreOpId, BlockId> edge_smb;
    std::map<int, std::set<int>> direct; // producer PE -> consumer PEs
    std::map<CoreOpId, std::set<int>> buffered; // producer op -> PEs

    for (CoreOpId v = 0; v < static_cast<CoreOpId>(graph.size()); ++v) {
        const int v_pe = pe_assignment[static_cast<std::size_t>(v)];
        for (const auto &in : graph.op(v).inputs) {
            if (in.producer < 0)
                continue;
            const int u_pe =
                pe_assignment[static_cast<std::size_t>(in.producer)];
            if (schedule.bufferedEdges.count({in.producer, v})) {
                buffered[in.producer].insert(v_pe);
            } else if (u_pe != v_pe) {
                direct[u_pe].insert(v_pe);
            }
        }
    }

    for (const auto &[u_pe, sinks] : direct) {
        std::vector<BlockId> sink_blocks;
        for (int s : sinks)
            sink_blocks.push_back(pe_blocks[static_cast<std::size_t>(s)]);
        std::string net_name = "d";
        net_name += std::to_string(u_pe);
        nl.addNet(std::move(net_name),
                  pe_blocks[static_cast<std::size_t>(u_pe)], sink_blocks,
                  options.busWidth);
    }
    for (const auto &[u, sinks] : buffered) {
        const int u_pe = pe_assignment[static_cast<std::size_t>(u)];
        const BlockId smb =
            nl.addBlock(BlockType::Smb, "buf" + std::to_string(u));
        edge_smb[u] = smb;
        nl.addNet("bw" + std::to_string(u),
                  pe_blocks[static_cast<std::size_t>(u_pe)],
                  std::vector<BlockId>{smb}, options.busWidth);
        std::vector<BlockId> sink_blocks;
        for (int s : sinks)
            sink_blocks.push_back(pe_blocks[static_cast<std::size_t>(s)]);
        nl.addNet("br" + std::to_string(u), smb, sink_blocks,
                  options.busWidth);
    }

    // Control CLBs.
    int assigned = 0;
    while (assigned < pe_count) {
        const BlockId clb =
            nl.addBlock(BlockType::Clb, "ctl" + std::to_string(assigned));
        std::vector<BlockId> targets;
        while (static_cast<int>(targets.size()) < options.pesPerClb &&
               assigned < pe_count) {
            targets.push_back(
                pe_blocks[static_cast<std::size_t>(assigned++)]);
        }
        nl.addNet("ctl", clb, targets, options.controlWidth);
    }

    nl.validate();
    return nl;
}

} // namespace fpsa
