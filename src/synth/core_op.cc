#include "synth/core_op.hh"

#include "common/logging.hh"

namespace fpsa
{

const char *
coreOpRoleName(CoreOpRole role)
{
    switch (role) {
      case CoreOpRole::Weight:
        return "weight";
      case CoreOpRole::Reduce:
        return "reduce";
      case CoreOpRole::Pool:
        return "pool";
      case CoreOpRole::Eltwise:
        return "eltwise";
    }
    return "?";
}

CoreOpId
CoreOpGraph::add(CoreOp op)
{
    fpsa_assert(op.rows >= 1 && op.rows <= kCoreOpMaxSide && op.cols >= 1 &&
                    op.cols <= kCoreOpMaxSide,
                "core-op '%s' shape %dx%d exceeds the crossbar",
                op.name.c_str(), op.rows, op.cols);
    ops_.push_back(std::move(op));
    return static_cast<CoreOpId>(ops_.size() - 1);
}

const CoreOp &
CoreOpGraph::op(CoreOpId id) const
{
    fpsa_assert(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
                "core-op id %d out of range", id);
    return ops_[static_cast<std::size_t>(id)];
}

CoreOp &
CoreOpGraph::op(CoreOpId id)
{
    fpsa_assert(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
                "core-op id %d out of range", id);
    return ops_[static_cast<std::size_t>(id)];
}

std::vector<CoreOpId>
CoreOpGraph::opsInGroup(GroupId g) const
{
    std::vector<CoreOpId> out;
    for (CoreOpId id = 0; id < static_cast<CoreOpId>(ops_.size()); ++id)
        if (ops_[static_cast<std::size_t>(id)].group == g)
            out.push_back(id);
    return out;
}

void
CoreOpGraph::validate() const
{
    for (const auto &op : ops_) {
        int in_total = 0;
        for (const auto &in : op.inputs) {
            fpsa_assert(in.length > 0, "core-op '%s' has empty input",
                        op.name.c_str());
            in_total += in.length;
            if (in.producer >= 0) {
                fpsa_assert(static_cast<std::size_t>(in.producer) <
                                ops_.size(),
                            "core-op '%s' references bad producer",
                            op.name.c_str());
                const CoreOp &p =
                    ops_[static_cast<std::size_t>(in.producer)];
                fpsa_assert(in.offset >= 0 &&
                                in.offset + in.length <= p.cols,
                            "core-op '%s' slices outside '%s' output",
                            op.name.c_str(), p.name.c_str());
            }
        }
        const int expected =
            op.rows - (op.offsetLevels > 0 ? 1 : 0);
        fpsa_assert(in_total == expected,
                    "core-op '%s' rows %d (offset lane %d) != inputs %d",
                    op.name.c_str(), op.rows, op.offsetLevels > 0 ? 1 : 0,
                    in_total);
        if (!op.weightLevels.empty()) {
            fpsa_assert(op.weightLevels.size() ==
                            static_cast<std::size_t>(op.rows) * op.cols,
                        "core-op '%s' weight matrix size mismatch",
                        op.name.c_str());
        }
    }
}

} // namespace fpsa
