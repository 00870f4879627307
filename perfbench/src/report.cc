#include "report.hh"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"

namespace perfbench
{

void
Report::add(std::string name, double value, std::string unit,
            std::string note)
{
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
}

std::string
Report::humanLines() const
{
    std::ostringstream out;
    for (const Metric &m : metrics_) {
        out << "metric " << m.name << " = " << exactNumber(m.value) << " "
            << m.unit;
        if (!m.note.empty())
            out << " (" << m.note << ")";
        out << "\n";
    }
    return out.str();
}

std::string
exactNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
Report::resultJson(bool correct, std::int64_t attempted,
                   std::int64_t failed,
                   const std::vector<std::string> &keep) const
{
    std::string metrics = "{";
    for (std::size_t i = 0; i < keep.size(); ++i) {
        const Metric *found = nullptr;
        for (const Metric &m : metrics_) {
            if (m.name == keep[i])
                found = &m;
        }
        if (found == nullptr)
            throw std::logic_error("metric not measured: " + keep[i]);
        fpsa::JsonWriter unit;
        unit.value(found->unit);
        fpsa::JsonWriter name;
        name.value(found->name);
        if (i > 0)
            metrics += ", ";
        metrics += name.str() + ": {\"value\": " +
                   exactNumber(found->value) + ", \"unit\": " +
                   unit.str() + "}";
    }
    metrics += "}";
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metrics + "}";
}

} // namespace perfbench
