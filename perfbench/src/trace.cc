#include "trace.hh"

#include <algorithm>
#include <fstream>

#include "common/json.hh"

namespace perfbench
{

double
microsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const double lo = std::max(s.startUs, p.startUs);
        const double hi = std::min(s.endUs, p.endUs);
        if (hi > lo)
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo,
                                                                      hi);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        for (const auto &[lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        const double duration = spans[i].endUs - spans[i].startUs;
        self[i] = std::max(0.0, duration - covered) / 1000.0;
    }
    return self;
}

std::map<std::string, LayerTime>
timeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesMs(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &t = out[spans[i].name];
        ++t.count;
        t.totalMs += (spans[i].endUs - spans[i].startUs) / 1000.0;
        t.selfMs += self[i];
    }
    return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int
Tracer::add(std::string name, Clock::time_point start,
            Clock::time_point end, int parent, std::int64_t request,
            std::string attrs)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.startUs = microsSince(origin_, start);
    s.endUs = microsSince(origin_, end);
    s.parent = parent;
    s.request = request;
    s.attrs = std::move(attrs);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

int
Tracer::begin(std::string name, int parent)
{
    if (!enabled_)
        return -1;
    const Clock::time_point now = Clock::now();
    return add(std::move(name), now, now, parent);
}

void
Tracer::end(int span)
{
    if (!enabled_ || span < 0)
        return;
    const double now = microsSince(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].endUs = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        fpsa::JsonWriter j;
        j.beginObject();
        j.field("id", static_cast<std::int64_t>(i));
        j.field("name", s.name);
        j.field("startUs", s.startUs);
        j.field("endUs", s.endUs);
        j.field("parent", static_cast<std::int64_t>(s.parent));
        j.field("request", s.request);
        if (!s.attrs.empty())
            j.key("attrs").raw(s.attrs);
        j.endObject();
        out << j.str() << "\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
