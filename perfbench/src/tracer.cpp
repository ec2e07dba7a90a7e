#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

#include "util.hpp"

namespace perfbench {

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::uint32_t
Tracer::open(const char *name, std::string label, bool nested)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = openStack_.empty() ? 0 : openStack_.back();
    s.name = name;
    s.label = std::move(label);
    s.start = nowS();
    spans_.push_back(std::move(s));
    if (nested)
        openStack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(std::uint32_t id)
{
    spans_[id - 1].end = nowS();
    // Nested spans close innermost first.
    if (!openStack_.empty() && openStack_.back() == id)
        openStack_.pop_back();
}

void
Tracer::event(const char *name, double seconds)
{
    Aggregate &a = aggregates_[name];
    ++a.calls;
    a.totalS += seconds;
    if (!openStack_.empty())
        spans_[openStack_.back() - 1].eventS += seconds;
}

std::vector<double>
Tracer::coveredByChildren() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent)
            kids[s.parent - 1].emplace_back(s.start, s.end);
    std::vector<double> covered(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        std::vector<std::pair<double, double>> &k = kids[i];
        std::sort(k.begin(), k.end());
        double end = -1e300;
        for (auto [a, b] : k) {
            a = std::max(a, end);
            if (b > a) {
                covered[i] += b - a;
                end = b;
            }
        }
        covered[i] += spans_[i].eventS;
    }
    return covered;
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::map<std::string, double> self;
    const std::vector<double> covered = coveredByChildren();
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
    for (const auto &[name, a] : aggregates_)
        self[name] += a.totalS;
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    const std::vector<double> covered = coveredByChildren();
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                     "\"label\":\"%s\",\"start_us\":%.3f,"
                     "\"dur_us\":%.3f,\"self_us\":%.3f}\n",
                     s.id, s.parent, s.name.c_str(),
                     jsonEscape(s.label).c_str(), (s.start - t0) * 1e6,
                     (s.end - s.start) * 1e6,
                     (s.end - s.start - covered[s.id - 1]) * 1e6);
    }
    for (const auto &[name, a] : aggregates_) {
        std::fprintf(f,
                     "{\"aggregate\":\"%s\",\"calls\":%llu,"
                     "\"total_us\":%.3f}\n",
                     name.c_str(), static_cast<unsigned long long>(a.calls),
                     a.totalS * 1e6);
    }
    return std::fclose(f) == 0;
}

void
Tracer::clear()
{
    spans_.clear();
    openStack_.clear();
    aggregates_.clear();
}

} // namespace perfbench
