#include "common/fault_injection.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

namespace paralog {

namespace {

std::mutex &
armMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, std::uint64_t> &
armedFaults()
{
    static std::map<std::string, std::uint64_t> faults;
    return faults;
}

/** Parse "point=value;point=value" looking for @p point. A bare
 *  "point" (no '=') arms it with value 0. Separators: ';' or ','. */
std::optional<std::uint64_t>
lookupSpec(const char *spec, const std::string &point)
{
    std::string s(spec);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t end = s.find_first_of(";,", pos);
        if (end == std::string::npos)
            end = s.size();
        std::string entry = s.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        std::size_t eq = entry.find('=');
        std::string name = entry.substr(0, eq);
        if (name != point)
            continue;
        if (eq == std::string::npos)
            return 0;
        return std::strtoull(entry.c_str() + eq + 1, nullptr, 10);
    }
    return std::nullopt;
}

} // namespace

std::optional<std::uint64_t>
faultValue(const std::string &point)
{
    {
        std::lock_guard<std::mutex> lock(armMutex());
        auto it = armedFaults().find(point);
        if (it != armedFaults().end())
            return it->second;
    }
    if (const char *spec = std::getenv("PARALOG_FAULT"))
        return lookupSpec(spec, point);
    return std::nullopt;
}

bool
faultHits(const std::string &point, std::uint64_t value)
{
    std::optional<std::uint64_t> v = faultValue(point);
    return v && *v == value;
}

void
armFault(const std::string &point, std::uint64_t value)
{
    std::lock_guard<std::mutex> lock(armMutex());
    armedFaults()[point] = value;
}

void
clearFault(const std::string &point)
{
    std::lock_guard<std::mutex> lock(armMutex());
    armedFaults().erase(point);
}

void
clearAllFaults()
{
    std::lock_guard<std::mutex> lock(armMutex());
    armedFaults().clear();
}

} // namespace paralog
