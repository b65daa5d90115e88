#include "obs/metrics.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/binlog.hh"

namespace cnsim
{
namespace obs
{

void
MetricsRegistry::addCounter(const std::string &path, const Counter *c)
{
    addGauge(path, [c]() { return static_cast<double>(c->value()); });
}

void
MetricsRegistry::addGauge(const std::string &path,
                          std::function<double()> fn)
{
    cnsim_assert(std::find(paths.begin(), paths.end(), path) ==
                     paths.end(),
                 "duplicate metric path '%s'", path.c_str());
    paths.push_back(path);
    samplers.push_back(std::move(fn));
}

void
MetricsRegistry::importStatGroup(const StatGroup &group,
                                 const std::string &prefix)
{
    group.forEachCounter([&](const std::string &n, const Counter *c) {
        addCounter(prefix + n, c);
    });
    group.forEachScalar([&](const std::string &n, const Scalar *s) {
        addGauge(prefix + n, [s]() { return s->value(); });
    });
}

void
MetricsRegistry::tick(Tick now)
{
    if (_interval == 0)
        return;
    if (have_snapshot && now < last_snapshot + _interval)
        return;
    snapshot(now);
}

void
MetricsRegistry::snapshot(Tick now)
{
    if (have_snapshot && last_snapshot == now)
        return;
    last_snapshot = now;
    have_snapshot = true;
    if (!binlog || !binlog->active())
        return;
    for (std::size_t i = 0; i < samplers.size(); ++i)
        binlog->appendMetric(now, static_cast<std::uint32_t>(i),
                             samplers[i]());
}

} // namespace obs
} // namespace cnsim
