#include "obs/sampler.hh"

#include <fstream>

#include "common/error.hh"
#include "common/log.hh"

namespace gds::obs
{

void
Sampler::add(std::string name, std::function<double()> probe)
{
    gds_require(!sealed, ConfigError,
                "sampler probes cannot be added after the first sample");
    gds_require(static_cast<bool>(probe), ConfigError,
                "sampler probe '%s' is empty", name.c_str());
    for (const Probe &p : probes) {
        gds_require(p.name != name, ConfigError,
                    "duplicate sampler probe '%s'", name.c_str());
    }
    probes.push_back(Probe{std::move(name), std::move(probe)});
}

void
Sampler::addScalar(std::string name, const stats::Scalar &s)
{
    add(std::move(name), [&s] { return s.value(); });
}

void
Sampler::addGroup(const stats::Group &group, const std::string &prefix)
{
    for (const stats::Stat *s : group.stats()) {
        if (const auto *scalar = dynamic_cast<const stats::Scalar *>(s))
            addScalar(prefix + s->name(), *scalar);
    }
    for (const stats::Group *child : group.childGroups())
        addGroup(*child, prefix + child->name() + ".");
}

void
Sampler::sample(Cycle cycle)
{
    if (!sealed) {
        std::vector<std::string> names;
        names.reserve(probes.size());
        for (const Probe &p : probes)
            names.push_back(p.name);
        table.setColumns(std::move(names));
        row.resize(probes.size());
        sealed = true;
    }
    for (std::size_t i = 0; i < probes.size(); ++i)
        row[i] = probes[i].fn();
    table.addRow(cycle, row);
    if (onSample)
        onSample(cycle, row);
}

bool
Sampler::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        writeCsv(out);
    if (!out) {
        log::warnf("obs", {}, "cannot write sample file '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace gds::obs
