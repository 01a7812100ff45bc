#include "harness/run_spec.hh"

#include <limits>

#include "common/jsonio.hh"
#include "common/parse.hh"
#include "graph/datasets.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"

namespace gds::harness
{

std::string
systemName(SystemId id)
{
    switch (id) {
      case SystemId::GraphDynS:
        return "GraphDynS";
      case SystemId::Graphicionado:
        return "Graphicionado";
      case SystemId::Gunrock:
        return "Gunrock";
    }
    panic("bad system id");
}

Result<SystemId>
parseSystem(const std::string &name)
{
    const std::string s = common::lowercase(name);
    if (s == "gds" || s == "graphdyns")
        return SystemId::GraphDynS;
    if (s == "graphicionado")
        return SystemId::Graphicionado;
    if (s == "gunrock")
        return SystemId::Gunrock;
    return Status::failure(ErrorCode::Config,
                           "unknown system '" + name +
                               "' (want gds, graphicionado or gunrock)");
}

const char *
systemTag(SystemId id)
{
    switch (id) {
      case SystemId::GraphDynS:
        return "gds";
      case SystemId::Graphicionado:
        return "graphicionado";
      case SystemId::Gunrock:
        return "gunrock";
    }
    panic("bad system id");
}

std::string
variantName(GdsVariant v)
{
    switch (v) {
      case GdsVariant::Full:
        return "WEAU";
      case GdsVariant::Wb:
        return "WB";
      case GdsVariant::We:
        return "WE";
      case GdsVariant::Wea:
        return "WEA";
      case GdsVariant::NoWb:
        return "noWB";
    }
    panic("bad variant");
}

core::GdsConfig
applyVariant(core::GdsConfig cfg, GdsVariant v)
{
    switch (v) {
      case GdsVariant::Full:
        break;
      case GdsVariant::Wb:
        cfg.exactPrefetch = false;
        cfg.zeroStallAtomics = false;
        cfg.updateScheduling = false;
        break;
      case GdsVariant::We:
        cfg.zeroStallAtomics = false;
        cfg.updateScheduling = false;
        break;
      case GdsVariant::Wea:
        cfg.updateScheduling = false;
        break;
      case GdsVariant::NoWb:
        cfg.workloadBalance = false;
        break;
    }
    return cfg;
}

unsigned
iterationCap(algo::AlgorithmId id)
{
    // PR runs a fixed budget (the paper's "maximum number of
    // iterations"); the monotone algorithms converge on their own.
    return id == algo::AlgorithmId::Pr ? 10 : 1000;
}

VertexId
sourceFor(algo::AlgorithmId id, const graph::Csr &g)
{
    switch (id) {
      case algo::AlgorithmId::Bfs:
      case algo::AlgorithmId::Sssp:
      case algo::AlgorithmId::Sswp:
        return algo::defaultSource(g);
      default:
        return 0;
    }
}

std::string
RunSpec::key() const
{
    std::string k = cellKey(systemTag(system), algorithm, dataset);
    // Only overrides that change the simulated outcome extend the key:
    // a spec with none reuses (and warms) the evaluation matrix's cells.
    if (source)
        k += "|src" + std::to_string(*source);
    if (iterations)
        k += "|it" + std::to_string(*iterations);
    if (cycleBudget != 0)
        k += "|cb" + std::to_string(cycleBudget);
    if (system == SystemId::GraphDynS) {
        // The iteration cap is keyed above, whatever gds.maxIterations
        // holds; every other knob is keyed through the config hash.
        core::GdsConfig knobs = gds;
        knobs.maxIterations = core::GdsConfig{}.maxIterations;
        const std::string hash = configHash(knobs);
        if (hash != configHash(core::GdsConfig{}))
            k += "|cfg" + hash;
        if (variant != GdsVariant::Full)
            k += '|' + variantName(variant);
    }
    return k;
}

VertexId
RunSpec::sourceIn(const graph::Csr &g) const
{
    return source ? *source : sourceFor(algorithm, g);
}

unsigned
RunSpec::iterationLimit() const
{
    return iterations ? *iterations : iterationCap(algorithm);
}

core::GdsConfig
RunSpec::gdsConfig() const
{
    core::GdsConfig cfg = gds;
    cfg.maxIterations = iterationLimit();
    return applyVariant(cfg, variant);
}

// ---------------------------------------------------------------------
// The field table.
// ---------------------------------------------------------------------

namespace
{

using Kind = SpecField::Kind;
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

Status
storeDataset(RunSpec &spec, const std::string &name, std::uint64_t, double)
{
    for (const auto *list :
         {&graph::realWorldDatasets(), &graph::rmatDatasets()})
        for (const auto &d : *list)
            if (d.name == name) {
                spec.dataset = name;
                return Status{};
            }
    return Status::failure(ErrorCode::Config,
                           "unknown dataset '" + name +
                               "' (want a Table 4 tag: FR PK LJ HO IN OR "
                               "or RM22..RM26)");
}

/** A Switch field clearing one GraphDynS scheduling technique. */
template <bool core::GdsConfig::*Technique>
Status
disableTechnique(RunSpec &spec, const std::string &, std::uint64_t, double)
{
    spec.gds.*Technique = false;
    return Status{};
}

std::string
fieldName(const SpecField &f, bool cli)
{
    return cli ? std::string(f.flag)
               : "field '" + std::string(f.json) + "'";
}

Status
fieldError(const SpecField &f, bool cli, const std::string &message)
{
    return Status::failure(ErrorCode::Config,
                           fieldName(f, cli) + ": " + message);
}

} // namespace

const std::vector<SpecField> &
specFields()
{
    static const std::vector<SpecField> fields = {
        {"--system", "system", Kind::Name, 0, 0, false,
         [](RunSpec &s, const std::string &text, std::uint64_t, double) {
             auto id = parseSystem(text);
             if (id.ok())
                 s.system = id.value();
             return id.status();
         }},
        {"--algo", "algorithm", Kind::Name, 0, 0, false,
         [](RunSpec &s, const std::string &text, std::uint64_t, double) {
             auto id = algo::parseAlgorithm(text);
             if (id.ok())
                 s.algorithm = id.value();
             return id.status();
         }},
        {"--dataset", "dataset", Kind::Name, 0, 0, false, storeDataset},
        {"--source", "source", Kind::Count, 0,
         std::numeric_limits<VertexId>::max(), false,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             s.source = static_cast<VertexId>(n);
             return Status{};
         }},
        {"--iters", "iterations", Kind::Count, 1, 1'000'000, false,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             s.iterations = static_cast<unsigned>(n);
             return Status{};
         }},
        {"--cycle-budget", "cycle_budget", Kind::Count, 0, kU64Max, false,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             s.cycleBudget = n;
             return Status{};
         }},
        {"--wall-budget", "wall_budget_seconds", Kind::Seconds, 0, 0,
         false,
         [](RunSpec &s, const std::string &, std::uint64_t, double t) {
             s.wallBudgetSeconds = t;
             return Status{};
         }},
        {"--progress-interval", "progress_interval", Kind::Count, 0,
         kU64Max, true,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             s.progressInterval = n;
             return Status{};
         }},
        {"--pes", "pes", Kind::Count, 1, 1 << 20, false,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             // One Dispatcher per PE, as in the paper's Table 3.
             s.gds.numPes = static_cast<unsigned>(n);
             s.gds.numDispatchers = s.gds.numPes;
             return Status{};
         }},
        {"--ues", "ues", Kind::Count, 1, 1 << 20, false,
         [](RunSpec &s, const std::string &, std::uint64_t n, double) {
             s.gds.numUes = static_cast<unsigned>(n);
             return Status{};
         }},
        {"--no-wb", "no_wb", Kind::Switch, 0, 0, false,
         disableTechnique<&core::GdsConfig::workloadBalance>},
        {"--no-ep", "no_ep", Kind::Switch, 0, 0, false,
         disableTechnique<&core::GdsConfig::exactPrefetch>},
        {"--no-ao", "no_ao", Kind::Switch, 0, 0, false,
         disableTechnique<&core::GdsConfig::zeroStallAtomics>},
        {"--no-us", "no_us", Kind::Switch, 0, 0, false,
         disableTechnique<&core::GdsConfig::updateScheduling>},
    };
    return fields;
}

const SpecField *
specFieldByFlag(const std::string &flag)
{
    for (const SpecField &f : specFields())
        if (flag == f.flag)
            return &f;
    return nullptr;
}

Result<RunSpec>
parseSpec(const SpecValues &values, bool cli, bool need_dataset)
{
    const SpecField *algorithm = specFieldByFlag("--algo");
    for (const SpecField *f : {algorithm, specFieldByFlag("--dataset")}) {
        if (!values.count(f) && (f == algorithm || need_dataset))
            return Status::failure(ErrorCode::Config,
                                   "missing " + fieldName(*f, cli));
    }

    RunSpec spec;
    for (const auto &[f, text] : values) {
        std::uint64_t count = 0;
        double seconds = 0.0;
        if (f->kind == Kind::Count) {
            const auto parsed = common::parseU64(text);
            if (!parsed.ok())
                return fieldError(*f, cli, parsed.status().message());
            count = parsed.value();
            if (count < f->min || count > f->max)
                return fieldError(
                    *f, cli,
                    text + " is outside [" + std::to_string(f->min) +
                        ", " + std::to_string(f->max) + "]");
        } else if (f->kind == Kind::Seconds) {
            const auto parsed = common::parseF64(text);
            if (!parsed.ok())
                return fieldError(*f, cli, parsed.status().message());
            seconds = parsed.value();
        }
        if (Status s = f->store(spec, text, count, seconds); !s.ok())
            return fieldError(*f, cli, s.message());
    }

    if (Status s = core::validateConfig(spec.gdsConfig()); !s.ok())
        return Status::failure(ErrorCode::Config,
                               "GraphDynS config: " + s.message());
    return spec;
}

Result<SpecValues>
specValuesFromJson(const common::JsonValue &obj)
{
    SpecValues values;
    for (const SpecField &f : specFields()) {
        const common::JsonValue *v = obj.find(f.json);
        if (!v)
            continue;
        const auto wrong_type = [&](const char *want) {
            return fieldError(f, false, std::string("must be ") + want);
        };
        switch (f.kind) {
          case Kind::Name:
            if (!v->isString())
                return wrong_type("a string");
            values[&f] = v->asString();
            break;
          case Kind::Count:
          case Kind::Seconds:
            // Both "source":3 and "source":"3" funnel into the same
            // strict parser the command-line flags use.
            if (v->isNumber())
                values[&f] = v->numberLexeme();
            else if (v->isString())
                values[&f] = v->asString();
            else
                return wrong_type("a number");
            break;
          case Kind::Switch:
            if (!v->isBool())
                return wrong_type("true or false");
            if (v->asBool())
                values[&f] = "";
            break;
        }
    }
    return values;
}

std::string
specJsonMembers(const SpecValues &values)
{
    std::string out;
    for (const auto &[f, text] : values) {
        out += ',';
        out += common::jsonQuote(f->json);
        out += ':';
        out += f->kind == Kind::Switch ? "true" : common::jsonQuote(text);
    }
    return out;
}

} // namespace gds::harness
