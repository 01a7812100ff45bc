/**
 * @file
 * RunSpec: the one description of what to simulate, shared by every
 * entry point — the evaluation matrix, the figure benches, gds_sim, the
 * gds_simd daemon and gds_cli. A spec names a system, an algorithm and a
 * dataset plus optional overrides (source, iteration cap, budgets, the
 * GraphDynS knobs and ablation variant); harness::run() (experiment.hh)
 * turns it into a RunRecord.
 *
 * The spec's user-settable fields are listed once, in specFields(): each
 * entry maps the command-line spelling (--cycle-budget) to the request
 * spelling (cycle_budget) and carries the field's one bound. gds_sim's
 * argv loop, gds_cli submit and the daemon's submit parser all collect
 * SpecValues and build the spec through parseSpec(), so the three accept
 * the same fields with the same checks.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/vcpm.hh"
#include "common/error.hh"
#include "common/types.hh"
#include "core/config.hh"

namespace gds::common
{
class JsonValue;
}

namespace gds::graph
{
class Csr;
}

namespace gds::harness
{

/** The three evaluated systems. */
enum class SystemId
{
    GraphDynS,
    Graphicionado,
    Gunrock,
};

std::string systemName(SystemId id);

/**
 * Parse a system name, case-insensitively ("gds" or "graphdyns",
 * "graphicionado", "gunrock"). An unknown name is a Config failure.
 */
Result<SystemId> parseSystem(const std::string &name);

/** Result-cache key tag of a system ("gds", "graphicionado",
 *  "gunrock"). parseSystem() accepts every tag. */
const char *systemTag(SystemId id);

/** GraphDynS ablation configurations (Fig. 14c naming). */
enum class GdsVariant
{
    Full,  ///< WEAU: all four techniques (the default GraphDynS)
    Wb,    ///< workload balancing only
    We,    ///< WB + exact prefetching
    Wea,   ///< WE + zero-stall atomics
    NoWb,  ///< everything except workload balancing (Fig. 14a baseline)
};

std::string variantName(GdsVariant v);

/** Apply a variant to a base GraphDynS configuration. */
core::GdsConfig applyVariant(core::GdsConfig cfg, GdsVariant v);

/** Iteration cap policy: PR runs a fixed budget, others to convergence. */
unsigned iterationCap(algo::AlgorithmId id);

/** Deterministic source policy (highest-degree vertex for traversals). */
VertexId sourceFor(algo::AlgorithmId id, const graph::Csr &g);

/** What to simulate: one (system, algorithm, dataset) cell and its
 *  overrides. Per-call extras (sampler, checkpoints, crash injection)
 *  are not part of it; they travel in harness::RunHooks. */
struct RunSpec
{
    RunSpec() = default;
    RunSpec(SystemId sys, algo::AlgorithmId alg, std::string data)
        : system(sys), algorithm(alg), dataset(std::move(data))
    {}

    SystemId system = SystemId::GraphDynS;
    algo::AlgorithmId algorithm = algo::AlgorithmId::Bfs;
    /** Dataset label: a Table 4 tag when parsed from a CLI or request. */
    std::string dataset;
    /** Source vertex; unset uses sourceFor(). */
    std::optional<VertexId> source;
    /** Iteration cap; unset uses iterationCap(). */
    std::optional<unsigned> iterations;
    /** Cycle budget; 0 uses cellCycleBudget() (GDS_CELL_BUDGET). */
    Cycle cycleBudget = 0;
    /** Wall budget in seconds; negative uses cellWallBudgetSeconds();
     *  0 means no wall limit. */
    double wallBudgetSeconds = -1.0;
    /**
     * Simulated-cycle interval between live progress samples the daemon
     * streams to subscribers; 0 turns sampling off. Pure telemetry: it
     * never changes the outcome and is not part of key().
     */
    Cycle progressInterval = 1'000'000;
    /** GraphDynS configuration (ignored by the other systems). Its
     *  maxIterations is replaced by the spec's iteration cap. */
    core::GdsConfig gds;
    /** GraphDynS ablation variant, applied on top of gds. */
    GdsVariant variant = GdsVariant::Full;

    /**
     * Result-cache key: cellKey(systemTag(system), algorithm, dataset)
     * for a spec without overrides, so such jobs share the evaluation
     * matrix's cells. Every override that changes the simulated outcome
     * extends it: "|src5", "|it3", "|cb1000", "|cfg<hash>" for a
     * non-default GraphDynS configuration and "|<variant>" for an
     * ablation.
     */
    std::string key() const;

    /** The run's source vertex in @p g. */
    VertexId sourceIn(const graph::Csr &g) const;

    /** The run's iteration cap. */
    unsigned iterationLimit() const;

    /** The effective GraphDynS configuration: gds with the iteration
     *  cap and the variant applied. */
    core::GdsConfig gdsConfig() const;
};

/** One user-settable RunSpec field, in both of its spellings. */
struct SpecField
{
    enum class Kind
    {
        Name,    ///< string (system, algorithm, dataset)
        Count,   ///< unsigned integer within [min, max]
        Seconds, ///< finite non-negative double
        Switch,  ///< presence flag: no CLI value, JSON true/false
    };

    const char *flag; ///< command-line spelling, "--cycle-budget"
    const char *json; ///< request spelling, "cycle_budget"
    Kind kind;
    std::uint64_t min; ///< Count bound (inclusive)
    std::uint64_t max; ///< Count bound (inclusive)
    /** Served by the daemon only (gds_sim refuses it). */
    bool daemonOnly;
    /** Store the checked value: @p text for Name, @p count for Count,
     *  @p seconds for Seconds (Switch gets nothing). */
    Status (*store)(RunSpec &spec, const std::string &text,
                    std::uint64_t count, double seconds);
};

/** The field table, in the order requests are serialized. */
const std::vector<SpecField> &specFields();

/** The field a command-line flag names, or nullptr. */
const SpecField *specFieldByFlag(const std::string &flag);

/** Raw field texts as given, last one winning (Switch: empty text). */
using SpecValues = std::map<const SpecField *, std::string>;

/**
 * Build a RunSpec from raw field texts: every value is checked against
 * its field's kind and bound, "algorithm" (and unless @p need_dataset is
 * false, "dataset") must be present, and the GraphDynS configuration
 * must pass core::validateConfig. Failures are Config statuses naming
 * the field in the spelling of its source (@p cli: "--source", else
 * "field 'source'").
 */
Result<RunSpec> parseSpec(const SpecValues &values, bool cli,
                          bool need_dataset = true);

/**
 * Collect the spec fields of a request object: Name fields must be JSON
 * strings, numeric fields numbers or numeric strings, Switch fields
 * booleans. Other members are ignored.
 */
Result<SpecValues> specValuesFromJson(const common::JsonValue &obj);

/** The request members (",\"algorithm\":\"bfs\",...") carrying @p values;
 *  numbers travel as strings, so the daemon re-parses the exact text. */
std::string specJsonMembers(const SpecValues &values);

} // namespace gds::harness
