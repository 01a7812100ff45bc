/**
 * @file
 * The push-based Vertex-Centric Programming Model (PB-VCPM, Algorithm 1)
 * and its application-defined kernel interface (Table 2).
 *
 * An algorithm supplies three kernels:
 *   Process_Edge(u.prop, e.weight)      -> edge result
 *   Reduce(v.tProp, edge result)        -> new v.tProp
 *   Apply(v.prop, v.tProp, v.cProp)     -> candidate new v.prop
 * plus the initialization and activation semantics that Algorithm 1 leaves
 * to the application (initial properties, reduce identity, whether the
 * temporary property resets between iterations, which vertices start
 * active, and how "changed" is decided in Apply).
 *
 * Both cycle-level accelerator models and the functional reference engine
 * execute through this one interface, so correctness of the timing models
 * is checked against the reference for free.
 */

#pragma once

#include <memory>
#include <string>

#include "common/error.hh"
#include "common/types.hh"
#include "graph/csr.hh"

namespace gds::algo
{

/** The five evaluated graph analytics algorithms. */
enum class AlgorithmId
{
    Bfs,  ///< Breadth-First Search
    Sssp, ///< Single-Source Shortest Path
    Cc,   ///< Connected Components (label propagation)
    Sswp, ///< Single-Source Widest Path
    Pr,   ///< PageRank
};

/** All algorithm ids, in the paper's presentation order. */
inline constexpr AlgorithmId allAlgorithms[] = {
    AlgorithmId::Bfs, AlgorithmId::Sssp, AlgorithmId::Cc, AlgorithmId::Sswp,
    AlgorithmId::Pr};

/** Application-defined kernels + semantics of one graph algorithm. */
class VcpmAlgorithm
{
  public:
    virtual ~VcpmAlgorithm() = default;

    virtual AlgorithmId id() const = 0;
    virtual std::string name() const = 0;

    /** True if Process_Edge consumes e.weight (SSSP, SSWP). Determines the
     *  in-memory edge record size: 8 B weighted, 4 B unweighted. */
    virtual bool usesWeights() const = 0;

    /** True if Apply consumes a constant per-vertex property (PR: degree). */
    virtual bool usesConstProp() const { return false; }

    /** True if every vertex starts active (CC, PR); otherwise only the
     *  source vertex does (BFS, SSSP, SSWP). */
    virtual bool allInitiallyActive() const = 0;

    /** True if v.tProp is reset to the reduce identity after every Apply
     *  phase (PR accumulates fresh contributions per iteration). */
    virtual bool tPropResetsEachIteration() const { return false; }

    /**
     * Bind graph-dependent constants before a run (PR captures
     * (1 - d) / |V| here). Engines must call this once per graph.
     */
    virtual void bind(const graph::Csr &g) { (void)g; }

    /** Initial v.prop. */
    virtual PropValue initialProp(VertexId v, const graph::Csr &g,
                                  VertexId source) const = 0;

    /** Initial / identity v.tProp (the value Reduce starts from). */
    virtual PropValue tPropIdentity(VertexId v, const graph::Csr &g,
                                    VertexId source) const = 0;

    /** Constant per-vertex property v.cProp (PR: out-degree). */
    virtual PropValue
    constProp(VertexId v, const graph::Csr &g) const
    {
        (void)v;
        (void)g;
        return 0.0f;
    }

    /** Table 2: Process_Edge. */
    virtual PropValue processEdge(PropValue u_prop, Weight weight) const = 0;

    /** Table 2: Reduce. Must be commutative and associative. */
    virtual PropValue reduce(PropValue t_prop, PropValue result) const = 0;

    /** Table 2: Apply. */
    virtual PropValue apply(PropValue prop, PropValue t_prop,
                            PropValue c_prop) const = 0;

    /**
     * "v.prop != applyRes" test of Algorithm 1 line 11. PR uses a relative
     * tolerance so the fixed point terminates in floating point.
     */
    virtual bool
    changed(PropValue old_prop, PropValue new_prop) const
    {
        return old_prop != new_prop;
    }
};

/** Instantiate an algorithm by id. */
std::unique_ptr<VcpmAlgorithm> makeAlgorithm(AlgorithmId id);

/** Short display tag ("BFS", "SSSP", ...). */
std::string algorithmName(AlgorithmId id);

/**
 * Parse an algorithm name, case-insensitively ("bfs", "SSSP", ...): the
 * one parser behind the CLI's --algo and the daemon's "algorithm" field.
 * An unknown name is a Config failure listing the valid ones.
 */
Result<AlgorithmId> parseAlgorithm(const std::string &name);

/**
 * Deterministic default source: the highest-out-degree vertex (guarantees
 * a large traversal on every synthetic surrogate).
 */
VertexId defaultSource(const graph::Csr &g);

} // namespace gds::algo
