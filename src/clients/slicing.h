/**
 * @file
 * Source-sink program slicing over the DDG (paper Section 5.3).
 *
 * A forward slice from a source value follows every (unpruned) DDG
 * edge under the calling-context discipline; an optional barrier
 * predicate stops propagation through values the caller knows cannot
 * carry the property (e.g. precisely-numeric values cannot carry an
 * attacker-controlled command string). Extra edges let the bug
 * detector model indirect calls with whatever target set the
 * indirect-call analysis produced.
 */
#ifndef MANTA_CLIENTS_SLICING_H
#define MANTA_CLIENTS_SLICING_H

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/ddg.h"

namespace manta {

/** Node budget of one forward slice (every checker uses the same). */
inline constexpr std::size_t sliceBudget = 100000;

/** Forward slicing machinery shared by the checkers. */
class DataSlicer
{
  public:
    struct Options
    {
        /** Honor pruned DDG edges (type-assisted mode). */
        bool respectPruning = true;
        /** Stop expanding nodes for which this returns true. */
        std::function<bool(ValueId)> barrier;
    };

    DataSlicer(const Module &module, const Ddg &ddg)
        : module_(module), ddg_(ddg)
    {}

    /** Add an extra dependence edge (e.g. indirect-call binding). */
    void addExtraEdge(ValueId from, ValueId to, DepKind kind, InstId site);

    /**
     * Values forward-reachable from `source` (includes source), at
     * most sliceBudget expansions.
     */
    std::vector<ValueId> forwardSlice(ValueId source,
                                      const Options &options) const;

  private:
    const Module &module_;
    const Ddg &ddg_;
    struct ExtraEdge
    {
        ValueId to;
        DepKind kind;
        InstId site;
    };
    std::unordered_map<std::uint32_t, std::vector<ExtraEdge>> extra_;
};

/**
 * Lightweight may-happen-before: can execution reach `later` after
 * executing `earlier`? Exact (DAG reachability) within one function;
 * conservatively true across functions. Used to validate event
 * ordering (e.g. use after free). Borrows the caller's InstIndex of
 * the same module, which must outlive the oracle.
 */
class OrderOracle
{
  public:
    OrderOracle(const Module &module, const InstIndex &index);

    bool mayPrecede(InstId earlier, InstId later) const;

  private:
    const Module &module_;
    const InstIndex &index_;
    // Block-level reachability cache per function.
    mutable std::unordered_map<std::uint32_t,
                               std::unordered_set<std::uint64_t>>
        reach_cache_;
    mutable std::unordered_set<std::uint32_t> cached_funcs_;
};

} // namespace manta

#endif // MANTA_CLIENTS_SLICING_H
