/**
 * @file
 * LintIndex: the per-module facts several checkers need, gathered in
 * one pass over the instructions.
 *
 * Checkers that would otherwise rescan the whole module for every
 * load or free they inspect (uninit-stack, double-free) read these
 * tables instead, which keeps each of them linear in module size.
 * The index is built eagerly by the LintContext constructor and is
 * immutable afterwards.
 */
#ifndef MANTA_LINT_INDEX_H
#define MANTA_LINT_INDEX_H

#include <span>
#include <vector>

#include "analysis/pointsto.h"

namespace manta {
namespace lint {

/** One location a store may write. */
struct StoreRef
{
    Loc loc;       ///< Written location (one member of the address set).
    InstId store;  ///< The Store instruction.
};

/** Stores by written object and the escaped-object set. */
class LintIndex
{
  public:
    LintIndex(const Module &module, const PointsTo &pts,
              const MemObjects &objects);

    /**
     * Every (location, store) pair whose location lies in `obj`, in
     * instruction order. A store whose address set holds several
     * locations of `obj` appears once per location.
     */
    std::span<const StoreRef> storesTo(ObjectId obj) const
    {
        return stores_[obj.index()];
    }

    /**
     * May `obj`'s address escape: is it pointed at by an operand of
     * any call or `ret` in the module, or by any store's payload?
     */
    bool escaped(ObjectId obj) const { return escaped_[obj.index()]; }

  private:
    std::vector<std::vector<StoreRef>> stores_;
    std::vector<bool> escaped_;
};

} // namespace lint
} // namespace manta

#endif // MANTA_LINT_INDEX_H
