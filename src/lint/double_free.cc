/**
 * @file
 * double-free: two free() calls release the same allocation with no
 * intervening reassignment.
 *
 * The checker pairs up free-role call sites that may execute in order
 * (OrderOracle). With type assistance the pair must be a *must*
 * alias - both freed pointers resolve to the same single heap or
 * external location - and a store that re-points the slot the second
 * pointer was loaded from suppresses the report (the free/realloc/
 * free idiom). Without types any may-overlap between the two freed
 * location sets is reported, which is the checker's documented
 * no-type false-positive class.
 */
#include "lint/checker.h"
#include "lint/context.h"

namespace manta {
namespace lint {

namespace {

class DoubleFreeChecker final : public Checker
{
  public:
    const char *id() const override { return "double-free"; }
    Severity severity() const override { return Severity::Error; }
    const char *
    description() const override
    {
        return "the same allocation is released twice";
    }

    std::vector<Diagnostic>
    run(const LintContext &ctx) const override
    {
        std::vector<Diagnostic> out;
        const std::vector<InstId> frees =
            ctx.externalCallsWithRole(ExternRole::Free);

        for (const InstId first : frees) {
            for (const InstId second : frees) {
                if (first == second)
                    continue;
                if (!ctx.order().mayPrecede(first, second))
                    continue;
                // When both orders are feasible (e.g. different
                // functions), keep only the id-ordered pair so each
                // double release is reported once.
                if (ctx.order().mayPrecede(second, first) &&
                        second.raw() < first.raw()) {
                    continue;
                }
                checkPair(ctx, first, second, out);
            }
        }
        return out;
    }

  private:
    void
    checkPair(const LintContext &ctx, InstId first, InstId second,
              std::vector<Diagnostic> &out) const
    {
        Module &module = ctx.module();
        const Instruction &fi = module.inst(first);
        const Instruction &si = module.inst(second);
        if (fi.numOperands() == 0 || si.numOperands() == 0)
            return;
        const ValueId freed_a = module.operand(fi, 0);
        const ValueId freed_b = module.operand(si, 0);
        const LocSet &locs_a = ctx.pts().locs(freed_a);
        const LocSet &locs_b = ctx.pts().locs(freed_b);
        if (locs_a.size() == 0 || locs_b.size() == 0)
            return;

        std::string evidence;
        if (ctx.useTypes()) {
            // Must-alias: both frees release exactly one location and
            // it is the same heap/external allocation.
            if (locs_a.size() != 1 || locs_b.size() != 1 ||
                    !(locs_a == locs_b)) {
                return;
            }
            const Loc shared = *locs_a.begin();
            const MemObject &obj = ctx.memObjects().object(shared.obj);
            if (obj.kind != ObjKind::Heap && obj.kind != ObjKind::External)
                return;
            if (ctx.preciselyNumeric(freed_a) ||
                    ctx.preciselyNumeric(freed_b)) {
                return;  // Inference says this is not a pointer at all.
            }
            if (reassignedBetween(ctx, first, second, freed_b, shared))
                return;
            evidence = "both frees must-alias the same allocation and "
                       "no intervening store re-points the slot";
        } else {
            bool overlap = false;
            for (const Loc &a : locs_a) {
                for (const Loc &b : locs_b) {
                    if (Loc::mayOverlap(a, b)) {
                        overlap = true;
                        break;
                    }
                }
                if (overlap)
                    break;
            }
            if (!overlap)
                return;
            evidence = "no-type mode: the freed pointers may alias";
        }

        Diagnostic d;
        d.checker = id();
        d.severity = severity();
        d.primary = ctx.loc(second, "second free");
        d.related.push_back(ctx.loc(first, "first free"));
        d.message = "allocation is released twice; clear the pointer "
                    "at the first free or guard the second";
        d.evidence = std::move(evidence);
        d.srcTag = si.srcTag;
        out.push_back(std::move(d));
    }

    /**
     * The free/realloc/free idiom: when the second freed value is a
     * Load from some slot, a store into that slot which may execute
     * between the two frees and whose payload no longer points at the
     * shared allocation re-points the slot, so the second free
     * releases a different object. Only the stores the LintIndex
     * files under the slot's objects are candidates.
     */
    static bool
    reassignedBetween(const LintContext &ctx, InstId first, InstId second,
                      ValueId freed_b, const Loc &shared)
    {
        Module &module = ctx.module();
        const Value &v = module.value(freed_b);
        if (v.kind != ValueKind::InstResult)
            return false;
        const Instruction &def = module.inst(v.inst);
        if (def.op != Opcode::Load)
            return false;
        const LocSet &slot = ctx.pts().locs(module.operand(def, 0));

        for (const Loc &s : slot) {
            for (const StoreRef &ref : ctx.index().storesTo(s.obj)) {
                if (!Loc::mayOverlap(ref.loc, s))
                    continue;
                if (!ctx.order().mayPrecede(first, ref.store) ||
                    !ctx.order().mayPrecede(ref.store, second)) {
                    continue;
                }
                bool payload_still_shared = false;
                for (const Loc &p :
                     ctx.pts().locs(module.operand(ref.store, 1))) {
                    if (Loc::mayOverlap(p, shared)) {
                        payload_still_shared = true;
                        break;
                    }
                }
                if (!payload_still_shared)
                    return true;
            }
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Checker>
makeDoubleFreeChecker()
{
    return std::make_unique<DoubleFreeChecker>();
}

} // namespace lint
} // namespace manta
