/**
 * @file
 * uninit-stack: a load from a stack slot that no store dominates.
 *
 * For every Load whose address resolves to exactly one stack object
 * owned by the loading function, the checker looks for a store into
 * that object which dominates the load. Loads with no dominating
 * store are reported unless the slot's address escapes the function
 * (a callee or an aliasing store could initialize it). Both the
 * stores and the escape test come from the context's LintIndex, so
 * the checker costs one lookup per load, not one module scan.
 *
 * Type assistance adds two suppressions: (1) when the field-sensitive
 * unification committed the loaded field to a type, some reaching use
 * treated the slot as initialized data, so the "partially initialized
 * on a join path" pattern is downgraded; (2) when the frontend's
 * slot-recycling map says the alloca re-materializes a recycled slot
 * (GroundTruth::recycledSlotTags), a store anywhere in the function
 * is accepted in place of a dominating one - the classic lifter
 * artifact where one physical slot carries two logical lifetimes.
 */
#include "lint/checker.h"
#include "lint/context.h"

namespace manta {
namespace lint {

namespace {

class UninitStackChecker final : public Checker
{
  public:
    const char *id() const override { return "uninit-stack"; }
    Severity severity() const override { return Severity::Warning; }
    const char *
    description() const override
    {
        return "stack slot is read before any dominating store";
    }

    std::vector<Diagnostic>
    run(const LintContext &ctx) const override
    {
        std::vector<Diagnostic> out;
        Module &module = ctx.module();

        for (std::size_t i = 0; i < module.numInsts(); ++i) {
            const InstId iid(static_cast<InstId::RawType>(i));
            const Instruction &inst = module.inst(iid);
            if (inst.op != Opcode::Load)
                continue;
            const LocSet &addr = ctx.pts().locs(module.operand(inst, 0));
            if (addr.size() != 1)
                continue;  // Aliased or unresolved address: stay quiet.
            const Loc target = *addr.begin();
            const MemObject &obj = ctx.memObjects().object(target.obj);
            if (obj.kind != ObjKind::Stack ||
                    obj.func != ctx.funcOf(iid)) {
                continue;
            }

            bool store_dominates = false;
            bool store_anywhere = false;
            for (const StoreRef &ref : ctx.index().storesTo(target.obj)) {
                if (!Loc::mayOverlap(ref.loc, target))
                    continue;
                store_anywhere = true;
                if (ctx.dominatesInst(ref.store, iid)) {
                    store_dominates = true;
                    break;
                }
            }
            if (store_dominates)
                continue;
            // An escaped slot may be initialized behind our back.
            if (ctx.index().escaped(target.obj))
                continue;

            if (ctx.useTypes()) {
                // Suppression (1): the field carries a committed type.
                if (store_anywhere && fieldCommitted(ctx, target))
                    continue;
                // Suppression (2): frontend-tagged recycled slot.
                if (store_anywhere && isRecycledSlot(ctx, obj))
                    continue;
            }

            Diagnostic d;
            d.checker = id();
            d.severity = severity();
            d.primary = ctx.loc(iid, "load");
            if (obj.site.valid())
                d.related.push_back(ctx.loc(obj.site, "stack slot"));
            d.message = store_anywhere
                            ? "stack slot is read on a path where no "
                              "store reaches; initialize the slot before "
                              "the branch"
                            : "stack slot is read but never written; "
                              "initialize it at the alloca";
            d.evidence = ctx.useTypes()
                             ? "field unification left the slot "
                               "uncommitted and no store dominates the "
                               "load"
                             : "no-type mode: no store dominates the load";
            d.srcTag = inst.srcTag;
            out.push_back(std::move(d));
        }
        return out;
    }

  private:
    /** Did field-sensitive unification commit the loaded field? */
    static bool
    fieldCommitted(const LintContext &ctx, const Loc &target)
    {
        if (ctx.inference() == nullptr)
            return false;
        TypeTable &tt = ctx.inference()->types();
        const std::int32_t offset = target.collapsed() ? 0 : target.offset;
        const BoundPair bp =
            ctx.inference()->fieldBounds(target.obj, offset);
        return bp.classify(tt) != TypeClass::Unknown;
    }

    /** Is the alloca one of the frontend's recycled slots? */
    static bool
    isRecycledSlot(const LintContext &ctx, const MemObject &obj)
    {
        if (ctx.truth() == nullptr || !obj.site.valid())
            return false;
        const std::uint32_t tag = ctx.module().inst(obj.site).srcTag;
        if (tag == 0)
            return false;
        for (const std::uint32_t recycled :
             ctx.truth()->recycledSlotTags) {
            if (recycled == tag)
                return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Checker>
makeUninitStackChecker()
{
    return std::make_unique<UninitStackChecker>();
}

} // namespace lint
} // namespace manta
