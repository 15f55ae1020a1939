#include "lint/index.h"

namespace manta {
namespace lint {

LintIndex::LintIndex(const Module &module, const PointsTo &pts,
                     const MemObjects &objects)
    : stores_(objects.numObjects()), escaped_(objects.numObjects(), false)
{
    const auto mark_escaped = [&](ValueId v) {
        for (const Loc &loc : pts.locs(v))
            escaped_[loc.obj.index()] = true;
    };
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module.inst(iid);
        if (inst.isCall() || inst.op == Opcode::Ret) {
            for (const ValueId arg : module.operands(inst))
                mark_escaped(arg);
        } else if (inst.op == Opcode::Store) {
            for (const Loc &loc : pts.locs(module.operand(inst, 0)))
                stores_[loc.obj.index()].push_back(StoreRef{loc, iid});
            mark_escaped(module.operand(inst, 1));
        }
    }
}

} // namespace lint
} // namespace manta
