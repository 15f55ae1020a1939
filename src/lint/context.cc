#include "lint/context.h"

namespace manta {
namespace lint {

LintContext::LintContext(MantaAnalyzer &analyzer,
                         const InferenceResult *inference,
                         const GroundTruth *truth, bool taintNoType)
    : analyzer_(analyzer), module_(analyzer.module()), inference_(inference),
      truth_(truth), taintNoType_(taintNoType),
      detector_(analyzer, inference),
      index_(module_, analyzer.pts(), analyzer.memObjects())
{}

const Cfg &
LintContext::cfg(FuncId func) const
{
    auto it = cfgs_.find(func.raw());
    if (it == cfgs_.end()) {
        it = cfgs_.emplace(func.raw(),
                           std::make_unique<Cfg>(module_, func)).first;
    }
    return *it->second;
}

const Dominators &
LintContext::dominators(FuncId func) const
{
    auto it = doms_.find(func.raw());
    if (it == doms_.end()) {
        it = doms_.emplace(func.raw(),
                           std::make_unique<Dominators>(module_, func))
                 .first;
    }
    return *it->second;
}

const taint::TaintResult &
LintContext::taint() const
{
    if (!taint_) {
        taint::TaintOptions opts = taint::TaintOptions::fromEnv();
        opts.useTypes = useTypes() && !taintNoType_;
        taint_ = std::make_unique<taint::TaintResult>(
            taint::runTaint(analyzer_, inference_, opts));
        if (inference_ != nullptr) {
            // Same const_cast billing convention as runLint's
            // lintSeconds: the profile is the one mutable corner of an
            // otherwise read-only result.
            InferenceProfile &profile =
                const_cast<InferenceResult *>(inference_)->profile();
            profile.taintSeconds += taint_->stats.seconds;
            profile.taintFlows += taint_->stats.flows;
            profile.taintSuppressed += taint_->stats.suppressed;
        }
    }
    return *taint_;
}

bool
LintContext::definitelyPtr(ValueId v) const
{
    if (!useTypes())
        return false;
    TypeTable &tt = inference_->types();
    const BoundPair bp = inference_->valueBounds(v);
    return tt.kind(bp.upper) == TypeKind::Ptr &&
           (tt.kind(bp.lower) == TypeKind::Ptr ||
            bp.lower == tt.bottom());
}

FuncId
LintContext::funcOf(InstId inst) const
{
    return module_.block(module_.inst(inst).parent).func;
}

std::string
LintContext::funcNameOf(InstId inst) const
{
    return std::string(module_.str(module_.func(funcOf(inst)).name));
}

DiagLocation
LintContext::loc(InstId inst, std::string role) const
{
    DiagLocation location;
    location.inst = inst;
    location.func = funcNameOf(inst);
    location.role = std::move(role);
    return location;
}

bool
LintContext::dominatesInst(InstId a, InstId b) const
{
    const Instruction &ia = module_.inst(a);
    const Instruction &ib = module_.inst(b);
    const FuncId fa = module_.block(ia.parent).func;
    if (fa != module_.block(ib.parent).func)
        return false;
    if (ia.parent == ib.parent) {
        return instIndex().positionInBlock(a) <
               instIndex().positionInBlock(b);
    }
    const Dominators &dom = dominators(fa);
    return dom.dominates(ia.parent, ib.parent);
}

std::string
LintContext::fingerprint(const std::string &checker, InstId primary) const
{
    const Instruction &inst = module_.inst(primary);
    const FuncId func = module_.block(inst.parent).func;
    const Function &fn = module_.func(func);
    std::size_t block_index = 0;
    for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
        if (fn.blocks[i] == inst.parent) {
            block_index = i;
            break;
        }
    }
    return checker + "@" + std::string(module_.str(fn.name)) + "#" +
           std::to_string(block_index) +
           ":" + std::to_string(instIndex().positionInBlock(primary));
}

} // namespace lint
} // namespace manta
