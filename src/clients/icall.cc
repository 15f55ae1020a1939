#include "clients/icall.h"

#include <algorithm>

#include "clients/slicing.h"

namespace manta {

void
bindIcallTargets(DataSlicer &slicer, const Module &module,
                 const IcallResult &targets)
{
    for (const auto &[site, funcs] : targets.targets) {
        const Instruction &inst = module.inst(site);
        const std::span<const ValueId> args = module.operands(inst);
        for (const FuncId target : funcs) {
            const Function &fn = module.func(target);
            const std::size_t n =
                std::min(fn.params.size(), args.size() - 1);
            for (std::size_t i = 0; i < n; ++i) {
                slicer.addExtraEdge(args[i + 1], fn.params[i],
                                    DepKind::CallArg, site);
            }
            if (inst.result.valid()) {
                for (const BlockId bid : fn.blocks) {
                    const BasicBlock &bb = module.block(bid);
                    if (bb.insts.empty())
                        continue;
                    const Instruction &term = module.inst(bb.insts.back());
                    if (term.op == Opcode::Ret && term.numOperands() > 0) {
                        slicer.addExtraEdge(module.operand(term, 0),
                                            inst.result, DepKind::CallRet,
                                            site);
                    }
                }
            }
        }
    }
}

double
IcallResult::aict() const
{
    if (targets.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &[site, funcs] : targets)
        total += static_cast<double>(funcs.size());
    return total / static_cast<double>(targets.size());
}

std::vector<InstId>
IcallAnalysis::icallSites() const
{
    std::vector<InstId> sites;
    for (std::size_t i = 0; i < module_.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        if (module_.inst(iid).op == Opcode::ICall)
            sites.push_back(iid);
    }
    return sites;
}

namespace {

/** What the pair test needs of one address-taken callee. */
struct CalleeTable
{
    FuncId func;
    std::vector<int> paramWidths;      ///< One per declared parameter.
    std::vector<TypeRef> paramLowers;  ///< F-down(par_i@entry).
    std::vector<TypeRef> retUppers;    ///< F-up(ret@exit), block order.
};

/** What the pair test needs of one indirect call site. */
struct SiteTable
{
    std::vector<int> argWidths;      ///< One per actual argument.
    std::vector<TypeRef> argUppers;  ///< F-up(arg_i@s).
    bool hasResult = false;
    TypeRef resultLower;             ///< F-down(ret@s).
};

/**
 * The feasibility rules of the file comment, in the order they have
 * always been checked, over precomputed bounds. `with_types` is false
 * under FullTypes without an inference result (every count-feasible
 * target is kept).
 */
bool
feasible(const SiteTable &site, const CalleeTable &callee,
         IcallDiscipline discipline, bool with_types, const TypeTable &tt)
{
    const std::size_t num_params = callee.paramWidths.size();
    // Rule 1 (all disciplines): enough arguments are prepared.
    if (site.argWidths.size() < num_params)
        return false;

    if (discipline == IcallDiscipline::ArgCount)
        return true;

    if (discipline == IcallDiscipline::ArgCountWidth) {
        for (std::size_t i = 0; i < num_params; ++i) {
            if (site.argWidths[i] < callee.paramWidths[i])
                return false;
        }
        return true;
    }

    // FullTypes: inferred-type compatibility.
    if (!with_types)
        return true;
    for (std::size_t i = 0; i < num_params; ++i) {
        // F-up(arg@s) >: F-down(par@entry).
        if (!tt.isSubtype(callee.paramLowers[i], site.argUppers[i]))
            return false;
    }
    // Return-type check: F-up(ret_f@exit) >: F-down(ret@s).
    if (site.hasResult) {
        for (const TypeRef ret_upper : callee.retUppers) {
            if (!tt.isSubtype(site.resultLower, ret_upper))
                return false;
        }
    }
    return true;
}

} // namespace

IcallResult
IcallAnalysis::run(IcallDiscipline discipline) const
{
    const bool with_types =
        discipline == IcallDiscipline::FullTypes && inference_ != nullptr;

    // Each callee's and each site's bounds are looked up once here,
    // not once per (site, callee) pair.
    std::vector<CalleeTable> callees;
    for (const FuncId target : module_.addressTakenFuncs()) {
        const Function &fn = module_.func(target);
        CalleeTable &callee = callees.emplace_back();
        callee.func = target;
        for (const ValueId param : fn.params)
            callee.paramWidths.push_back(module_.value(param).width);
        if (!with_types)
            continue;
        const InstId entry_inst =
            fn.entry().valid() && !module_.block(fn.entry()).insts.empty()
                ? module_.block(fn.entry()).insts.front()
                : InstId::invalid();
        for (const ValueId param : fn.params) {
            callee.paramLowers.push_back(
                inference_->siteBounds(param, entry_inst).lower);
        }
        for (const BlockId bid : fn.blocks) {
            const BasicBlock &bb = module_.block(bid);
            if (bb.insts.empty())
                continue;
            const Instruction &term = module_.inst(bb.insts.back());
            if (term.op != Opcode::Ret || term.numOperands() == 0)
                continue;
            callee.retUppers.push_back(
                inference_
                    ->siteBounds(module_.operand(term, 0), bb.insts.back())
                    .upper);
        }
    }

    IcallResult result;
    const TypeTable &tt = module_.types();
    for (const InstId site_id : icallSites()) {
        const Instruction &icall = module_.inst(site_id);
        // Operand 0 is the call target; the rest are the arguments.
        const std::span<const ValueId> args =
            module_.operands(icall).subspan(1);
        SiteTable site;
        for (const ValueId arg : args)
            site.argWidths.push_back(module_.value(arg).width);
        if (with_types) {
            for (const ValueId arg : args) {
                site.argUppers.push_back(
                    inference_->siteBounds(arg, site_id).upper);
            }
            site.hasResult = icall.result.valid();
            if (site.hasResult) {
                site.resultLower =
                    inference_->siteBounds(icall.result, site_id).lower;
            }
        }

        std::vector<FuncId> feasible_targets;
        for (const CalleeTable &callee : callees) {
            if (feasible(site, callee, discipline, with_types, tt))
                feasible_targets.push_back(callee.func);
        }
        result.targets.emplace(site_id, std::move(feasible_targets));
    }
    return result;
}

} // namespace manta
