#include "baselines/bugtools.h"

#include <set>

#include "clients/slicing.h"
#include "support/timer.h"

namespace manta {

BugToolOutcome
runCweCheckerLike(MantaAnalyzer &analyzer)
{
    Timer timer;
    BugToolOutcome out;
    out.name = "cwe_checker";
    Module &module = analyzer.module();
    const PointsTo &pts = analyzer.pts();

    for (std::size_t f = 0; f < module.numFuncs(); ++f) {
        const Function &fn = module.func(FuncId(FuncId::RawType(f)));
        // Per-function pattern scans; no interprocedural reasoning.
        std::vector<InstId> frees;
        std::vector<ValueId> freed_values;
        for (const BlockId bid : fn.blocks) {
            for (const InstId iid : module.block(bid).insts) {
                const Instruction &inst = module.inst(iid);
                if (inst.op != Opcode::Call || !inst.external.valid())
                    continue;
                const External &ext = module.external(inst.external);
                if (ext.role == ExternRole::StrCopy &&
                        inst.numOperands() >= 2) {
                    // CWE-121 pattern: strcpy into stack memory.
                    bool stack_dst = false;
                    for (const Loc &loc : pts.locs(module.operand(inst, 0))) {
                        stack_dst |= pts.objects().object(loc.obj).kind ==
                                     ObjKind::Stack;
                    }
                    if (stack_dst) {
                        out.reports.push_back(
                            BugReport{CheckerKind::BOF, iid, iid,
                                      inst.srcTag,
                                      "strcpy into stack buffer"});
                    }
                } else if (ext.role == ExternRole::CommandSink &&
                           inst.numOperands() != 0) {
                    // CWE-78 pattern: system() with a non-literal arg.
                    const Value &arg = module.value(module.operand(inst, 0));
                    const bool literal =
                        arg.kind == ValueKind::GlobalAddr &&
                        module.global(arg.global).isStringLiteral;
                    if (!literal) {
                        out.reports.push_back(
                            BugReport{CheckerKind::CMI, iid, iid,
                                      inst.srcTag,
                                      "system with non-literal argument"});
                    }
                } else if (ext.role == ExternRole::Free &&
                           inst.numOperands() != 0) {
                    frees.push_back(iid);
                    freed_values.push_back(module.operand(inst, 0));
                }
            }
        }
        // CWE-416 pattern: the freed register is used anywhere else in
        // the function (no ordering check - both FPs and TPs).
        for (std::size_t i = 0; i < frees.size(); ++i) {
            for (const BlockId bid : fn.blocks) {
                for (const InstId iid : module.block(bid).insts) {
                    if (iid == frees[i])
                        continue;
                    const Instruction &inst = module.inst(iid);
                    for (const ValueId op : module.operands(inst)) {
                        if (op == freed_values[i]) {
                            out.reports.push_back(BugReport{
                                CheckerKind::UAF, frees[i], iid,
                                inst.srcTag, "freed value used"});
                        }
                    }
                }
            }
        }
    }
    out.seconds = timer.seconds();
    return out;
}

BugToolOutcome
runSatcLike(MantaAnalyzer &analyzer)
{
    Timer timer;
    BugToolOutcome out;
    out.name = "SaTC";
    Module &module = analyzer.module();

    // Keyword taint: every taint-source result AND every string
    // literal that looks like an input keyword seeds the analysis.
    DataSlicer slicer(module, analyzer.ddg());
    DataSlicer::Options opts;
    opts.respectPruning = false; // no type information at all

    std::vector<ValueId> seeds;
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const Instruction &inst =
            module.inst(InstId(static_cast<InstId::RawType>(i)));
        if (inst.op == Opcode::Call && inst.external.valid() &&
                module.external(inst.external).role ==
                    ExternRole::TaintSource &&
                inst.result.valid()) {
            seeds.push_back(inst.result);
        }
    }
    for (std::size_t v = 0; v < module.numValues(); ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        const Value &value = module.value(vid);
        if (value.kind == ValueKind::GlobalAddr &&
                module.global(value.global).isStringLiteral) {
            // "Shared keywords": any literal is a potential front-end
            // input name.
            seeds.push_back(vid);
        }
    }

    const InstIndex index(module);
    std::set<std::uint64_t> dedup;

    // Keyword proximity: any sink inside a function that also touches
    // a string literal is reported outright (SaTC's shared-keyword
    // heuristic needs no dataflow witness).
    std::unordered_set<std::uint32_t> funcs_with_keywords;
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const Instruction &inst =
            module.inst(InstId(static_cast<InstId::RawType>(i)));
        for (const ValueId op : module.operands(inst)) {
            const Value &value = module.value(op);
            if (value.kind == ValueKind::GlobalAddr &&
                    module.global(value.global).isStringLiteral) {
                funcs_with_keywords.insert(
                    module.block(inst.parent).func.raw());
            }
        }
    }
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module.inst(iid);
        if (inst.op != Opcode::Call || !inst.external.valid())
            continue;
        const ExternRole role = module.external(inst.external).role;
        const bool is_sink = role == ExternRole::CommandSink ||
                             role == ExternRole::StrCopy;
        if (!is_sink)
            continue;
        if (!funcs_with_keywords.count(
                module.block(inst.parent).func.raw())) {
            continue;
        }
        const std::uint64_t key =
            (std::uint64_t(iid.raw()) << 2) |
            (role == ExternRole::CommandSink ? 1 : 0);
        if (!dedup.insert(key).second)
            continue;
        out.reports.push_back(BugReport{
            role == ExternRole::CommandSink ? CheckerKind::CMI
                                            : CheckerKind::BOF,
            InstId::invalid(), iid, inst.srcTag,
            "input keyword near sink"});
    }

    for (const ValueId seed : seeds) {
        for (const ValueId reached : slicer.forwardSlice(seed, opts)) {
            for (const InstId user : index.users(reached)) {
                const Instruction &use = module.inst(user);
                if (use.op != Opcode::Call || !use.external.valid())
                    continue;
                const ExternRole role =
                    module.external(use.external).role;
                const bool cmd_sink = role == ExternRole::CommandSink &&
                                      use.numOperands() != 0 &&
                                      module.operand(use, 0) == reached;
                const bool copy_sink = role == ExternRole::StrCopy &&
                                       use.numOperands() >= 2 &&
                                       module.operand(use, 1) == reached;
                if (!cmd_sink && !copy_sink)
                    continue;
                const std::uint64_t key =
                    (std::uint64_t(user.raw()) << 2) | (cmd_sink ? 1 : 0);
                if (!dedup.insert(key).second)
                    continue;
                out.reports.push_back(BugReport{
                    cmd_sink ? CheckerKind::CMI : CheckerKind::BOF,
                    InstId::invalid(), user, use.srcTag,
                    "keyword-tainted data reaches sink"});
            }
        }
    }
    out.seconds = timer.seconds();
    return out;
}

BugToolOutcome
runArbiterLike(MantaAnalyzer &analyzer)
{
    Timer timer;
    BugToolOutcome out;
    out.name = "Arbiter";
    Module &module = analyzer.module();

    // Detection pass: reuse the untyped detector...
    const BugDetector detector(analyzer, nullptr);
    const auto candidates = detector.runAll();

    // ...then the under-constrained symbolic-execution filter: only a
    // finding whose source and sink share a basic block (fully
    // constrained path) survives. In practice that discards everything
    // (the paper observed zero reports).
    for (const BugReport &r : candidates) {
        if (!r.sourceSite.valid() || !r.sinkSite.valid())
            continue;
        if (module.inst(r.sourceSite).parent ==
                module.inst(r.sinkSite).parent &&
                r.kind == CheckerKind::RSA) {
            out.reports.push_back(r);
        }
    }
    out.seconds = timer.seconds();
    return out;
}

} // namespace manta
