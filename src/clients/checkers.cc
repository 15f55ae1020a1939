#include "clients/checkers.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace manta {

const char *
checkerName(CheckerKind kind)
{
    switch (kind) {
      case CheckerKind::NPD: return "NPD";
      case CheckerKind::RSA: return "RSA";
      case CheckerKind::UAF: return "UAF";
      case CheckerKind::CMI: return "CMI";
      case CheckerKind::BOF: return "BOF";
      default:
        assert(false && "checkerName: invalid CheckerKind");
        return "<bad-checker>";
    }
}

BugDetector::BugDetector(MantaAnalyzer &analyzer,
                         const InferenceResult *inference)
    : module_(analyzer.module()), analyzer_(analyzer), inference_(inference),
      slicer_(module_, analyzer.ddg()), order_(module_), instIndex_(module_),
      // Model indirect calls: with types the feasible set comes from
      // the type-based analysis; without, every address-taken function
      // with a compatible argument count is a target.
      icallTargets_(IcallAnalysis(module_, inference_)
                        .run(useTypes() ? IcallDiscipline::FullTypes
                                        : IcallDiscipline::ArgCount))
{
    bindIcallTargets(slicer_, module_, icallTargets_);
}

bool
BugDetector::preciselyNumeric(ValueId v) const
{
    if (!useTypes())
        return false;
    TypeTable &tt = inference_->types();
    const BoundPair bp = inference_->valueBounds(v);
    return tt.isNumeric(bp.upper) &&
           (tt.isNumeric(bp.lower) || bp.lower == tt.bottom());
}

DataSlicer::Options
BugDetector::sliceOptions(bool with_barrier) const
{
    DataSlicer::Options opts;
    opts.respectPruning = useTypes();
    if (with_barrier && useTypes()) {
        opts.barrier = [this](ValueId v) { return preciselyNumeric(v); };
    }
    return opts;
}

std::vector<InstId>
BugDetector::externalCallsWithRole(ExternRole role) const
{
    std::vector<InstId> result;
    for (std::size_t i = 0; i < module_.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module_.inst(iid);
        if (inst.op == Opcode::Call && inst.external.valid() &&
                module_.external(inst.external).role == role) {
            result.push_back(iid);
        }
    }
    return result;
}

namespace {

/** Deduplicating report collector. */
class ReportSet
{
  public:
    void
    add(CheckerKind kind, InstId source, InstId sink,
        std::uint32_t sink_tag, std::string message)
    {
        const std::uint64_t key =
            (std::uint64_t(source.raw()) << 32) | sink.raw();
        if (!seen_.insert(key).second)
            return;
        reports_.push_back(
            BugReport{kind, source, sink, sink_tag, std::move(message)});
    }

    /**
     * Reports in an explicitly deterministic order: sorted by
     * (kind, sourceSite, sinkSite) rather than discovery order, so
     * report lists are comparable across job counts and refactors of
     * the per-checker iteration order.
     */
    std::vector<BugReport>
    take()
    {
        std::sort(reports_.begin(), reports_.end(),
                  [](const BugReport &a, const BugReport &b) {
                      if (a.kind != b.kind)
                          return a.kind < b.kind;
                      if (a.sourceSite != b.sourceSite)
                          return a.sourceSite < b.sourceSite;
                      return a.sinkSite < b.sinkSite;
                  });
        return std::move(reports_);
    }

  private:
    std::set<std::uint64_t> seen_;
    std::vector<BugReport> reports_;
};

} // namespace

std::vector<BugReport>
BugDetector::runNpd() const
{
    ReportSet reports;
    const auto opts = sliceOptions(/*with_barrier=*/false);

    // Sources: 64-bit zero constants introduced into data flow.
    for (std::size_t i = 0; i < module_.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module_.inst(iid);
        const bool feeds_flow = inst.op == Opcode::Store ||
                                inst.op == Opcode::Phi ||
                                inst.op == Opcode::Copy ||
                                inst.op == Opcode::Call;
        if (!feeds_flow)
            continue;
        for (const ValueId op : module_.operands(inst)) {
            const Value &v = module_.value(op);
            if (v.kind != ValueKind::Constant || v.constValue != 0 ||
                    v.width != 64) {
                continue;
            }
            for (const ValueId reached : slicer_.forwardSlice(op, opts)) {
                for (const InstId user : instIndex_.users(reached)) {
                    const Instruction &use = module_.inst(user);
                    const bool deref =
                        (use.op == Opcode::Load &&
                         module_.operand(use, 0) == reached) ||
                        (use.op == Opcode::Store &&
                         module_.operand(use, 0) == reached);
                    if (deref && order_.mayPrecede(iid, user)) {
                        reports.add(CheckerKind::NPD, iid, user, use.srcTag,
                                    "NULL value may reach dereference");
                    }
                }
            }
        }
    }
    return reports.take();
}

std::vector<BugReport>
BugDetector::runRsa() const
{
    ReportSet reports;
    const auto opts = sliceOptions(/*with_barrier=*/false);

    for (std::size_t i = 0; i < module_.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module_.inst(iid);
        if (inst.op != Opcode::Alloca)
            continue;
        const FuncId owner = module_.block(inst.parent).func;
        for (const ValueId reached :
             slicer_.forwardSlice(inst.result, opts)) {
            for (const InstId user : instIndex_.users(reached)) {
                const Instruction &use = module_.inst(user);
                if (use.op != Opcode::Ret || use.numOperands() == 0)
                    continue;
                if (module_.block(use.parent).func == owner &&
                        module_.operand(use, 0) == reached) {
                    reports.add(CheckerKind::RSA, iid, user, use.srcTag,
                                "stack address returned to caller");
                }
            }
        }
    }
    return reports.take();
}

std::vector<BugReport>
BugDetector::runUaf() const
{
    ReportSet reports;
    const auto opts = sliceOptions(/*with_barrier=*/false);

    for (const InstId free_site : externalCallsWithRole(ExternRole::Free)) {
        const Instruction &free_inst = module_.inst(free_site);
        if (free_inst.numOperands() == 0)
            continue;
        const ValueId freed = module_.operand(free_inst, 0);
        for (const ValueId reached : slicer_.forwardSlice(freed, opts)) {
            for (const InstId user : instIndex_.users(reached)) {
                if (user == free_site)
                    continue;
                const Instruction &use = module_.inst(user);
                const bool memory_use =
                    (use.op == Opcode::Load && module_.operand(use, 0) == reached) ||
                    (use.op == Opcode::Store && module_.operand(use, 0) == reached);
                const bool refree =
                    use.op == Opcode::Call && use.external.valid() &&
                    module_.external(use.external).role == ExternRole::Free &&
                    module_.operand(use, 0) == reached;
                if ((memory_use || refree) &&
                        order_.mayPrecede(free_site, user)) {
                    reports.add(CheckerKind::UAF, free_site, user, use.srcTag,
                                refree ? "double free"
                                       : "use after free");
                }
            }
        }
    }
    return reports.take();
}

std::vector<BugReport>
BugDetector::runCmi() const
{
    ReportSet reports;
    const auto opts = sliceOptions(/*with_barrier=*/true);

    for (const InstId src :
         externalCallsWithRole(ExternRole::TaintSource)) {
        const Instruction &src_inst = module_.inst(src);
        if (!src_inst.result.valid())
            continue;
        for (const ValueId reached :
             slicer_.forwardSlice(src_inst.result, opts)) {
            for (const InstId user : instIndex_.users(reached)) {
                const Instruction &use = module_.inst(user);
                if (use.op != Opcode::Call || !use.external.valid())
                    continue;
                if (module_.external(use.external).role !=
                        ExternRole::CommandSink) {
                    continue;
                }
                if (use.numOperands() != 0 && module_.operand(use, 0) == reached &&
                        order_.mayPrecede(src, user)) {
                    reports.add(CheckerKind::CMI, src, user, use.srcTag,
                                "tainted data reaches command execution");
                }
            }
        }
    }
    return reports.take();
}

std::vector<BugReport>
BugDetector::runBof() const
{
    ReportSet reports;
    const auto opts = sliceOptions(/*with_barrier=*/true);
    const PointsTo &pts = analyzer_.pts();

    auto fixed_dst_size = [&](ValueId dst) -> std::uint32_t {
        std::uint32_t best = 0;
        for (const Loc &loc : pts.locs(dst)) {
            const MemObject &obj = pts.objects().object(loc.obj);
            if ((obj.kind == ObjKind::Stack || obj.kind == ObjKind::Global) &&
                    obj.sizeBytes > 0) {
                best = std::max(best, obj.sizeBytes);
            }
        }
        return best;
    };

    for (const InstId src :
         externalCallsWithRole(ExternRole::TaintSource)) {
        const Instruction &src_inst = module_.inst(src);
        if (!src_inst.result.valid())
            continue;
        for (const ValueId reached :
             slicer_.forwardSlice(src_inst.result, opts)) {
            for (const InstId user : instIndex_.users(reached)) {
                const Instruction &use = module_.inst(user);
                if (use.op != Opcode::Call || !use.external.valid())
                    continue;
                const External &ext = module_.external(use.external);
                if (!order_.mayPrecede(src, user))
                    continue;
                if (ext.role == ExternRole::StrCopy &&
                        use.numOperands() >= 2 &&
                        module_.operand(use, 1) == reached) {
                    // Unbounded copy of tainted data into a fixed buffer.
                    if (fixed_dst_size(module_.operand(use, 0)) > 0) {
                        reports.add(CheckerKind::BOF, src, user, use.srcTag,
                                    "unbounded copy of tainted data into "
                                    "fixed-size buffer");
                    }
                } else if (ext.role == ExternRole::BoundedCopy &&
                           use.numOperands() >= 3 &&
                           module_.operand(use, 1) == reached) {
                    const Value &len = module_.value(module_.operand(use, 2));
                    const std::uint32_t dst_size =
                        fixed_dst_size(module_.operand(use, 0));
                    if (len.kind == ValueKind::Constant && dst_size > 0 &&
                            len.constValue >
                                static_cast<std::int64_t>(dst_size)) {
                        reports.add(CheckerKind::BOF, src, user, use.srcTag,
                                    "copy length exceeds destination size");
                    }
                }
            }
        }
    }
    return reports.take();
}

std::vector<BugReport>
BugDetector::run(CheckerKind kind) const
{
    switch (kind) {
      case CheckerKind::NPD: return runNpd();
      case CheckerKind::RSA: return runRsa();
      case CheckerKind::UAF: return runUaf();
      case CheckerKind::CMI: return runCmi();
      case CheckerKind::BOF: return runBof();
    }
    return {};
}

std::vector<BugReport>
BugDetector::runAll() const
{
    std::vector<BugReport> all;
    for (const CheckerKind kind : allCheckers) {
        auto reports = run(kind);
        all.insert(all.end(), reports.begin(), reports.end());
    }
    return all;
}

} // namespace manta
