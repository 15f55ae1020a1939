#include "taint/spec.h"

#include <cstdlib>
#include <string>

#include "support/env.h"

namespace manta {
namespace taint {

const char *
taintKindName(TaintKind kind)
{
    switch (kind) {
    case TaintKind::StackAddr:
        return "stack-addr";
    case TaintKind::HeapAddr:
        return "heap-addr";
    case TaintKind::Input:
        return "input";
    case TaintKind::Uninit:
        return "uninit";
    }
    return "?";
}

const char *
sinkKindName(SinkKind kind)
{
    switch (kind) {
    case SinkKind::PrintArg:
        return "print-arg";
    case SinkKind::CopySource:
        return "copy-source";
    case SinkKind::FormatArg:
        return "format-arg";
    case SinkKind::DerefAddr:
        return "deref-addr";
    case SinkKind::IcallTarget:
        return "icall-target";
    case SinkKind::IcallArg:
        return "icall-arg";
    }
    return "?";
}

int
formatArgIndex(const Module &module, const External &ext)
{
    const std::string_view name = module.str(ext.name);
    if (name == "print_str")
        return 0;
    if (name == "sprintf")
        return 1;
    if (name == "snprintf")
        return 2;
    return -1;
}

int
copySourceIndex(const Module &module, const External &ext)
{
    if (ext.role != ExternRole::StrCopy && ext.role != ExternRole::BoundedCopy)
        return -1;
    // snprintf(dst, size, fmt): the copied payload is the format.
    if (module.str(ext.name) == "snprintf")
        return 2;
    return 1;
}

const char *
checkerFor(SinkKind sink, TaintKind kind)
{
    const bool addr = kind == TaintKind::StackAddr ||
                      kind == TaintKind::HeapAddr ||
                      kind == TaintKind::Uninit;
    switch (sink) {
    case SinkKind::PrintArg:
    case SinkKind::CopySource:
    case SinkKind::IcallArg:
        return addr ? "addr-leak" : nullptr;
    case SinkKind::DerefAddr:
    case SinkKind::IcallTarget:
        return kind == TaintKind::Input ? "taint-deref" : nullptr;
    case SinkKind::FormatArg:
        return kind == TaintKind::Input ? "format-string" : nullptr;
    }
    return nullptr;
}

namespace {

/** Uninit mirror of the uninit-stack checker: one stack object, owned
 *  by the loading function, and nothing stores into the loaded slot
 *  (no Memory edge reaches the load result). */
bool
uninitLoad(const Module &module, const Ddg &ddg, const MemObjects &objects,
           InstId iid, const Instruction &inst)
{
    const PointsTo &pts = ddg.pts();
    const LocSet &locs = pts.locs(module.operand(inst, 0));
    if (locs.size() != 1)
        return false;
    const MemObject &obj = objects.object(locs.begin()->obj);
    if (obj.kind != ObjKind::Stack)
        return false;
    if (!(obj.func == module.owningFunc(inst.result)))
        return false;
    for (std::uint32_t edge : ddg.inEdges(inst.result)) {
        if (ddg.edge(edge).kind == DepKind::Memory)
            return false;
    }
    (void)iid;
    return true;
}

} // namespace

std::vector<SourceSeed>
collectSources(const Module &module, const Ddg &ddg,
               const MemObjects &objects)
{
    std::vector<SourceSeed> seeds;
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<std::uint32_t>(i));
        const Instruction &inst = module.inst(iid);
        if (!inst.result.valid())
            continue;
        if (inst.op == Opcode::Alloca) {
            seeds.push_back({{TaintKind::StackAddr, iid}, inst.result});
            continue;
        }
        if (inst.op == Opcode::Call && inst.external.valid()) {
            const External &ext = module.external(inst.external);
            if (ext.role == ExternRole::Alloc)
                seeds.push_back({{TaintKind::HeapAddr, iid}, inst.result});
            else if (ext.role == ExternRole::TaintSource)
                seeds.push_back({{TaintKind::Input, iid}, inst.result});
            continue;
        }
        if (inst.op == Opcode::Load &&
            uninitLoad(module, ddg, objects, iid, inst)) {
            seeds.push_back({{TaintKind::Uninit, iid}, inst.result});
        }
    }
    return seeds;
}

std::vector<SinkSite>
collectSinks(const Module &module)
{
    std::vector<SinkSite> sinks;
    const auto add = [&](SinkKind sink, InstId inst, ValueId value,
                         std::uint32_t arg) {
        if (value.valid())
            sinks.push_back({sink, inst, value, arg});
    };
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<std::uint32_t>(i));
        const Instruction &inst = module.inst(iid);
        switch (inst.op) {
        case Opcode::Load:
            add(SinkKind::DerefAddr, iid, module.operand(inst, 0), 0);
            break;
        case Opcode::Store:
            add(SinkKind::DerefAddr, iid, module.operand(inst, 0), 0);
            break;
        case Opcode::ICall:
            for (std::size_t a = 0; a < inst.numOperands(); ++a) {
                add(a == 0 ? SinkKind::IcallTarget : SinkKind::IcallArg, iid,
                    module.operand(inst, a), static_cast<std::uint32_t>(a));
            }
            break;
        case Opcode::Call: {
            if (!inst.external.valid())
                break;
            const External &ext = module.external(inst.external);
            if (ext.role == ExternRole::Print) {
                for (std::size_t a = 0; a < inst.numOperands(); ++a) {
                    add(SinkKind::PrintArg, iid, module.operand(inst, a),
                        static_cast<std::uint32_t>(a));
                }
            }
            const int copy_src = copySourceIndex(module, ext);
            if (copy_src >= 0 &&
                static_cast<std::size_t>(copy_src) < inst.numOperands()) {
                add(SinkKind::CopySource, iid, module.operand(inst, copy_src),
                    static_cast<std::uint32_t>(copy_src));
            }
            const int fmt = formatArgIndex(module, ext);
            if (fmt >= 0 &&
                static_cast<std::size_t>(fmt) < inst.numOperands()) {
                add(SinkKind::FormatArg, iid, module.operand(inst, fmt),
                    static_cast<std::uint32_t>(fmt));
            }
            break;
        }
        default:
            break;
        }
    }
    return sinks;
}

bool
sanitizerEdge(const Module &module, const Ddg::Edge &edge)
{
    if (edge.kind != DepKind::ExtRet || !edge.site.valid())
        return false;
    const Instruction &site = module.inst(edge.site);
    if (!site.external.valid())
        return false;
    return module.external(site.external).role == ExternRole::Sanitizer;
}

const char *
flowChecker(const TaintFlow &flow)
{
    const char *checker = checkerFor(flow.sink, flow.kind);
    return checker ? checker : "?";
}

// ---- Cached MANTA_TAINT* environment defaults ---------------------

bool
defaultTaintNoType()
{
    static const bool cached =
        envFlagTruthy(std::getenv("MANTA_TAINT_NOTYPE"));
    return cached;
}

std::size_t
defaultTaintMaxFacts()
{
    static const std::size_t cached = static_cast<std::size_t>(parseEnvLong(
        "MANTA_TAINT_MAX_FACTS", std::getenv("MANTA_TAINT_MAX_FACTS"), 256));
    return cached;
}

bool
defaultTaintSanitizers()
{
    static const char *const kChoices[] = {"on", "off"};
    static const bool cached =
        parseEnvChoice("MANTA_TAINT_SANITIZERS",
                       std::getenv("MANTA_TAINT_SANITIZERS"), kChoices, 2,
                       0) == 0;
    return cached;
}

TaintOptions
TaintOptions::fromEnv()
{
    TaintOptions options;
    options.useTypes = !defaultTaintNoType();
    options.sanitizers = defaultTaintSanitizers();
    options.maxFactsPerValue = defaultTaintMaxFacts();
    return options;
}

} // namespace taint
} // namespace manta
