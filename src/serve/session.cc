#include "serve/session.h"

#include <algorithm>

#include "analysis/acyclic.h"
#include "analysis/callgraph.h"
#include "analysis/scc.h"
#include "clients/annotate.h"
#include "clients/icall.h"
#include "clients/slicing.h"
#include "lint/engine.h"
#include "lint/run.h"
#include "taint/taint.h"
#include "mir/parser.h"
#include "mir/printer.h"
#include "support/task_pool.h"
#include "support/timer.h"

namespace manta {
namespace serve {

BinarySession::BinarySession(std::string name, HybridConfig config)
    : name_(std::move(name)), config_(config)
{}

AnalyzeOutcome
BinarySession::analyze(const std::string &mir_text)
{
    const std::uint64_t hash = hashText(mir_text);
    if (module_ && result_ && hash == text_hash_) {
        AnalyzeOutcome out = last_;
        out.unchanged = true;
        out.seconds = 0.0;
        return out;
    }

    auto module = std::make_unique<Module>();
    std::string parse_error;
    if (!parseModule(mir_text, *module, parse_error)) {
        AnalyzeOutcome out;
        out.error = "parse error: " + parse_error;
        return out;
    }
    makeAcyclic(*module);
    return runAnalysis(std::move(module), hash);
}

AnalyzeOutcome
BinarySession::runAnalysis(std::unique_ptr<Module> module,
                           std::uint64_t text_hash)
{
    Timer timer;
    AnalyzeOutcome out;

    // Dirty diff against the previous submission, reported to clients
    // (the memo's validation is per-candidate and finer-grained; this
    // is the conservative function-level frontier).
    auto keys = std::make_unique<ModuleKeys>(*module);
    std::unordered_map<std::string, std::uint64_t> hashes;
    hashes.reserve(module->numFuncs());
    for (std::size_t f = 0; f < module->numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        hashes[std::string(module->str(module->func(fid).name))] =
            keys->contentHash(fid);
    }
    if (!prev_hashes_.empty()) {
        out.dirty = diffContentHashes(prev_hashes_, hashes);
        std::vector<FuncId> dirty_ids;
        for (const std::string &name : out.dirty) {
            const FuncId fid = module->findFunc(name);
            if (fid.valid())
                dirty_ids.push_back(fid);
        }
        if (!dirty_ids.empty()) {
            // Closure on the SCC condensation: function-for-function
            // the same frontier callClosure() computes, but each
            // worklist step moves a whole component, and the dirty-SCC
            // count tells clients how many modular re-analysis units
            // the change actually hit.
            const CallGraph graph(*module);
            const SccGraph sccs(graph, module->numFuncs());
            std::vector<char> seen(sccs.numSccs(), 0);
            for (const FuncId f : dirty_ids) {
                const std::uint32_t s = sccs.sccOf(f);
                if (!seen[s]) {
                    seen[s] = 1;
                    ++out.dirtySccs;
                }
            }
            for (const FuncId f : sccs.closure(dirty_ids))
                out.closure.push_back(
                    std::string(module->str(module->func(f).name)));
            std::sort(out.closure.begin(), out.closure.end());
        }
    }

    // The memo's beginRun needs the same coordinates; hand ours over
    // instead of letting it recompute them.
    memo_.adoptKeys(std::move(keys), module.get());
    auto analyzer = std::make_unique<MantaAnalyzer>(*module, config_);
    auto result = std::make_unique<InferenceResult>(
        analyzer->infer(config_, &memo_));

    out.ok = true;
    out.funcs = module->numFuncs();
    out.values = module->numValues();
    out.stats = result->finalStats();
    out.csReused = result->profile().csReused;
    out.fsReused = result->profile().fsReused;

    // Tear the previous generation down off the request path: once
    // the new state is committed nothing references it, and freeing
    // its location sets and edge pools costs several milliseconds on
    // large modules. The task owns the state outright, so it is safe
    // against both later requests and session destruction.
    if (module_) {
        sharedPool().submit([r = std::move(result_),
                             a = std::move(analyzer_),
                             m = std::move(module_)]() mutable {
            r.reset();
            a.reset();
            m.reset();
        });
    }
    module_ = std::move(module);
    analyzer_ = std::move(analyzer);
    result_ = std::move(result);
    prev_hashes_ = std::move(hashes);
    text_hash_ = text_hash;
    ++analyses_;
    out.seconds = timer.seconds();
    last_ = out;
    return out;
}

std::string
BinarySession::renderTypes() const
{
    if (!result_)
        return {};
    return annotateModule(*module_, *result_);
}

std::string
BinarySession::renderLint() const
{
    if (!result_)
        return {};
    const lint::LintResult lint_result =
        lint::runLint(*analyzer_, result_.get(), nullptr,
                      lint::LintOptions{});
    std::string out = std::to_string(lint_result.diagnostics.size()) +
                      " diagnostic(s) (type-assisted)\n";
    out += lint::DiagnosticEngine::renderText(lint_result.diagnostics);
    return out;
}

std::string
BinarySession::renderTaint() const
{
    if (!result_)
        return {};
    const taint::TaintResult taint_result = taint::runTaint(
        *analyzer_, result_.get(), taint::TaintOptions::fromEnv());
    std::string out =
        std::to_string(taint_result.stats.flows) + " flow(s), " +
        std::to_string(taint_result.stats.suppressed) +
        " suppressed by the type gate\n";
    out += taint_result.canonicalText(*module_);
    return out;
}

std::string
BinarySession::renderIcall() const
{
    if (!result_)
        return {};
    const IcallAnalysis analysis(*module_, result_.get());
    const IcallResult icall = analysis.run(IcallDiscipline::FullTypes);
    char head[96];
    std::snprintf(head, sizeof head,
                  "%zu indirect call site(s), AICT %.1f\n",
                  icall.numSites(), icall.aict());
    std::string out = head;
    for (const auto &[site, targets] : icall.targets) {
        const FuncId in_func =
            module_->block(module_->inst(site).parent).func;
        out += "  in @";
        out += module_->str(module_->func(in_func).name);
        out += " ->";
        for (const FuncId t : targets) {
            out += " @";
            out += module_->str(module_->func(t).name);
        }
        out += "\n";
    }
    return out;
}

bool
BinarySession::slice(const std::string &func_name,
                     const std::string &value_name,
                     std::vector<std::string> &out,
                     std::string &error) const
{
    if (!result_) {
        error = "binary has not been analyzed";
        return false;
    }
    const FuncId func = module_->findFunc(func_name);
    if (!func.valid()) {
        error = "no function named @" + func_name;
        return false;
    }
    const std::string wanted =
        !value_name.empty() && value_name[0] == '%'
            ? value_name.substr(1)
            : value_name;
    ValueId source = ValueId::invalid();
    for (std::size_t i = 0; i < module_->numValues(); ++i) {
        const ValueId vid(static_cast<ValueId::RawType>(i));
        const Value &v = module_->value(vid);
        if (module_->str(v.name) != wanted)
            continue;
        if (module_->owningFunc(vid) == func) {
            source = vid;
            break;
        }
    }
    if (!source.valid()) {
        error = "no value named %" + wanted + " in @" + func_name;
        return false;
    }
    const DataSlicer slicer(*module_, analyzer_->ddg());
    DataSlicer::Options options;
    for (const ValueId v : slicer.forwardSlice(source, options)) {
        const FuncId owner = module_->owningFunc(v);
        const std::string where = owner.valid()
            ? std::string(module_->str(module_->func(owner).name))
            : std::string("?");
        out.push_back("@" + where + ":" + printValueRef(*module_, v));
    }
    return true;
}

bool
BinarySession::saveSnapshot(std::string &bytes, std::string &error) const
{
    if (!module_ || !result_) {
        error = "binary has not been analyzed";
        return false;
    }
    const ModuleKeys keys(*module_);
    std::vector<std::pair<std::string, std::uint64_t>> funcs;
    funcs.reserve(module_->numFuncs());
    for (std::size_t f = 0; f < module_->numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        funcs.emplace_back(std::string(module_->str(module_->func(fid).name)),
                           keys.contentHash(fid));
    }
    SnapshotMeta meta;
    meta.textHash = text_hash_;
    meta.budget = config_.budget;
    meta.configLabel = config_.label();
    const SubstrateDigests digests = computeSubstrateDigests(
        *module_, analyzer_->pts(), analyzer_->ddg());
    std::vector<ResultDigest> results;
    results.push_back({"types", Fnv64::of(renderTypes())});
    results.push_back({"lint", Fnv64::of(renderLint())});
    results.push_back({"icall", Fnv64::of(renderIcall())});
    results.push_back({"taint", Fnv64::of(renderTaint())});
    bytes = writeSnapshot(*module_, meta, funcs, digests, memo_, results);
    return true;
}

bool
BinarySession::loadSnapshot(std::string_view bytes, std::string &error)
{
    auto module = std::make_unique<Module>();
    SnapshotContents contents;
    if (!readSnapshot(bytes, *module, memo_, contents, error)) {
        memo_.clear();
        return false;
    }
    if (contents.meta.configLabel != config_.label()) {
        memo_.clear();
        error = "snapshot configuration mismatch (have '" +
                contents.meta.configLabel + "', want '" + config_.label() +
                "')";
        return false;
    }

    // Verify the FUNCS mirror against the decoded module: the content
    // hashes must reproduce, or the snapshot does not describe this
    // MIR payload.
    auto keys = std::make_unique<ModuleKeys>(*module);
    if (contents.funcs.size() != module->numFuncs()) {
        memo_.clear();
        error = "snapshot FUNCS/MIR disagreement";
        return false;
    }
    for (std::size_t f = 0; f < module->numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        if (contents.funcs[f].first !=
                module->str(module->func(fid).name) ||
            contents.funcs[f].second != keys->contentHash(fid)) {
            memo_.clear();
            error = "snapshot FUNCS/MIR disagreement";
            return false;
        }
    }

    // Rebuild substrates from the decoded MIR and verify the digest
    // mirrors; a divergence means the snapshot was produced by an
    // incompatible build and its summaries cannot be trusted.
    auto analyzer = std::make_unique<MantaAnalyzer>(*module, config_);
    const SubstrateDigests rebuilt = computeSubstrateDigests(
        *module, analyzer->pts(), analyzer->ddg());
    if (rebuilt.pts != contents.digests.pts ||
        rebuilt.ptsLocs != contents.digests.ptsLocs ||
        rebuilt.ddg != contents.digests.ddg ||
        rebuilt.ddgEdges != contents.digests.ddgEdges) {
        memo_.clear();
        error = "snapshot substrate digest mismatch";
        return false;
    }

    memo_.adoptKeys(std::move(keys), module.get());
    auto result = std::make_unique<InferenceResult>(
        analyzer->infer(config_, &memo_));

    module_ = std::move(module);
    analyzer_ = std::move(analyzer);
    result_ = std::move(result);
    text_hash_ = contents.meta.textHash;
    prev_hashes_.clear();
    for (const auto &[name, hash] : contents.funcs)
        prev_hashes_[name] = hash;
    ++analyses_;

    // Verify the RESULTS mirror: warm renders must be byte-identical
    // to what the saving session rendered.
    for (const ResultDigest &expected : contents.results) {
        std::uint64_t digest = 0;
        if (expected.name == "types")
            digest = Fnv64::of(renderTypes());
        else if (expected.name == "lint")
            digest = Fnv64::of(renderLint());
        else if (expected.name == "icall")
            digest = Fnv64::of(renderIcall());
        else if (expected.name == "taint")
            digest = Fnv64::of(renderTaint());
        else
            continue;
        if (digest != expected.digest) {
            module_.reset();
            analyzer_.reset();
            result_.reset();
            memo_.clear();
            prev_hashes_.clear();
            text_hash_ = 0;
            error = "snapshot RESULTS digest mismatch for '" +
                    expected.name + "'";
            return false;
        }
    }

    AnalyzeOutcome out;
    out.ok = true;
    out.funcs = module_->numFuncs();
    out.values = module_->numValues();
    out.stats = result_->finalStats();
    out.csReused = result_->profile().csReused;
    out.fsReused = result_->profile().fsReused;
    last_ = out;
    return true;
}

} // namespace serve
} // namespace manta
