/**
 * @file
 * One resident binary inside the daemon (docs/SERVING.md).
 *
 * A BinarySession owns everything needed to answer queries about one
 * submitted module without re-deriving it per request: the parsed
 * (acyclic) module, the analyzer with its substrates, the inference
 * result, and the cross-run IncrementalMemo. Re-submitting changed
 * text re-parses and rebuilds substrates (they are cheap and global),
 * re-runs flow-insensitive unification cold, and answers the
 * refinement stages' candidates from the memo wherever the recorded
 * touched-set still hashes the same - the expensive walks are paid
 * only for functions the change can actually reach.
 *
 * All methods must be called under the session's lock (Service does
 * this); the inner analysis still fans out on the shared task pool.
 */
#ifndef MANTA_SERVE_SESSION_H
#define MANTA_SERVE_SESSION_H

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "serve/memo.h"
#include "serve/snapshot.h"

namespace manta {
namespace serve {

/** Outcome summary of one analyze request. */
struct AnalyzeOutcome
{
    bool ok = false;
    std::string error;

    bool unchanged = false;     ///< Same text as the resident module.
    std::size_t funcs = 0;
    std::size_t values = 0;
    StageStats stats;           ///< Final classification counts.
    std::size_t csReused = 0;   ///< CS candidates answered from memo.
    std::size_t fsReused = 0;   ///< FS candidates answered from memo.
    double seconds = 0.0;       ///< End-to-end analyze wall clock.

    /** Functions whose content hash changed vs the previous submit
     *  (empty on a first analyze). */
    std::vector<std::string> dirty;
    /** Call closure of the dirty set - the conservative re-analysis
     *  frontier reported to clients. Computed on the callgraph SCC
     *  condensation (analysis/scc.h): a dirty function dirties its
     *  whole component, and the frontier is the condensation-DAG
     *  closure in both directions. */
    std::vector<std::string> closure;
    /** Strongly connected components the dirty functions fall into
     *  (the modular invalidation unit; 0 on a clean submit). */
    std::size_t dirtySccs = 0;
};

/** One resident binary: module + substrates + memo + result. */
class BinarySession
{
  public:
    explicit BinarySession(std::string name,
                           HybridConfig config = HybridConfig::full());

    const std::string &name() const { return name_; }

    /** Parse + analyze `mir_text`, reusing memoized refinement
     *  records from previous submissions where valid. */
    AnalyzeOutcome analyze(const std::string &mir_text);

    bool hasResult() const { return result_ != nullptr; }
    std::size_t analyses() const { return analyses_; }
    std::uint64_t textHash() const { return text_hash_; }

    /** Rendered artifacts (deterministic; digests drive the warm ==
     *  cold differential guarantees). */
    std::string renderTypes() const;
    std::string renderLint() const;
    std::string renderIcall() const;
    /** Taint flows + per-function summaries (the canonical artifact
     *  of src/taint, preceded by a one-line flow count header). */
    std::string renderTaint() const;

    /**
     * Forward slice from the value named `value_name` (with or
     * without the leading '%') in function `func_name`. Returns false
     * with `error` set when either does not exist.
     */
    bool slice(const std::string &func_name, const std::string &value_name,
               std::vector<std::string> &out, std::string &error) const;

    /** Memoized-record counts (status reporting). */
    std::size_t ctxRecords() const { return memo_.numCtxRecords(); }
    std::size_t flowRecords() const { return memo_.numFlowRecords(); }

    /**
     * Serialize the session to MSNP bytes (snapshot.h). Requires a
     * completed analyze.
     */
    bool saveSnapshot(std::string &bytes, std::string &error) const;

    /**
     * Restore a session from MSNP bytes: decode the module and the
     * memo, rebuild substrates from the decoded MIR and verify them
     * against the snapshot's digest mirrors, then re-run inference
     * (warm - the memo answers unchanged candidates). Any mismatch
     * rejects the snapshot and leaves the session empty, so the next
     * analyze is simply cold.
     */
    bool loadSnapshot(std::string_view bytes, std::string &error);

    /** The per-session lock Service holds around request handling. */
    std::mutex &lock() { return mutex_; }

  private:
    AnalyzeOutcome runAnalysis(std::unique_ptr<Module> module,
                               std::uint64_t text_hash);

    std::string name_;
    HybridConfig config_;
    std::mutex mutex_;

    std::uint64_t text_hash_ = 0;
    std::unique_ptr<Module> module_;
    std::unique_ptr<MantaAnalyzer> analyzer_;
    std::unique_ptr<InferenceResult> result_;
    IncrementalMemo memo_;
    std::size_t analyses_ = 0;
    AnalyzeOutcome last_;

    /** name -> content hash of the previous submission (dirty diff). */
    std::unordered_map<std::string, std::uint64_t> prev_hashes_;
};

} // namespace serve
} // namespace manta

#endif // MANTA_SERVE_SESSION_H
