#include "fuzz/oracles.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "analysis/acyclic.h"
#include "analysis/memobj.h"
#include "analysis/pointsto.h"
#include "clients/icall.h"
#include "core/pipeline.h"
#include "core/refine_flow.h"
#include "eval/metrics.h"
#include "mir/interp.h"
#include "lint/run.h"
#include "mir/parser.h"
#include "mir/serialize.h"
#include "mir/printer.h"
#include "mir/verifier.h"
#include "reference/refine_ref.h"
#include "reference/taint_ref.h"
#include "serve/session.h"
#include "taint/taint.h"

namespace manta {
namespace fuzz {

const char *
oracleName(OracleId id)
{
    switch (id) {
    case OracleId::Verifier: return "verifier";
    case OracleId::RoundTrip: return "roundtrip";
    case OracleId::Monotonic: return "monotonic";
    case OracleId::GroundTruth: return "ground_truth";
    case OracleId::PtsDiff: return "pts_diff";
    case OracleId::Interp: return "interp";
    case OracleId::LintStable: return "lint_stable";
    case OracleId::WalkDiff: return "walk_diff";
    case OracleId::SnapshotRoundTrip: return "snapshot_roundtrip";
    case OracleId::EngineDiff: return "engine_diff";
    case OracleId::TaintStable: return "taint_stable";
    }
    return "?";
}

bool
oracleFromName(const std::string &name, OracleId &out)
{
    for (std::size_t i = 0; i < kNumOracles; ++i) {
        const auto id = static_cast<OracleId>(i);
        if (name == oracleName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

bool
oracleIsTruthFree(OracleId id)
{
    return id != OracleId::GroundTruth;
}

namespace {

/** Records runs/failures into a CaseResult; details capped per oracle. */
class Battery
{
  public:
    explicit Battery(CaseResult &r) : r_(r) {}

    void ran(OracleId id) { r_.counters.runs[idx(id)]++; }

    void
    fail(OracleId id, std::string detail)
    {
        if (!failed_[idx(id)])
            r_.counters.failures[idx(id)]++;
        failed_[idx(id)] = true;
        if (details_[idx(id)]++ < 3)
            r_.failures.push_back({id, std::move(detail)});
    }

    bool failed(OracleId id) const { return failed_[idx(id)]; }

  private:
    static std::size_t idx(OracleId id) { return static_cast<std::size_t>(id); }

    CaseResult &r_;
    std::array<bool, kNumOracles> failed_{};
    std::array<int, kNumOracles> details_{};
};

const char *
eventKindName(RuntimeEvent::Kind k)
{
    switch (k) {
    case RuntimeEvent::Kind::NullDeref: return "null-deref";
    case RuntimeEvent::Kind::OutOfBounds: return "out-of-bounds";
    case RuntimeEvent::Kind::UseAfterFree: return "use-after-free";
    case RuntimeEvent::Kind::BufferOverflow: return "buffer-overflow";
    case RuntimeEvent::Kind::CommandExec: return "command-exec";
    case RuntimeEvent::Kind::BadIndirect: return "bad-indirect";
    }
    return "?";
}

/** Oracle 2: printer -> parser -> printer reaches a textual fixpoint. */
void
checkRoundTrip(const Module &m, Battery &b)
{
    b.ran(OracleId::RoundTrip);
    const std::string t1 = printModule(m);
    Module m2;
    std::string err;
    if (!parseModule(t1, m2, err)) {
        b.fail(OracleId::RoundTrip, "reparse failed: " + err);
        return;
    }
    const auto errs = verifyModule(m2);
    if (!errs.empty()) {
        b.fail(OracleId::RoundTrip,
               "reparsed module fails verification: " + errs.front());
        return;
    }
    if (m2.numInsts() != m.numInsts() || m2.numFuncs() != m.numFuncs() ||
        m2.numBlocks() != m.numBlocks() ||
        m2.numGlobals() != m.numGlobals()) {
        b.fail(OracleId::RoundTrip,
               "reparse changed structural counts (insts " +
                   std::to_string(m.numInsts()) + " -> " +
                   std::to_string(m2.numInsts()) + ")");
        return;
    }
    const std::string t2 = printModule(m2);
    if (t1 != t2) {
        b.fail(OracleId::RoundTrip,
               "print(parse(print(m))) differs from print(m)");
        return;
    }
    Module m3;
    if (!parseModule(t2, m3, err)) {
        b.fail(OracleId::RoundTrip, "second reparse failed: " + err);
        return;
    }
    if (printModule(m3) != t2)
        b.fail(OracleId::RoundTrip, "printer/parser fixpoint not reached");
}

/**
 * Oracle 6, dynamic half: a program generated without injected bugs
 * must not corrupt memory. Generator programs may still legitimately
 * report unresolvable indirect targets, command-sink firings (existing
 * interpreter-test precedent) and null derefs - a sampled feature mix
 * can leave a pointer slot initialized on one dynamic path only, and
 * the interpreter reads uninitialized words as zero. Synthesized
 * modules are constructed fully benign, so any event is a violation.
 */
void
checkInterpEvents(const Module &m, bool synthesized,
                  const InterpResult &run, Battery &b)
{
    b.ran(OracleId::Interp);
    for (const RuntimeEvent &e : run.events) {
        const bool allowed =
            !synthesized && (e.kind == RuntimeEvent::Kind::BadIndirect ||
                             e.kind == RuntimeEvent::Kind::CommandExec ||
                             e.kind == RuntimeEvent::Kind::NullDeref);
        if (allowed)
            continue;
        b.fail(OracleId::Interp,
               std::string("bug-free program raised ") +
                   eventKindName(e.kind) + " at tag " +
                   std::to_string(e.srcTag) + " (" + e.detail + ")");
    }
    (void)m;
}

/**
 * Oracle 3: the CS/FS stages only narrow what FI established. For any
 * variable FI classified over-approximated, a later stage that still
 * commits (non-unknown) must keep its upper bound a subtype of the
 * earlier stage's; FI-precise variables must stay precise.
 */
void
checkMonotonic(Module &m, MantaAnalyzer &an, const InferenceResult &full,
               Battery &b)
{
    b.ran(OracleId::Monotonic);
    const InferenceResult fi = an.infer(HybridConfig::fiOnly());
    HybridConfig fiCsCfg;
    fiCsCfg.flowSensitive = false;
    const InferenceResult fiCs = an.infer(fiCsCfg);

    TypeTable &table = m.types();
    const TypeRef top = table.top();

    const auto narrowed = [&](ValueId v, const InferenceResult &coarse,
                              const InferenceResult &fine,
                              const char *stage) {
        if (coarse.valueClass(v) != TypeClass::Over)
            return;
        if (fine.valueClass(v) == TypeClass::Unknown)
            return;
        const TypeRef cu = coarse.valueBounds(v).upper;
        const TypeRef fu = fine.valueBounds(v).upper;
        if (cu == top)
            return;
        if (!table.isSubtype(fu, cu)) {
            b.fail(OracleId::Monotonic,
                   std::string(stage) + " widened " + printValueRef(m, v) +
                       ": " + table.toString(cu) + " -> " +
                       table.toString(fu));
        }
    };

    for (std::size_t i = 0; i < m.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        const ValueKind kind = m.value(v).kind;
        if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
            continue;
        narrowed(v, fi, fiCs, "CS-after-FI");
        narrowed(v, fi, full, "full-after-FI");
        narrowed(v, fiCs, full, "FS-after-CS");
        if (fi.valueClass(v) == TypeClass::Precise &&
            full.valueClass(v) != TypeClass::Precise) {
            b.fail(OracleId::Monotonic,
                   "FI-precise " + printValueRef(m, v) +
                       " lost precision in the full pipeline");
        }
    }
}

/**
 * Oracle 4: the oracle reference built from the erased truth must
 * score perfectly, and under a strict config (soundness noise off) the
 * full pipeline must never contradict the truth.
 */
void
checkGroundTruth(Module &m, const GroundTruth &truth,
                 const InferenceResult &full, bool strict, Battery &b)
{
    b.ran(OracleId::GroundTruth);
    const InferenceResult ref =
        InferenceResult::fromTypeMap(m, truth.valueTypes);
    const TypeEval re = evalInference(m, truth, ref);
    if (re.preciseCorrect != re.total) {
        b.fail(OracleId::GroundTruth,
               "truth-derived reference mis-scored: " +
                   std::to_string(re.preciseCorrect) + "/" +
                   std::to_string(re.total) + " precise-correct");
    }
    if (strict) {
        const TypeEval ev = evalInference(m, truth, full);
        if (ev.incorrect != 0) {
            b.fail(OracleId::GroundTruth,
                   std::to_string(ev.incorrect) + "/" +
                       std::to_string(ev.total) +
                       " params contradict ground truth under a "
                       "noise-free config");
        }
    }
}

/** Oracle 5: sparse worklist and dense reference solutions agree. */
void
checkPtsDiff(const Module &m, const MemObjects &objects, Battery &b)
{
    b.ran(OracleId::PtsDiff);
    PointsTo dense(m, objects, true, PtsSolver::Dense);
    dense.run();
    PointsTo sparse(m, objects, true, PtsSolver::Sparse);
    sparse.run();

    std::size_t differing = 0;
    for (std::size_t i = 0; i < m.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        if (dense.locs(v) == sparse.locs(v))
            continue;
        ++differing;
        if (differing <= 2) {
            b.fail(OracleId::PtsDiff,
                   "solvers disagree on " + printValueRef(m, v) +
                       " (dense " + std::to_string(dense.locs(v).size()) +
                       " locs, sparse " +
                       std::to_string(sparse.locs(v).size()) + ")");
        }
    }
    if (differing > 2) {
        b.fail(OracleId::PtsDiff, std::to_string(differing) +
                                      " values differ between solvers");
    }

    auto db = dense.fieldBuckets();
    auto sb = sparse.fieldBuckets();
    std::sort(db.begin(), db.end());
    std::sort(sb.begin(), sb.end());
    if (db != sb) {
        b.fail(OracleId::PtsDiff,
               "field-bucket sets differ (dense " +
                   std::to_string(db.size()) + ", sparse " +
                   std::to_string(sb.size()) + ")");
        return;
    }
    for (const auto &[obj, offset] : db) {
        if (!(dense.fieldPts(obj, offset) == sparse.fieldPts(obj, offset))) {
            b.fail(OracleId::PtsDiff,
                   "field bucket (obj " + std::to_string(obj.raw()) +
                       ", off " + std::to_string(offset) +
                       ") differs between solvers");
            return;
        }
    }
}

/**
 * Oracle 6, static half: static verdicts must be consistent with the
 * observed run. Under sound inference (strict/synthesized programs) no
 * successfully dereferenced value may be inferred precisely numeric,
 * and every dispatched indirect target must sit in the FullTypes
 * client's feasible set; with ground truth available, dispatches must
 * also match the generator's recorded target sets.
 */
void
checkInterpStatic(Module &m, const InferenceResult &full,
                  const InterpResult &run, const GroundTruth *truth,
                  bool sound_inference, Battery &b)
{
    TypeTable &table = m.types();
    if (sound_inference) {
        for (const DerefRecord &d : run.derefs) {
            if (d.faulted)
                continue;
            const ValueKind kind = m.value(d.addr).kind;
            if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
                continue;
            if (full.valueClass(d.addr) != TypeClass::Precise)
                continue;
            const TypeRef t = full.valueBounds(d.addr).upper;
            if (table.isNumeric(t)) {
                b.fail(OracleId::Interp,
                       "dereferenced " + printValueRef(m, d.addr) +
                           " inferred precisely " + table.toString(t));
            }
        }
        const IcallAnalysis icalls(m, &full);
        const IcallResult verdicts = icalls.run(IcallDiscipline::FullTypes);
        for (const auto &[site, callee] : run.icallsTaken) {
            const auto it = verdicts.targets.find(site);
            const bool kept =
                it != verdicts.targets.end() &&
                std::find(it->second.begin(), it->second.end(), callee) !=
                    it->second.end();
            if (!kept) {
                b.fail(OracleId::Interp,
                       "FullTypes verdict excludes observed icall target @" +
                           std::string(m.str(m.func(callee).name)));
            }
        }
    }
    if (truth != nullptr) {
        for (const auto &[site, callee] : run.icallsTaken) {
            const std::uint32_t tag = m.inst(site).srcTag;
            const auto it = truth->icallTargets.find(tag);
            const bool recorded =
                it != truth->icallTargets.end() &&
                std::find(it->second.begin(), it->second.end(), callee) !=
                    it->second.end();
            if (!recorded) {
                b.fail(OracleId::Interp,
                       "observed icall target @" +
                           std::string(m.str(m.func(callee).name)) +
                           " missing from ground truth (tag " +
                           std::to_string(tag) + ")");
            }
        }
    }
}

/**
 * Oracle 7: lint diagnostics are a function of the module, not of the
 * object identities a particular parse produced. Print the module,
 * parse it twice (via the printer fixpoint), run the full pipeline +
 * lint on both parses and require identical rendered reports. Any
 * difference means some checker leaked parse-order state into its
 * output - exactly the class of bug that would break the lint
 * driver's MANTA_JOBS byte-identity contract.
 */
void
checkLintStable(const Module &m, Battery &b)
{
    b.ran(OracleId::LintStable);

    const auto lintRender = [](Module &mod) {
        makeAcyclic(mod);
        MantaAnalyzer an(mod, HybridConfig::full());
        const InferenceResult full = an.infer();
        const lint::LintResult result =
            lint::runLint(an, &full, nullptr, lint::LintOptions{});
        return lint::DiagnosticEngine::renderText(result.diagnostics);
    };

    const std::string t1 = printModule(m);
    Module m2;
    std::string err;
    if (!parseModule(t1, m2, err)) {
        b.fail(OracleId::LintStable, "reparse failed: " + err);
        return;
    }
    const std::string t2 = printModule(m2);
    Module m3;
    if (!parseModule(t2, m3, err)) {
        b.fail(OracleId::LintStable, "second reparse failed: " + err);
        return;
    }
    const std::string first = lintRender(m2);
    const std::string second = lintRender(m3);
    if (first != second) {
        b.fail(OracleId::LintStable,
               "lint report changed across a print/parse roundtrip (" +
                   std::to_string(first.size()) + " vs " +
                   std::to_string(second.size()) + " bytes)");
    }
}

/**
 * A hint-free, call-free function of kFlatIndexMinInsts adds: appended
 * to a module's text, it lifts the module past the FS flat-index gate
 * (core/refine_flow.h) without touching any other function.
 */
std::string
flatGatePad()
{
    std::string text = "func @fuzz_gate_pad(%x:64) {\nentry:\n";
    for (std::size_t i = 0; i < FlowRefinement::kFlatIndexMinInsts; ++i)
        text += "  %p" + std::to_string(i) + " = add %x, " +
                std::to_string(i + 1) + ":64\n";
    return text + "  ret %x\n}\n";
}

/**
 * `text` with its first constant operand (in function order) bumped
 * by one, reprinted; empty when the module has no constant operand.
 */
std::string
bumpFirstConstant(const std::string &text)
{
    Module m;
    std::string error;
    if (!parseModule(text, m, error))
        return std::string();
    for (std::size_t f = 0; f < m.numFuncs(); ++f) {
        for (const BlockId b :
             m.func(FuncId(static_cast<FuncId::RawType>(f))).blocks) {
            for (const InstId i : m.block(b).insts) {
                for (const ValueId op : m.operands(m.inst(i))) {
                    Value &v = m.value(op);
                    if (v.kind == ValueKind::Constant) {
                        v.constValue +=
                            v.constValue <
                                    std::numeric_limits<std::int64_t>::max()
                                ? 1
                                : -1;
                        return printModule(m);
                    }
                }
            }
        }
    }
    return std::string();
}

/**
 * Oracle 9: serve-layer snapshots round-trip (docs/SERVING.md). A
 * session that analyzed the module must serialize to an MSNP snapshot
 * that restores into a fresh session whose rendered types/lint/icall
 * artifacts are byte-identical to the saving session's, and a
 * corrupted snapshot must be rejected outright, leaving the loader
 * empty and able to analyze cold. The saving session then re-analyzes
 * the module with one constant bumped, padded past the FS flat-index
 * gate: its warm renders (types, lint, icall, taint) must equal a
 * fresh cold session's. Running this per
 * generated program continuously fuzzes the snapshot decoder, the
 * memo serialization, the RESULTS digest proof and the memo's
 * record validation against every module shape the generator can
 * produce.
 */
void
checkSnapshotRoundTrip(const Module &m, Battery &b)
{
    b.ran(OracleId::SnapshotRoundTrip);

    const std::string text = printModule(m);
    serve::BinarySession saver("fuzz");
    const serve::AnalyzeOutcome out = saver.analyze(text);
    if (!out.ok) {
        b.fail(OracleId::SnapshotRoundTrip,
               "session analyze failed: " + out.error);
        return;
    }
    std::string bytes, error;
    if (!saver.saveSnapshot(bytes, error)) {
        b.fail(OracleId::SnapshotRoundTrip, "save failed: " + error);
        return;
    }

    serve::BinarySession loader("fuzz");
    if (!loader.loadSnapshot(bytes, error)) {
        b.fail(OracleId::SnapshotRoundTrip,
               "reload rejected a fresh snapshot: " + error);
        return;
    }
    if (loader.renderTypes() != saver.renderTypes())
        b.fail(OracleId::SnapshotRoundTrip,
               "types render diverged across a snapshot roundtrip");
    if (loader.renderLint() != saver.renderLint())
        b.fail(OracleId::SnapshotRoundTrip,
               "lint render diverged across a snapshot roundtrip");
    if (loader.renderIcall() != saver.renderIcall())
        b.fail(OracleId::SnapshotRoundTrip,
               "icall render diverged across a snapshot roundtrip");

    std::string bad = bytes;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x5a);
    serve::BinarySession corrupt("fuzz");
    std::string corrupt_error;
    if (corrupt.loadSnapshot(bad, corrupt_error)) {
        b.fail(OracleId::SnapshotRoundTrip,
               "corrupted snapshot was accepted");
    } else if (corrupt.hasResult()) {
        b.fail(OracleId::SnapshotRoundTrip,
               "rejected snapshot left session state behind");
    }

    // Warm-edit half: bump the first constant operand and re-analyze on
    // the saving session; its memo answers whatever the edit left
    // valid, and every render must match a cold analysis of the edit.
    // Both sides carry the gate pad, so the memo runs take the FS
    // relevance filter and closure digests; the padded pre-edit run
    // replays the unpadded run's records across the gate first.
    const std::string edited = bumpFirstConstant(text);
    if (!edited.empty()) {
        const std::string pad = flatGatePad();
        if (!saver.analyze(text + pad).ok ||
                !saver.analyze(edited + pad).ok) {
            b.fail(OracleId::SnapshotRoundTrip,
                   "warm re-analysis of a one-constant edit failed");
            return;
        }
        serve::BinarySession cold("fuzz");
        if (!cold.analyze(edited + pad).ok) {
            b.fail(OracleId::SnapshotRoundTrip,
                   "cold analysis of a one-constant edit failed");
            return;
        }
        if (saver.renderTypes() != cold.renderTypes())
            b.fail(OracleId::SnapshotRoundTrip,
                   "warm types render diverged from cold after an edit");
        if (saver.renderLint() != cold.renderLint())
            b.fail(OracleId::SnapshotRoundTrip,
                   "warm lint render diverged from cold after an edit");
        if (saver.renderIcall() != cold.renderIcall())
            b.fail(OracleId::SnapshotRoundTrip,
                   "warm icall render diverged from cold after an edit");
        if (saver.renderTaint() != cold.renderTaint())
            b.fail(OracleId::SnapshotRoundTrip,
                   "warm taint render diverged from cold after an edit");
    }

    // Codec half: the raw pool dump must decode to a module that
    // reprints byte-identically (mir/serialize.h's round-trip
    // guarantee; every warm answer rests on it).
    ByteWriter pool_w;
    serializeModulePools(m, pool_w);
    const std::string pool_bytes = pool_w.take();
    ByteReader pool_r(pool_bytes);
    Module via_pools;
    if (deserializeModulePools(pool_r, via_pools) != PoolDecode::Ok) {
        b.fail(OracleId::SnapshotRoundTrip,
               "pool codec rejected its own dump");
        return;
    }
    if (printModule(via_pools) != text) {
        b.fail(OracleId::SnapshotRoundTrip,
               "pool-load reprint diverged from the module's text");
    }
}

/**
 * Oracle 8: walk_diff. Production refinement (the fast walker on
 * bottom-up SCC waves over the shared summary store, flattened
 * hint/CFG indexes, packs on the task pool) is a pure optimization of
 * the sequential reference (reference/refine_ref.h). Require identical
 * value and site overlays, by TypeRef id, between the full pipeline
 * and the reference on shared substrates - and require that the
 * production run actually condensed the callgraph (a trivial schedule
 * would pass vacuously). The pool path also runs under TSan in the
 * fuzz smokes.
 */
void
checkWalkDiff(MantaAnalyzer &an, const InferenceResult &full, Battery &b)
{
    b.ran(OracleId::WalkDiff);
    if (full.profile().sccCount == 0)
        b.fail(OracleId::WalkDiff,
               "production run reports no SCC condensation");
    const std::string diff =
        diffOverlays(full, referenceInfer(an, HybridConfig::full()));
    if (!diff.empty()) {
        b.fail(OracleId::WalkDiff,
               "production and reference refinement disagree: " + diff);
    }
}

/**
 * Oracle 10: engine_diff. The polymorphic subtyping core is a
 * precision-or-equal sibling of the unification core, never an unsound
 * one. Run both engines FI-only on shared substrates and require, for
 * every variable, that the subtype interval nests inside the unifier's:
 * the subtype upper bound is a subtype of the unification upper bound
 * and the unification lower bound is a subtype of the subtype lower
 * bound. Directed constraint edges only ever connect variables the
 * unifier would have placed in one equivalence class, and every atom
 * the subtype solver folds into a variable is drawn from that class's
 * hint set - so a variable's subtype evidence is a subset of its class
 * evidence, and a class with no evidence at all (unifier Unknown) must
 * stay Unknown under the subtype engine too. With ground truth on a
 * strict case, the subtype engine's full pipeline must additionally
 * never contradict the erased truth (the unsoundness tripwire).
 */
void
checkEngineDiff(Module &m, MantaAnalyzer &an, const GroundTruth *truth,
                bool strict, Battery &b)
{
    b.ran(OracleId::EngineDiff);

    HybridConfig uni_cfg = HybridConfig::fiOnly();
    uni_cfg.inferEngine = InferEngine::Unify;
    HybridConfig sub_cfg = HybridConfig::fiOnly();
    sub_cfg.inferEngine = InferEngine::Subtype;

    const InferenceResult uni = an.infer(uni_cfg);
    const InferenceResult sub = an.infer(sub_cfg);

    TypeTable &table = m.types();
    std::size_t violations = 0;
    const auto violation = [&](std::string detail) {
        if (++violations <= 3)
            b.fail(OracleId::EngineDiff, std::move(detail));
    };

    for (std::size_t i = 0; i < m.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        const ValueKind kind = m.value(v).kind;
        if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
            continue;
        const TypeClass uc = uni.valueClass(v);
        const TypeClass sc = sub.valueClass(v);
        if (uc == TypeClass::Unknown) {
            if (sc != TypeClass::Unknown) {
                violation("subtype engine invented evidence for " +
                          printValueRef(m, v) + " (" +
                          table.toString(sub.valueBounds(v).upper) +
                          ") where unification saw none");
            }
            continue;
        }
        if (sc == TypeClass::Unknown)
            continue;
        const BoundPair ub = uni.valueBounds(v);
        const BoundPair sb = sub.valueBounds(v);
        if (!table.isSubtype(sb.upper, ub.upper)) {
            violation("subtype upper bound of " + printValueRef(m, v) +
                      " escapes the unification interval: " +
                      table.toString(sb.upper) + " vs " +
                      table.toString(ub.upper));
        }
        if (!table.isSubtype(ub.lower, sb.lower)) {
            violation("subtype lower bound of " + printValueRef(m, v) +
                      " escapes the unification interval: " +
                      table.toString(sb.lower) + " vs " +
                      table.toString(ub.lower));
        }
    }
    if (violations > 3) {
        b.fail(OracleId::EngineDiff,
               std::to_string(violations) +
                   " variables violate engine-interval nesting");
    }

    if (truth != nullptr && strict) {
        HybridConfig full_cfg = HybridConfig::full();
        full_cfg.inferEngine = InferEngine::Subtype;
        const InferenceResult full = an.infer(full_cfg);
        const TypeEval ev = evalInference(m, *truth, full);
        if (ev.incorrect != 0) {
            b.fail(OracleId::EngineDiff,
                   std::to_string(ev.incorrect) + "/" +
                       std::to_string(ev.total) +
                       " params contradict ground truth under the "
                       "subtype engine's noise-free full pipeline");
        }
    }
}

/** Pinned options: oracle 11 must not wobble with MANTA_TAINT*. */
taint::TaintOptions
pinnedTaintOptions()
{
    taint::TaintOptions opts;
    opts.useTypes = true;
    opts.sanitizers = true;
    opts.maxFactsPerValue = 256;
    return opts;
}

/**
 * Oracle 11, roundtrip half: the taint artifact is invariant under a
 * print/parse roundtrip. Runs on the PRE-acyclic module (like
 * lint_stable) — the acyclic transform's @__recursion_stub callees
 * are not printable MIR, so the printed text of a post-acyclic module
 * would not reparse on recursive cases. One print/parse normalizes
 * value numbering, so the artifact of the first reparse must equal
 * the second's.
 */
void
checkTaintRoundtrip(const Module &m, Battery &b)
{
    b.ran(OracleId::TaintStable);

    const auto taintRender = [](Module &mod) {
        makeAcyclic(mod);
        MantaAnalyzer an2(mod, HybridConfig::full());
        const InferenceResult full2 = an2.infer();
        return taint::runTaint(an2, &full2, pinnedTaintOptions())
            .canonicalText(mod);
    };
    const std::string t1 = printModule(m);
    Module m2;
    std::string err;
    if (!parseModule(t1, m2, err)) {
        b.fail(OracleId::TaintStable, "reparse failed: " + err);
        return;
    }
    const std::string t2 = printModule(m2);
    Module m3;
    if (!parseModule(t2, m3, err)) {
        b.fail(OracleId::TaintStable, "second reparse failed: " + err);
        return;
    }
    if (taintRender(m2) != taintRender(m3)) {
        b.fail(OracleId::TaintStable,
               "taint artifact changed across a print/parse roundtrip");
    }
}

/**
 * Oracle 11, schedule half: the taint engine's fact table on the
 * analyzed (post-acyclic) module equals the one-worklist reference
 * fixpoint (reference/taint_ref.h) value for value. Flows and summary
 * return facts are derived from that table, so canonicalText follows.
 */
void
checkTaintStable(MantaAnalyzer &an, const InferenceResult &full,
                 Battery &b)
{
    const taint::TaintOptions opts = pinnedTaintOptions();
    const taint::TaintResult result = taint::runTaint(an, &full, opts);
    const std::vector<taint::FactSet> ref =
        referenceTaintFacts(an, &full, opts);
    for (std::size_t v = 0; v < ref.size(); ++v) {
        if (v >= result.facts.size() || result.facts[v] != ref[v]) {
            b.fail(OracleId::TaintStable,
                   "taint facts of value " + std::to_string(v) +
                       " differ from the reference fixpoint");
            return;
        }
    }
}

} // namespace

CaseResult
runCase(const FuzzCase &c)
{
    CaseResult r;
    Battery b(r);
    CaseProgram prog = materialize(c);
    Module &m = *prog.module;
    r.insts = m.numInsts();

    b.ran(OracleId::Verifier);
    {
        const auto errs = verifyModule(m);
        if (!errs.empty()) {
            b.fail(OracleId::Verifier,
                   std::to_string(errs.size()) +
                       " violations; first: " + errs.front());
            return r;
        }
    }

    checkRoundTrip(m, b);
    checkLintStable(m, b);
    checkTaintRoundtrip(m, b);
    checkSnapshotRoundTrip(m, b);

    InterpResult run;
    {
        InterpOptions io;
        io.recordTrace = true;
        Interpreter interp(m, io);
        run = interp.runMain();
    }
    checkInterpEvents(m, c.synthesized, run, b);

    makeAcyclic(m);
    {
        const auto errs = verifyModule(m);
        if (!errs.empty()) {
            b.fail(OracleId::Verifier,
                   "post-acyclic: " + errs.front());
            return r;
        }
    }

    const MemObjects objects(m);
    checkPtsDiff(m, objects, b);

    MantaAnalyzer an(m, HybridConfig::full());
    const InferenceResult full = an.infer();
    checkMonotonic(m, an, full, b);
    checkWalkDiff(an, full, b);
    checkEngineDiff(m, an, prog.hasTruth ? &prog.truth : nullptr, c.strict,
                    b);
    checkTaintStable(an, full, b);

    if (prog.hasTruth)
        checkGroundTruth(m, prog.truth, full, c.strict, b);

    checkInterpStatic(m, full, run, prog.hasTruth ? &prog.truth : nullptr,
                      c.strict || c.synthesized, b);
    return r;
}

CaseResult
runTextOracles(const std::string &text)
{
    CaseResult r;
    Battery b(r);
    Module m;
    std::string err;
    b.ran(OracleId::Verifier);
    if (!parseModule(text, m, err)) {
        b.fail(OracleId::Verifier, "parse failed: " + err);
        return r;
    }
    {
        const auto errs = verifyModule(m);
        if (!errs.empty()) {
            b.fail(OracleId::Verifier, errs.front());
            return r;
        }
    }
    r.insts = m.numInsts();

    checkRoundTrip(m, b);
    checkLintStable(m, b);
    checkTaintRoundtrip(m, b);
    checkSnapshotRoundTrip(m, b);

    makeAcyclic(m);
    {
        const auto errs = verifyModule(m);
        if (!errs.empty()) {
            b.fail(OracleId::Verifier, "post-acyclic: " + errs.front());
            return r;
        }
    }

    const MemObjects objects(m);
    checkPtsDiff(m, objects, b);

    MantaAnalyzer an(m, HybridConfig::full());
    const InferenceResult full = an.infer();
    checkMonotonic(m, an, full, b);
    checkWalkDiff(an, full, b);
    checkEngineDiff(m, an, nullptr, false, b);
    checkTaintStable(an, full, b);
    return r;
}

bool
textFailsOracle(const std::string &text, OracleId which)
{
    if (!oracleIsTruthFree(which))
        return false;
    Module m;
    std::string err;
    if (!parseModule(text, m, err))
        return false;
    const auto errs = verifyModule(m);
    if (which == OracleId::Verifier)
        return !errs.empty();
    if (!errs.empty())
        return false;

    CaseResult r;
    Battery b(r);
    if (which == OracleId::RoundTrip) {
        checkRoundTrip(m, b);
        return b.failed(which);
    }
    if (which == OracleId::LintStable) {
        checkLintStable(m, b);
        return b.failed(which);
    }
    if (which == OracleId::SnapshotRoundTrip) {
        checkSnapshotRoundTrip(m, b);
        return b.failed(which);
    }
    if (which == OracleId::TaintStable) {
        // Roundtrip half runs pre-acyclic; fall through to the
        // post-acyclic schedule half below if it holds.
        checkTaintRoundtrip(m, b);
        if (b.failed(which))
            return true;
    }

    InterpResult run;
    if (which == OracleId::Interp) {
        InterpOptions io;
        io.recordTrace = true;
        Interpreter interp(m, io);
        run = interp.runMain();
    }

    makeAcyclic(m);
    if (!verifyModule(m).empty())
        return false;

    if (which == OracleId::PtsDiff) {
        const MemObjects objects(m);
        checkPtsDiff(m, objects, b);
        return b.failed(which);
    }

    MantaAnalyzer an(m, HybridConfig::full());
    const InferenceResult full = an.infer();
    if (which == OracleId::Monotonic) {
        checkMonotonic(m, an, full, b);
        return b.failed(which);
    }
    if (which == OracleId::WalkDiff) {
        checkWalkDiff(an, full, b);
        return b.failed(which);
    }
    if (which == OracleId::EngineDiff) {
        checkEngineDiff(m, an, nullptr, false, b);
        return b.failed(which);
    }
    if (which == OracleId::TaintStable) {
        checkTaintStable(an, full, b);
        return b.failed(which);
    }
    // Interp: the truth-free static half (typed derefs + icall
    // verdict containment) against the recorded concrete run.
    checkInterpStatic(m, full, run, nullptr, true, b);
    return b.failed(which);
}

} // namespace fuzz
} // namespace manta
