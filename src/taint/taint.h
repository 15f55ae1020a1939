/**
 * @file
 * Interprocedural, flow- and field-aware taint engine (ROADMAP item 3).
 *
 * Taint facts are introduced by source specs (allocation addresses,
 * attacker-controlled externals, uninitialized stack reads), propagate
 * over the interprocedural DDG (analysis/ddg.h) — whose Memory edges
 * already encode field-sensitive points-to store/load resolution — and
 * are reported when they reach sink specs (print-like and copy-like
 * external calls, load/store addresses, indirect-call operands).
 *
 * Type inference gates every report twice, and only there:
 *
 *  - the **barrier**: facts do not propagate OUT of a value whose
 *    inferred interval commits to "numeric" (a number cannot carry a
 *    pointer), and
 *  - the **endpoint gate**: a flow whose sink operand interval
 *    excludes pointer-ness is emitted suppressed.
 *
 * Propagation itself never consults DDG pruning or the inference
 * engine, so the fact fixpoint is identical across MANTA_INFER
 * engines; with types disabled (MANTA_TAINT_NOTYPE=1) the barrier and
 * gate switch off and the engine demonstrably loses precision (the
 * ablation the lint campaign pins).
 *
 * The fixpoint is evaluated bottom-up over callgraph-SCC waves
 * (analysis/scc.h), computing per-function taint summaries into a
 * TaintSummaryStore that is frozen during a wave and published
 * sequentially in pack order between waves — MANTA_JOBS-independent
 * like core/fn_summary.h — followed by a sequential cross-function
 * drain to the fixpoint. Summaries are instantiated per call site as
 * shortcut edges (actual argument -> call result). The join is an
 * exact capped set union — a semilattice — so iteration order cannot
 * change the least fixpoint: the fact table equals the one-worklist
 * reference (reference/taint_ref.h) value for value.
 *
 * Every artifact (flows, summaries, canonical text) is byte-identical
 * across MANTA_JOBS and under print/parse roundtrips; the taint_stable
 * fuzz oracle and tests/test_taint.cc pin this.
 */
#ifndef MANTA_TAINT_TAINT_H
#define MANTA_TAINT_TAINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "mir/mir.h"

namespace manta {
namespace taint {

/** What a taint fact asserts about the value carrying it. */
enum class TaintKind : std::uint8_t {
    StackAddr, ///< Address of a stack allocation (alloca result).
    HeapAddr,  ///< Address of a heap allocation (malloc/calloc result).
    Input,     ///< Attacker-controlled data (recv/getenv/nvram_get...).
    Uninit,    ///< Read of never-written stack memory.
};

/** Printable kind name ("stack-addr", "heap-addr", "input", "uninit"). */
const char *taintKindName(TaintKind kind);

/** One taint fact: a kind plus the instruction that introduced it. */
struct TaintFact
{
    TaintKind kind = TaintKind::StackAddr;
    InstId source;

    friend bool
    operator<(const TaintFact &a, const TaintFact &b)
    {
        if (a.kind != b.kind)
            return a.kind < b.kind;
        return a.source < b.source;
    }
    friend bool
    operator==(const TaintFact &a, const TaintFact &b)
    {
        return a.kind == b.kind && a.source == b.source;
    }
};

/**
 * A sorted, duplicate-free fact set. The join used everywhere is
 * "keep the N smallest of the union" (N = TaintOptions::
 * maxFactsPerValue): dropping everything beyond the N smallest is
 * associative, commutative and idempotent, so the capped join is still
 * a semilattice and the propagation fixpoint is unique regardless of
 * worklist order, schedule or job count.
 */
using FactSet = std::vector<TaintFact>;

/** Join `add` into `into` (capped union); true when `into` changed. */
bool joinFacts(FactSet &into, const FactSet &add, std::size_t max_facts);

/** Where a sink operand sits. */
enum class SinkKind : std::uint8_t {
    PrintArg,    ///< Argument of a Print-role external.
    CopySource,  ///< Source operand of a StrCopy/BoundedCopy external.
    FormatArg,   ///< Format operand of print_str/sprintf/snprintf.
    DerefAddr,   ///< Address operand of a Load/Store.
    IcallTarget, ///< Operand 0 of an ICall.
    IcallArg,    ///< Argument operand of an ICall.
};

/** Printable sink name ("print-arg", "deref-addr", ...). */
const char *sinkKindName(SinkKind kind);

/** One source-to-sink flow the engine found. */
struct TaintFlow
{
    SinkKind sink = SinkKind::PrintArg;
    TaintKind kind = TaintKind::StackAddr;
    InstId sourceInst;  ///< Where the fact was introduced.
    InstId sinkInst;    ///< The sink instruction.
    ValueId sinkValue;  ///< The tainted operand at the sink.
    std::uint32_t argIndex = 0; ///< Operand position at the sink.
    /** True when the endpoint gate fired: the sink operand's inferred
     *  interval commits to numeric, so it cannot carry an address. */
    bool suppressed = false;
    /**
     * Mediating instructions of one witness path, source to sink
     * inclusive (deterministic backward-BFS reconstruction). SARIF
     * emits these as related "flow step" locations.
     */
    std::vector<InstId> steps;
};

/** Which registry checker reports a flow ("addr-leak", "taint-deref",
 *  "format-string"). */
const char *flowChecker(const TaintFlow &flow);

/**
 * Per-function taint summary. `paramToRet` bit i means parameter i may
 * flow to the return value through barrier- and sanitizer-respecting
 * DDG paths inside the function (and its callees); `retFacts` are the
 * facts reaching the return value(s) at the fixpoint.
 */
struct FnTaintSummary
{
    std::uint64_t paramToRet = 0; ///< Parameters beyond 63 are ignored.
    FactSet retFacts;
};

/**
 * The shared per-function summary table of the wave schedule,
 * mirroring core/fn_summary.h's discipline: read-only (frozen) while a
 * wave's packs run concurrently, then deltas are published
 * sequentially in pack order between waves. Each function is
 * summarized by exactly one pack, so publication is conflict-free and
 * the table never depends on MANTA_JOBS.
 */
class TaintSummaryStore
{
  public:
    explicit TaintSummaryStore(std::size_t num_funcs)
        : present_(num_funcs, 0), table_(num_funcs)
    {}

    /** One pack's freshly computed summaries. */
    struct Delta
    {
        std::vector<std::pair<std::uint32_t, FnTaintSummary>> entries;
    };

    /** Published summary of a function, or null while unpublished. */
    const FnTaintSummary *
    find(std::uint32_t func_raw) const
    {
        if (func_raw >= table_.size() || !present_[func_raw])
            return nullptr;
        return &table_[func_raw];
    }

    /** Sequential, between waves; the first entry per function wins. */
    void
    publish(Delta &&delta)
    {
        for (auto &entry : delta.entries) {
            if (entry.first >= table_.size() || present_[entry.first])
                continue;
            present_[entry.first] = 1;
            table_[entry.first] = std::move(entry.second);
            ++published_;
        }
        delta.entries.clear();
    }

    std::size_t published() const { return published_; }
    std::size_t size() const { return table_.size(); }

  private:
    std::vector<char> present_;
    std::vector<FnTaintSummary> table_;
    std::size_t published_ = 0;
};

/** Deterministic engine counters (schedule timings excluded from the
 *  canonical artifacts; everything else is fixpoint-derived). */
struct TaintStats
{
    std::size_t sources = 0;      ///< Fact introductions.
    std::size_t sinkSites = 0;    ///< Sink operand positions scanned.
    std::size_t factedValues = 0; ///< Values carrying >= 1 fact.
    std::size_t flows = 0;        ///< Reported (non-suppressed) flows.
    std::size_t suppressed = 0;   ///< Flows killed by the endpoint gate.
    std::size_t barrierValues = 0; ///< Facted values the barrier stops.
    std::size_t sanitizedEdges = 0; ///< ExtRet edges killed at sanitizers.
    std::size_t waves = 0;        ///< Wave levels run.
    std::size_t drainRounds = 0;  ///< Cross-function drain iterations.
    double seconds = 0.0;         ///< Wall clock of runTaint().
};

/** Engine knobs; the defaults honor the MANTA_TAINT* environment. */
struct TaintOptions
{
    /** Barrier + endpoint gate (needs a non-null inference result).
     *  The default honors MANTA_TAINT_NOTYPE=1 (ablation flip). */
    bool useTypes = true;
    /** Kill propagation through Sanitizer-role externals (atoi...).
     *  Honors MANTA_TAINT_SANITIZERS={on,off}. */
    bool sanitizers = true;
    /** Capped-join bound per value; honors MANTA_TAINT_MAX_FACTS. */
    std::size_t maxFactsPerValue = 256;

    /** Defaults with every MANTA_TAINT* knob applied. */
    static TaintOptions fromEnv();
};

/** The engine's output: flows, summaries and the fact table. */
struct TaintResult
{
    /** Flows in canonical order: (sink inst, operand, sink kind,
     *  fact). Suppressed flows are kept (ablation inspection). */
    std::vector<TaintFlow> flows;
    /** Per-function summaries, indexed by function raw id. */
    std::vector<FnTaintSummary> summaries;
    /** Final fact table, indexed by value raw id. */
    std::vector<FactSet> facts;
    TaintStats stats;

    /**
     * The identity artifact: flows + per-function summaries + the
     * fixpoint-derived counters, rendered deterministically. Must be
     * byte-identical across MANTA_JOBS and under print/parse
     * roundtrips, and its flows and return facts are derived from a
     * fact table equal to the reference fixpoint (the taint_stable
     * oracle's contract). Timings and schedule counters are excluded.
     */
    std::string canonicalText(const Module &module) const;

    /** Just the per-function summary table, one line per function. */
    std::string summaryText(const Module &module) const;
};

/**
 * Run the taint engine over an analyzed module.
 *
 * @param analyzer  Substrate owner (DDG, points-to, objects). The
 *                  DDG's `pruned` flags are ignored — propagation is
 *                  inference-engine-independent by construction.
 * @param inference Type source for the barrier and endpoint gate; may
 *                  be null, which forces options.useTypes off.
 */
TaintResult runTaint(MantaAnalyzer &analyzer,
                     const InferenceResult *inference,
                     const TaintOptions &options = TaintOptions::fromEnv());

/// @name Cached environment defaults (support/env.h parsing rules).
/// @{
/** MANTA_TAINT_NOTYPE: envFlagTruthy — drop the barrier + gate. */
bool defaultTaintNoType();
/** MANTA_TAINT_MAX_FACTS: parseEnvLong, fallback 256, minimum 1. */
std::size_t defaultTaintMaxFacts();
/** MANTA_TAINT_SANITIZERS: parseEnvChoice {"on","off"}, fallback on. */
bool defaultTaintSanitizers();
/// @}

} // namespace taint
} // namespace manta

#endif // MANTA_TAINT_TAINT_H
