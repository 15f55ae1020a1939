/**
 * @file
 * The sequential reference for the taint fixpoint (taint/taint.h).
 *
 * Production reaches the least fixpoint through bottom-up SCC waves,
 * per-function summaries instantiated as call-site shortcut edges and
 * a cross-SCC drain. The reference evaluates the same equation system
 *
 *   facts(v) ⊇ seeds(v)
 *   facts(v) ⊇ outflow(u)    for every allowed DDG edge u -> v
 *
 * with one plain worklist, built only from the engine's public pieces
 * (collectSources, sanitizerEdge, joinFacts). The capped join is a
 * semilattice, so the two fact tables must be equal value for value.
 *
 * Only tests, the fuzz harness and benches link this library.
 */
#ifndef MANTA_REFERENCE_TAINT_REF_H
#define MANTA_REFERENCE_TAINT_REF_H

#include <vector>

#include "taint/taint.h"

namespace manta {

/**
 * The fact table (indexed by value raw id) of the taint fixpoint under
 * `options`; `inference` may be null, which turns the type barrier off
 * exactly as taint::runTaint does.
 */
std::vector<taint::FactSet>
referenceTaintFacts(MantaAnalyzer &analyzer,
                    const InferenceResult *inference,
                    const taint::TaintOptions &options);

} // namespace manta

#endif // MANTA_REFERENCE_TAINT_REF_H
