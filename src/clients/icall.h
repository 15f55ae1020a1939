/**
 * @file
 * Type-based indirect-call analysis (paper Section 5.1).
 *
 * Candidate targets of an indirect call are the address-taken
 * functions; a target is feasible when
 *   - the call site supplies at least as many arguments as the target
 *     declares,
 *   - for each argument, F-up(arg_i@s) generalizes F-down(par_i@entry),
 *   - for the return value, F-up(ret_f@exit) generalizes F-down(ret@s).
 * Pointer and memory types compare field-recursively (the lattice's
 * subtype check already does).
 *
 * The same driver implements the TypeArmor (argument count only) and
 * tau-CFI (count + width) disciplines for the Table 4 baselines.
 */
#ifndef MANTA_CLIENTS_ICALL_H
#define MANTA_CLIENTS_ICALL_H

#include <map>
#include <vector>

#include "core/pipeline.h"
#include "mir/mir.h"

namespace manta {

/** Which feasibility discipline to apply. */
enum class IcallDiscipline : std::uint8_t {
    ArgCount,        ///< TypeArmor: argument count only.
    ArgCountWidth,   ///< tau-CFI: count plus register widths.
    FullTypes,       ///< Manta: inferred type compatibility.
};

/** Result: feasible target sets per indirect call site. */
struct IcallResult
{
    std::map<InstId, std::vector<FuncId>> targets;

    /** Average Indirect Call Targets (Table 4's #AICT). */
    double aict() const;

    std::size_t numSites() const { return targets.size(); }
};

class DataSlicer;

/**
 * Bind indirect-call data flow into a slicer: for every feasible
 * (site, target) pair, connect actual arguments to the target's formal
 * parameters and the target's returns to the call result. Called once
 * per BugDetector, whose slicer the lint framework borrows, so paper
 * checkers and lint checkers see exactly the same edges.
 */
void bindIcallTargets(DataSlicer &slicer, const Module &module,
                      const IcallResult &targets);

/** The indirect-call target analysis. */
class IcallAnalysis
{
  public:
    /**
     * @param module The analyzed module.
     * @param inference Inference result; required for FullTypes and
     *                  ignored by the width/count disciplines.
     */
    IcallAnalysis(Module &module, const InferenceResult *inference)
        : module_(module), inference_(inference)
    {}

    /**
     * Compute feasible targets for every indirect call site. Each
     * candidate's and each site's bounds are read once, so the cost
     * is the module scan plus sites x candidates table comparisons.
     */
    IcallResult run(IcallDiscipline discipline) const;

    /** All indirect call sites in the module. */
    std::vector<InstId> icallSites() const;

  private:
    Module &module_;
    const InferenceResult *inference_;
};

} // namespace manta

#endif // MANTA_CLIENTS_ICALL_H
