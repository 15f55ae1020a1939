/**
 * @file
 * Ground truth re-keyed by name, so it can score a parsed module.
 *
 * GroundTruth is keyed by the generated module's ValueIds, and
 * print/parse does not keep those ids (the parser drops and renumbers
 * values). The benchmark feeds the library only printed MIR text, so
 * its quality scores map each truth entry onto the parsed module by
 * owning function name plus printed value reference, then call
 * evalInference on the parsed module.
 */
#ifndef MANTA_PERFBENCH_TRUTH_H
#define MANTA_PERFBENCH_TRUTH_H

#include <string>
#include <vector>

#include "frontend/generator.h"

namespace perfbench {

class PortableTruth
{
  public:
    /** Capture `program`'s value types by name (the program may go). */
    explicit PortableTruth(const manta::GeneratedProgram &program);

    PortableTruth(const PortableTruth &) = delete;
    PortableTruth &operator=(const PortableTruth &) = delete;

    /**
     * Fill `out.valueTypes` for `parsed`, transferring each type into
     * parsed.types(). Returns how many entries found no value, or an
     * ambiguous one; those are left out of `out`.
     */
    std::size_t mapOnto(manta::Module &parsed,
                        manta::GroundTruth &out) const;

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string key;
        manta::TypeRef type;
    };

    manta::TypeTable types_;  ///< Owns every Entry::type.
    std::vector<Entry> entries_;
};

} // namespace perfbench

#endif // MANTA_PERFBENCH_TRUTH_H
