/**
 * @file
 * The checker interface and the built-in checker table of the lint
 * framework.
 *
 * A checker is a stateless class that inspects a read-only
 * LintContext and returns structured Diagnostics. Checkers are listed
 * by explicit factory reference in one immutable table
 * (builtinCheckers) rather than by static self-registration, so a
 * static-library build cannot silently drop a checker's object file.
 * See docs/LINT.md for the catalog and a worked "write a checker in 50
 * lines" example.
 */
#ifndef MANTA_LINT_CHECKER_H
#define MANTA_LINT_CHECKER_H

#include <memory>
#include <vector>

#include "lint/diagnostic.h"

namespace manta {
namespace lint {

class LintContext;

/** One static checker. Implementations must be const-safe. */
class Checker
{
  public:
    virtual ~Checker() = default;

    /** Stable kebab-case id ("npd", "width-trunc", ...). */
    virtual const char *id() const = 0;

    /** Default severity of this checker's findings. */
    virtual Severity severity() const = 0;

    /** One-line description (SARIF rule metadata, docs). */
    virtual const char *description() const = 0;

    /** Inspect the module; return findings in any order. */
    virtual std::vector<Diagnostic> run(const LintContext &ctx) const = 0;
};

using CheckerFactory = std::unique_ptr<Checker> (*)();

/// @name Built-in checker factories.
/// @{
std::unique_ptr<Checker> makeNpdChecker();
std::unique_ptr<Checker> makeRsaChecker();
std::unique_ptr<Checker> makeUafChecker();
std::unique_ptr<Checker> makeCmiChecker();
std::unique_ptr<Checker> makeBofChecker();
std::unique_ptr<Checker> makeWidthTruncChecker();
std::unique_ptr<Checker> makeSignConfusionChecker();
std::unique_ptr<Checker> makeUninitStackChecker();
std::unique_ptr<Checker> makeDoubleFreeChecker();
std::unique_ptr<Checker> makeIcallMismatchChecker();
std::unique_ptr<Checker> makeAddrLeakChecker();
std::unique_ptr<Checker> makeTaintDerefChecker();
std::unique_ptr<Checker> makeFormatStringChecker();
/// @}

/**
 * The thirteen built-in checkers (five paper adapters + five
 * type-assisted additions + the three-checker taint family), sorted
 * by id: the deterministic execution order of runLint(). Immutable,
 * so concurrent runLint calls share it without a lock.
 */
inline constexpr CheckerFactory builtinCheckers[] = {
    &makeAddrLeakChecker,       // addr-leak
    &makeBofChecker,            // bof
    &makeCmiChecker,            // cmi
    &makeDoubleFreeChecker,     // double-free
    &makeFormatStringChecker,   // format-string
    &makeIcallMismatchChecker,  // icall-mismatch
    &makeNpdChecker,            // npd
    &makeRsaChecker,            // rsa
    &makeSignConfusionChecker,  // sign-confusion
    &makeTaintDerefChecker,     // taint-deref
    &makeUafChecker,            // uaf
    &makeUninitStackChecker,    // uninit-stack
    &makeWidthTruncChecker,     // width-trunc
};

} // namespace lint
} // namespace manta

#endif // MANTA_LINT_CHECKER_H
