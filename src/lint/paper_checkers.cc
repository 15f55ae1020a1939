/**
 * @file
 * The five paper checkers (Section 5.3, Table 5) as thin adapters
 * over clients/checkers.h.
 *
 * Each adapter calls the context's shared BugDetector (built over the
 * same analyzer and inference the evaluation harness's detectBugs
 * uses) and converts BugReports into Diagnostics one-for-one, so the
 * Table 5 report lists and metrics stay bit-identical to the
 * pre-framework output — asserted by LintPaperParity tests.
 */
#include "lint/checker.h"
#include "lint/context.h"

namespace manta {
namespace lint {

namespace {

struct PaperCheckerInfo
{
    CheckerKind kind;
    const char *id;
    Severity severity;
    const char *description;
    const char *fixit;
};

constexpr PaperCheckerInfo kPaperCheckers[] = {
    {CheckerKind::NPD, "npd", Severity::Error,
     "NULL constant flows to a dereference site",
     "guard the pointer against NULL before dereferencing"},
    {CheckerKind::RSA, "rsa", Severity::Warning,
     "stack address flows to its own function's return",
     "return heap- or caller-owned memory instead of a local slot"},
    {CheckerKind::UAF, "uaf", Severity::Error,
     "freed pointer is used afterwards",
     "clear the pointer at free() and re-check before reuse"},
    {CheckerKind::CMI, "cmi", Severity::Error,
     "attacker-controlled data reaches a command sink",
     "sanitize or allow-list the input before passing it to exec"},
    {CheckerKind::BOF, "bof", Severity::Error,
     "attacker-controlled data overflows a fixed-size buffer",
     "bound the copy by the destination's size"},
};

class PaperChecker final : public Checker
{
  public:
    explicit PaperChecker(const PaperCheckerInfo &info) : info_(info) {}

    const char *id() const override { return info_.id; }
    Severity severity() const override { return info_.severity; }
    const char *description() const override { return info_.description; }

    std::vector<Diagnostic>
    run(const LintContext &ctx) const override
    {
        std::vector<Diagnostic> out;
        for (const BugReport &report :
             ctx.paperDetector().run(info_.kind)) {
            Diagnostic d;
            d.checker = info_.id;
            d.severity = info_.severity;
            d.primary = ctx.loc(report.sinkSite, "sink");
            d.related.push_back(ctx.loc(report.sourceSite, "source"));
            d.message = report.message;
            d.message += "; ";
            d.message += info_.fixit;
            d.evidence = ctx.useTypes()
                             ? "type-assisted slice (pruned DDG, "
                               "typed icall targets, numeric barriers)"
                             : "untyped slice (no-type ablation)";
            d.srcTag = report.sinkTag;
            out.push_back(std::move(d));
        }
        return out;
    }

  private:
    PaperCheckerInfo info_;
};

std::unique_ptr<Checker>
makePaper(std::size_t index)
{
    return std::make_unique<PaperChecker>(kPaperCheckers[index]);
}

} // namespace

std::unique_ptr<Checker> makeNpdChecker() { return makePaper(0); }
std::unique_ptr<Checker> makeRsaChecker() { return makePaper(1); }
std::unique_ptr<Checker> makeUafChecker() { return makePaper(2); }
std::unique_ptr<Checker> makeCmiChecker() { return makePaper(3); }
std::unique_ptr<Checker> makeBofChecker() { return makePaper(4); }

} // namespace lint
} // namespace manta
