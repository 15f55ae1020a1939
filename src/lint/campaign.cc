#include "lint/campaign.h"

#include <cstdio>
#include <map>
#include <set>

#include "eval/parallel.h"

namespace manta {
namespace lint {

namespace {

/** One project's lint outcome (indexed harness slot). */
struct ProjectOutcome
{
    std::string name;
    std::vector<Diagnostic> diags;      ///< Tool (hybrid inference).
    std::vector<Diagnostic> refDiags;   ///< Oracle-typed reference.
    std::vector<CheckerStats> perChecker;
    std::vector<SarifRule> rules;
};

/** The lint benchmark corpus: small, bug- and decoy-salted projects. */
std::vector<ProjectProfile>
campaignCorpus(const LintCampaignOptions &options)
{
    std::vector<ProjectProfile> profiles;
    profiles.reserve(static_cast<std::size_t>(options.count));
    for (int i = 0; i < options.count; ++i) {
        ProjectProfile profile;
        profile.name = "lint-" + std::to_string(options.seed +
                                                static_cast<std::uint64_t>(i));
        profile.kloc = 1;
        profile.config.seed = options.seed + static_cast<std::uint64_t>(i);
        profile.config.numFunctions = 10;
        profile.config.realBugRate = 0.05;
        profile.config.decoyRate = 0.05;
        profile.config.benignCopyRate = 0.03;
        profile.config.benignSystemRate = 0.03;
        profile.config.recycleRate = 0.15;
        profile.config.leakRate = 0.05;
        profile.config.leakDecoyRate = 0.05;
        profiles.push_back(std::move(profile));
    }
    return profiles;
}

/** Identity of a finding for tool-vs-reference matching. */
std::string
diagKey(const Diagnostic &d)
{
    std::string key = d.checker;
    key += '|';
    key += std::to_string(d.primary.inst.valid() ? d.primary.inst.raw()
                                                 : ~0u);
    for (const DiagLocation &loc : d.related) {
        key += '|';
        key += std::to_string(loc.inst.valid() ? loc.inst.raw() : ~0u);
    }
    return key;
}

std::string
fixed4(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    return buf;
}

} // namespace

LintCampaignResult
runLintCampaign(const LintCampaignOptions &options)
{
    const std::vector<ProjectProfile> profiles = campaignCorpus(options);
    ParallelHarness harness(options.jobs);

    LintOptions lint_opts;
    lint_opts.taintNoTypeOverride = options.taintNoTypeOverride;

    std::vector<ProjectOutcome> outcomes = harness.mapProjects(
        profiles, [&](PreparedProject &project, std::size_t) {
            ProjectOutcome outcome;
            outcome.name = project.name;

            InferenceResult inference = project.analyzer->infer();
            LintResult tool = runLint(*project.analyzer,
                                      options.useTypes ? &inference
                                                       : nullptr,
                                      &project.truth(), lint_opts);
            outcome.diags = std::move(tool.diagnostics);
            outcome.perChecker = std::move(tool.perChecker);
            outcome.rules = std::move(tool.rules);

            InferenceResult oracle = oracleInference(project);
            // The reference stays type-gated even under the
            // MANTA_TAINT_NOTYPE ablation: the ablation's extra taint
            // flows must score as precision loss, not move the bar.
            LintOptions ref_opts = lint_opts;
            ref_opts.taintNoTypeOverride = 0;
            LintResult reference = runLint(*project.analyzer, &oracle,
                                           &project.truth(), ref_opts);
            outcome.refDiags = std::move(reference.diagnostics);
            return outcome;
        });

    // Post-join reduction, in index order (the determinism contract).
    LintCampaignResult result;
    std::map<std::string, LintCheckerSummary> by_checker;
    std::vector<SarifRun> sarif_runs;
    std::vector<SarifRule> rules;

    for (const ProjectOutcome &outcome : outcomes) {
        if (rules.empty())
            rules = outcome.rules;

        std::set<std::string> ref_keys;
        for (const Diagnostic &d : outcome.refDiags)
            ref_keys.insert(diagKey(d));

        for (const CheckerStats &stats : outcome.perChecker) {
            LintCheckerSummary &summary = by_checker[stats.id];
            summary.id = stats.id;
            summary.seconds += stats.seconds;
        }
        for (const Diagnostic &d : outcome.diags) {
            LintCheckerSummary &summary = by_checker[d.checker];
            summary.id = d.checker;
            ++summary.diagnostics;
            if (ref_keys.count(diagKey(d)) != 0)
                ++summary.matched;
            ++result.totalDiagnostics;
        }
        for (const Diagnostic &d : outcome.refDiags)
            ++by_checker[d.checker].referenceDiagnostics;

        result.textReport += "== " + outcome.name + " (" +
                             std::to_string(outcome.diags.size()) +
                             " finding(s)) ==\n";
        result.textReport += DiagnosticEngine::renderText(outcome.diags);

        SarifRun run;
        run.artifact = outcome.name;
        run.diagnostics = outcome.diags;
        sarif_runs.push_back(std::move(run));
    }

    for (const auto &[id, summary] : by_checker)
        result.checkers.push_back(summary);

    result.sarif = sarifLog(sarif_runs, rules);

    // BENCH_lint.json.
    double total_seconds = 0.0;
    for (const LintCheckerSummary &summary : result.checkers)
        total_seconds += summary.seconds;
    std::string json;
    json += "{\n";
    json += "  \"bench\": \"lint\",\n";
    json += "  \"seed\": " + std::to_string(options.seed) + ",\n";
    json += "  \"projects\": " + std::to_string(options.count) + ",\n";
    json += std::string("  \"use_types\": ") +
            (options.useTypes ? "true" : "false") + ",\n";
    json += std::string("  \"stable\": ") +
            (options.stable ? "true" : "false") + ",\n";
    json += "  \"total_diagnostics\": " +
            std::to_string(result.totalDiagnostics) + ",\n";
    json += "  \"total_seconds\": " +
            fixed4(options.stable ? 0.0 : total_seconds) + ",\n";
    json += "  \"checkers\": [\n";
    for (std::size_t i = 0; i < result.checkers.size(); ++i) {
        const LintCheckerSummary &summary = result.checkers[i];
        json += "    {\"id\": \"" + summary.id + "\", ";
        json += "\"diagnostics\": " +
                std::to_string(summary.diagnostics) + ", ";
        json += "\"reference\": " +
                std::to_string(summary.referenceDiagnostics) + ", ";
        json += "\"matched\": " + std::to_string(summary.matched) + ", ";
        json += "\"precision\": " + fixed4(summary.precision()) + ", ";
        json += "\"recall\": " + fixed4(summary.recall()) + ", ";
        json += "\"seconds\": " +
                fixed4(options.stable ? 0.0 : summary.seconds) + "}";
        json += (i + 1 < result.checkers.size()) ? ",\n" : "\n";
    }
    json += "  ]\n";
    json += "}\n";
    result.json = std::move(json);
    return result;
}

} // namespace lint
} // namespace manta
