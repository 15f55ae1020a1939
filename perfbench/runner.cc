/**
 * @file
 * The end-to-end benchmark's runner: one workload in one process.
 *
 * Inputs are the corpus' programs printed to MIR text, in an order the
 * seed draws; the library only ever sees that text. Each pass runs the
 * workload's script once through the library's public entry points,
 * gates every artifact by digest against the first pass, and records
 * the time of each call.
 * Traced passes (every other pass under --trace 1) also record a span
 * around each public call plus the work counters the library returns.
 *
 * The runner prints one line "PERFBENCH <json>" with the raw samples
 * on stdout; run.py turns it into metrics. See README.md.
 *
 * Usage:
 *   perfbench_runner --workload corpus118|xl100k|serve_edit --seed N
 *                    --seconds S --trace 0|1 [--smoke] [--rev R]
 *                    [--out DIR] [--tamper types|sarif|taint|icall]
 *   perfbench_runner --selftest
 */
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/acyclic.h"
#include "clients/annotate.h"
#include "clients/icall.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "frontend/corpus.h"
#include "lint/run.h"
#include "mir/parser.h"
#include "mir/printer.h"
#include "serve/json.h"
#include "serve/service.h"
#include "support/binio.h"
#include "support/rng.h"
#include "support/task_pool.h"
#include "support/timer.h"
#include "taint/taint.h"
#include "trace.h"
#include "truth.h"

namespace perfbench {

using namespace manta;
using serve::Json;

namespace {

/** Edit cycles per serve_edit pass. */
constexpr int kServeEdits = 8;
/**
 * Set-up repetitions: this many right after the first, then one each
 * time a pass ends past the next tenth of the run, so that set-up is
 * timed across the run like everything else. Set-up time is the median.
 */
constexpr int kSetupRepsAtStart = 4;
constexpr int kSetupSlices = 10;
/**
 * xl100k analyzes one binary a pass, so each untraced pass also times
 * this many cold analyses of it for cold_analyze_ms.
 */
constexpr int kXlExtraColdSamples = 2;
/** At least this many passes, so every digest is checked once. */
constexpr int kMinPasses = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool selftest = false;
    std::string rev = "unknown";
    std::string outDir;
    std::string tamper;
};

// ---------------------------------------------------------------------
// Run-wide bookkeeping.

/** Milliseconds by item, then part, then pass. */
using Samples = std::vector<std::vector<std::vector<double>>>;

struct Record
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    /// @name End-to-end samples, from untraced passes only.
    /// Times are kept per item (a binary, an edit cycle or a cold
    /// request) and per part of it (a library call or a request), one
    /// sample per pass, so that run.py can take each part's fastest
    /// pass.
    /// @{
    Samples verdictMs;
    Samples coldMs;
    /** Verdict plus teardown (one-shot) or the edit cycle (serve). */
    Samples workMs;
    /** Instructions each verdict item submits. */
    std::vector<std::size_t> itemInsts;
    /// @}

    /** One object per pass: traced flag, wall time, layer values. */
    Json passes = Json::array();
    /** Quality counts of the first pass; later passes must match. */
    std::optional<TypeEval> quality;

    /** Add one pass's sample of each part of `item`. */
    static void
    sample(Samples &into, std::size_t item, const std::vector<double> &parts)
    {
        if (into.size() <= item)
            into.resize(item + 1);
        into[item].resize(parts.size());
        for (std::size_t k = 0; k < parts.size(); ++k)
            into[item][k].push_back(parts[k]);
    }

    void
    work(std::size_t item, std::size_t insts, const std::vector<double> &parts)
    {
        sample(workMs, item, parts);
        if (itemInsts.size() <= item)
            itemInsts.resize(item + 1);
        itemInsts[item] = insts;
    }

    void
    fail(const std::string &message)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(message);
        std::fprintf(stderr, "perfbench: FAIL %s\n", message.c_str());
    }
};

/** FNV digests of one binary's four artifacts. */
struct Digests
{
    std::uint64_t types = 0, sarif = 0, taint = 0, icall = 0;

    bool
    operator==(const Digests &o) const
    {
        return types == o.types && sarif == o.sarif && taint == o.taint &&
               icall == o.icall;
    }
};

/** Names of the artifacts that differ between two digest sets. */
std::string
diffNames(const Digests &a, const Digests &b)
{
    std::string out;
    auto add = [&](bool same, const char *name) {
        if (!same)
            out += out.empty() ? name : std::string(",") + name;
    };
    add(a.types == b.types, "types");
    add(a.sarif == b.sarif, "sarif");
    add(a.taint == b.taint, "taint");
    add(a.icall == b.icall, "icall");
    return out;
}

/**
 * Test hook: from the second pass on, alter the named artifact before
 * it is digested, so the tests can watch the gate fire.
 */
struct Tamper
{
    std::string artifact;
    int pass = 0;

    void
    apply(const char *name, std::string &text) const
    {
        if (pass >= 1 && artifact == name)
            text += "\n(tampered)";
    }
};

void
mergeEval(TypeEval &into, const TypeEval &add)
{
    into.total += add.total;
    into.preciseCorrect += add.preciseCorrect;
    into.captured += add.captured;
    into.unknown += add.unknown;
    into.incorrect += add.incorrect;
}

bool
sameEval(const TypeEval &a, const TypeEval &b)
{
    return a.total == b.total && a.preciseCorrect == b.preciseCorrect &&
           a.captured == b.captured && a.unknown == b.unknown &&
           a.incorrect == b.incorrect;
}

// ---------------------------------------------------------------------
// Inputs.

/** One binary of a one-shot workload, or serve_edit's program. */
struct Binary
{
    std::string name;
    std::string text;
    std::unique_ptr<PortableTruth> truth;
    /** serve_edit's revisions (or the serve probe's one edit). */
    std::vector<std::string> edits;
    std::optional<Digests> expected;
};

/**
 * The workload's programs. They are the corpus' own and do not vary
 * with the seed, which draws only an order (makeInputs, makeEdits):
 * per-seed programs moved the latency metrics by more than any bound
 * the benchmark may set.
 */
std::vector<ProjectProfile>
profilesFor(const Options &opts)
{
    std::vector<ProjectProfile> profiles;
    if (opts.workload == "corpus118") {
        profiles = standardCorpus();
        std::vector<ProjectProfile> batch = coreutilsBatch(104);
        if (opts.smoke) {
            profiles.resize(2);
            batch.resize(4);
        }
        profiles.insert(profiles.end(), batch.begin(), batch.end());
    } else if (opts.workload == "xl100k") {
        for (ProjectProfile &p : scaleCorpus(100000)) {
            if (p.name == "xl-chromium-100k")
                profiles.push_back(p);
        }
        if (opts.smoke)
            profiles.front().config.numFunctions = 40;
    } else if (opts.workload == "serve_edit") {
        const std::string wanted = opts.smoke ? "memcached" : "ffmpeg";
        for (ProjectProfile &p : standardCorpus()) {
            if (p.name == wanted)
                profiles.push_back(p);
        }
    }
    return profiles;
}

/**
 * Bump one constant operand in each of `count` functions, one after
 * another, printing the module after each edit. The functions sit at
 * the middle of `count` even slices of the module, so every sequence
 * covers leaves to hubs alike; the seed draws their order.
 */
std::vector<std::string>
makeEdits(Module &module, std::uint64_t seed, int count)
{
    const std::size_t n = module.numFuncs();
    const std::size_t slices = static_cast<std::size_t>(count);
    std::vector<std::size_t> order(slices);
    for (std::size_t k = 0; k < slices; ++k)
        order[k] = (2 * k + 1) * n / (2 * slices);
    Rng rng(seed);
    for (std::size_t k = slices; k > 1; --k)
        std::swap(order[k - 1], order[rng.below(k)]);

    std::vector<std::string> texts;
    for (const std::size_t start : order) {
        bool bumped = false;
        for (std::size_t step = 0; step < n && !bumped; ++step) {
            const FuncId fid(
                static_cast<FuncId::RawType>((start + step) % n));
            for (const BlockId b : module.func(fid).blocks) {
                for (const InstId i : module.block(b).insts) {
                    for (const ValueId op : module.operands(i)) {
                        if (bumped ||
                            module.value(op).kind != ValueKind::Constant)
                            continue;
                        module.value(op).constValue += 1;
                        bumped = true;
                    }
                }
            }
        }
        texts.push_back(printModule(module));
    }
    return texts;
}

/**
 * Generate and print every input of the workload. The seed draws the
 * order in which a pass visits the binaries, and serve_edit's edits.
 */
std::vector<Binary>
makeInputs(const Options &opts)
{
    std::vector<ProjectProfile> profiles = profilesFor(opts);
    Rng rng(opts.seed);
    for (std::size_t k = profiles.size(); k > 1; --k)
        std::swap(profiles[k - 1], profiles[rng.below(k)]);

    std::vector<Binary> binaries;
    for (const ProjectProfile &profile : profiles) {
        Binary b;
        b.name = profile.name;
        GeneratedProgram program = buildProject(profile);
        b.text = printModule(*program.module);
        if (opts.workload == "serve_edit")
            b.edits = makeEdits(*program.module, opts.seed,
                                opts.smoke ? 2 : kServeEdits);
        // serve_edit scores its final revision, so its truth is taken
        // after the edits (they only change constants).
        b.truth = std::make_unique<PortableTruth>(program);
        binaries.push_back(std::move(b));
    }
    return binaries;
}

// ---------------------------------------------------------------------
// Library path: MIR text -> types, SARIF, taint flows, icall targets.

std::string
renderIcall(const Module &module, const IcallResult &icall)
{
    std::string out;
    for (const auto &[site, targets] : icall.targets) {
        const FuncId in = module.block(module.inst(site).parent).func;
        out += '@';
        out += module.nameOf(in);
        out += " ->";
        for (const FuncId t : targets) {
            out += " @";
            out += module.nameOf(t);
        }
        out += '\n';
    }
    return out;
}

/** The library calls from MIR text to inferred types: parse to infer. */
constexpr std::size_t kColdParts = 4;

/** Work counters of one traced pass (sums unless noted). */
struct Counters
{
    double insts = 0, ptsMs = 0, ptsPops = 0, scheduleMs = 0, sccWaves = 0;
    double fiMs = 0, csMs = 0, fsMs = 0;
    double walkSteps = 0, walkQueries = 0, memoHits = 0, truncated = 0;
    double summaryHits = 0, fsSteps = 0;
    double checkerMs = 0, uninitMs = 0, bofMs = 0, addrLeakMs = 0;
    double findings = 0, taintFlows = 0, taintSuppressed = 0;
    double substratesHeapMib = 0, inferHeapMib = 0;  ///< Max over binaries.
    /// @name serve layer
    /// @{
    double memoReuse = 0, closureFuncs = 0, snapshotMib = 0;
    /// @}
    bool library = false;  ///< Library-path fields are set.
    bool serve = false;    ///< Serve fields are set.
};

struct Verdict
{
    bool ok = false;
    Digests digests;
    TypeEval eval;
    std::string types;  ///< Kept for the serve cross-check.
    std::size_t insts = 0;
    /** Milliseconds of each library call, parse to sarifLog. */
    std::vector<double> partsMs;
    double teardownMs = 0.0;
};

double
mib(std::int64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Appends the milliseconds since the previous lap (or construction). */
class Laps
{
  public:
    explicit Laps(std::vector<double> &into) : into_(into) {}

    void
    lap()
    {
        into_.push_back(timer_.milliseconds());
        timer_.reset();
    }

  private:
    std::vector<double> &into_;
    Timer timer_;
};

Verdict
runVerdict(const Binary &binary, const std::string &text, Tracer &tracer,
           Counters &counters, Record &record, const Tamper &tamper)
{
    Scope scope(tracer, "binary");
    Verdict v;
    ++record.attempted;
    const bool traced = tracer.enabled();

    Laps laps(v.partsMs);
    auto module = std::make_unique<Module>();
    std::string error;
    bool parsed = false;
    {
        Scope s(tracer, "parseModule");
        parsed = parseModule(text, *module, error);
    }
    laps.lap();
    if (!parsed) {
        record.fail(binary.name + ": parse error: " + error);
        return v;
    }
    v.insts = module->numInsts();
    {
        Scope s(tracer, "makeAcyclic");
        makeAcyclic(*module);
    }
    laps.lap();
    std::int64_t heap = traced ? heapInUse() : 0;
    std::unique_ptr<MantaAnalyzer> analyzer;
    {
        Scope s(tracer, "MantaAnalyzer");
        analyzer = std::make_unique<MantaAnalyzer>(*module);
    }
    laps.lap();
    if (traced) {
        const std::int64_t now = heapInUse();
        counters.substratesHeapMib =
            std::max(counters.substratesHeapMib, mib(now - heap));
        heap = now;
    }
    std::unique_ptr<InferenceResult> result;
    {
        Scope s(tracer, "infer");
        result = std::make_unique<InferenceResult>(analyzer->infer());
    }
    laps.lap();
    if (traced)
        counters.inferHeapMib =
            std::max(counters.inferHeapMib, mib(heapInUse() - heap));

    {
        Scope s(tracer, "annotateModule");
        v.types = annotateModule(*module, *result);
    }
    laps.lap();
    IcallResult icall;
    {
        Scope s(tracer, "IcallAnalysis::run");
        icall = IcallAnalysis(*module, result.get())
                    .run(IcallDiscipline::FullTypes);
    }
    std::string icall_text;
    {
        Scope s(tracer, "renderIcall");
        icall_text = renderIcall(*module, icall);
    }
    laps.lap();
    lint::LintResult lint_result;
    {
        Scope s(tracer, "runLint");
        lint_result = lint::runLint(*analyzer, result.get(), nullptr,
                                    lint::LintOptions{});
    }
    laps.lap();
    taint::TaintResult taint_result;
    {
        Scope s(tracer, "runTaint");
        taint_result = taint::runTaint(*analyzer, result.get(),
                                       taint::TaintOptions::fromEnv());
    }
    std::string taint_text;
    {
        Scope s(tracer, "TaintResult::canonicalText");
        taint_text = taint_result.canonicalText(*module);
    }
    laps.lap();
    std::string sarif;
    {
        Scope s(tracer, "sarifLog");
        sarif = lint::sarifLog({{binary.name + ".mir",
                                 lint_result.diagnostics}},
                               lint_result.rules);
    }
    laps.lap();

    {
        Scope s(tracer, "digest");
        tamper.apply("types", v.types);
        tamper.apply("sarif", sarif);
        tamper.apply("taint", taint_text);
        tamper.apply("icall", icall_text);
        v.digests = Digests{Fnv64::of(v.types), Fnv64::of(sarif),
                            Fnv64::of(taint_text), Fnv64::of(icall_text)};
    }
    {
        Scope s(tracer, "score");
        GroundTruth truth;
        const std::size_t unmapped = binary.truth->mapOnto(*module, truth);
        if (unmapped != 0) {
            record.fail(binary.name + ": " + std::to_string(unmapped) +
                        " of " + std::to_string(binary.truth->size()) +
                        " truth entries do not map onto the parsed module");
            return v;
        }
        v.eval = evalInference(*module, truth, *result);
    }

    if (traced) {
        const InferenceProfile &p = result->profile();
        counters.library = true;
        counters.insts += static_cast<double>(v.insts);
        counters.ptsMs += analyzer->pts().stats().seconds * 1e3;
        counters.ptsPops += static_cast<double>(analyzer->pts().stats().pops);
        counters.scheduleMs += p.summarySeconds * 1e3;
        counters.sccWaves += static_cast<double>(p.sccWaves);
        counters.fiMs += p.fiSeconds * 1e3;
        counters.csMs += p.csSeconds * 1e3;
        counters.fsMs += p.fsSeconds * 1e3;
        WalkStats walk = p.csWalk;
        walk.merge(p.fsWalk);
        counters.walkSteps += static_cast<double>(walk.steps);
        counters.walkQueries += static_cast<double>(walk.queries);
        counters.memoHits += static_cast<double>(walk.memoHits);
        counters.truncated += static_cast<double>(walk.truncated);
        counters.summaryHits += static_cast<double>(walk.summaryHits);
        counters.fsSteps += static_cast<double>(p.fsWalk.steps);
        for (const lint::CheckerStats &c : lint_result.perChecker) {
            counters.checkerMs += c.seconds * 1e3;
            if (c.id == "uninit-stack")
                counters.uninitMs += c.seconds * 1e3;
            else if (c.id == "bof")
                counters.bofMs += c.seconds * 1e3;
            else if (c.id == "addr-leak")
                counters.addrLeakMs += c.seconds * 1e3;
        }
        counters.findings +=
            static_cast<double>(lint_result.diagnostics.size());
        counters.taintFlows += static_cast<double>(taint_result.stats.flows);
        counters.taintSuppressed +=
            static_cast<double>(taint_result.stats.suppressed);
    }

    Timer teardown;
    {
        Scope s(tracer, "teardown");
        result.reset();
        analyzer.reset();
        module.reset();
    }
    v.teardownMs = teardown.milliseconds();
    v.ok = true;
    return v;
}

/**
 * MIR text to inferred types only, parse to infer: the milliseconds of
 * each call, or nothing on a parse error.
 */
std::vector<double>
runCold(const Binary &binary, Record &record)
{
    ++record.attempted;
    std::vector<double> parts;
    Laps laps(parts);
    Module module;
    std::string error;
    const bool parsed = parseModule(binary.text, module, error);
    laps.lap();
    if (!parsed) {
        record.fail(binary.name + ": parse error: " + error);
        return {};
    }
    makeAcyclic(module);
    laps.lap();
    MantaAnalyzer analyzer(module);
    laps.lap();
    const InferenceResult result = analyzer.infer();
    laps.lap();
    return parts;
}

// ---------------------------------------------------------------------
// Serve path: one closed-loop client on serve::Service::handleLine.

std::string
request(const char *method, const std::string &binary,
        const char *extra_key = nullptr, const std::string &extra = {})
{
    Json params = Json::object();
    params.set("binary", Json::string(binary));
    if (extra_key != nullptr)
        params.set(extra_key, Json::string(extra));
    Json req = Json::object();
    req.set("id", Json::integer(1));
    req.set("method", Json::string(method));
    req.set("params", std::move(params));
    return req.dump();
}

/** A parsed response; `ok` is false on any error. */
struct Response
{
    bool ok = false;
    Json result;
};

Response
parseResponse(const std::string &line)
{
    Response r;
    Json j;
    std::string error;
    if (!serve::parseJson(line, j, error) || !j.isObject())
        return r;
    const Json *ok = j.get("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool())
        return r;
    if (const Json *res = j.get("result"))
        r.result = *res;
    r.ok = true;
    return r;
}

double
intField(const Json &obj, const char *key)
{
    const Json *v = obj.get(key);
    return v != nullptr && v->isNumber() ? v->asNumber() : 0.0;
}

double
listSize(const Json &obj, const char *key)
{
    const Json *v = obj.get(key);
    return v != nullptr && v->isArray()
               ? static_cast<double>(v->items().size())
               : 0.0;
}

/** Issues requests on one Service and counts them. */
class Client
{
  public:
    Client(Tracer &tracer, Record &record, std::string binary)
        : tracer_(tracer), record_(record), binary_(std::move(binary)),
          service_(std::make_unique<serve::Service>())
    {}

    /**
     * One request under a span; the response line, or "" on error. The
     * milliseconds `handleLine` took are appended to laps().
     */
    std::string
    call(const char *span, const std::string &line)
    {
        ++record_.attempted;
        std::string response;
        {
            Scope s(tracer_, span);
            Timer timer;
            response = service_->handleLine(line);
            laps_.push_back(timer.milliseconds());
        }
        if (response.rfind("{\"id\":1,\"ok\":true", 0) != 0) {
            record_.fail(binary_ + ": " + span + " failed: " +
                         response.substr(0, 300));
            return {};
        }
        return response;
    }

    std::string
    analyze(const std::string &text)
    {
        return call("analyze", request("analyze", binary_, "text", text));
    }

    /** The four renders of one revision, in artifact order. */
    std::vector<std::string>
    renders()
    {
        std::vector<std::string> out;
        for (const char *what : {"types", "lint", "taint", "icall"})
            out.push_back(call(what, request(what, binary_)));
        return out;
    }

    std::vector<double> &laps() { return laps_; }

    /** Destroy the service (its sessions) under a span. */
    void
    close()
    {
        Scope s(tracer_, "teardown");
        service_.reset();
    }

  private:
    Tracer &tracer_;
    Record &record_;
    std::string binary_;
    std::unique_ptr<serve::Service> service_;
    std::vector<double> laps_;
};

/** Render texts of one revision, digested; types text kept. */
struct RenderDigests
{
    Digests digests;
    std::string typesText;
};

RenderDigests
digestRenders(const std::vector<std::string> &lines, Tracer &tracer,
              const Tamper *tamper)
{
    Scope s(tracer, "digest");
    RenderDigests out;
    std::uint64_t *slots[] = {&out.digests.types, &out.digests.sarif,
                              &out.digests.taint, &out.digests.icall};
    static const char *names[] = {"types", "sarif", "taint", "icall"};
    for (std::size_t i = 0; i < lines.size() && i < 4; ++i) {
        const Response r = parseResponse(lines[i]);
        const Json *text = r.ok ? r.result.get("text") : nullptr;
        std::string body =
            text != nullptr && text->isString() ? text->asString() : "";
        if (tamper != nullptr)
            tamper->apply(names[i], body);
        *slots[i] = Fnv64::of(body);
        if (i == 0)
            out.typesText = std::move(body);
    }
    return out;
}

/** Digests one serve script run produced, for the cross-pass gate. */
struct ServeDigests
{
    std::vector<Digests> edits;
    Digests restored;
};

struct ServeRun
{
    ServeDigests digests;
    std::string finalTypes;  ///< The last edit's types render.
    /** Cold analyze requests, the original then the control: one part. */
    std::vector<std::vector<double>> coldMs;
    /** Edit cycles: analyze and the four renders. */
    std::vector<std::vector<double>> editMs;
};

/**
 * The closed-loop script: cold analyze of the original text; per edit
 * one cycle (analyze the revision, then types/lint/taint/icall);
 * snapshot_save; snapshot_load into a fresh service and render. With
 * `control`, a fresh service also analyzes the final revision cold;
 * its renders and the restored renders must equal the final warm
 * renders.
 */
ServeRun
runServeScript(const Binary &binary, const std::string &snapshot_path,
               bool control, Tracer &tracer, Counters &counters,
               Record &record, const Tamper &tamper)
{
    ServeRun run;
    const bool traced = tracer.enabled();
    Client client(tracer, record, binary.name);
    {
        Scope s(tracer, "cold");
        client.analyze(binary.text);
        run.coldMs.push_back(client.laps());
    }
    RenderDigests last;
    for (const std::string &revision : binary.edits) {
        std::string analyzed;
        std::vector<std::string> lines;
        {
            Scope s(tracer, "edit");
            client.laps().clear();
            analyzed = client.analyze(revision);
            lines = client.renders();
            run.editMs.push_back(client.laps());
        }
        last = digestRenders(lines, tracer, nullptr);
        run.digests.edits.push_back(last.digests);
        if (traced) {
            Scope s(tracer, "digest");
            const Response r = parseResponse(analyzed);
            counters.memoReuse += intField(r.result, "csReused") +
                                  intField(r.result, "fsReused");
            counters.closureFuncs += listSize(r.result, "closure");
        }
    }
    run.finalTypes = last.typesText;

    const std::string saved = client.call(
        "snapshot_save",
        request("snapshot_save", binary.name, "path", snapshot_path));
    if (traced && !saved.empty()) {
        Scope s(tracer, "digest");
        counters.snapshotMib +=
            intField(parseResponse(saved).result, "bytes") /
            (1024.0 * 1024.0);
    }
    client.close();

    Client restored(tracer, record, binary.name);
    {
        Scope s(tracer, "restore");
        restored.call("snapshot_load",
                      request("snapshot_load", binary.name, "path",
                              snapshot_path));
        const RenderDigests back =
            digestRenders(restored.renders(), tracer, &tamper);
        run.digests.restored = back.digests;
        if (!(back.digests == last.digests))
            record.fail(binary.name + ": restored session differs from "
                        "the saved one (" +
                        diffNames(back.digests, last.digests) + ")");
    }
    restored.close();

    if (control) {
        Client cold(tracer, record, binary.name);
        {
            Scope s(tracer, "control");
            cold.analyze(binary.edits.back());
            run.coldMs.push_back(cold.laps());
            const RenderDigests fresh =
                digestRenders(cold.renders(), tracer, nullptr);
            if (!(fresh.digests == last.digests))
                record.fail(binary.name + ": warm session differs from a "
                            "cold analysis of the same text (" +
                            diffNames(fresh.digests, last.digests) + ")");
        }
        cold.close();
    }
    std::error_code ec;
    std::filesystem::remove(snapshot_path, ec);
    if (traced)
        counters.serve = true;
    return run;
}

// ---------------------------------------------------------------------
// Passes.

/** Sum span durations by name (optionally under a parent name). */
double
spanSum(const std::vector<Span> &spans, std::size_t from, const char *name,
        const char *parent = nullptr)
{
    double total = 0.0;
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (std::strcmp(s.name, name) != 0)
            continue;
        if (parent != nullptr &&
            (s.parent < 0 ||
             std::strcmp(spans[static_cast<std::size_t>(s.parent)].name,
                         parent) != 0))
            continue;
        total += s.ms();
    }
    return total;
}

/**
 * Milliseconds of spans in [from, end) that no child span covers,
 * summed over every span that has children: the wall time the trace
 * leaves unexplained.
 */
double
unaccountedMs(const std::vector<Span> &spans, std::size_t from)
{
    std::vector<double> child(spans.size() - from, 0.0);
    std::vector<char> has_child(spans.size() - from, 0);
    for (std::size_t i = from; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p < static_cast<int>(from))
            continue;
        child[static_cast<std::size_t>(p) - from] += spans[i].ms();
        has_child[static_cast<std::size_t>(p) - from] = 1;
    }
    double gap = 0.0;
    for (std::size_t i = from; i < spans.size(); ++i) {
        if (has_child[i - from])
            gap += spans[i].ms() - child[i - from];
    }
    return gap;
}

Json
layerJson(const Tracer &tracer, std::size_t from, const Counters &c)
{
    const std::vector<Span> &spans = tracer.spans();
    Json layers = Json::object();
    auto put = [&](const char *name, double value) {
        layers.set(name, Json::number(value));
    };
    if (c.library) {
        put("mir.parse_ms", spanSum(spans, from, "parseModule"));
        put("mir.insts", c.insts);
        put("analysis.acyclic_ms", spanSum(spans, from, "makeAcyclic"));
        put("analysis.substrates_ms", spanSum(spans, from, "MantaAnalyzer"));
        put("analysis.pts_ms", c.ptsMs);
        put("analysis.pts_pops", c.ptsPops);
        put("analysis.substrates_heap_mib", c.substratesHeapMib);
        put("core.schedule_ms", c.scheduleMs);
        put("core.scc_waves", c.sccWaves);
        put("core.infer_ms", spanSum(spans, from, "infer"));
        put("core.fi_ms", c.fiMs);
        put("core.cs_ms", c.csMs);
        put("core.fs_ms", c.fsMs);
        put("core.walk_steps", c.walkSteps);
        put("core.walk_queries", c.walkQueries);
        put("core.memo_hit_ratio",
            c.walkQueries > 0 ? c.memoHits / c.walkQueries : 0.0);
        put("core.truncated", c.truncated);
        put("core.summary_hits", c.summaryHits);
        put("core.fs_ns_per_step",
            c.fsSteps > 0 ? c.fsMs * 1e6 / c.fsSteps : 0.0);
        put("core.infer_heap_mib", c.inferHeapMib);
        const double lint_ms = spanSum(spans, from, "runLint");
        put("lint.total_ms", lint_ms);
        put("lint.context_ms", lint_ms - c.checkerMs);
        put("lint.uninit-stack_ms", c.uninitMs);
        put("lint.bof_ms", c.bofMs);
        put("lint.addr-leak_ms", c.addrLeakMs);
        put("lint.sarif_ms", spanSum(spans, from, "sarifLog"));
        put("lint.findings", c.findings);
        put("taint.ms", spanSum(spans, from, "runTaint") +
                            spanSum(spans, from, "TaintResult::canonicalText"));
        put("taint.flows", c.taintFlows);
        put("taint.suppressed", c.taintSuppressed);
        put("clients.annotate_ms", spanSum(spans, from, "annotateModule"));
        put("clients.icall_ms", spanSum(spans, from, "IcallAnalysis::run"));
    }
    if (c.serve) {
        put("serve.analyze_warm_ms", spanSum(spans, from, "analyze", "edit"));
        put("serve.memo_reuse", c.memoReuse);
        put("serve.dirty_closure_funcs", c.closureFuncs);
        put("serve.render_types_ms", spanSum(spans, from, "types", "edit"));
        put("serve.render_lint_ms", spanSum(spans, from, "lint", "edit"));
        put("serve.render_taint_ms", spanSum(spans, from, "taint", "edit"));
        put("serve.render_icall_ms", spanSum(spans, from, "icall", "edit"));
        put("serve.snapshot_save_ms", spanSum(spans, from, "snapshot_save"));
        put("serve.snapshot_load_ms", spanSum(spans, from, "snapshot_load"));
        put("serve.snapshot_mib", c.snapshotMib);
    }
    put("trace.unaccounted_ms", unaccountedMs(spans, from));
    return layers;
}

class Runner
{
  public:
    Runner(const Options &opts, std::vector<Binary> binaries)
        : opts_(opts), binaries_(std::move(binaries))
    {}

    bool serveWorkload() const { return opts_.workload == "serve_edit"; }

    /**
     * Time one more input generation; it must reproduce the inputs the
     * passes use byte for byte.
     */
    void
    timeSetup()
    {
        Timer timer;
        const std::vector<Binary> made = makeInputs(opts_);
        setupSeconds_.push_back(timer.seconds());
        bool same = made.size() == binaries_.size();
        for (std::size_t i = 0; same && i < made.size(); ++i)
            same = made[i].text == binaries_[i].text &&
                   made[i].edits == binaries_[i].edits;
        if (!same)
            record_.fail("input generation is not deterministic");
    }

    /** Run passes for the configured time; traced ones alternate. */
    void
    runPasses()
    {
        for (int rep = 0; rep < kSetupRepsAtStart; ++rep)
            timeSetup();
        Timer run_timer;
        double next_setup = opts_.seconds / kSetupSlices;
        for (int pass = 0;; ++pass) {
            const bool traced = opts_.trace && pass % 2 == 1;
            Timer pass_timer;
            runPass(pass, traced);
            const double last = pass_timer.seconds();
            while (run_timer.seconds() >= next_setup) {
                timeSetup();
                next_setup += opts_.seconds / kSetupSlices;
            }
            if (pass + 1 >= kMinPasses &&
                run_timer.seconds() + last > opts_.seconds)
                break;
        }
        if (opts_.trace && !serveWorkload())
            runServeProbe();
    }

    Record &record() { return record_; }
    const Tracer &tracer() const { return tracer_; }
    std::vector<double> &setupSeconds() { return setupSeconds_; }

  private:
    void
    runPass(int pass, bool traced)
    {
        tracer_.setEnabled(traced);
        const std::size_t from = tracer_.spans().size();
        Counters counters;
        Tamper tamper{opts_.tamper, pass};
        Timer wall;
        {
            Scope root(tracer_, "pass");
            if (serveWorkload())
                servePass(counters, tamper, traced);
            else
                oneShotPass(counters, tamper, traced);
        }
        Json entry = Json::object();
        entry.set("traced", Json::boolean(traced));
        entry.set("wall_s", Json::number(wall.seconds()));
        if (traced)
            entry.set("layers", layerJson(tracer_, from, counters));
        record_.passes.push(std::move(entry));
        tracer_.setEnabled(false);
        if (!traced)
            extraColdSamples();
    }

    void
    checkDigests(Binary &b, const Digests &got, const char *what)
    {
        if (!b.expected) {
            b.expected = got;
        } else if (!(*b.expected == got)) {
            record_.fail(b.name + ": " + what + " differs from pass 1 (" +
                         diffNames(*b.expected, got) + ")");
        }
    }

    void
    checkQuality(const TypeEval &eval)
    {
        if (!record_.quality)
            record_.quality = eval;
        else if (!sameEval(*record_.quality, eval))
            record_.fail("type quality differs from pass 1");
    }

    void
    oneShotPass(Counters &counters, const Tamper &tamper, bool traced)
    {
        TypeEval pass_eval;
        for (std::size_t i = 0; i < binaries_.size(); ++i) {
            Binary &b = binaries_[i];
            const Verdict v =
                runVerdict(b, b.text, tracer_, counters, record_, tamper);
            if (!v.ok)
                continue;
            checkDigests(b, v.digests, "artifacts");
            mergeEval(pass_eval, v.eval);
            if (!traced) {
                const std::vector<double> cold(
                    v.partsMs.begin(), v.partsMs.begin() + kColdParts);
                std::vector<double> work = v.partsMs;
                work.push_back(v.teardownMs);
                Record::sample(record_.verdictMs, i, v.partsMs);
                Record::sample(record_.coldMs, i, cold);
                record_.work(i, v.insts, work);
            }
        }
        checkQuality(pass_eval);
    }

    /** More cold_analyze samples, outside the pass's wall time. */
    void
    extraColdSamples()
    {
        if (opts_.workload != "xl100k")
            return;
        for (int k = 0; k < kXlExtraColdSamples; ++k) {
            for (std::size_t i = 0; i < binaries_.size(); ++i) {
                const std::vector<double> parts =
                    runCold(binaries_[i], record_);
                if (!parts.empty())
                    Record::sample(record_.coldMs, i, parts);
            }
        }
    }

    std::string
    snapshotPath() const
    {
        return opts_.outDir + "/snapshot-" + opts_.workload + ".msnp";
    }

    void
    servePass(Counters &counters, const Tamper &tamper, bool traced)
    {
        Binary &b = binaries_.front();
        const ServeRun run = runServeScript(b, snapshotPath(), true, tracer_,
                                            counters, record_, tamper);
        // The final revision through the library path, on the first pass
        // (later passes must repeat its renders) and on traced ones (the
        // library layers): quality scores, and the serve types answer
        // must equal the library's.
        if (!serve_expected_ || traced) {
            const Verdict v = runVerdict(b, b.edits.back(), tracer_,
                                         counters, record_, Tamper{});
            if (v.ok) {
                checkQuality(v.eval);
                serve_insts_ = v.insts;
                if (Fnv64::of(v.types) != Fnv64::of(run.finalTypes))
                    record_.fail(b.name + ": serve types answer differs "
                                 "from the library's annotateModule");
            }
        }
        if (!serve_expected_) {
            serve_expected_ = run.digests;
        } else {
            for (std::size_t i = 0; i < run.digests.edits.size(); ++i) {
                if (i >= serve_expected_->edits.size() ||
                    !(run.digests.edits[i] == serve_expected_->edits[i]))
                    record_.fail(b.name + ": edit " + std::to_string(i + 1) +
                                 " renders differ from pass 1");
            }
            if (!(run.digests.restored == serve_expected_->restored))
                record_.fail(b.name + ": restored renders differ from "
                             "pass 1");
        }
        if (!traced) {
            for (std::size_t k = 0; k < run.coldMs.size(); ++k)
                Record::sample(record_.coldMs, k, run.coldMs[k]);
            for (std::size_t k = 0; k < run.editMs.size(); ++k) {
                Record::sample(record_.verdictMs, k, run.editMs[k]);
                record_.work(k, serve_insts_, run.editMs[k]);
            }
        }
    }

    /**
     * Traced one-shot runs also submit each binary to the serve layer
     * once (cold analyze, one edit cycle, snapshot save and load), so
     * the serve metrics exist on every workload.
     */
    void
    runServeProbe()
    {
        for (Binary &b : binaries_) {
            Module module;
            std::string error;
            if (!parseModule(b.text, module, error)) {
                record_.fail(b.name + ": parse error: " + error);
                return;
            }
            b.edits = makeEdits(module, opts_.seed, 1);
        }
        tracer_.setEnabled(true);
        const std::size_t from = tracer_.spans().size();
        Counters counters;
        Timer wall;
        {
            Scope root(tracer_, "pass");
            for (Binary &b : binaries_)
                runServeScript(b, snapshotPath(), false, tracer_, counters,
                               record_, Tamper{});
        }
        Json entry = Json::object();
        entry.set("traced", Json::boolean(true));
        entry.set("probe", Json::boolean(true));
        entry.set("wall_s", Json::number(wall.seconds()));
        entry.set("layers", layerJson(tracer_, from, counters));
        record_.passes.push(std::move(entry));
        tracer_.setEnabled(false);
    }

    const Options &opts_;
    std::vector<Binary> binaries_;
    Record record_;
    Tracer tracer_;
    std::optional<ServeDigests> serve_expected_;
    std::vector<double> setupSeconds_;
    /** serve_edit: instructions of one revision. */
    std::size_t serve_insts_ = 0;
};

// ---------------------------------------------------------------------
// Run fingerprint and output.

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

long
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return sysconf(_SC_NPROCESSORS_ONLN);
}

Json
fingerprint(const Options &opts)
{
    Json f = Json::object();
    f.set("seed", Json::integer(static_cast<std::int64_t>(opts.seed)));
    f.set("cpu", Json::string(cpuModel()));
    f.set("nproc", Json::integer(onlineCpus()));
    const char *jobs = std::getenv("MANTA_JOBS");
    f.set("manta_jobs_env", Json::string(jobs != nullptr ? jobs : ""));
    f.set("pool_jobs",
          Json::integer(static_cast<std::int64_t>(sharedPool().jobs())));
    f.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
#ifdef __clang__
    f.set("compiler", Json::string(std::string("clang ") + __VERSION__));
#else
    f.set("compiler", Json::string(std::string("gcc ") + __VERSION__));
#endif
    f.set("rev", Json::string(opts.rev));
    return f;
}

Json
numbers(const std::vector<double> &values)
{
    Json arr = Json::array();
    for (const double v : values)
        arr.push(Json::number(v));
    return arr;
}

Json
samplesJson(const Samples &samples)
{
    Json items = Json::array();
    for (const auto &parts : samples) {
        Json item = Json::array();
        for (const std::vector<double> &values : parts)
            item.push(numbers(values));
        items.push(std::move(item));
    }
    return items;
}

void
writeTrace(const Options &opts, const Tracer &tracer)
{
    const std::string path = opts.outDir + "/trace-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".jsonl";
    std::ofstream out(path);
    for (const Span &s : tracer.spans()) {
        Json j = Json::object();
        j.set("name", Json::string(s.name));
        j.set("parent", Json::integer(s.parent));
        j.set("start_ns", Json::integer(s.startNs));
        j.set("end_ns", Json::integer(s.endNs));
        out << j.dump() << '\n';
    }
}

int
runWorkload(const Options &opts)
{
    Json out = Json::object();
    Timer pool_timer;
    sharedPool();
    const double pool_seconds = pool_timer.seconds();

    // The first set-up's inputs are kept; Runner times the repetitions.
    Timer setup_timer;
    std::vector<Binary> binaries = makeInputs(opts);
    const double first_setup = setup_timer.seconds();
    if (binaries.empty()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }

    std::filesystem::create_directories(opts.outDir);
    Runner runner(opts, std::move(binaries));
    Record &record = runner.record();
    runner.setupSeconds().push_back(first_setup);
    runner.runPasses();

    out.set("workload", Json::string(opts.workload));
    out.set("fingerprint", fingerprint(opts));
    out.set("pool_start_s", Json::number(pool_seconds));
    out.set("setup_s", numbers(runner.setupSeconds()));
    out.set("verdict_ms", samplesJson(record.verdictMs));
    out.set("cold_ms", samplesJson(record.coldMs));
    out.set("work_ms", samplesJson(record.workMs));
    Json insts = Json::array();
    for (const std::size_t n : record.itemInsts)
        insts.push(Json::integer(static_cast<std::int64_t>(n)));
    out.set("item_insts", std::move(insts));
    Json quality = Json::object();
    const TypeEval q = record.quality.value_or(TypeEval{});
    quality.set("total", Json::integer(static_cast<std::int64_t>(q.total)));
    quality.set("precise_correct",
                Json::integer(static_cast<std::int64_t>(q.preciseCorrect)));
    quality.set("captured",
                Json::integer(static_cast<std::int64_t>(q.captured)));
    quality.set("unknown", Json::integer(static_cast<std::int64_t>(q.unknown)));
    quality.set("incorrect",
                Json::integer(static_cast<std::int64_t>(q.incorrect)));
    quality.set("precision", Json::number(q.precision()));
    quality.set("recall", Json::number(q.recall()));
    out.set("quality", std::move(quality));
    out.set("passes", std::move(record.passes));
    out.set("attempted",
            Json::integer(static_cast<std::int64_t>(record.attempted)));
    out.set("failed", Json::integer(static_cast<std::int64_t>(record.failed)));
    Json errors = Json::array();
    for (const std::string &e : record.errors)
        errors.push(Json::string(e));
    out.set("errors", std::move(errors));
    out.set("peak_rss_mib", Json::number(peakRssMiB()));
    if (opts.trace)
        writeTrace(opts, runner.tracer());

    std::printf("PERFBENCH %s\n", out.dump().c_str());
    std::fflush(stdout);
    return record.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Self-test: name-mapped scoring on a tiny seed.

int
runSelftest()
{
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };

    for (const std::uint64_t seed : {3u, 11u}) {
        GenConfig cfg;
        cfg.seed = seed;
        cfg.numFunctions = 12;
        GeneratedProgram program = generateProgram(cfg);
        const std::string text = printModule(*program.module);
        const PortableTruth truth(program);

        Module parsed;
        std::string error;
        check(parseModule(text, parsed, error), "parse seed " +
                                                   std::to_string(seed));
        GroundTruth mapped;
        const std::size_t unmapped = truth.mapOnto(parsed, mapped);
        check(unmapped == 0 && !mapped.valueTypes.empty(),
              "every truth entry maps (" + std::to_string(truth.size()) +
                  " entries, " + std::to_string(unmapped) + " unmapped)");

        // Scoring the parsed module through the mapping must equal
        // scoring the generated module with its own ids.
        makeAcyclic(parsed);
        MantaAnalyzer parsed_analyzer(parsed);
        const InferenceResult parsed_result = parsed_analyzer.infer();
        const TypeEval via_map =
            evalInference(parsed, mapped, parsed_result);

        makeAcyclic(*program.module);
        MantaAnalyzer gen_analyzer(*program.module);
        const InferenceResult gen_result = gen_analyzer.infer();
        const TypeEval direct =
            evalInference(*program.module, program.truth, gen_result);
        check(direct.total > 0 && sameEval(via_map, direct),
              "mapped score equals the generated module's score (precision " +
                  std::to_string(via_map.precision()) + " vs " +
                  std::to_string(direct.precision()) + ")");
    }
    return failures == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--selftest") {
            opts.selftest = true;
        } else if (!has_value) {
            return false;
        } else if (arg == "--workload") {
            opts.workload = argv[++i];
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--rev") {
            opts.rev = argv[++i];
        } else if (arg == "--out") {
            opts.outDir = argv[++i];
        } else if (arg == "--tamper") {
            opts.tamper = argv[++i];
        } else {
            return false;
        }
    }
    return opts.selftest || (!opts.workload.empty() && !opts.outDir.empty());
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    if (!perfbench::parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: perfbench_runner --workload W --seed N "
                     "--seconds S --trace 0|1 --out DIR [--smoke] "
                     "[--rev R] [--tamper ARTIFACT] | --selftest\n");
        return 2;
    }
    if (opts.selftest)
        return perfbench::runSelftest();
    return perfbench::runWorkload(opts);
}
