/**
 * @file
 * Tests for the serving layer (docs/SERVING.md): the NDJSON protocol,
 * cache invalidation, snapshot round-trips and their failure modes,
 * warm-vs-cold byte identity, and the --help parity contract.
 *
 * The replay test at the bottom re-executes every `>>>` request line
 * from docs/SERVING.md against a fresh Service and checks the
 * documented `<<<` response shape (ok flag, error code), so protocol
 * examples in the docs cannot drift from the implementation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#endif

#include "core/refine_flow.h"
#include "frontend/corpus.h"
#include "mir/parser.h"
#include "mir/printer.h"
#include "mir/verifier.h"

#include "serve/cli_modes.h"
#include "serve/json.h"
#include "serve/keys.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/snapshot.h"

namespace manta {
namespace serve {
namespace {

// A three-function chain @a -> @b -> @c with enough memory traffic
// for refinement candidates to exist in every function.
const char *kChainText = R"(
func @c(%p:64) {
entry:
  %v = load.64 %p
  %w = add %v, 1:64
  ret %w
}
func @b(%p:64) {
entry:
  %r = call.64 @c(%p)
  ret %r
}
func @a() {
entry:
  %buf = alloca 16
  store %buf, 7:64
  %r = call.64 @b(%buf)
  ret %r
}
)";

// Same module with @b's body changed (extra arithmetic).
const char *kChainPatchedB = R"(
func @c(%p:64) {
entry:
  %v = load.64 %p
  %w = add %v, 1:64
  ret %w
}
func @b(%p:64) {
entry:
  %r = call.64 @c(%p)
  %s = add %r, 2:64
  ret %s
}
func @a() {
entry:
  %buf = alloca 16
  store %buf, 7:64
  %r = call.64 @b(%buf)
  ret %r
}
)";

// A fourth function rides along untouched by either edit.
const char *kIslandTail = R"(
func @island(%x:64) {
entry:
  %y = add %x, 3:64
  ret %y
}
)";

Json
parseOrDie(const std::string &text)
{
    Json j;
    std::string err;
    EXPECT_TRUE(parseJson(text, j, err)) << err << " in: " << text;
    return j;
}

std::string
request(Service &service, const std::string &line)
{
    return service.handleLine(line);
}

/** Response must be ok:true; returns the result object. */
Json
okResult(Service &service, const std::string &line)
{
    const Json resp = parseOrDie(request(service, line));
    const Json *ok = resp.get("ok");
    EXPECT_TRUE(ok != nullptr && ok->isBool() && ok->asBool())
        << "response not ok: " << resp.dump();
    const Json *result = resp.get("result");
    EXPECT_NE(result, nullptr);
    return result != nullptr ? *result : Json::null();
}

/** Response must be ok:false with the given error code. */
void
expectError(Service &service, const std::string &line, const char *code)
{
    const Json resp = parseOrDie(request(service, line));
    const Json *ok = resp.get("ok");
    ASSERT_TRUE(ok != nullptr && ok->isBool());
    EXPECT_FALSE(ok->asBool()) << resp.dump();
    const Json *error = resp.get("error");
    ASSERT_NE(error, nullptr);
    const Json *got = error->get("code");
    ASSERT_TRUE(got != nullptr && got->isString());
    EXPECT_EQ(got->asString(), code) << resp.dump();
}

std::string
analyzeLine(const std::string &binary, const std::string &text)
{
    Json params = Json::object();
    params.set("binary", Json::string(binary));
    params.set("text", Json::string(text));
    Json req = Json::object();
    req.set("id", Json::integer(1));
    req.set("method", Json::string("analyze"));
    req.set("params", std::move(params));
    return req.dump();
}

TEST(ServeJson, RoundTripsNestedDocuments)
{
    const std::string text =
        R"({"id":42,"s":"a\"b\\c\nd","arr":[1,2.5,true,null],"o":{"k":"v"}})";
    const Json j = parseOrDie(text);
    EXPECT_EQ(j.get("id")->asInt(), 42);
    EXPECT_TRUE(j.get("id")->isIntegral());
    EXPECT_EQ(j.get("s")->asString(), "a\"b\\c\nd");
    EXPECT_EQ(j.get("arr")->items().size(), 4u);
    // Dump/parse fixpoint.
    const Json again = parseOrDie(j.dump());
    EXPECT_EQ(again.dump(), j.dump());
}

TEST(ServeJson, RejectsMalformedInput)
{
    Json j;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":", j, err));
    EXPECT_FALSE(parseJson("{} trailing", j, err));
    EXPECT_FALSE(parseJson("{'single':1}", j, err));
    EXPECT_FALSE(parseJson("[1,]", j, err));
}

TEST(ServeProtocol, ErrorCodes)
{
    Service service;
    expectError(service, "not json at all", errc::kParseError);
    expectError(service, "[1,2,3]", errc::kBadRequest);
    expectError(service, R"({"id":1})", errc::kBadRequest);
    expectError(service, R"({"id":1,"method":"nope"})",
                errc::kUnknownMethod);
    expectError(service,
                R"({"id":1,"method":"types","params":{"binary":"x"}})",
                errc::kUnknownBinary);
    expectError(service, R"({"id":1,"method":"analyze","params":{}})",
                errc::kBadRequest);
    expectError(
        service,
        R"({"id":1,"method":"analyze","params":{"binary":"x","text":"func @"}})",
        errc::kAnalysisError);
}

TEST(ServeProtocol, AnalyzeRenderSliceStatus)
{
    Service service;
    const Json first = okResult(service, analyzeLine("demo", kChainText));
    EXPECT_EQ(first.get("funcs")->asInt(), 3);
    EXPECT_FALSE(first.get("unchanged")->asBool());
    EXPECT_TRUE(first.get("dirty")->items().empty());

    // Identical resubmission short-circuits on the text hash.
    const Json again = okResult(service, analyzeLine("demo", kChainText));
    EXPECT_TRUE(again.get("unchanged")->asBool());

    const Json types = okResult(
        service, R"({"id":2,"method":"types","params":{"binary":"demo"}})");
    EXPECT_NE(types.get("text")->asString().find("func @a"),
              std::string::npos);
    okResult(service,
             R"({"id":3,"method":"lint","params":{"binary":"demo"}})");
    okResult(service,
             R"({"id":4,"method":"icall","params":{"binary":"demo"}})");
    const Json taint = okResult(
        service, R"({"id":9,"method":"taint","params":{"binary":"demo"}})");
    EXPECT_NE(taint.get("text")->asString().find("flow(s)"),
              std::string::npos);

    const Json slice = okResult(
        service,
        R"({"id":5,"method":"slice","params":{"binary":"demo","func":"a","value":"buf"}})");
    EXPECT_FALSE(slice.get("values")->items().empty());

    const Json status =
        okResult(service, R"({"id":6,"method":"status"})");
    ASSERT_EQ(status.get("binaries")->items().size(), 1u);
    const Json &entry = status.get("binaries")->items()[0];
    EXPECT_EQ(entry.get("binary")->asString(), "demo");
    EXPECT_TRUE(entry.get("analyzed")->asBool());
    EXPECT_EQ(entry.get("analyses")->asInt(), 1);

    okResult(service, R"({"id":7,"method":"shutdown"})");
    EXPECT_TRUE(service.shuttingDown());
    expectError(service,
                R"({"id":8,"method":"lint","params":{"binary":"demo"}})",
                errc::kShuttingDown);
}

TEST(ServeInvalidation, PatchDirtiesExactlyTheFunctionAndItsClosure)
{
    BinarySession session("inv");
    const std::string before = std::string(kChainText) + kIslandTail;
    const std::string after = std::string(kChainPatchedB) + kIslandTail;
    ASSERT_TRUE(session.analyze(before).ok);

    const AnalyzeOutcome out = session.analyze(after);
    ASSERT_TRUE(out.ok);
    // Exactly @b changed...
    ASSERT_EQ(out.dirty.size(), 1u);
    EXPECT_EQ(out.dirty[0], "b");
    // ...and the re-analysis frontier is its call closure: the caller
    // @a, @b itself, and the callee @c - but never @island.
    EXPECT_EQ(out.closure, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ServeInvalidation, UnchangedResubmissionReusesEveryCandidate)
{
    BinarySession session("reuse");
    ASSERT_TRUE(session.analyze(kChainText).ok);
    // Same text with different whitespace: same content hashes, so the
    // memo answers every refinement candidate without a walk.
    std::string reformatted = kChainText;
    reformatted += "\n\n";
    const AnalyzeOutcome out = session.analyze(reformatted);
    ASSERT_TRUE(out.ok);
    EXPECT_FALSE(out.unchanged); // text hash differs...
    EXPECT_TRUE(out.dirty.empty()); // ...but no function does.
}

TEST(ServeIdentity, WarmRendersMatchColdByteForByte)
{
    // Warm: analyze the base text, then the patched text.
    BinarySession warm("warm");
    ASSERT_TRUE(warm.analyze(kChainText).ok);
    const AnalyzeOutcome warm_out = warm.analyze(kChainPatchedB);
    ASSERT_TRUE(warm_out.ok);

    // Cold: a fresh session sees only the patched text.
    BinarySession cold("cold");
    ASSERT_TRUE(cold.analyze(kChainPatchedB).ok);

    EXPECT_EQ(warm.renderTypes(), cold.renderTypes());
    EXPECT_EQ(warm.renderLint(), cold.renderLint());
    EXPECT_EQ(warm.renderIcall(), cold.renderIcall());
    EXPECT_EQ(warm.renderTaint(), cold.renderTaint());
}

TEST(ServeSnapshot, RoundTripRestoresIdenticalRenders)
{
    BinarySession saver("snap");
    ASSERT_TRUE(saver.analyze(kChainText).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;
    EXPECT_EQ(bytes.compare(0, 4, "MSNP"), 0);

    BinarySession loader("snap");
    ASSERT_TRUE(loader.loadSnapshot(bytes, error)) << error;
    EXPECT_EQ(loader.renderTypes(), saver.renderTypes());
    EXPECT_EQ(loader.renderLint(), saver.renderLint());
    EXPECT_EQ(loader.renderIcall(), saver.renderIcall());
    EXPECT_EQ(loader.renderTaint(), saver.renderTaint());
    EXPECT_EQ(loader.textHash(), saver.textHash());

    // The restored memo keeps answering: a patch after reload reuses
    // records exactly as the saving session would have.
    const AnalyzeOutcome out = loader.analyze(kChainPatchedB);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.dirty, std::vector<std::string>{"b"});
}

TEST(ServeSnapshot, CorruptByteIsRejectedAndColdAnalysisStillWorks)
{
    BinarySession saver("snap");
    ASSERT_TRUE(saver.analyze(kChainText).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;

    // Flip one byte in every region of the file: header, section
    // table, and payloads. Each corruption must be rejected outright.
    for (const std::size_t at :
         {std::size_t(1), std::size_t(9), bytes.size() / 2,
          bytes.size() - 1}) {
        std::string bad = bytes;
        bad[at] = static_cast<char>(bad[at] ^ 0x5a);
        BinarySession loader("snap");
        std::string load_error;
        EXPECT_FALSE(loader.loadSnapshot(bad, load_error))
            << "byte " << at << " accepted";
        EXPECT_FALSE(load_error.empty());
        EXPECT_FALSE(loader.hasResult());
        // Cold fallback: the session is still usable.
        EXPECT_TRUE(loader.analyze(kChainText).ok);
    }
}

TEST(ServeSnapshot, VersionMismatchIsRejected)
{
    BinarySession saver("snap");
    ASSERT_TRUE(saver.analyze(kChainText).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;

    // The u32 format version sits right after the 4-byte magic. Version
    // 1 files (which also carried an element-wise MIR section), version
    // 2 files (flow-sensitive records from a budget-truncated walk),
    // version 3 files (flow-sensitive records without closure-digest
    // dependencies) and future versions are all refused.
    for (const std::uint32_t version :
         {1u, 2u, 3u, kSnapshotVersion + 1}) {
        std::string bad = bytes;
        bad[4] = static_cast<char>(version);
        BinarySession loader("snap");
        std::string load_error;
        EXPECT_FALSE(loader.loadSnapshot(bad, load_error)) << version;
        EXPECT_NE(load_error.find("version"), std::string::npos)
            << load_error;
        EXPECT_FALSE(loader.hasResult());
        EXPECT_TRUE(loader.analyze(kChainText).ok);
    }
}

/** Where one section sits in an MSNP file (see snapshot.h). */
struct SectionSpan
{
    std::size_t entry = 0;  ///< Table entry: id, offset, size, checksum.
    std::size_t offset = 0; ///< Payload start.
    std::size_t size = 0;
};

SectionSpan
findSection(const std::string &bytes, SnapshotSection id)
{
    ByteReader in(bytes);
    in.u32(); // magic
    in.u32(); // version
    const std::uint32_t count = in.u32();
    constexpr std::size_t kEntryBytes = 4 + 8 + 8 + 8;
    for (std::uint32_t i = 0; i < count; ++i) {
        SectionSpan span;
        span.entry = 12 + i * kEntryBytes;
        const std::uint32_t entry_id = in.u32();
        span.offset = static_cast<std::size_t>(in.u64());
        span.size = static_cast<std::size_t>(in.u64());
        in.u64(); // checksum
        if (entry_id == static_cast<std::uint32_t>(id))
            return span;
    }
    ADD_FAILURE() << "section " << static_cast<std::uint32_t>(id)
                  << " not found";
    return {};
}

/** Recompute a section's checksum after its payload was edited. */
void
resealSection(std::string &bytes, const SectionSpan &span)
{
    const std::uint64_t sum = Fnv64::of(
        std::string_view(bytes).substr(span.offset, span.size));
    for (int i = 0; i < 8; ++i)
        bytes[span.entry + 20 + static_cast<std::size_t>(i)] =
            static_cast<char>(sum >> (8 * i));
}

TEST(ServeSnapshot, ForeignEndianMarkIsRejected)
{
    BinarySession saver("snap");
    ASSERT_TRUE(saver.analyze(kChainText).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;

    // MIRPOOLS opens with a host-order endian mark; byte-swap it and
    // re-seal the checksum so only the layout check can object.
    std::string bad = bytes;
    const SectionSpan pools = findSection(bad, SnapshotSection::MirPools);
    ASSERT_GE(pools.size, 4u);
    std::reverse(bad.begin() + static_cast<std::ptrdiff_t>(pools.offset),
                 bad.begin() + static_cast<std::ptrdiff_t>(pools.offset + 4));
    resealSection(bad, pools);

    BinarySession loader("snap");
    std::string load_error;
    EXPECT_FALSE(loader.loadSnapshot(bad, load_error));
    EXPECT_EQ(load_error, "snapshot written by an incompatible build");
    EXPECT_FALSE(loader.hasResult());
    EXPECT_TRUE(loader.analyze(kChainText).ok);
}

TEST(ServeSnapshot, MirFailingVerificationIsRejected)
{
    std::ifstream file(MANTA_DATA_DIR "/union_fig3.mir");
    ASSERT_TRUE(file) << "cannot open union_fig3.mir";
    std::stringstream text;
    text << file.rdbuf();

    BinarySession saver("fig3");
    ASSERT_TRUE(saver.analyze(text.str()).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;

    // Decode, cut one load's operand list to nothing, re-key FUNCS so
    // the content hashes describe the damaged module, and re-encode:
    // every checksum, id-range and slice check passes, so only MIR
    // verification stands between this file and the analyses (which
    // would index the missing operand).
    Module module;
    IncrementalMemo memo;
    SnapshotContents contents;
    ASSERT_TRUE(readSnapshot(bytes, module, memo, contents, error))
        << error;
    std::vector<Instruction> insts = module.instPool();
    const auto load =
        std::find_if(insts.begin(), insts.end(), [](const Instruction &i) {
            return i.op == Opcode::Load;
        });
    ASSERT_NE(load, insts.end());
    load->operandCnt = 0;
    ASSERT_TRUE(module.adoptFlatPools(module.valuePool(), std::move(insts),
                                      module.operandPool(),
                                      module.phiPool()));
    ASSERT_EQ(verifyModule(module).size(), 1u);
    const ModuleKeys keys(module);
    std::vector<std::pair<std::string, std::uint64_t>> funcs;
    for (std::size_t f = 0; f < module.numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        funcs.emplace_back(std::string(module.str(module.func(fid).name)),
                           keys.contentHash(fid));
    }
    const std::string crafted = writeSnapshot(
        module, contents.meta, funcs, contents.digests, memo,
        contents.results);

    BinarySession loader("fig3");
    std::string load_error;
    EXPECT_FALSE(loader.loadSnapshot(crafted, load_error));
    EXPECT_EQ(load_error.rfind("snapshot MIR fails verification: ", 0), 0u)
        << load_error;
    EXPECT_FALSE(loader.hasResult());
    EXPECT_TRUE(loader.analyze(text.str()).ok);
}

TEST(ServeSnapshot, SentinelBlockIdIsRejected)
{
    BinarySession saver("snap");
    ASSERT_TRUE(saver.analyze(kChainText).ok);
    std::string bytes, error;
    ASSERT_TRUE(saver.saveSnapshot(bytes, error)) << error;

    // Decode, replace a function's entry block with the invalid
    // sentinel and re-seal: every checksum and range check passes, and
    // the verifier would dereference the sentinel. The id check must
    // refuse it first, with an error rather than an exception.
    Module module;
    IncrementalMemo memo;
    SnapshotContents contents;
    ASSERT_TRUE(readSnapshot(bytes, module, memo, contents, error)) << error;
    module.func(FuncId(0)).blocks[0] = BlockId::invalid();
    const std::string crafted =
        writeSnapshot(module, contents.meta, contents.funcs,
                      contents.digests, memo, contents.results);

    BinarySession loader("snap");
    std::string load_error;
    EXPECT_FALSE(loader.loadSnapshot(crafted, load_error));
    EXPECT_FALSE(load_error.empty());
    EXPECT_FALSE(loader.hasResult());
    EXPECT_TRUE(loader.analyze(kChainText).ok);
}

/** A function of `n` hint-free adds: lifts a module past the FS
 *  flat-index gate (kFlatIndexMinInsts) without adding a hint or a
 *  call, so the relevance filter and the closure digests are on. */
std::string
filler(std::size_t n)
{
    std::string text = "func @filler(%x:64) {\nentry:\n";
    for (std::size_t i = 0; i < n; ++i)
        text += "  %f" + std::to_string(i) + " = add %x, " +
                std::to_string(i + 1) + ":64\n";
    return text + "  ret %x\n}\n";
}

/** One function's types render: signature line through its brace. */
std::string
funcSection(const std::string &render, const std::string &name)
{
    const std::size_t body = render.find("func @" + name + "(");
    if (body == std::string::npos || body < 2)
        return "";
    const std::size_t sig = render.rfind('\n', body - 2);
    const std::size_t begin = sig == std::string::npos ? 0 : sig + 1;
    return render.substr(begin, render.find("\n}\n", body) - begin);
}

/**
 * Analyze `before`, then `after`, on one session (padded past the
 * flat-index gate). Every render must equal a cold session's for
 * `after`, and the edit must change @a's cold types although it
 * leaves @a's text alone: replaying @a's stale records shows.
 */
void
expectWarmEditMatchesCold(const std::string &before, const std::string &after,
                          const std::vector<std::string> &dirty)
{
    const std::string padded_before = before + filler(600);
    const std::string padded_after = after + filler(600);
    ASSERT_TRUE(FlowRefinement::flatIndexEligible(
        parseModuleOrDie(padded_before)));
    BinarySession warm("warm");
    ASSERT_TRUE(warm.analyze(padded_before).ok);
    const AnalyzeOutcome out = warm.analyze(padded_after);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.dirty, dirty);

    BinarySession cold("cold");
    ASSERT_TRUE(cold.analyze(padded_after).ok);
    BinarySession cold_before("cold_before");
    ASSERT_TRUE(cold_before.analyze(padded_before).ok);
    const std::string a_after = funcSection(cold.renderTypes(), "a");
    ASSERT_FALSE(a_after.empty());
    EXPECT_NE(a_after, funcSection(cold_before.renderTypes(), "a"));

    EXPECT_EQ(warm.renderTypes(), cold.renderTypes());
    EXPECT_EQ(warm.renderLint(), cold.renderLint());
    EXPECT_EQ(warm.renderIcall(), cold.renderIcall());
    EXPECT_EQ(warm.renderTaint(), cold.renderTaint());
}

// @a's parameter is an FS candidate (a load and a mul disagree on it)
// whose def site is the call into @g: its type is what @g's closure
// reveals about it.
const char *kRelevanceCaller = R"(
func @a(%q:64) {
entry:
  %r = call.64 @g(%q)
  %l = load.64 %q
  %m = mul %q, 3:64
  ret %m
}
)";

TEST(ServeIdentity, EditMakingATransitiveCalleeRelevantMatchesCold)
{
    // %q reaches @h through @g. At first @h reads nothing through it;
    // the edit adds a load there, so a callee two calls away from @a's
    // sites now holds a hint on %q's roots. Every record that read or
    // skipped @h must be dropped: warm == cold.
    const std::string chain = R"(
func @g(%p:64) {
entry:
  %r = call.64 @h(%p)
  ret %r
}
)";
    expectWarmEditMatchesCold(std::string(R"(
func @h(%p:64) {
entry:
  %v = add %p, 1:64
  ret %v
}
)") + chain + kRelevanceCaller,
                              std::string(R"(
func @h(%p:64) {
entry:
  %v = load.32 %p
  ret %v
}
)") + chain + kRelevanceCaller,
                              {"h"});
}

TEST(ServeIdentity, SkippedCalleeGainingACallToAMatchingHintMatchesCold)
{
    // @k's load would type %q, but nothing calls @k, so @a's candidate
    // skips @g's closure. The edit makes @h (inside that closure) call
    // @k. @g's own substrate does not change: only @g's closure digest,
    // through the digest of its callee @h, tells the record it is
    // stale.
    const std::string head = R"(
func @k(%p:64) {
entry:
  %v = load.64 %p
  ret %v
}
func @g(%p:64) {
entry:
  %r = call.64 @h(%p)
  ret %r
}
)";
    expectWarmEditMatchesCold(head + R"(
func @h(%p:64) {
entry:
  %v = add %p, 1:64
  ret %v
}
)" + kRelevanceCaller,
                              head + R"(
func @h(%p:64) {
entry:
  %v = add %p, 1:64
  %c = call.64 @k(%p)
  ret %v
}
)" + kRelevanceCaller,
                              {"h"});
}

TEST(ServeIdentity, ThirdFunctionMakingASkippedHintMeetTheRootsMatchesCold)
{
    // @g's hints are on its parameter, whose roots run back through
    // its caller @t - a function in neither @g's closure nor %q's root
    // query. The edit changes which value @t passes: afterwards it is
    // the one @a stored to @G, so @g's hints meet %q's roots. Only @t
    // changes, and no substrate hash of @a or @g does: the root-query
    // touches folded into @g's closure digest catch it.
    const std::string g = R"(
global @G 8
func @g(%p:64) {
entry:
  %m = mul %p, 3:64
  %v = load.64 %p
  ret %v
}
)";
    const std::string rest = R"(
func @a(%q:64) {
entry:
  %r = call.64 @g(5:64)
  store @G, %q
  %l = load.64 %q
  %m = mul %q, 3:64
  ret %m
}
func @main() {
entry:
  %o = alloca 16
  %r = call.64 @a(%o)
  ret %r
}
)";
    const std::string t = R"(
func @t() {
entry:
  %x = load.64 @G
  %z = alloca 16
  %y = add %z, 0:64
  %r = call.64 @g(%y)
  ret %r
}
)";
    std::string t_after = t;
    t_after.replace(t_after.find("add %z"), 6, "add %x");
    expectWarmEditMatchesCold(g + t + rest, g + t_after + rest, {"t"});
}

TEST(ServeKeys, TextHashIsStableAndSensitive)
{
    const std::string a(100, 'x');
    std::string b = a;
    b[50] = 'y';
    EXPECT_EQ(hashText(a), hashText(a));
    EXPECT_NE(hashText(a), hashText(b));
    // Word-folded hashing must still see pure-length differences.
    EXPECT_NE(hashText(a), hashText(a + "x"));
    EXPECT_NE(hashText(std::string()), hashText(std::string(1, '\0')));
}

TEST(ServeCli, HelpTextCoversEveryMode)
{
    const std::string help = cliHelpText();
    for (const CliMode &mode : cliModes()) {
        EXPECT_NE(help.find(std::string("  ") + mode.name),
                  std::string::npos)
            << "mode '" << mode.name << "' missing from --help";
        EXPECT_NE(help.find(mode.summary), std::string::npos)
            << "summary for '" << mode.name << "' missing from --help";
    }
    EXPECT_NE(help.find("usage: manta_cli"), std::string::npos);
}

TEST(ServeCli, ModeListMatchesDispatchedModes)
{
    // The modes manta_cli's main() dispatches on. Adding a branch to
    // the binary without registering it in cliModes() (or vice versa)
    // must fail here - this list is the parity contract.
    const std::vector<std::string> dispatched = {
        "types", "bugs", "bugs-notype", "lint", "lint-notype",
        "lint-sarif", "icall", "stats", "run", "serve",
    };
    ASSERT_EQ(cliModes().size(), dispatched.size());
    for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(cliModes()[i].name, dispatched[i]);
}

#if defined(__unix__) || defined(__APPLE__)

/** Connect to the daemon's socket, retrying while it binds. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    for (int attempt = 0; attempt < 500; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

bool
sendLine(int fd, const std::string &line)
{
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
readLine(int fd)
{
    std::string line;
    char c;
    while (::read(fd, &c, 1) == 1 && c != '\n')
        line.push_back(c);
    return line;
}

TEST(ServeSocket, PeerClosingBeforeItsResponseLeavesTheDaemonServing)
{
    // The first client asks for an analysis and hangs up without
    // reading. Writing its response must fail on that connection
    // alone - a SIGPIPE would kill the whole daemon - so a second
    // client still gets its status answer.
    const std::string path = ::testing::TempDir() + "manta_serve_" +
                             std::to_string(::getpid()) + ".sock";
    Service service;
    std::thread daemon([&] { runUnixServer(service, path); });
    // Stops and joins the daemon on every exit path, failed asserts too.
    class Stop
    {
      public:
        Stop(Service &service, std::thread &daemon)
            : service_(service), daemon_(daemon)
        {}
        Stop(const Stop &) = delete;
        Stop &operator=(const Stop &) = delete;
        ~Stop()
        {
            if (!service_.shuttingDown())
                service_.handleLine(R"({"id":0,"method":"shutdown"})");
            daemon_.join();
        }

      private:
        Service &service_;
        std::thread &daemon_;
    } stop(service, daemon);

    // A module whose analysis outlasts the hang-up by far.
    const GeneratedProgram prog = buildProject(standardCorpus().back());
    const int first = connectTo(path);
    ASSERT_GE(first, 0);
    ASSERT_TRUE(sendLine(first, analyzeLine("big", printModule(*prog.module))));
    ::close(first);

    const int second = connectTo(path);
    ASSERT_GE(second, 0);
    ASSERT_TRUE(sendLine(second, R"({"id":2,"method":"status"})"));
    const Json status = parseOrDie(readLine(second));
    const Json *ok = status.get("ok");
    EXPECT_TRUE(ok != nullptr && ok->isBool() && ok->asBool())
        << status.dump();
    ASSERT_TRUE(sendLine(second, R"({"id":3,"method":"shutdown"})"));
    EXPECT_FALSE(readLine(second).empty());
    ::close(second);
}

#endif


/**
 * Replay every `>>>` request from docs/SERVING.md and compare the
 * response against the documented `<<<` line: the ok flag must match,
 * and when the doc shows an error, the code must match too.
 */
TEST(ServeDocs, ServingMdExamplesReplay)
{
    std::ifstream doc(std::string(MANTA_DOCS_DIR) + "/SERVING.md");
    ASSERT_TRUE(doc.is_open()) << "docs/SERVING.md not found";
    Service service;
    std::string line;
    std::string pending_response;
    std::size_t replayed = 0;
    while (std::getline(doc, line)) {
        if (line.rfind(">>> ", 0) == 0) {
            pending_response = request(service, line.substr(4));
            ++replayed;
        } else if (line.rfind("<<< ", 0) == 0) {
            ASSERT_FALSE(pending_response.empty())
                << "expected line without a preceding request: " << line;
            const Json expected = parseOrDie(line.substr(4));
            const Json got = parseOrDie(pending_response);
            ASSERT_NE(expected.get("ok"), nullptr);
            EXPECT_EQ(got.get("ok")->asBool(),
                      expected.get("ok")->asBool())
                << "for documented request; got: " << pending_response;
            if (const Json *want_err = expected.get("error")) {
                const Json *got_err = got.get("error");
                ASSERT_NE(got_err, nullptr);
                EXPECT_EQ(got_err->get("code")->asString(),
                          want_err->get("code")->asString());
            }
            pending_response.clear();
        }
    }
    // The doc must actually contain a replayable session.
    EXPECT_GE(replayed, 6u);
}

} // namespace
} // namespace serve
} // namespace manta
