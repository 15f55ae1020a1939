/**
 * @file
 * Property sweeps over generated programs: printer/parser round-trip
 * fidelity, pipeline determinism, and points-to/DDG sanity invariants
 * that must hold for arbitrary generated inputs.
 */
#include <gtest/gtest.h>

#include "analysis/acyclic.h"
#include "core/pipeline.h"
#include "frontend/generator.h"
#include "mir/parser.h"
#include "mir/printer.h"
#include "mir/verifier.h"

namespace manta {
namespace {

GenConfig
sweepConfig(std::uint64_t seed)
{
    GenConfig cfg;
    cfg.seed = seed;
    cfg.numFunctions = 16;
    cfg.realBugRate = 0.1;
    cfg.decoyRate = 0.1;
    return cfg;
}

class GeneratedSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(GeneratedSweep, PrintParseRoundTrip)
{
    const GeneratedProgram prog = generateProgram(sweepConfig(GetParam()));
    const std::string once = printModule(*prog.module);

    Module reparsed;
    std::string error;
    ASSERT_TRUE(parseModule(once, reparsed, error)) << error;
    EXPECT_TRUE(verifyModule(reparsed).empty());

    // Print -> parse -> print is a fixpoint.
    const std::string twice = printModule(reparsed);
    Module reparsed2;
    ASSERT_TRUE(parseModule(twice, reparsed2, error)) << error;
    EXPECT_EQ(printModule(reparsed2), twice);

    // Structure is preserved: same functions, same opcode multiset.
    ASSERT_EQ(reparsed.numFuncs(), prog.module->numFuncs());
    std::map<int, int> ops_a, ops_b;
    for (std::size_t i = 0; i < prog.module->numInsts(); ++i)
        ++ops_a[(int)prog.module->inst(InstId(InstId::RawType(i))).op];
    for (std::size_t i = 0; i < reparsed.numInsts(); ++i)
        ++ops_b[(int)reparsed.inst(InstId(InstId::RawType(i))).op];
    EXPECT_EQ(ops_a, ops_b);
}

TEST_P(GeneratedSweep, PipelineIsDeterministic)
{
    auto run = [&] {
        GeneratedProgram prog = generateProgram(sweepConfig(GetParam()));
        makeAcyclic(*prog.module);
        MantaAnalyzer analyzer(*prog.module, HybridConfig::full());
        const InferenceResult result = analyzer.infer();
        const StageStats stats = result.finalStats();
        return std::tuple<std::size_t, std::size_t, std::size_t>(
            stats.precise, stats.over, stats.unknown);
    };
    EXPECT_EQ(run(), run());
}

TEST_P(GeneratedSweep, PointsToLocationsAreWellFormed)
{
    GeneratedProgram prog = generateProgram(sweepConfig(GetParam()));
    makeAcyclic(*prog.module);
    const MemObjects objects(*prog.module);
    PointsTo pts(*prog.module, objects);
    pts.run();
    for (std::size_t v = 0; v < prog.module->numValues(); ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        for (const Loc &loc : pts.locs(vid)) {
            ASSERT_TRUE(loc.obj.valid());
            ASSERT_LT(loc.obj.index(), objects.numObjects());
            const MemObject &obj = objects.object(loc.obj);
            if (!loc.collapsed() && obj.sizeBytes > 0) {
                EXPECT_LT(static_cast<std::uint32_t>(loc.offset),
                          obj.sizeBytes);
            }
        }
        // Only 64-bit values can carry addresses.
        if (!pts.locs(vid).empty()) {
            EXPECT_EQ(prog.module->value(vid).width, 64);
        }
    }
}

TEST_P(GeneratedSweep, DdgEdgesReferenceValidValues)
{
    GeneratedProgram prog = generateProgram(sweepConfig(GetParam()));
    makeAcyclic(*prog.module);
    const MemObjects objects(*prog.module);
    PointsTo pts(*prog.module, objects);
    pts.run();
    const Ddg ddg(*prog.module, pts);
    for (std::uint32_t i = 0; i < ddg.numEdges(); ++i) {
        const Ddg::Edge &e = ddg.edge(i);
        ASSERT_LT(e.from.index(), prog.module->numValues());
        ASSERT_LT(e.to.index(), prog.module->numValues());
        if (e.kind == DepKind::CallArg || e.kind == DepKind::CallRet) {
            EXPECT_TRUE(e.site.valid());
        }
        EXPECT_FALSE(e.pruned);
    }
}

TEST_P(GeneratedSweep, SiteBoundsRefineValueBounds)
{
    // Property: every site-refined bound is at least as tight as, or a
    // refinement of, what the FI stage concluded (never wider than the
    // FI upper bound unless the site was refined to unknown).
    GeneratedProgram prog = generateProgram(sweepConfig(GetParam()));
    makeAcyclic(*prog.module);
    MantaAnalyzer analyzer(*prog.module, HybridConfig::full());
    const InferenceResult fi = analyzer.infer(HybridConfig::fiOnly());
    const InferenceResult full = analyzer.infer();
    TypeTable &tt = prog.module->types();

    std::size_t checked = 0;
    for (std::size_t v = 0; v < prog.module->numValues() && checked < 500;
         ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        const ValueKind kind = prog.module->value(vid).kind;
        if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
            continue;
        const BoundPair fi_bp = fi.valueBounds(vid);
        if (fi_bp.classify(tt) != TypeClass::Over)
            continue;
        const BoundPair full_bp = full.valueBounds(vid);
        if (full_bp.classify(tt) == TypeClass::Unknown)
            continue; // refinement loss is allowed
        ++checked;
        EXPECT_TRUE(tt.isSubtype(full_bp.upper, fi_bp.upper) ||
                    fi_bp.upper == tt.top())
            << "v" << v << ": full=" << tt.toString(full_bp.upper)
            << " fi=" << tt.toString(fi_bp.upper);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSweep,
                         ::testing::Values(21ull, 22ull, 23ull, 24ull,
                                           25ull, 1000ull, 2000ull,
                                           3000ull));

// ---- Parser error paths: malformed inputs must produce diagnostics,
// never crashes or silent acceptance. ----

struct MalformedCase
{
    const char *name;    ///< test label, shown on failure
    const char *text;    ///< malformed module text
    const char *expect;  ///< substring required in the diagnostic
};

/**
 * gtest prints a test parameter into the listed test name; print the
 * label, not the default byte dump (which holds the case's pointers
 * and so changes from run to run under ASLR).
 */
void
PrintTo(const MalformedCase &c, std::ostream *os)
{
    *os << c.name;
}

class ParserRejects : public ::testing::TestWithParam<MalformedCase>
{};

TEST_P(ParserRejects, WithLineTaggedDiagnostic)
{
    const MalformedCase &c = GetParam();
    Module m;
    std::string error;
    ASSERT_FALSE(parseModule(c.text, m, error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
    EXPECT_NE(error.find("line "), std::string::npos)
        << c.name << ": diagnostic lacks a line tag: " << error;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.name << ": expected '" << c.expect << "' in: " << error;
}

const MalformedCase kMalformed[] = {
    {"truncated_body",
     "func @main() {\nentry:\n  ret 0:64\n",
     "unterminated function"},
    {"undefined_register",
     "func @main() {\nentry:\n  %x = add %undef, 1:64\n  ret %x\n}\n",
     "use of undefined value %undef"},
    {"bad_load_width",
     "func @main(%p:64) {\nentry:\n  %v = load.7 %p\n  ret %v\n}\n",
     "invalid width 7"},
    {"junk_width",
     "func @main(%p:64) {\nentry:\n  %v = load.abc %p\n  ret %v\n}\n",
     "malformed width"},
    {"trunc_without_suffix",
     "func @main(%x:64) {\nentry:\n  %n = trunc %x\n  ret %n\n}\n",
     "trunc requires a width suffix"},
    {"bad_param_width",
     "func @main(%x:13) {\nentry:\n  ret %x\n}\n",
     "invalid width 13"},
    {"malformed_param",
     "func @main(%x) {\nentry:\n  ret 0:64\n}\n",
     "malformed parameter"},
    {"duplicate_function",
     "func @f() {\nentry:\n  ret 0:64\n}\nfunc @f() {\nentry:\n"
     "  ret 0:64\n}\n",
     "duplicate function @f"},
    {"duplicate_block_label",
     "func @main() {\nentry:\n  jmp entry\nentry:\n  ret 0:64\n}\n",
     "duplicate block label entry"},
    {"value_redefinition",
     "func @main() {\nentry:\n  %x = copy 1:64\n  %x = copy 2:64\n"
     "  ret %x\n}\n",
     "redefinition of %x"},
    {"store_with_result",
     "func @main(%p:64) {\nentry:\n  %r = store %p, 1:64\n"
     "  ret 0:64\n}\n",
     "store does not produce a result"},
    {"missing_result_name",
     "func @main() {\nentry:\n  add 1:64, 2:64\n  ret 0:64\n}\n",
     "expected '%name ='"},
    {"unknown_opcode",
     "func @main() {\nentry:\n  %x = frobnicate 1:64\n  ret %x\n}\n",
     "unknown opcode frobnicate"},
    {"unknown_callee",
     "func @main() {\nentry:\n  %x = call @nosuch(1:64)\n  ret %x\n}\n",
     "unknown callee @nosuch"},
    {"unknown_branch_target",
     "func @main(%c:1) {\nentry:\n  br %c, nowhere, entry\n}\n",
     "unknown block label nowhere"},
    {"inst_before_label",
     "func @main() {\n  %x = copy 1:64\nentry:\n  ret %x\n}\n",
     "instruction before any block label"},
    {"wrong_operand_count",
     "func @main(%c:1) {\nentry:\n  br %c, entry\n}\n",
     "br expects 3 operands"},
    {"unknown_predicate",
     "func @main() {\nentry:\n  %c = icmp.zz 1:64, 2:64\n"
     "  ret 0:64\n}\n",
     "unknown compare predicate .zz"},
    {"junk_constant",
     "func @main() {\nentry:\n  %x = add 12abc, 1:64\n  ret %x\n}\n",
     "bad operand 12abc"},
    {"phi_only_forward_refs",
     "func @main() {\nentry:\n  %p = phi %a, entry, %b, entry\n"
     "  ret %p\n}\n",
     "phi with only forward references"},
    {"unresolved_phi_operand",
     "func @main() {\nentry:\n  %p = phi 1:64, entry, %never, other\n"
     "  jmp other\nother:\n  ret %p\n}\n",
     "unresolved phi operand %never"},
    {"malformed_global",
     "global @g\nfunc @main() {\nentry:\n  ret 0:64\n}\n",
     "malformed global"},
    {"duplicate_global",
     "global @g 8\nglobal @g 16\nfunc @main() {\nentry:\n"
     "  ret 0:64\n}\n",
     "duplicate global @g"},
    {"malformed_alloca_size",
     "func @main() {\nentry:\n  %p = alloca lots\n  ret 0:64\n}\n",
     "malformed alloca size"},
};

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserRejects, ::testing::ValuesIn(kMalformed),
    [](const ::testing::TestParamInfo<MalformedCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace manta
