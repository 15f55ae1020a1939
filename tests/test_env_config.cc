/**
 * @file
 * Table-driven coverage of every MANTA_* environment override.
 *
 * The process environment is global mutable state, so the knobs'
 * default-readers cache their answer on first use and the pipeline
 * tests pin configs explicitly. What CAN be tested exhaustively is the
 * parsing layer those readers delegate to (support/env.h): one rule
 * per knob shape, including the invalid-value fallback-with-warning
 * contract:
 *
 *   MANTA_JOBS      parseEnvLong    worker count (>= 1)
 *   MANTA_INFER     parseEnvChoice  InferEngine::{Unify,Subtype}
 *   MANTA_TAINT_NOTYPE      envFlagTruthy   taint ablation flip
 *   MANTA_TAINT_MAX_FACTS   parseEnvLong    capped-join bound (>= 1)
 *   MANTA_TAINT_SANITIZERS  parseEnvChoice  {on,off}
 *
 * The chaos switches (MANTA_FUZZ_BREAK_MEET, MANTA_FUZZ_BREAK_PTS)
 * share MANTA_TAINT_NOTYPE's flag-truthiness rule but latch at
 * static-init time; their live state is covered through the
 * ChaosScope test override.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/pipeline.h"
#include "support/chaos.h"
#include "support/env.h"
#include "taint/taint.h"

namespace manta {
namespace {

// ---- Flag knobs: MANTA_TAINT_NOTYPE and the chaos switches --------

TEST(EnvFlag, UnsetAndEmptyAndZeroAreOff)
{
    EXPECT_FALSE(envFlagTruthy(nullptr));
    EXPECT_FALSE(envFlagTruthy(""));
    EXPECT_FALSE(envFlagTruthy("0"));
}

TEST(EnvFlag, AnyOtherValueIsOn)
{
    // The documented contract for every flag knob: set, non-empty and
    // not exactly "0" means on - including values a user might reach
    // for instinctively.
    for (const char *value :
         {"1", "2", "true", "yes", "on", "TRUE", " 0", "00"}) {
        EXPECT_TRUE(envFlagTruthy(value)) << "\"" << value << "\"";
    }
}

// ---- MANTA_JOBS: positive decimal with warned fallback ------------

TEST(EnvJobs, UnsetOrEmptyFallsBackSilently)
{
    EXPECT_EQ(parseEnvLong("MANTA_JOBS", nullptr, 8), 8);
    EXPECT_EQ(parseEnvLong("MANTA_JOBS", "", 8), 8);
}

TEST(EnvJobs, ValidDecimalsParse)
{
    EXPECT_EQ(parseEnvLong("MANTA_JOBS", "1", 8), 1);
    EXPECT_EQ(parseEnvLong("MANTA_JOBS", "64", 8), 64);
}

TEST(EnvJobs, InvalidValuesWarnAndFallBack)
{
    // Garbage, sub-minimum, negative and trailing-junk values must all
    // yield the fallback (the warning goes to stderr; capture it to
    // assert it names the variable).
    struct Case
    {
        const char *value;
    };
    for (const Case &c : {Case{"zero"}, Case{"0"}, Case{"-4"}, Case{"3x"},
                          Case{"1.5"}}) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(parseEnvLong("MANTA_JOBS", c.value, 8), 8)
            << "\"" << c.value << "\"";
        const std::string warning =
            ::testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("MANTA_JOBS"), std::string::npos)
            << "\"" << c.value << "\" fell back without naming the knob";
    }
}

TEST(EnvJobs, MinimumIsConfigurable)
{
    EXPECT_EQ(parseEnvLong("MANTA_X", "5", 9, 6), 9);
    EXPECT_EQ(parseEnvLong("MANTA_X", "6", 9, 6), 6);
}

// ---- MANTA_INFER: enumerated engine choice ------------------------

const char *const kEngines[] = {"unify", "subtype"};

TEST(EnvInfer, BothEngineNamesResolve)
{
    EXPECT_EQ(parseEnvChoice("MANTA_INFER", "unify", kEngines, 2, 0), 0u);
    EXPECT_EQ(parseEnvChoice("MANTA_INFER", "subtype", kEngines, 2, 0), 1u);
}

TEST(EnvInfer, UnsetOrEmptyFallsBackSilently)
{
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parseEnvChoice("MANTA_INFER", nullptr, kEngines, 2, 0), 0u);
    EXPECT_EQ(parseEnvChoice("MANTA_INFER", "", kEngines, 2, 0), 0u);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(EnvInfer, UnknownEngineWarnsAndFallsBack)
{
    for (const char *value : {"retypd", "SUBTYPE", "subtype ", "both"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(parseEnvChoice("MANTA_INFER", value, kEngines, 2, 0), 0u)
            << "\"" << value << "\"";
        const std::string warning =
            ::testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("MANTA_INFER"), std::string::npos);
        // The warning must list the valid spellings so the fix is
        // one read away.
        EXPECT_NE(warning.find("subtype"), std::string::npos);
    }
}

// ---- MANTA_TAINT* knobs: one per parsing shape --------------------

TEST(EnvTaint, MaxFactsParsesWithWarnedFallback)
{
    // Valid values parse; the minimum is 1 (a zero cap would make the
    // capped join drop every fact and trivially converge).
    EXPECT_EQ(parseEnvLong("MANTA_TAINT_MAX_FACTS", "1", 256, 1), 1);
    EXPECT_EQ(parseEnvLong("MANTA_TAINT_MAX_FACTS", "4096", 256, 1), 4096);
    EXPECT_EQ(parseEnvLong("MANTA_TAINT_MAX_FACTS", nullptr, 256, 1), 256);
    for (const char *value : {"lots", "0", "-1", "8x"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(parseEnvLong("MANTA_TAINT_MAX_FACTS", value, 256, 1), 256)
            << "\"" << value << "\"";
        const std::string warning =
            ::testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("MANTA_TAINT_MAX_FACTS"), std::string::npos)
            << "\"" << value << "\" fell back without naming the knob";
    }
}

TEST(EnvTaint, SanitizerChoiceParsesWithWarnedFallback)
{
    const char *const kChoices[] = {"on", "off"};
    EXPECT_EQ(parseEnvChoice("MANTA_TAINT_SANITIZERS", "on", kChoices, 2, 0),
              0u);
    EXPECT_EQ(parseEnvChoice("MANTA_TAINT_SANITIZERS", "off", kChoices, 2, 0),
              1u);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(
        parseEnvChoice("MANTA_TAINT_SANITIZERS", nullptr, kChoices, 2, 0),
        0u);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    for (const char *value : {"ON", "true", "none"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(
            parseEnvChoice("MANTA_TAINT_SANITIZERS", value, kChoices, 2, 0),
            0u)
            << "\"" << value << "\"";
        const std::string warning =
            ::testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("MANTA_TAINT_SANITIZERS"),
                  std::string::npos);
        EXPECT_NE(warning.find("off"), std::string::npos);
    }
}

TEST(EnvTaint, LiveReadersAgreeWithTheInheritedEnvironment)
{
    // Same style as EnvDefaults below: assert against the inherited
    // environment so the binary stays valid under the CI ablation runs
    // (MANTA_TAINT_NOTYPE=1 etc).
    EXPECT_EQ(taint::defaultTaintNoType(),
              envFlagTruthy(std::getenv("MANTA_TAINT_NOTYPE")));
    const char *raw_max = std::getenv("MANTA_TAINT_MAX_FACTS");
    EXPECT_EQ(taint::defaultTaintMaxFacts(),
              static_cast<std::size_t>(
                  parseEnvLong("MANTA_TAINT_MAX_FACTS", raw_max, 256, 1)));
    const char *const kChoices[] = {"on", "off"};
    const char *raw_san = std::getenv("MANTA_TAINT_SANITIZERS");
    EXPECT_EQ(taint::defaultTaintSanitizers(),
              parseEnvChoice("MANTA_TAINT_SANITIZERS", raw_san, kChoices, 2,
                             0) == 0u);
    // And TaintOptions::fromEnv must pick all three up.
    const taint::TaintOptions opts = taint::TaintOptions::fromEnv();
    EXPECT_EQ(opts.useTypes, !taint::defaultTaintNoType());
    EXPECT_EQ(opts.maxFactsPerValue, taint::defaultTaintMaxFacts());
    EXPECT_EQ(opts.sanitizers, taint::defaultTaintSanitizers());
}

// ---- Chaos switches: env-latched flags with a test override -------

TEST(EnvChaos, FlagsLatchTheInheritedEnvironment)
{
    // The constructor applies the same truthiness rule as
    // envFlagTruthy to the environment captured at static-init.
    EXPECT_EQ(chaosBreakMeet().enabled(),
              envFlagTruthy(std::getenv("MANTA_FUZZ_BREAK_MEET")));
    EXPECT_EQ(chaosBreakPts().enabled(),
              envFlagTruthy(std::getenv("MANTA_FUZZ_BREAK_PTS")));
}

TEST(EnvChaos, ScopeFlipsAndRestores)
{
    const bool meet_before = chaosBreakMeet().enabled();
    const bool pts_before = chaosBreakPts().enabled();
    {
        ChaosScope meet(chaosBreakMeet());
        ChaosScope pts(chaosBreakPts());
        EXPECT_TRUE(chaosBreakMeet().enabled());
        EXPECT_TRUE(chaosBreakPts().enabled());
    }
    EXPECT_EQ(chaosBreakMeet().enabled(), meet_before);
    EXPECT_EQ(chaosBreakPts().enabled(), pts_before);
}

// ---- The live readers, end to end ---------------------------------

TEST(EnvDefaults, LiveReadersAgreeWithTheInheritedEnvironment)
{
    // The cached default-readers must equal the documented rule applied
    // to whatever environment this process inherited. Written against
    // the inherited value (not a fixed expectation) so the same binary
    // also validates the reader under the CI MANTA_INFER=subtype run.
    const char *infer = std::getenv("MANTA_INFER");
    const bool subtype = infer && std::string(infer) == "subtype";
    EXPECT_EQ(defaultInferEngine(),
              subtype ? InferEngine::Subtype : InferEngine::Unify);
    // And HybridConfig must pick the reader's answer up as its default.
    EXPECT_EQ(HybridConfig::full().inferEngine, defaultInferEngine());
}

} // namespace
} // namespace manta
