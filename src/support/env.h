/**
 * @file
 * Environment-knob parsing shared by every MANTA_* override.
 *
 * Each knob's cached default-reader (defaultJobs, defaultInferEngine,
 * the MANTA_TAINT* readers, the chaos flags) is a thin wrapper over
 * one of these pure helpers, so the parsing rules -
 * including the invalid-value warnings - are table-testable without
 * mutating the process environment.
 */
#ifndef MANTA_SUPPORT_ENV_H
#define MANTA_SUPPORT_ENV_H

#include <cstddef>

namespace manta {

/**
 * Boolean-flag rule shared by MANTA_TAINT_NOTYPE and the chaos
 * switches: set and non-empty and not exactly "0" means on.
 * A null pointer (unset variable) is off.
 */
bool envFlagTruthy(const char *value);

/**
 * Positive-integer rule (MANTA_JOBS): a decimal value >= `min` is
 * returned; anything else (garbage, zero, negative, trailing junk)
 * warns once on stderr, naming the variable, and yields `fallback`.
 * A null or empty value yields `fallback` silently.
 */
long parseEnvLong(const char *name, const char *value, long fallback,
                  long min = 1);

/**
 * Enumerated-choice rule (MANTA_INFER): returns the index of `value`
 * in `choices` (case-sensitive). A null or empty value yields
 * `fallback` silently; any other unmatched value warns on stderr and
 * yields `fallback`.
 */
std::size_t parseEnvChoice(const char *name, const char *value,
                           const char *const *choices,
                           std::size_t num_choices, std::size_t fallback);

} // namespace manta

#endif // MANTA_SUPPORT_ENV_H
