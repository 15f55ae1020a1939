/**
 * @file
 * Binary serialization of MIR modules (the snapshot MIRPOOLS section).
 *
 * Pools are dense and append-only, so the encoding dumps the module's
 * value/instruction/operand/phi pools and the name-interner arena as
 * raw memory (one blob per pool): a decoded module has identical raw
 * ids for every value/instruction/block/function/global. External
 * signatures reference interned types and go through a structural
 * type pool (types/typeio.h), so the decoded module's TypeTable
 * re-interns structurally identical types.
 *
 * The dump is host-endian and layout-exact. Its header carries an
 * endian mark plus the record sizes, and the loader rejects any
 * mismatch, so a snapshot written by a build with a different record
 * layout is refused (the serve caller re-analyzes cold).
 *
 * Round-trip guarantee (tested + fuzzed by the snapshot_roundtrip
 * oracle): decode(encode(m)) produces a module whose printed text
 * equals printModule(m), and every analysis over it produces identical
 * rendered artifacts.
 */
#ifndef MANTA_MIR_SERIALIZE_H
#define MANTA_MIR_SERIALIZE_H

#include "mir/mir.h"
#include "support/binio.h"

namespace manta {

/** Result of decoding a pool dump. */
enum class PoolDecode {
    Ok,
    LayoutMismatch, ///< Endian mark or a record size differs from this build.
    Malformed,      ///< Truncated, out-of-range ids or inconsistent slices.
};

/** Encode `module` into `out` (appended). */
void serializeModulePools(const Module &module, ByteWriter &out);

/**
 * Decode a pool dump from `in` into `out` (which must be empty/fresh).
 * `out` is unspecified unless the result is PoolDecode::Ok.
 */
PoolDecode deserializeModulePools(ByteReader &in, Module &out);

} // namespace manta

#endif // MANTA_MIR_SERIALIZE_H
