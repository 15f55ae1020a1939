/**
 * @file
 * On-disk substrate snapshots (the "MSNP" format; docs/SERVING.md,
 * "Snapshot format").
 *
 * Layout: magic "MSNP", format version, a section table (id, offset,
 * size, FNV-64 checksum per section), then the section payloads.
 * Readers reject unknown magic, a version mismatch, a malformed table,
 * any checksum failure or a module that fails MIR verification - the
 * caller falls back to a cold analysis, never to a partially-decoded
 * state.
 *
 * Sections:
 *   META      (1)  version info, module text hash, walk budget,
 *                  pipeline configuration label.
 *   FUNCS     (2)  function names + per-function content hashes.
 *   PTS       (4)  points-to digest mirror: solution checksum +
 *                  counts. Substrates rebuild deterministically from
 *                  the module; the mirror verifies the rebuild, it
 *                  does not replace it.
 *   DDG       (5)  dependence-graph digest mirror, same contract.
 *   SUMMARIES (6)  memoized refinement records (serve/memo.h) -
 *                  authoritative.
 *   RESULTS   (7)  named digests of rendered artifacts at save time,
 *                  letting a reloaded session prove warm answers
 *                  byte-identical to the saved ones.
 *   MIRPOOLS  (8)  the full post-acyclic module as a zero-copy pool
 *                  dump (mir/serialize.h): raw value/instruction/
 *                  operand/phi pools plus the name arena, tagged with
 *                  the host layout. A build whose record layout
 *                  differs rejects the snapshot as written by an
 *                  incompatible build.
 *
 * Id 3 held an element-wise copy of the module in format version 1;
 * it is retired and never reused.
 */
#ifndef MANTA_SERVE_SNAPSHOT_H
#define MANTA_SERVE_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/ddg.h"
#include "analysis/pointsto.h"
#include "core/ddg_walk.h"
#include "mir/mir.h"
#include "serve/memo.h"

namespace manta {
namespace serve {

/**
 * Format version. 4: flow-sensitive records carry a closure-digest
 * dependency per callee the relevance filter skipped; version 3
 * records have no such list. Version 3 made flow-sensitive records
 * exact (no step budget): version 2 records came from a truncating
 * walk and must not be replayed as warm answers.
 */
constexpr std::uint32_t kSnapshotVersion = 4;

/** Section ids (stable; new sections append ids, retired ids stay unused). */
enum class SnapshotSection : std::uint32_t {
    Meta = 1,
    Funcs = 2,
    Pts = 4,
    Ddg = 5,
    Summaries = 6,
    Results = 7,
    MirPools = 8,
};

/** META payload. */
struct SnapshotMeta
{
    std::uint64_t textHash = 0;   ///< FNV-64 of the submitted MIR text.
    WalkBudget budget;
    std::string configLabel;      ///< HybridConfig::label() at save.
};

/** Verified digest mirrors of the derived substrates. */
struct SubstrateDigests
{
    std::uint64_t pts = 0;
    std::uint64_t ptsLocs = 0;    ///< Total location count.
    std::uint64_t ddg = 0;
    std::uint64_t ddgEdges = 0;
};

/** One named rendered-artifact digest (RESULTS payload entry). */
struct ResultDigest
{
    std::string name;
    std::uint64_t digest = 0;
};

/** FNV-64 digests of the current points-to solution and DDG. */
SubstrateDigests computeSubstrateDigests(const Module &module,
                                         const PointsTo &pts,
                                         const Ddg &ddg);

/**
 * Serialize a session's state. `funcs` pairs each function name with
 * its content hash (FUNCS section).
 */
std::string
writeSnapshot(const Module &module, const SnapshotMeta &meta,
              const std::vector<std::pair<std::string, std::uint64_t>> &funcs,
              const SubstrateDigests &digests, const IncrementalMemo &memo,
              const std::vector<ResultDigest> &results);

/** Decoded snapshot (module owned by the caller-provided object). */
struct SnapshotContents
{
    SnapshotMeta meta;
    std::vector<std::pair<std::string, std::uint64_t>> funcs;
    SubstrateDigests digests;
    std::vector<ResultDigest> results;
};

/**
 * Decode a snapshot. Returns false (with `error` set) on bad magic,
 * version mismatch, malformed sections, checksum failure, a MIRPOOLS
 * layout tag that does not match this build ("snapshot written by an
 * incompatible build") or a module that fails verifyModule ("snapshot
 * MIR fails verification: <first error>"); `module` and `memo` are
 * only meaningful on success. The module loads from the raw pool
 * dump, one memcpy per pool.
 */
bool readSnapshot(std::string_view bytes, Module &module,
                  IncrementalMemo &memo, SnapshotContents &out,
                  std::string &error);

/** File convenience wrappers (binary I/O). */
bool saveSnapshotFile(const std::string &path, const std::string &bytes,
                      std::string &error);
bool loadSnapshotFile(const std::string &path, std::string &bytes,
                      std::string &error);

/**
 * A snapshot file mapped (or, where mmap is unavailable, read) into
 * memory. Pairs with readSnapshot's string_view interface so the
 * MIRPOOLS section decodes straight out of the page cache without
 * first copying the file into a heap string.
 */
class MappedBytes
{
  public:
    MappedBytes() = default;
    MappedBytes(const MappedBytes &) = delete;
    MappedBytes &operator=(const MappedBytes &) = delete;
    MappedBytes(MappedBytes &&other) noexcept { steal(other); }
    MappedBytes &
    operator=(MappedBytes &&other) noexcept
    {
        if (this != &other) {
            reset();
            steal(other);
        }
        return *this;
    }
    ~MappedBytes() { reset(); }

    std::string_view
    view() const
    {
        return data_ ? std::string_view(data_, size_)
                     : std::string_view(fallback_);
    }

  private:
    friend bool loadSnapshotFileMapped(const std::string &path,
                                       MappedBytes &out,
                                       std::string &error);
    void reset();
    void
    steal(MappedBytes &other)
    {
        data_ = other.data_;
        size_ = other.size_;
        fallback_ = std::move(other.fallback_);
        other.data_ = nullptr;
        other.size_ = 0;
    }

    const char *data_ = nullptr; ///< mmap region (null -> fallback_).
    std::size_t size_ = 0;
    std::string fallback_;
};

/** Map `path` read-only (fread fallback); false with `error` set. */
bool loadSnapshotFileMapped(const std::string &path, MappedBytes &out,
                            std::string &error);

} // namespace serve
} // namespace manta

#endif // MANTA_SERVE_SNAPSHOT_H
