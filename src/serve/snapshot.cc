#include "serve/snapshot.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MANTA_SNAPSHOT_HAVE_MMAP 1
#endif

#include "mir/serialize.h"
#include "mir/verifier.h"

namespace manta {
namespace serve {

SubstrateDigests
computeSubstrateDigests(const Module &module, const PointsTo &pts,
                        const Ddg &ddg)
{
    SubstrateDigests out;
    // Raw ids are deterministic given the module, and MIR decode
    // preserves them (mir/serialize.h), so raw-id-based digests are
    // comparable between the saving session and a reloaded one.
    Fnv64 ph;
    std::uint64_t num_locs = 0;
    for (std::size_t i = 0; i < module.numValues(); ++i) {
        const ValueId vid(static_cast<ValueId::RawType>(i));
        const LocSet &locs = pts.locs(vid);
        if (locs.empty())
            continue;
        ph.u32(static_cast<std::uint32_t>(i));
        ph.u32(static_cast<std::uint32_t>(locs.size()));
        for (const Loc &loc : locs) {
            ph.u64(loc.packed());
            ++num_locs;
        }
    }
    out.pts = ph.value();
    out.ptsLocs = num_locs;

    Fnv64 dh;
    for (std::uint32_t e = 0; e < ddg.numEdges(); ++e) {
        const Ddg::Edge &edge = ddg.edge(e);
        dh.u32(edge.from.raw());
        dh.u32(edge.to.raw());
        dh.byte(static_cast<std::uint8_t>(edge.kind));
        dh.u32(edge.site.raw());
        dh.byte(edge.pruned ? 1 : 0);
    }
    out.ddg = dh.value();
    out.ddgEdges = ddg.numEdges();
    return out;
}

namespace {

constexpr char kMagic[4] = {'M', 'S', 'N', 'P'};

struct SectionEntry
{
    std::uint32_t id;
    std::string payload;
};

void
writeMeta(ByteWriter &out, const SnapshotMeta &meta)
{
    out.u64(meta.textHash);
    out.u64(static_cast<std::uint64_t>(meta.budget.maxVisited));
    out.u64(static_cast<std::uint64_t>(meta.budget.maxStack));
    out.str(meta.configLabel);
}

bool
readMeta(ByteReader &in, SnapshotMeta &meta)
{
    meta.textHash = in.u64();
    meta.budget.maxVisited = static_cast<std::size_t>(in.u64());
    meta.budget.maxStack = static_cast<std::size_t>(in.u64());
    meta.configLabel = in.str();
    return in.ok() && in.atEnd();
}

} // namespace

std::string
writeSnapshot(const Module &module, const SnapshotMeta &meta,
              const std::vector<std::pair<std::string, std::uint64_t>> &funcs,
              const SubstrateDigests &digests, const IncrementalMemo &memo,
              const std::vector<ResultDigest> &results)
{
    std::vector<SectionEntry> sections;
    {
        ByteWriter w;
        writeMeta(w, meta);
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Meta), w.take()});
    }
    {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(funcs.size()));
        for (const auto &[name, hash] : funcs) {
            w.str(name);
            w.u64(hash);
        }
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Funcs), w.take()});
    }
    {
        ByteWriter w;
        w.u64(digests.pts);
        w.u64(digests.ptsLocs);
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Pts), w.take()});
    }
    {
        ByteWriter w;
        w.u64(digests.ddg);
        w.u64(digests.ddgEdges);
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Ddg), w.take()});
    }
    {
        ByteWriter w;
        memo.serialize(w);
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Summaries),
             w.take()});
    }
    {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(results.size()));
        for (const ResultDigest &r : results) {
            w.str(r.name);
            w.u64(r.digest);
        }
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::Results),
             w.take()});
    }
    {
        // The module, dumped pool-at-a-time. A reader whose record
        // layout differs rejects the whole snapshot.
        ByteWriter w;
        serializeModulePools(module, w);
        sections.push_back(
            {static_cast<std::uint32_t>(SnapshotSection::MirPools),
             w.take()});
    }

    ByteWriter out;
    out.raw(std::string(kMagic, sizeof kMagic));
    out.u32(kSnapshotVersion);
    out.u32(static_cast<std::uint32_t>(sections.size()));
    // Table first (fixed size per entry), then payloads.
    const std::size_t table_at = out.size();
    for (const SectionEntry &s : sections) {
        out.u32(s.id);
        out.u64(0); // offset, patched below
        out.u64(static_cast<std::uint64_t>(s.payload.size()));
        out.u64(Fnv64::of(s.payload));
    }
    std::size_t cursor = table_at;
    for (const SectionEntry &s : sections) {
        const std::size_t offset_field = cursor + 4;
        out.patchU64(offset_field, static_cast<std::uint64_t>(out.size()));
        out.raw(s.payload);
        cursor += 4 + 8 + 8 + 8;
    }
    return out.take();
}

bool
readSnapshot(std::string_view bytes, Module &module,
             IncrementalMemo &memo, SnapshotContents &out,
             std::string &error)
{
    ByteReader in(bytes.data(), bytes.size());
    char magic[4] = {};
    if (bytes.size() < 4) {
        error = "snapshot truncated";
        return false;
    }
    for (char &c : magic)
        c = static_cast<char>(in.u8());
    if (magic[0] != 'M' || magic[1] != 'S' || magic[2] != 'N' ||
        magic[3] != 'P') {
        error = "bad snapshot magic";
        return false;
    }
    const std::uint32_t version = in.u32();
    if (version != kSnapshotVersion) {
        error = "snapshot version mismatch (have " +
                std::to_string(version) + ", want " +
                std::to_string(kSnapshotVersion) + ")";
        return false;
    }
    const std::uint32_t num_sections = in.u32();
    if (!in.ok() || num_sections > 64) {
        error = "malformed section table";
        return false;
    }
    struct Entry
    {
        std::uint32_t id;
        std::uint64_t offset;
        std::uint64_t size;
        std::uint64_t checksum;
    };
    std::vector<Entry> table;
    for (std::uint32_t i = 0; i < num_sections; ++i) {
        Entry e;
        e.id = in.u32();
        e.offset = in.u64();
        e.size = in.u64();
        e.checksum = in.u64();
        table.push_back(e);
    }
    if (!in.ok()) {
        error = "malformed section table";
        return false;
    }

    // Borrowing lookup: payloads are views into `bytes`, so the pool
    // dump decodes straight from the (possibly mmapped) buffer.
    auto sectionPayload = [&](SnapshotSection id,
                              std::string_view &payload) -> bool {
        for (const Entry &e : table) {
            if (e.id != static_cast<std::uint32_t>(id))
                continue;
            if (e.offset > bytes.size() ||
                e.size > bytes.size() - e.offset) {
                error = "section out of bounds";
                return false;
            }
            payload = bytes.substr(static_cast<std::size_t>(e.offset),
                                   static_cast<std::size_t>(e.size));
            if (Fnv64::of(payload) != e.checksum) {
                error = "section checksum mismatch";
                return false;
            }
            return true;
        }
        error = "missing section";
        return false;
    };

    std::string_view payload;
    if (!sectionPayload(SnapshotSection::Meta, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        if (!readMeta(r, out.meta)) {
            error = "malformed META section";
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::Funcs, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        const std::uint32_t count = r.u32();
        if (!r.ok() || count > 1u << 24) {
            error = "malformed FUNCS section";
            return false;
        }
        out.funcs.clear();
        for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
            std::string name = r.str();
            const std::uint64_t hash = r.u64();
            out.funcs.emplace_back(std::move(name), hash);
        }
        if (!r.ok() || !r.atEnd()) {
            error = "malformed FUNCS section";
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::MirPools, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        const PoolDecode decoded = deserializeModulePools(r, module);
        if (decoded == PoolDecode::LayoutMismatch) {
            error = "snapshot written by an incompatible build";
            return false;
        }
        if (decoded != PoolDecode::Ok || !r.atEnd()) {
            error = "malformed MIRPOOLS section";
            return false;
        }
        // The ids are in range; the structure must hold too before any
        // analysis indexes operands by opcode.
        const std::vector<std::string> errors = verifyModule(module);
        if (!errors.empty()) {
            error = "snapshot MIR fails verification: " + errors.front();
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::Pts, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        out.digests.pts = r.u64();
        out.digests.ptsLocs = r.u64();
        if (!r.ok() || !r.atEnd()) {
            error = "malformed PTS section";
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::Ddg, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        out.digests.ddg = r.u64();
        out.digests.ddgEdges = r.u64();
        if (!r.ok() || !r.atEnd()) {
            error = "malformed DDG section";
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::Summaries, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        if (!memo.deserialize(r) || !r.atEnd()) {
            error = "malformed SUMMARIES section";
            return false;
        }
    }
    if (!sectionPayload(SnapshotSection::Results, payload))
        return false;
    {
        ByteReader r(payload.data(), payload.size());
        const std::uint32_t count = r.u32();
        if (!r.ok() || count > 1u << 16) {
            error = "malformed RESULTS section";
            return false;
        }
        out.results.clear();
        for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
            ResultDigest d;
            d.name = r.str();
            d.digest = r.u64();
            out.results.push_back(std::move(d));
        }
        if (!r.ok() || !r.atEnd()) {
            error = "malformed RESULTS section";
            return false;
        }
    }
    return true;
}

bool
saveSnapshotFile(const std::string &path, const std::string &bytes,
                 std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    const std::size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = std::fclose(f) == 0 && written == bytes.size();
    if (!ok)
        error = "short write to " + path;
    return ok;
}

void
MappedBytes::reset()
{
#ifdef MANTA_SNAPSHOT_HAVE_MMAP
    if (data_ != nullptr)
        ::munmap(const_cast<char *>(data_), size_);
#endif
    data_ = nullptr;
    size_ = 0;
    fallback_.clear();
}

bool
loadSnapshotFileMapped(const std::string &path, MappedBytes &out,
                       std::string &error)
{
    out.reset();
#ifdef MANTA_SNAPSHOT_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open " + path;
        return false;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        error = "cannot stat " + path;
        return false;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        // mmap rejects zero-length maps; an empty view is fine.
        ::close(fd);
        return true;
    }
    void *mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapped == MAP_FAILED) {
        // Fall through to the buffered loader below.
    } else {
        out.data_ = static_cast<const char *>(mapped);
        out.size_ = size;
        return true;
    }
#endif
    return loadSnapshotFile(path, out.fallback_, error);
}

bool
loadSnapshotFile(const std::string &path, std::string &bytes,
                 std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    bytes.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        error = "read error on " + path;
    return ok;
}

} // namespace serve
} // namespace manta
