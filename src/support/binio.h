/**
 * @file
 * Bounds-checked little-endian binary encode/decode primitives used by
 * the snapshot format (docs/SERVING.md). ByteWriter appends into an
 * owned buffer; ByteReader consumes a borrowed view and reports
 * truncation/overrun through a sticky failure flag instead of
 * exceptions, so callers can decode untrusted bytes and check once at
 * the end.
 *
 * Integers are written little-endian byte-by-byte (no reinterpret
 * casts), so the format is identical across hosts. Variable-length
 * data (strings, vectors) is length-prefixed with a u32.
 */
#ifndef MANTA_SUPPORT_BINIO_H
#define MANTA_SUPPORT_BINIO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace manta {

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** u32 length prefix + raw bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_.append(s);
    }

    /** Raw bytes, no prefix (for nesting pre-encoded sections). */
    void
    raw(const std::string &s)
    {
        bytes_.append(s);
    }

    /**
     * Raw memory, no prefix - the bulk-dump primitive of the zero-copy
     * pool codec. The caller is responsible for only dumping
     * trivially-copyable records with deterministic (zeroed) padding.
     */
    void
    blob(const void *data, std::size_t n)
    {
        if (n == 0)
            return;  // An empty pool's data() may be null.
        bytes_.append(static_cast<const char *>(data), n);
    }

    /** Overwrite 4 bytes at `at` (for back-patching offsets). */
    void
    patchU32(std::size_t at, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_[at + static_cast<std::size_t>(i)] =
                static_cast<char>(v >> (8 * i));
    }

    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_[at + static_cast<std::size_t>(i)] =
                static_cast<char>(v >> (8 * i));
    }

    std::size_t size() const { return bytes_.size(); }
    const std::string &bytes() const { return bytes_; }
    std::string take() { return std::move(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Consuming little-endian decoder over borrowed bytes. Any read past
 * the end sets fail() and returns zeros/empties; callers check
 * `ok()` once after decoding a section.
 */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit ByteReader(const std::string &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool ok() const { return !failed_; }
    bool atEnd() const { return pos_ == size_; }
    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        if (!need(4))
            return 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (!need(8))
            return 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(data_ + pos_, n);
        pos_ += n;
        return s;
    }

    /**
     * Bulk-copy `n` bytes into `dst` (zero-copy pool load: one memcpy
     * per pool instead of one decode call per element). Returns false
     * and sets fail() on truncation.
     */
    bool
    blob(void *dst, std::size_t n)
    {
        if (!need(n))
            return false;
        if (n == 0)
            return true;  // An empty pool's data() may be null.
        std::memcpy(dst, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    /** Borrow `n` bytes in place and advance; nullptr on truncation. */
    const char *
    view(std::size_t n)
    {
        if (!need(n))
            return nullptr;
        const char *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /** Mark the stream failed (e.g. on a semantic validation error). */
    void
    fail()
    {
        failed_ = true;
    }

  private:
    bool
    need(std::size_t n)
    {
        if (failed_ || size_ - pos_ < n) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * FNV-1a 64-bit hash, the content-hash primitive of the snapshot
 * format: cheap, streaming, and stable across platforms. Collisions
 * are the (accepted, documented) soundness bound of cache
 * revalidation - see docs/SERVING.md.
 */
class Fnv64
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    void
    byte(std::uint8_t b)
    {
        state_ = (state_ ^ b) * kPrime;
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    bytes(const char *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(static_cast<std::uint8_t>(data[i]));
    }

    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return state_; }

    static std::uint64_t
    of(std::string_view s)
    {
        Fnv64 h;
        h.bytes(s.data(), s.size());
        return h.value();
    }

  private:
    std::uint64_t state_ = kOffset;
};

} // namespace manta

#endif // MANTA_SUPPORT_BINIO_H
