/**
 * @file
 * Byte-level serialization primitives for deterministic state
 * snapshots.
 *
 * Every multi-byte value is written little-endian regardless of host
 * order, so a snapshot taken on one machine restores bit-identically
 * on another. SnapshotWriter appends to a growable buffer;
 * SnapshotReader consumes it sequentially with sticky failure on
 * overrun or on a value a decoder refuses (fail()) — callers check
 * ok() once at the end instead of after every field.
 */

#ifndef TSP_COMMON_SNAPSHOT_IO_HH
#define TSP_COMMON_SNAPSHOT_IO_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tsp {

/** FNV-1a offset basis (64-bit). */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * @return the 64-bit FNV-1a hash of @p n bytes at @p data, chained
 * from @p h so multi-buffer content can be folded into one digest.
 */
std::uint64_t fnv1a64(const void *data, std::size_t n,
                      std::uint64_t h = kFnv1aBasis);

/** Append-only little-endian serializer. */
class SnapshotWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    /** Doubles travel as their IEEE-754 bit pattern. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** Raw byte block (single-byte element arrays only). */
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** @p n zero bytes. */
    void zeros(std::size_t n) { buf_.resize(buf_.size() + n, 0); }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Sequential little-endian deserializer with sticky failure. */
class SnapshotReader
{
  public:
    SnapshotReader(const std::uint8_t *data, std::size_t n)
        : data_(data), size_(n)
    {
    }

    explicit SnapshotReader(const std::vector<std::uint8_t> &buf)
        : SnapshotReader(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[off_++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        const std::uint16_t hi = u8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        const std::uint32_t hi = u16();
        return lo | (hi << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        const std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float
    f32()
    {
        const std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool b() { return u8() != 0; }

    void
    bytes(void *out, std::size_t n)
    {
        if (!need(n)) {
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, data_ + off_, n);
        off_ += n;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + off_),
                      static_cast<std::size_t>(n));
        off_ += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Marks the read failed, as sticky as an overrun: how a decoder
     * refuses a value no saved state contains, so the caller's single
     * ok() check covers malformed payloads as well as short ones.
     */
    void fail() { failed_ = true; }

    /** @return true when no read overran the buffer or failed. */
    bool ok() const { return !failed_; }

    /** @return true when the buffer was consumed exactly. */
    bool atEnd() const { return ok() && off_ == size_; }

    std::size_t offset() const { return off_; }

  private:
    bool
    need(std::uint64_t n)
    {
        if (failed_ || n > size_ - off_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t off_ = 0;
    bool failed_ = false;
};

} // namespace tsp

#endif // TSP_COMMON_SNAPSHOT_IO_HH
