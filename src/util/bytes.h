/**
 * @file
 * Bit-exact little-endian byte codec shared by every binary state
 * format in the library (engine checkpoints, control-stage state).
 *
 * Doubles travel as their IEEE-754 bit patterns, never through text,
 * so a value serialized and restored is the identical double — the
 * foundation of the byte-identical checkpoint/resume guarantee. The
 * reader validates every access against its window and reports
 * truncation loudly instead of reading garbage.
 *
 * Stateful components describe their state once, as a
 * visit(Archive &) that lists the fields in order; the same function
 * saves (over a ByteWriter) and loads (over a ByteReader), so the two
 * directions cannot drift apart.
 */

#ifndef H2P_UTIL_BYTES_H_
#define H2P_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/error.h"

namespace h2p {
namespace util {

/** Append-only little-endian serializer into a byte string. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Append @p n bytes verbatim (no length prefix). */
    void raw(const char *data, size_t n) { buf_.append(data, n); }

    const std::string &data() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over a [begin, end) window of a byte string.
 * The window (not the whole string) defines exhaustion, so nested
 * payloads can be read without copying.
 */
class ByteReader
{
  public:
    ByteReader(const std::string &buf, size_t begin, size_t end)
        : buf_(buf), pos_(begin), end_(end)
    {
    }

    uint8_t u8()
    {
        need(1);
        return static_cast<uint8_t>(buf_[pos_++]);
    }

    uint32_t u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(u8()) << (8 * i);
        return v;
    }

    uint64_t u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(u8()) << (8 * i);
        return v;
    }

    double f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    std::string str()
    {
        uint64_t n = u64();
        need(n);
        std::string s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    bool exhausted() const { return pos_ == end_; }

  private:
    void need(size_t n)
    {
        expect(n <= end_ - pos_,
               "serialized state is truncated or corrupt (needed ", n,
               " more bytes at offset ", pos_, ")");
    }

    const std::string &buf_;
    size_t pos_;
    size_t end_;
};

/**
 * One field list for both directions: wraps a ByteWriter (save) or a
 * ByteReader (load). Each accessor writes the referenced value when
 * saving and overwrites it with the next serialized value when
 * loading. Load-only validation and fix-ups go under loading().
 */
class Archive
{
  public:
    explicit Archive(ByteWriter &w) : w_(&w) {}
    explicit Archive(ByteReader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    void u8(uint8_t &v) { if (r_) v = r_->u8(); else w_->u8(v); }
    void u32(uint32_t &v) { if (r_) v = r_->u32(); else w_->u32(v); }
    void u64(uint64_t &v) { if (r_) v = r_->u64(); else w_->u64(v); }
    void f64(double &v) { if (r_) v = r_->f64(); else w_->f64(v); }
    void boolean(bool &v) { if (r_) v = r_->boolean(); else w_->boolean(v); }
    void str(std::string &v) { if (r_) v = r_->str(); else w_->str(v); }

    /** A size_t counter, serialized as u64. */
    void size(size_t &v)
    {
        uint64_t x = v;
        u64(x);
        v = static_cast<size_t>(x);
    }

    /**
     * A count the loader already knows (a container's fixed length):
     * written on save; on load read back and compared, throwing Error
     * "<what> mismatch" when it differs.
     */
    void count(uint64_t expected, const char *what)
    {
        uint64_t n = expected;
        u64(n);
        expect(n == expected, what, " mismatch");
    }

  private:
    ByteWriter *w_ = nullptr;
    ByteReader *r_ = nullptr;
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_BYTES_H_
