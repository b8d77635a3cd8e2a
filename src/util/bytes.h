/**
 * @file
 * Bit-exact little-endian byte codec shared by every binary state
 * format in the library (engine checkpoints, the sweep journal,
 * control-stage state).
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
 * directions cannot drift apart. Records that other sinks read too
 * list their fields as v("name", field) calls, which the Archive takes.
 *
 * Persisted payloads travel in one envelope, a sealed record
 * (sealRecord/openRecord): a checkpoint file is one sealed record, a
 * sweep journal is a sequence of them.
 */

#ifndef H2P_UTIL_BYTES_H_
#define H2P_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/hash.h"

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
    size_t remaining() const { return end_ - pos_; }

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

    /**
     * A length-prefixed vector of doubles. On load the length must fit
     * in the bytes left, so a corrupt count cannot allocate unbounded.
     */
    void f64s(std::vector<double> &v)
    {
        uint64_t n = v.size();
        u64(n);
        if (r_ != nullptr) {
            expect(n <= r_->remaining() / sizeof(double),
                   "serialized state is truncated or corrupt (", n,
                   " doubles do not fit in ", r_->remaining(),
                   " bytes)");
            v.resize(static_cast<size_t>(n));
        }
        for (double &x : v)
            f64(x);
    }

    /** A size_t counter, serialized as u64. */
    void size(size_t &v)
    {
        uint64_t x = v;
        u64(x);
        v = static_cast<size_t>(x);
    }

    // Named fields of a visit(V &) list; the bytes are those of the
    // typed accessors above, the name is not stored.
    void operator()(const char *, double &v) { f64(v); }
    void operator()(const char *, bool &v) { boolean(v); }
    void operator()(const char *, size_t &v) { size(v); }
    void operator()(const char *, std::string &v) { str(v); }
    void operator()(const char *, std::vector<double> &v) { f64s(v); }

    /** An enum as its u32 value; the visit range-checks a loaded one. */
    template <typename E>
    std::enable_if_t<std::is_enum_v<E>> operator()(const char *, E &v)
    {
        uint32_t raw = static_cast<uint32_t>(v);
        u32(raw);
        v = static_cast<E>(raw);
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

/** The bytes @p value's visit writes: equal exactly when bitwise equal. */
template <typename T>
std::string
archiveBytes(const T &value)
{
    ByteWriter w;
    Archive ar(w);
    // Saving only reads; the visit is shared with load.
    const_cast<T &>(value).visit(ar);
    return w.data();
}

// ---------------------------------------------------------------------
// Sealed records:
//
//   magic (8 bytes) | version u32 | payload length u64 |
//   payload bytes | FNV-1a(payload) u64
//
// FNV-1a changes under any single changed payload byte, so one flipped
// bit anywhere in a record fails its magic, version, length or
// checksum check.

/** Bytes of a sealed record around its payload. */
constexpr size_t kSealedHeaderSize = 8 + 4 + 8;
constexpr size_t kSealedFooterSize = 8;

/** FNV-1a digest of @p n payload bytes (the record checksum). */
inline uint64_t
payloadChecksum(const char *data, size_t n)
{
    Fnv1a h;
    h.bytes(data, n);
    return h.digest();
}

/** Envelope @p payload as one sealed record. */
inline std::string
sealRecord(const char (&magic)[8], uint32_t version,
           const std::string &payload)
{
    ByteWriter w;
    w.raw(magic, sizeof(magic));
    w.u32(version);
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
    w.u64(payloadChecksum(payload.data(), payload.size()));
    return w.data();
}

/** Where one sealed record sits in a buffer, or why it is invalid. */
struct SealedRecord
{
    enum class Status
    {
        Ok,
        /** The record runs past the end of the buffer. */
        Truncated,
        BadMagic,
        BadVersion,
        BadChecksum,
    };

    Status status = Status::Truncated;
    /** The version found (set from BadVersion on). */
    uint32_t version = 0;
    /** Payload window [begin, end) (set from BadChecksum on). */
    size_t begin = 0;
    size_t end = 0;
    /** First byte after the record (set from BadChecksum on). */
    size_t next = 0;

    bool ok() const { return status == Status::Ok; }

    /** What is wrong, for an error message ("fails its checksum"). */
    std::string describe(uint32_t expected_version) const
    {
        switch (status) {
          case Status::Ok:
            return "is valid";
          case Status::Truncated:
            return "is truncated";
          case Status::BadMagic:
            return "has bad magic";
          case Status::BadVersion:
            return detail::concat("has version ", version,
                                  ", this build reads version ",
                                  expected_version);
          case Status::BadChecksum:
            return "fails its checksum";
        }
        return "is invalid";
    }
};

/**
 * Open the sealed record starting at byte @p at (<= buf.size()) of
 * @p buf: check the
 * magic, version, length and checksum, in that order. Never throws;
 * the caller decides which failures are fatal. A buffer that ends
 * inside a record whose magic prefix matches is Truncated.
 */
inline SealedRecord
openRecord(const std::string &buf, size_t at, const char (&magic)[8],
           uint32_t version)
{
    H2P_ASSERT(at <= buf.size(), "sealed record offset past the buffer");
    SealedRecord rec;
    const size_t avail = buf.size() - at;
    if (std::memcmp(buf.data() + at, magic,
                    avail < sizeof(magic) ? avail : sizeof(magic)) != 0) {
        rec.status = SealedRecord::Status::BadMagic;
        return rec;
    }
    if (avail < kSealedHeaderSize)
        return rec; // Truncated.
    ByteReader head(buf, at + sizeof(magic), at + kSealedHeaderSize);
    rec.version = head.u32();
    if (rec.version != version) {
        rec.status = SealedRecord::Status::BadVersion;
        return rec;
    }
    const uint64_t len = head.u64();
    if (len > avail - kSealedHeaderSize ||
        avail - kSealedHeaderSize - len < kSealedFooterSize)
        return rec; // Truncated.
    rec.begin = at + kSealedHeaderSize;
    rec.end = rec.begin + static_cast<size_t>(len);
    rec.next = rec.end + kSealedFooterSize;
    ByteReader foot(buf, rec.end, rec.next);
    rec.status = foot.u64() == payloadChecksum(buf.data() + rec.begin,
                                               rec.end - rec.begin)
                     ? SealedRecord::Status::Ok
                     : SealedRecord::Status::BadChecksum;
    return rec;
}

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_BYTES_H_
