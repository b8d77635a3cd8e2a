/**
 * @file
 * Incremental FNV-1a hashing.
 *
 * Checkpoints and configuration fingerprints need a stable,
 * platform-independent 64-bit digest of mixed scalar data. FNV-1a is
 * not cryptographic — it guards against accidental corruption and
 * honest mismatches, not adversaries — but it is fast, dependency-free
 * and byte-order-explicit (values are fed in little-endian order, so
 * digests agree across platforms).
 */

#ifndef H2P_UTIL_HASH_H_
#define H2P_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace h2p {
namespace util {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Feed one byte. */
    void byte(uint8_t b)
    {
        digest_ ^= b;
        digest_ *= kPrime;
    }

    /** Feed @p n raw bytes. */
    void bytes(const void *data, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i)
            byte(p[i]);
    }

    /** Feed an unsigned 64-bit value, little-endian. */
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** Feed a size as 64 bits. */
    void size(size_t v) { u64(static_cast<uint64_t>(v)); }

    /** Feed a double by exact bit pattern. */
    void f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Feed a boolean as one byte. */
    void boolean(bool v) { byte(v ? 1 : 0); }

    /** Feed a length-prefixed string. */
    void str(const std::string &s)
    {
        size(s.size());
        bytes(s.data(), s.size());
    }

    /** The digest over everything fed so far. */
    uint64_t digest() const { return digest_; }

  private:
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr uint64_t kPrime = 0x00000100000001b3ull;
    uint64_t digest_ = kOffsetBasis;
};

/**
 * Visitor of a parameter struct's `visit(v)`, which calls
 * `v(key, field)` once per field: feeds every field into one digest.
 * Config digests and cache fingerprints hash through it, so a field
 * added to a visit is covered by all of them at once.
 */
struct FieldHasher
{
    Fnv1a h;

    void operator()(const char *, double x) { h.f64(x); }
    void operator()(const char *, bool x) { h.boolean(x); }
    void operator()(const char *, size_t x) { h.size(x); }
    void operator()(const char *, const std::string &x) { h.str(x); }

    /** Feed every field @p params visits. */
    template <typename Params>
    void fields(const Params &params)
    {
        // Hashing only reads; the visit is shared with the INI reader.
        const_cast<Params &>(params).visit(*this);
    }
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_HASH_H_
