/**
 * @file
 * Test helper: deterministic mutations of a valid serialized artifact
 * (checkpoint, journal, config, wire frame). A parser under test must
 * either reject each mutant with a typed error or return only what
 * was written — never a changed value, a crash or a hang. Also
 * one-field changes of a parameter struct, driven by its visit().
 *
 * The enumerations are exhaustive, not sampled, so a failure names
 * the exact mutant and reproduces on every run.
 */

#ifndef H2P_TESTS_SUPPORT_MUTATE_H_
#define H2P_TESTS_SUPPORT_MUTATE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace h2p {
namespace test {

/**
 * Call @p check(mutant, what) once per single-bit flip of @p bytes;
 * `what` names the flipped bit ("bit 3 of byte 17").
 */
template <typename Check>
void
forEachBitFlip(const std::string &bytes, Check &&check)
{
    std::string mutant = bytes;
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[i] = static_cast<char>(bytes[i] ^ (1 << bit));
            check(mutant, "bit " + std::to_string(bit) + " of byte " +
                              std::to_string(i));
        }
        mutant[i] = bytes[i];
    }
}

/**
 * Call @p check(prefix, what) once per proper prefix of @p bytes —
 * a truncation at every byte offset, the empty file included.
 */
template <typename Check>
void
forEachTruncation(const std::string &bytes, Check &&check)
{
    for (size_t n = 0; n < bytes.size(); ++n)
        check(bytes.substr(0, n),
              "truncation to " + std::to_string(n) + " bytes");
}

/**
 * Call @p check(mutant, key) once per field @p params names in its
 * `visit(v)`: `mutant` is @p params with only that field changed (a
 * bool flipped, a number raised by one, a string extended, a vector
 * grown, an enum's lowest bit flipped).
 */
template <typename Params, typename Check>
void
forEachFieldChange(const Params &params, Check &&check)
{
    std::vector<std::string> keys;
    auto collect = [&keys](const char *k, auto &) { keys.push_back(k); };
    Params names = params;
    names.visit(collect);
    for (size_t i = 0; i < keys.size(); ++i) {
        Params mutant = params;
        size_t n = 0;
        auto change = [&n, i](const char *, auto &x) {
            if (n++ != i)
                return;
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, bool>)
                x = !x;
            else if constexpr (std::is_same_v<T, std::string>)
                x += "~";
            else if constexpr (std::is_same_v<T, std::vector<double>>)
                x.push_back(1.0);
            else if constexpr (std::is_enum_v<T>)
                x = static_cast<T>(static_cast<uint32_t>(x) ^ 1u);
            else
                x += 1;
        };
        mutant.visit(change);
        check(mutant, keys[i]);
    }
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_MUTATE_H_
