/**
 * @file
 * Test helper: field-by-field checks driven by a record's named field
 * list — a `visit(v)` of v("name", field) calls, as core::RunSummary,
 * RunFailure and core::SweepPointResult have — so a test holds no
 * field list of its own and a field added to the visit is checked at
 * once.
 */

#ifndef H2P_TESTS_SUPPORT_FIELDS_H_
#define H2P_TESTS_SUPPORT_FIELDS_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace h2p {
namespace test {

/** The names @p value's visit lists, in order. */
template <typename T>
std::vector<std::string>
fieldNames(const T &value)
{
    std::vector<std::string> names;
    auto collect = [&names](const char *name, auto &) {
        names.push_back(name);
    };
    T copy = value;
    copy.visit(collect);
    return names;
}

/**
 * The name of the first field, in visit order, whose util::Archive
 * bytes differ between @p a and @p b (so doubles compare bit for bit,
 * -0 against +0 included); empty when every field is identical.
 */
template <typename T>
std::string
firstDifferingField(const T &a, const T &b)
{
    using Fields = std::vector<std::pair<std::string, std::string>>;
    auto bytesOf = [](const T &value) {
        Fields fields;
        auto record = [&fields](const char *name, auto &field) {
            util::ByteWriter w;
            util::Archive ar(w);
            ar(name, field);
            fields.emplace_back(name, w.data());
        };
        T copy = value;
        copy.visit(record);
        return fields;
    };
    const Fields x = bytesOf(a);
    const Fields y = bytesOf(b);
    for (size_t i = 0; i < x.size() && i < y.size(); ++i)
        if (x[i] != y[i])
            return x[i].first;
    if (x.size() != y.size())
        return x.size() > y.size() ? x[y.size()].first
                                   : y[x.size()].first;
    return std::string();
}

/**
 * Give every field of @p value a distinct value that no default has:
 * numbers and vectors derive from the field's position, an enum
 * takes its second enumerator.
 */
template <typename T>
void
setDistinctValues(T &value)
{
    size_t k = 0;
    auto assign = [&k](const char *, auto &x) {
        using F = std::decay_t<decltype(x)>;
        const double d = 0.5 + static_cast<double>(k) + 1.0 / 3.0;
        if constexpr (std::is_same_v<F, bool>)
            x = true;
        else if constexpr (std::is_same_v<F, std::string>)
            x = "field" + std::to_string(k);
        else if constexpr (std::is_same_v<F, std::vector<double>>)
            x = {d, -d, 1.0 / 7.0};
        else if constexpr (std::is_enum_v<F>)
            x = static_cast<F>(1);
        else if constexpr (std::is_floating_point_v<F>)
            x = d;
        else
            x = static_cast<F>(100 + k);
        ++k;
    };
    value.visit(assign);
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_FIELDS_H_
