/**
 * @file
 * The one writer of numbers that other programs read back.
 *
 * The service's reply bodies and the JSONL and CSV exports all write
 * their numbers through these functions. A double comes out as
 * printf("%.17g") prints it in the "C" locale — the bytes an iostream
 * at precision 17 writes under the classic locale — so it parses back
 * bit-equal. std::to_chars writes it with no stream, no allocation and
 * no locale: a program that installs a global locale with a comma
 * decimal point or digit grouping still gets valid JSON and CSV.
 */

#ifndef H2P_UTIL_NUMBER_FORMAT_H_
#define H2P_UTIL_NUMBER_FORMAT_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace h2p {
namespace util {

/** Room writeDouble needs: "-1.2345678901234567e-308" is 24 chars. */
inline constexpr size_t kDoubleChars = 32;

/**
 * Write @p x as printf("%.17g") does ("inf", "-nan" and all) into the
 * kDoubleChars bytes at @p first; returns one past the last byte.
 */
inline char *
writeDouble(char *first, double x)
{
    return std::to_chars(first, first + kDoubleChars, x,
                         std::chars_format::general, 17)
        .ptr;
}

/**
 * A string built with `<<` like an ostringstream, minus the stream:
 * text goes in as it is, integers in plain decimal and doubles as
 * writeDouble writes them. No stream state or locale reaches it.
 */
class TextBuffer
{
  public:
    TextBuffer &operator<<(std::string_view text)
    {
        text_ += text;
        return *this;
    }
    TextBuffer &operator<<(char c)
    {
        text_ += c;
        return *this;
    }
    TextBuffer &operator<<(double x)
    {
        char buf[kDoubleChars];
        text_.append(buf, writeDouble(buf, x));
        return *this;
    }
    template <std::integral Int>
        requires(!std::is_same_v<Int, bool>)
    TextBuffer &operator<<(Int v)
    {
        char buf[24]; // the 20 digits of UINT64_MAX, or a sign and 19
        text_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

    /** The text written so far. */
    std::string &str() { return text_; }

    /** Write the text to @p os and empty the buffer. */
    void flushTo(std::ostream &os)
    {
        os.write(text_.data(), static_cast<std::streamsize>(text_.size()));
        text_.clear();
    }

  private:
    std::string text_;
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_NUMBER_FORMAT_H_
