#include "service/protocol.h"

#include <cstdint>
#include <utility>

#include "util/error.h"

namespace h2p {
namespace service {

namespace {

/// Split a header line into space-separated tokens. Consecutive
/// separators are a malformed header (empty tokens never serialize).
std::vector<std::string>
splitTokens(const std::string &line)
{
    expect(line.empty() || line.back() != ' ',
           "protocol: header line `", line, "' ends in a separator");
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos < line.size()) {
        size_t sp = line.find(' ', pos);
        if (sp == std::string::npos)
            sp = line.size();
        expect(sp > pos, "protocol: empty token in header line `", line,
               "'");
        tokens.push_back(line.substr(pos, sp - pos));
        pos = sp + 1;
    }
    return tokens;
}

void
checkToken(const std::string &token)
{
    expect(!token.empty(), "protocol: empty token");
    expect(token.find(' ') == std::string::npos &&
               token.find('\n') == std::string::npos,
           "protocol: token `", token, "' contains a separator");
}

/// Header line = payload up to the first LF (or the whole payload);
/// body = everything after it.
void
splitHeader(const std::string &payload, std::string &header,
            std::string &body)
{
    size_t lf = payload.find('\n');
    if (lf == std::string::npos) {
        header = payload;
        body.clear();
    } else {
        header = payload.substr(0, lf);
        body = payload.substr(lf + 1);
    }
}

/** Throws unless a @p len-byte payload fits in one frame. */
void
checkFrameSize(size_t len)
{
    expect(len <= kMaxFrameBytes, "protocol: frame of ", len,
           " bytes exceeds the ", kMaxFrameBytes, "-byte cap");
}

/** The payload length a 4-byte little-endian prefix announces. */
size_t
decodePrefix(const char *prefix)
{
    const unsigned char *p = reinterpret_cast<const unsigned char *>(prefix);
    const size_t len = static_cast<uint32_t>(p[0]) |
                       static_cast<uint32_t>(p[1]) << 8 |
                       static_cast<uint32_t>(p[2]) << 16 |
                       static_cast<uint32_t>(p[3]) << 24;
    checkFrameSize(len);
    return len;
}

} // namespace

bool
readFrame(const util::Fd &fd, std::string &payload)
{
    char prefix[4];
    if (!util::readExact(fd, prefix, sizeof(prefix)))
        return false;
    const size_t len = decodePrefix(prefix);
    payload.resize(len);
    if (len > 0)
        expect(util::readExact(fd, &payload[0], len),
               "protocol: connection closed mid-frame (", len,
               " bytes expected)");
    return true;
}

void
writeFrame(const util::Fd &fd, const std::string &payload)
{
    const std::string frame = encodeFrame(payload);
    util::writeAll(fd, frame.data(), frame.size());
}

std::string
encodeFrame(const std::string &payload)
{
    std::string frame;
    appendFrame(frame, payload);
    return frame;
}

void
appendFrame(std::string &out, const std::string &payload)
{
    checkFrameSize(payload.size());
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const char prefix[4] = {static_cast<char>(len & 0xff),
                            static_cast<char>((len >> 8) & 0xff),
                            static_cast<char>((len >> 16) & 0xff),
                            static_cast<char>((len >> 24) & 0xff)};
    out.reserve(out.size() + sizeof(prefix) + payload.size());
    out.append(prefix, sizeof(prefix));
    out += payload;
}

void
FrameDecoder::feed(const char *data, size_t n)
{
    // Compact lazily: only once the consumed prefix dominates, so a
    // steady stream of small frames does not memmove per frame.
    if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(data, n);
}

bool
FrameDecoder::next(std::string &payload)
{
    const size_t avail = buffer_.size() - consumed_;
    if (avail < 4)
        return false;
    const size_t len = decodePrefix(buffer_.data() + consumed_);
    if (avail < 4 + len)
        return false;
    payload.assign(buffer_, consumed_ + 4, len);
    consumed_ += 4 + len;
    if (consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    }
    return true;
}

Request
Request::parse(const std::string &payload)
{
    std::string header;
    Request req;
    splitHeader(payload, header, req.body);
    std::vector<std::string> tokens = splitTokens(header);
    expect(!tokens.empty(), "protocol: request has no verb");
    req.verb = std::move(tokens.front());
    req.args.assign(std::make_move_iterator(tokens.begin() + 1),
                    std::make_move_iterator(tokens.end()));
    return req;
}

std::string
Request::serialize() const
{
    checkToken(verb);
    std::string payload = verb;
    for (const std::string &arg : args) {
        checkToken(arg);
        payload += ' ';
        payload += arg;
    }
    payload += '\n';
    payload += body;
    return payload;
}

Response
Response::parse(const std::string &payload)
{
    std::string header;
    Response resp;
    std::string body;
    splitHeader(payload, header, body);
    expect(!header.empty(), "protocol: response has no status");
    if (header == "ok" || header.compare(0, 3, "ok ") == 0) {
        resp.ok = true;
        std::vector<std::string> tokens = splitTokens(header);
        resp.args.assign(std::make_move_iterator(tokens.begin() + 1),
                         std::make_move_iterator(tokens.end()));
        resp.body = std::move(body);
        return resp;
    }
    expect(header.compare(0, 6, "error ") == 0,
           "protocol: response status is neither ok nor error: `",
           header, "'");
    resp.ok = false;
    resp.message = header.substr(6);
    return resp;
}

std::string
Response::serialize() const
{
    if (!ok) {
        expect(message.find('\n') == std::string::npos,
               "protocol: error message contains a newline");
        return "error " + (message.empty() ? "unknown" : message) + "\n";
    }
    std::string payload = "ok";
    for (const std::string &arg : args) {
        checkToken(arg);
        payload += ' ';
        payload += arg;
    }
    payload += '\n';
    payload += body;
    return payload;
}

Response
Response::okay(std::vector<std::string> args, std::string body)
{
    Response r;
    r.ok = true;
    r.args = std::move(args);
    r.body = std::move(body);
    return r;
}

Response
Response::error(std::string message)
{
    Response r;
    r.ok = false;
    // Errors travel on one header line; fold any embedded newlines
    // (h2p::Error texts can carry context lines).
    for (char &c : message)
        if (c == '\n')
            c = ' ';
    r.message = std::move(message);
    return r;
}

} // namespace service
} // namespace h2p
