/**
 * @file
 * Wire protocol of the digital-twin service daemon.
 *
 * Framing: every message is one frame — a 4-byte little-endian
 * payload length followed by that many payload bytes. Frames are
 * capped at kMaxFrameBytes (16 MiB); an oversized length prefix is a
 * protocol violation and the connection is dropped, never allocated
 * for.
 *
 * Payload grammar (text; header line + optional body):
 *
 *   request  = verb *( SP arg ) LF body
 *   response = "ok" *( SP arg ) LF body
 *            | "error" SP message LF
 *
 * Verbs and args are single tokens (no spaces); anything larger —
 * configuration INI text, JSONL dumps — travels in the body. The
 * error message is free text to the end of the header line.
 *
 * The same Request/Response types serve both sides of the socket and
 * the in-process tests that drive a SessionBroker without one.
 */

#ifndef H2P_SERVICE_PROTOCOL_H_
#define H2P_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/socket.h"

namespace h2p {
namespace service {

/** Hard cap on one frame's payload (length prefix included). */
constexpr size_t kMaxFrameBytes = 16u << 20;

/**
 * Read one length-prefixed frame into @p payload. Returns false on
 * clean EOF between frames (the peer hung up); throws h2p::Error on
 * truncation mid-frame or an oversized length prefix.
 */
bool readFrame(const util::Fd &fd, std::string &payload);

/** Write @p payload as one frame; throws on oversize or I/O error. */
void writeFrame(const util::Fd &fd, const std::string &payload);

/** Render @p payload as one wire frame (prefix + payload bytes). */
std::string encodeFrame(const std::string &payload);

/** Append @p payload to @p out as one wire frame; throws on oversize. */
void appendFrame(std::string &out, const std::string &payload);

/**
 * Stateful incremental frame decoder for non-blocking transports:
 * feed() appends whatever bytes the socket produced — frames may be
 * split at any byte boundary, header included — and next() extracts
 * complete frames as they materialize. An oversized length prefix
 * throws from next() the moment the four prefix bytes are in, before
 * any payload is buffered for it.
 */
class FrameDecoder
{
  public:
    /** Append @p n raw stream bytes. */
    void feed(const char *data, size_t n);

    /**
     * Extract the next complete frame into @p payload. Returns false
     * while the buffered bytes end mid-frame; throws h2p::Error on a
     * length prefix past kMaxFrameBytes.
     */
    bool next(std::string &payload);

    /** Bytes buffered but not yet returned (partial-frame residue). */
    size_t bufferedBytes() const { return buffer_.size() - consumed_; }

  private:
    std::string buffer_;
    /** Prefix of buffer_ already handed out via next(). */
    size_t consumed_ = 0;
};

/** One parsed client request. */
struct Request
{
    /** Command name ("open", "step", "query", ...). */
    std::string verb;
    /** Space-free positional arguments from the header line. */
    std::vector<std::string> args;
    /** Everything after the header line, verbatim. */
    std::string body;

    /** Parse a request payload; throws h2p::Error when malformed. */
    static Request parse(const std::string &payload);

    /** Serialize back to a frame payload. */
    std::string serialize() const;
};

/** One server response; either ok (args + body) or an error. */
struct Response
{
    bool ok = true;
    /** Result tokens of an ok response ("session" id, counts, ...). */
    std::vector<std::string> args;
    /** Bulk result of an ok response (JSON, JSONL, ...). */
    std::string body;
    /** Human-readable reason of an error response. */
    std::string message;

    /** Parse a response payload; throws h2p::Error when malformed. */
    static Response parse(const std::string &payload);

    /** Serialize back to a frame payload. */
    std::string serialize() const;

    static Response okay(std::vector<std::string> args = {},
                         std::string body = std::string());
    static Response error(std::string message);
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_PROTOCOL_H_
