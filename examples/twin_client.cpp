/**
 * @file
 * Console client of the digital-twin service daemon.
 *
 * One invocation sends one verb (plus an optional body file) and
 * prints the response(s) — args on the first line, body verbatim
 * after it — so shell scripts and CI smoke tests can drive a daemon
 * without speaking the binary framing themselves:
 *
 *   ./examples/twin_client --socket /tmp/h2p.sock \
 *       --verb open --args original --body config.ini
 *   ./examples/twin_client --socket /tmp/h2p.sock \
 *       --verb step --args "s1 100"
 *   ./examples/twin_client --socket /tmp/h2p.sock \
 *       --verb query --args "s1 jsonl" --out run.jsonl
 *
 * Balancer sessions (balance policy + [balancer] enabled = 1) expose
 * the autonomous balancer's central view and operator drain control:
 *
 *   ./examples/twin_client --verb balancer --args s1
 *       # -> ok converged|balancing <active-drains>, body: per-
 *       #    circulation JSON rows (mode, avg/dev util, headroom, TEG)
 *   ./examples/twin_client --verb drain --args "s1 3"
 *       # latch a drain of circulation 3; "s1 3 off" releases it
 *
 * Streamed responses (sweep) are printed one per line as they
 * arrive; --out captures only the final response's body. Exits 0 on
 * an ok response, 2 on an error response, 1 on transport failure.
 *
 * --repeat N sends the same request N times; --pipeline D keeps up
 * to D requests in flight on the one connection (the server
 * answers them in order), printing a single throughput summary line
 * instead of per-response output:
 *
 *   ./examples/twin_client --verb ping --repeat 1000 --pipeline 8
 *       # -> ok repeated 1000 ... req/s
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "service/protocol.h"
#include "util/args.h"
#include "util/error.h"
#include "util/socket.h"

namespace {

std::vector<std::string>
splitWords(const std::string &text)
{
    std::vector<std::string> words;
    std::istringstream is(text);
    std::string word;
    while (is >> word)
        words.push_back(word);
    return words;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace h2p;

    ArgParser args("twin_client", "digital-twin service client");
    args.addString("socket", "/tmp/h2p_serviced.sock",
                   "daemon socket path");
    args.addString("verb", "ping", "request verb");
    args.addString("args", "", "space-separated request arguments");
    args.addString("body", "", "file whose contents become the body");
    args.addString("out", "",
                   "write the final response body here instead of "
                   "stdout");
    args.addLong("repeat", 1, "send the request this many times");
    args.addLong("pipeline", 1,
                 "requests kept in flight when repeating");
    try {
        if (!args.parse(argc, argv))
            return 0;

        service::Request request;
        request.verb = args.getString("verb");
        request.args = splitWords(args.getString("args"));
        const std::string body_path = args.getString("body");
        if (!body_path.empty()) {
            std::ifstream is(body_path);
            expect(is.good(), "cannot read body file `", body_path,
                   "'");
            std::ostringstream buf;
            buf << is.rdbuf();
            request.body = buf.str();
        }

        util::Fd fd = util::unixConnect(args.getString("socket"));

        const long repeat = args.getLong("repeat");
        const long depth = args.getLong("pipeline");
        expect(repeat >= 1 && depth >= 1,
               "--repeat and --pipeline must be >= 1");
        if (repeat > 1) {
            expect(request.verb != "sweep",
                   "--repeat does not support the streaming sweep "
                   "verb");
            const std::string wire = request.serialize();
            long sent = 0, received = 0, errors = 0;
            std::string payload;
            service::Response last;
            const auto start = std::chrono::steady_clock::now();
            while (received < repeat) {
                while (sent < repeat && sent - received < depth) {
                    service::writeFrame(fd, wire);
                    ++sent;
                }
                expect(service::readFrame(fd, payload),
                       "daemon closed the connection mid-repeat");
                last = service::Response::parse(payload);
                if (!last.ok)
                    ++errors;
                ++received;
            }
            const double elapsed_s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            std::cout << "ok repeated " << repeat << " pipeline "
                      << depth << " errors " << errors << " "
                      << (elapsed_s > 0.0
                              ? static_cast<double>(repeat) /
                                    elapsed_s
                              : 0.0)
                      << " req/s\n";
            const std::string out_path = args.getString("out");
            if (!out_path.empty()) {
                std::ofstream os(out_path, std::ios::binary);
                expect(os.good(), "cannot write `", out_path, "'");
                os << last.body;
            }
            return errors > 0 ? 2 : 0;
        }

        service::writeFrame(fd, request.serialize());

        // Most verbs answer with exactly one frame; sweep streams
        // until its final "done" response. Read until the terminal
        // response of the verb we sent.
        const bool streaming = request.verb == "sweep";
        std::string payload;
        service::Response last;
        for (;;) {
            expect(service::readFrame(fd, payload),
                   "daemon closed the connection mid-response");
            last = service::Response::parse(payload);
            if (!last.ok) {
                std::cerr << "error: " << last.message << "\n";
                return 2;
            }
            std::cout << "ok";
            for (const std::string &arg : last.args)
                std::cout << ' ' << arg;
            std::cout << "\n";
            const bool terminal =
                !streaming ||
                (!last.args.empty() && last.args[0] == "done");
            if (terminal)
                break;
            // Streamed intermediate bodies go to stdout inline.
            if (!last.body.empty())
                std::cout << last.body;
        }

        const std::string out_path = args.getString("out");
        if (!out_path.empty()) {
            std::ofstream os(out_path, std::ios::binary);
            expect(os.good(), "cannot write `", out_path, "'");
            os << last.body;
        } else if (!last.body.empty()) {
            std::cout << last.body;
        }
        return 0;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
