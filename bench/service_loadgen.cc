/**
 * @file
 * Load generator for the digital-twin service plane: drives many
 * concurrent pipelined connections against an in-process daemon (the
 * epoll thread pool, service::Server) and reports aggregate requests/sec
 * plus p50/p99 latency per request mix.
 *
 *   ./bench/service_loadgen                    # default sweep
 *   ./bench/service_loadgen --connections 64 --pipeline 8 \
 *       --requests 400 --mixes ping,query,mixed
 *
 * Mixes: `ping` (pure transport), `query` (per-connection twin
 * session, `query <id> state` — broker work per request), `step`
 * (`step <id> 1`; the drastic trace is 144 steps, later steps are
 * boundary no-ops), `mixed` (ping/step/query blend). Results go to
 * bench_results/BENCH_service.json; client-side connect retries
 * (listener backlog refusals) are reported per row, not swallowed.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_broker.h"
#include "util/args.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/socket.h"
#include "util/strings.h"

namespace {

using namespace h2p;
using Clock = std::chrono::steady_clock;

/** The twin every session-backed mix runs (tiny on purpose: the
 * bench measures the transport and broker, not the simulator). */
const char *const kIni =
    "[datacenter]\n"
    "num_servers = 8\n"
    "servers_per_circulation = 4\n"
    "[trace]\n"
    "profile = drastic\n"
    "seed = 21\n"
    "servers = 8\n";

struct MixPlan
{
    std::string name;
    bool needs_session = false;
};

MixPlan
mixPlan(const std::string &name)
{
    if (name == "ping")
        return {name, false};
    if (name == "query" || name == "step" || name == "mixed")
        return {name, true};
    fatal("unknown mix `", name,
          "' (expected ping, query, step or mixed)");
}

std::string
requestFor(const MixPlan &mix, const std::string &session_id,
           size_t i)
{
    if (mix.name == "ping")
        return "ping\n";
    if (mix.name == "query")
        return "query " + session_id + " state\n";
    if (mix.name == "step")
        return "step " + session_id + " 1\n";
    // mixed: 25% ping, 25% step, 50% query.
    switch (i % 4) {
    case 0:
        return "ping\n";
    case 1:
        return "step " + session_id + " 1\n";
    default:
        return "query " + session_id + " state\n";
    }
}

/**
 * Start-line barrier: the timed window excludes per-connection setup
 * (connect, open, warmup). The last client through stamps t0.
 */
class StartGate
{
  public:
    explicit StartGate(size_t total) : total_(total) {}

    void arrive()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (++ready_ == total_) {
            t0_ = Clock::now();
            cv_.notify_all();
        } else {
            cv_.wait(lock, [this] { return ready_ >= total_; });
        }
    }

    Clock::time_point start() const { return t0_; }

  private:
    const size_t total_;
    std::mutex mutex_;
    std::condition_variable cv_;
    size_t ready_ = 0;
    Clock::time_point t0_;
};

struct ClientResult
{
    std::vector<double> latencies_us;
    Clock::time_point finished;
    size_t errors = 0;
    size_t connect_retries = 0;
    bool failed = false;
    std::string failure;
};

struct LoadgenConfig
{
    size_t connections = 64;
    size_t pipeline = 8;
    size_t requests = 400;
    size_t warmup = 16;
};

util::Fd
connectWithRetry(const std::string &socket_path, size_t &retries)
{
    // A full listener backlog surfaces as a refused connect; count
    // and retry instead of failing (or succeeding) silently.
    for (int attempt = 0;; ++attempt) {
        try {
            return util::unixConnect(socket_path);
        } catch (const Error &) {
            if (attempt >= 200)
                throw;
            ++retries;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
}

void
runClient(const std::string &socket_path, const MixPlan &mix,
          const LoadgenConfig &cfg, StartGate &gate,
          ClientResult &out)
{
    bool arrived = false;
    try {
        util::Fd fd =
            connectWithRetry(socket_path, out.connect_retries);
        std::string session_id;
        std::string payload;
        if (mix.needs_session) {
            service::Request open;
            open.verb = "open";
            open.args = {"original"};
            open.body = kIni;
            service::writeFrame(fd, open.serialize());
            expect(service::readFrame(fd, payload),
                   "server closed during open");
            service::Response r = service::Response::parse(payload);
            expect(r.ok, "open failed: ", r.message);
            session_id = r.args[0];
            // Prime one step so `query <id> state` has a state to
            // serialize from the very first timed request.
            service::writeFrame(fd, "step " + session_id + " 1\n");
            expect(service::readFrame(fd, payload),
                   "server closed during prime step");
            r = service::Response::parse(payload);
            expect(r.ok, "prime step failed: ", r.message);
        }
        // Warmup (untimed, window 1).
        for (size_t i = 0; i < cfg.warmup; ++i) {
            service::writeFrame(fd,
                                requestFor(mix, session_id, i));
            expect(service::readFrame(fd, payload),
                   "server closed during warmup");
        }

        gate.arrive();
        arrived = true;

        out.latencies_us.reserve(cfg.requests);
        std::deque<Clock::time_point> in_flight;
        size_t sent = 0, received = 0;
        while (received < cfg.requests) {
            while (sent < cfg.requests &&
                   in_flight.size() < cfg.pipeline) {
                in_flight.push_back(Clock::now());
                service::writeFrame(
                    fd, requestFor(mix, session_id, sent));
                ++sent;
            }
            expect(service::readFrame(fd, payload),
                   "server closed mid-run");
            out.latencies_us.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - in_flight.front())
                    .count());
            in_flight.pop_front();
            if (!service::Response::parse(payload).ok)
                ++out.errors;
            ++received;
        }
        out.finished = Clock::now();
        if (mix.needs_session) {
            service::Request close;
            close.verb = "close";
            close.args = {session_id};
            service::writeFrame(fd, close.serialize());
            service::readFrame(fd, payload);
        }
    } catch (const Error &e) {
        out.failed = true;
        out.failure = e.what();
        out.finished = Clock::now();
        if (!arrived)
            gate.arrive(); // never leave the others parked
    }
}

struct Row
{
    std::string mix;
    size_t connections = 0;
    size_t pipeline = 0;
    size_t requests = 0;
    double elapsed_s = 0.0;
    double rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    size_t errors = 0;
    size_t connect_retries = 0;
};

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** Drive one mix against a live server. */
Row
runLoad(const std::string &socket_path, const MixPlan &mix,
        const LoadgenConfig &cfg)
{
    StartGate gate(cfg.connections);
    std::vector<ClientResult> results(cfg.connections);
    std::vector<std::thread> clients;
    clients.reserve(cfg.connections);
    for (size_t c = 0; c < cfg.connections; ++c) {
        clients.emplace_back([&, c] {
            runClient(socket_path, mix, cfg, gate, results[c]);
        });
    }
    for (std::thread &t : clients)
        t.join();

    Row row;
    row.mix = mix.name;
    row.connections = cfg.connections;
    row.pipeline = cfg.pipeline;
    row.requests = cfg.requests * cfg.connections;
    std::vector<double> all;
    Clock::time_point last_finish = gate.start();
    for (const ClientResult &r : results) {
        if (r.failed)
            fatal("loadgen client failed (", mix.name,
                  "): ", r.failure);
        all.insert(all.end(), r.latencies_us.begin(),
                   r.latencies_us.end());
        last_finish = std::max(last_finish, r.finished);
        row.errors += r.errors;
        row.connect_retries += r.connect_retries;
    }
    row.elapsed_s = std::chrono::duration<double>(last_finish -
                                                  gate.start())
                        .count();
    row.rps = row.elapsed_s > 0.0
                  ? static_cast<double>(row.requests) / row.elapsed_s
                  : 0.0;
    std::sort(all.begin(), all.end());
    row.p50_us = percentile(all, 0.50);
    row.p99_us = percentile(all, 0.99);
    return row;
}

void
printRow(const Row &row)
{
    std::cout << "  " << row.mix << ": "
              << strings::fixed(row.rps, 0) << " req/s  p50 "
              << strings::fixed(row.p50_us, 1) << " us  p99 "
              << strings::fixed(row.p99_us, 1) << " us  ("
              << row.requests << " requests, "
              << strings::fixed(row.elapsed_s, 2) << " s, "
              << row.errors << " errors, " << row.connect_retries
              << " connect retries)\n";
}

void
writeReport(const std::string &path, const LoadgenConfig &cfg,
            size_t workers, const std::vector<Row> &rows)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"service_loadgen\",\n";
    os << bench::hostJson();
    os << "  \"config\": {\"connections\": " << cfg.connections
       << ", \"pipeline\": " << cfg.pipeline
       << ", \"requests_per_connection\": " << cfg.requests
       << ", \"warmup_per_connection\": " << cfg.warmup
       << ", \"workers\": " << workers << "},\n";
    os << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        os << "    {\"mix\": \"" << r.mix
           << "\", \"connections\": " << r.connections
           << ", \"pipeline\": " << r.pipeline
           << ", \"requests\": " << r.requests
           << ", \"elapsed_s\": " << strings::fixed(r.elapsed_s, 4)
           << ", \"rps\": " << strings::fixed(r.rps, 1)
           << ", \"p50_us\": " << strings::fixed(r.p50_us, 1)
           << ", \"p99_us\": " << strings::fixed(r.p99_us, 1)
           << ", \"errors\": " << r.errors
           << ", \"connect_retries\": " << r.connect_retries << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";

    std::ofstream out(path, std::ios::binary);
    expect(out.good(), "cannot write `", path, "'");
    out << os.str();
    std::cout << "[json] " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace h2p;

    ArgParser args("service_loadgen",
                   "service-plane latency/throughput load generator");
    args.addLong("connections", 64, "concurrent client connections");
    args.addLong("pipeline", 8, "requests in flight per connection");
    args.addLong("requests", 400, "timed requests per connection");
    args.addLong("warmup", 16, "untimed warmup requests per client");
    args.addLong("workers", 4,
                 "server threads; each accepts, reads, executes and "
                 "writes");
    args.addString("mixes", "ping,query,mixed",
                   "comma-separated request mixes "
                   "(ping|query|step|mixed)");
    args.addString("socket-dir", "/tmp",
                   "directory for the bench's transient sockets");
    args.addString("out", "",
                   "report path (default "
                   "bench_results/BENCH_service.json)");
    try {
        if (!args.parse(argc, argv))
            return 0;

        LoadgenConfig cfg;
        cfg.connections =
            static_cast<size_t>(args.getLong("connections"));
        cfg.pipeline = static_cast<size_t>(args.getLong("pipeline"));
        cfg.requests = static_cast<size_t>(args.getLong("requests"));
        cfg.warmup = static_cast<size_t>(args.getLong("warmup"));
        expect(cfg.connections >= 1 && cfg.pipeline >= 1 &&
                   cfg.requests >= 1,
               "--connections, --pipeline and --requests must be "
               ">= 1");
        const size_t workers =
            static_cast<size_t>(args.getLong("workers"));

        std::vector<MixPlan> mixes;
        for (const std::string &m :
             strings::split(args.getString("mixes"), ','))
            if (!strings::trim(m).empty())
                mixes.push_back(mixPlan(strings::trim(m)));
        expect(!mixes.empty(), "--mixes selected nothing");

        std::string out_path = args.getString("out");
        if (out_path.empty())
            out_path =
                bench::resultsDir() + "/BENCH_service.json";

        const std::string socket_base =
            args.getString("socket-dir") + "/h2p_loadgen_" +
            std::to_string(static_cast<long>(::getpid()));

        std::cout << "service_loadgen: " << cfg.connections
                  << " connections x depth " << cfg.pipeline << ", "
                  << cfg.requests << " requests each ("
                  << util::hardwareThreads()
                  << " usable threads)\n";

        std::vector<Row> rows;
        for (const MixPlan &mix : mixes) {
            // Fresh broker+server per mix: no warm sessions leak
            // across mixes, and every connection can open one.
            service::BrokerOptions broker_options;
            broker_options.max_sessions = cfg.connections + 4;
            service::SessionBroker broker(broker_options);
            service::ServerOptions transport;
            transport.workers = workers;
            service::Server server(
                socket_base + "_" + std::to_string(rows.size()) +
                    ".sock",
                &broker, transport);
            rows.push_back(runLoad(server.socketPath(), mix, cfg));
            printRow(rows.back());
            server.requestStop();
            server.stop();
        }

        writeReport(out_path, cfg, workers, rows);
        return 0;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
