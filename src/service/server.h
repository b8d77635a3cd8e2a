/**
 * @file
 * The socket front of the digital-twin service: one pool of threads
 * waiting on one epoll instance, each connection served start to
 * finish by the thread that took its event.
 *
 * Threading: the listener and every connection are registered
 * one-shot (util::Poller::kOneShot) with one util::Poller, and all
 * `workers` threads wait on it. A readiness report goes to exactly
 * one thread, which then owns that connection — holding its mutex —
 * until it re-arms it: it reads, decodes with FrameDecoder, runs each
 * request through SessionBroker::handle, encodes the replies and
 * writes them, all on one thread. Per-connection order and "at most
 * one thread per connection" follow from the one-shot arming, so
 * **pipelining** — many requests in flight on one connection — keeps
 * serial request/response semantics while one read and one write
 * serve a whole burst. A long request holds only its own connection;
 * the other threads keep serving the rest. Single-frame replies are
 * written once per read; the frames of a streamed response (sweep
 * points) go out as the broker produces them.
 *
 * Flow control: a connection with unflushed replies is armed for
 * write only and not read until they drain, so a client that does
 * not read its replies stops being read. Past max_queue_bytes of
 * queued replies, checked as each reply is queued, the connection is
 * dropped (service.backpressure_disconnects). When accept runs out of
 * descriptors the listener stays disarmed and is retried on a timer
 * instead of spinning.
 *
 * Shutdown: requestStop() (idempotent; safe from any thread,
 * including a pool thread handling the shutdown verb and a daemon's
 * signal watcher) stops all accepting and reading. stop() then waits
 * — at most kDrainGrace (2 s, server.cc) — for the requests already
 * read to finish and queued replies to flush, so the shutdown verb's
 * own "ok" reaches its client, wakes the pool through an eventfd,
 * joins it and closes everything. In-flight simulation work stops at
 * the next step boundary through the broker's RunGuard wiring.
 */

#ifndef H2P_SERVICE_SERVER_H_
#define H2P_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/observability.h"
#include "service/protocol.h"
#include "service/session_broker.h"
#include "util/socket.h"

namespace h2p {
namespace service {

/** Tuning knobs of the transport. */
struct ServerOptions
{
    /** Pool threads: each accepts, reads, executes and writes. */
    size_t workers = 4;
    /** listen(2) backlog of the Unix-domain listener. */
    int backlog = 128;
    /**
     * Per-connection response-queue cap in bytes: a reader that
     * falls further behind than this is disconnected rather than
     * allowed to pin daemon memory.
     */
    size_t max_queue_bytes = 64u << 20;
    /**
     * Observability sink (null = none; borrowed): gauges
     * service.connections, counts service.rx_frames /
     * service.tx_frames / service.backpressure_disconnects, and
     * records the service.queue_depth distribution (bytes queued
     * on a connection each time its replies are written).
     */
    obs::Observability *obs = nullptr;
};

/** See the file comment. */
class Server
{
  public:
    /**
     * Bind @p socket_path and start serving. @p broker is borrowed
     * and must outlive the server.
     */
    Server(std::string socket_path, SessionBroker *broker,
           ServerOptions options = {});

    /** Stops and joins everything. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Stop accepting and reading. Safe from any thread — including a
     * pool thread handling the shutdown verb and a signal-watching
     * daemon loop. Does not join; the thread blocked in
     * waitForStop() (or the destructor) calls stop() for the
     * teardown proper.
     */
    void requestStop();

    /**
     * Stop accepting, drain, join the pool and remove the socket
     * file. Idempotent; must NOT be called from a pool thread (it
     * joins them) — that is what requestStop() is for.
     */
    void stop();

    /** Block until requestStop() (daemon main loop parks here). */
    void waitForStop();

    /** Path the server is listening on. */
    const std::string &socketPath() const { return socket_path_; }

  private:
    /**
     * One client connection; its Poller key is its address. All of
     * it belongs to the thread that holds `mutex`, which is the
     * thread that took the connection's last event.
     */
    struct Connection
    {
        std::mutex mutex;
        util::Fd fd;
        FrameDecoder decoder;
        /** Encoded reply frames not yet written; out_off is sent. */
        std::string out;
        size_t out_off = 0;
        /** Peer sent EOF; close once the replies are flushed. */
        bool peer_eof = false;
        /** Dropped (I/O error, oversize frame, backpressure cap). */
        bool dead = false;
    };

    void workerLoop();
    void acceptAll();
    /** Serve @p conn's event: read, execute, write, re-arm. */
    void serve(Connection &conn);
    void readAndExecute(Connection &conn);
    /** Append one reply frame, enforcing max_queue_bytes. */
    void queueReply(Connection &conn, const Response &response);
    void flushWrites(Connection &conn);
    /** Remove @p conn from the poller and the table; frees it. */
    void closeConnection(std::unique_lock<std::mutex> &owned,
                         Connection &conn);

    /** True when no connection is owned or has unflushed replies. */
    bool drained();

    std::string socket_path_;
    SessionBroker *broker_;
    ServerOptions options_;

    util::Fd listener_;
    util::Poller poller_;
    /** Signalled once, by stop(), to release the pool. */
    util::WakeupFd wake_;

    /** Every open connection, keyed by address (owns them). */
    std::mutex connections_mutex_;
    std::map<Connection *, std::unique_ptr<Connection>> connections_;

    /** Steady-clock ns at which a listener that hit the fd limit is
     * re-armed; 0 while it is armed. */
    std::atomic<int64_t> accept_retry_ns_{0};

    std::atomic<bool> stopping_{false};
    std::atomic<bool> exit_{false};
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopped_ = false;

    obs::Gauge connections_gauge_;
    obs::Counter rx_frames_;
    obs::Counter tx_frames_;
    obs::Counter backpressure_disconnects_;
    obs::HistogramMetric queue_depth_;

    std::vector<std::thread> workers_;
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_SERVER_H_
