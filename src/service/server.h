/**
 * @file
 * The socket front of the digital-twin service: an event-driven
 * reactor multiplexing every client connection onto one epoll loop,
 * with a fixed worker pool executing broker requests off the I/O
 * thread.
 *
 * Threading: one I/O thread owns the listener, the epoll instance
 * (util::Poller) and all connection fds — accepting, reading raw
 * bytes into a per-connection incremental FrameDecoder, and flushing
 * per-connection write queues with vectored writes. Decoded requests
 * are queued per connection and executed by a fixed pool of worker
 * threads; a connection is processed by at most one worker at a time
 * and its requests strictly in arrival order, so **pipelining** —
 * many requests in flight on one connection — keeps serial
 * per-connection request/response semantics while batching syscalls
 * and spreading independent connections across workers. Responses
 * (including streamed sweep frames) are delivered in request order.
 *
 * Backpressure: a slow reader never stalls other connections — its
 * responses queue in userspace and flush as the socket drains; past
 * max_queue_bytes the connection is dropped
 * (service.backpressure_disconnects). A client that pipelines more
 * than kMaxPipeline (256, server.cc) unanswered requests stops being
 * read until the backlog halves (request-side flow control),
 * bounding memory per connection in both directions.
 *
 * Shutdown: requestStop() (idempotent; safe from any thread,
 * including a worker handling the shutdown verb and a daemon's
 * signal watcher) wakes the reactor, which stops accepting and
 * reading, drains pending work and flushes outstanding responses —
 * so the shutdown verb's own "ok" reaches its client — bounded by
 * kDrainGrace (2 s, server.cc), then closes everything. stop()
 * joins the I/O and worker threads; in-flight simulation work stops
 * at the next step boundary through the broker's RunGuard wiring.
 */

#ifndef H2P_SERVICE_SERVER_H_
#define H2P_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
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

/** Tuning knobs of the reactor transport. */
struct ServerOptions
{
    /** Worker threads executing broker requests. */
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
     * per connection at enqueue time).
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
     * Flag the server to stop and wake the reactor. Safe from any
     * thread — including a worker handling the shutdown verb and a
     * signal-watching daemon loop. Does not join; the thread blocked
     * in waitForStop() (or the destructor) calls stop() for the
     * teardown proper.
     */
    void requestStop();

    /**
     * Stop accepting, drain and join the reactor and worker threads,
     * and remove the socket file. Idempotent; must NOT be called
     * from a worker thread (it joins them) — that is what
     * requestStop() is for.
     */
    void stop();

    /** Block until requestStop() (daemon main loop parks here). */
    void waitForStop();

    /** Path the server is listening on. */
    const std::string &socketPath() const { return socket_path_; }

  private:
    /**
     * One client connection. The I/O thread owns fd, decoder and the
     * write queue; `mutex` guards the worker-facing half (pending
     * requests, outbox, running flag).
     */
    struct Connection
    {
        uint64_t key = 0;
        util::Fd fd;
        FrameDecoder decoder;

        std::mutex mutex;
        /** Decoded request payloads awaiting execution (FIFO). */
        std::deque<std::string> pending;
        /** A worker is currently executing this connection. */
        bool running = false;
        /** This connection sits in the worker run queue. */
        bool queued = false;
        /** Serialized response frames awaiting queue transfer. */
        std::vector<std::string> outbox;
        /** Already flagged for reactor attention (guarded by the
         * server's dirty_mutex_, not this->mutex). */
        bool in_dirty = false;

        // --- I/O-thread-only state below. ---
        /** Response frames queued for the socket. */
        std::deque<std::string> writeq;
        /** Bytes across writeq (head_off already excluded). */
        size_t writeq_bytes = 0;
        /** Flushed prefix of writeq.front(). */
        size_t head_off = 0;
        /** Current epoll interest bits. */
        uint32_t interest = 0;
        /** fd currently registered with the poller. A connection
         * with nothing to wait for is deregistered entirely so a
         * hung-up peer cannot spin the loop via level-triggered
         * EPOLLHUP while its requests still execute. */
        bool registered = false;
        /** Reading paused by request-side flow control. */
        bool read_paused = false;
        /** Peer sent EOF; close once queued work finishes. */
        bool peer_eof = false;
        /** Dropped (I/O error, oversize frame, backpressure cap). */
        bool dead = false;
    };

    void ioLoop();
    void workerLoop();

    void acceptAll();
    void handleReadable(const std::shared_ptr<Connection> &conn);
    /** Move outbox frames to the write queue, flush, apply caps. */
    void serviceConnection(const std::shared_ptr<Connection> &conn);
    void flushWrites(Connection &conn);
    void updateInterest(Connection &conn);
    void closeConnection(const std::shared_ptr<Connection> &conn);

    /** Put @p conn on the worker run queue (idempotent). */
    void scheduleConnection(const std::shared_ptr<Connection> &conn);
    /** Run one batch of @p conn's pending requests on this worker. */
    void processConnection(const std::shared_ptr<Connection> &conn);
    /** Flag @p conn for reactor attention and wake the epoll loop. */
    void markDirty(const std::shared_ptr<Connection> &conn);

    /** True once every queue is flushed and no work is in flight. */
    bool drained();

    std::string socket_path_;
    SessionBroker *broker_;
    ServerOptions options_;

    util::Fd listener_;
    util::Poller poller_;
    util::WakeupFd wake_;

    /** I/O-thread-only: key -> connection. */
    std::map<uint64_t, std::shared_ptr<Connection>> connections_;
    uint64_t next_key_ = 2; // 0 = listener, 1 = wakeup fd

    /** Connections with fresh outbox frames / state changes. */
    std::mutex dirty_mutex_;
    std::vector<std::shared_ptr<Connection>> dirty_;

    /** Worker run queue. */
    std::mutex run_mutex_;
    std::condition_variable run_cv_;
    std::deque<std::shared_ptr<Connection>> run_queue_;
    bool workers_stop_ = false;

    std::atomic<bool> stopping_{false};
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopped_ = false;

    std::thread io_thread_;
    std::vector<std::thread> workers_;

    obs::Gauge connections_gauge_;
    obs::Counter rx_frames_;
    obs::Counter tx_frames_;
    obs::Counter backpressure_disconnects_;
    obs::HistogramMetric queue_depth_;
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_SERVER_H_
