#include "service/server.h"

#include <unistd.h>

#include <chrono>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace service {

namespace {

constexpr uint64_t kListenerKey = 0;
constexpr uint64_t kWakeupKey = 1;
/** Unanswered pipelined requests per connection before the reactor
 * pauses reading from it (it resumes at half). */
constexpr size_t kMaxPipeline = 256;
/** How long the reactor keeps draining response queues after a stop
 * request. */
constexpr std::chrono::milliseconds kDrainGrace{2000};

} // namespace

Server::Server(std::string socket_path, SessionBroker *broker,
               ServerOptions options)
    : socket_path_(std::move(socket_path)), broker_(broker),
      options_(options)
{
    H2P_ASSERT(broker_ != nullptr, "server needs a broker");
    expect(options_.workers > 0, "server needs at least one worker");
    if (options_.obs != nullptr) {
        obs::MetricsRegistry &m = options_.obs->metrics();
        connections_gauge_ = m.gauge("service.connections");
        rx_frames_ = m.counter("service.rx_frames");
        tx_frames_ = m.counter("service.tx_frames");
        backpressure_disconnects_ =
            m.counter("service.backpressure_disconnects");
        queue_depth_ = m.histogram(
            "service.queue_depth", 0.0,
            static_cast<double>(options_.max_queue_bytes), 64);
    }
    listener_ = util::unixListen(socket_path_, options_.backlog);
    util::setNonBlocking(listener_);
    poller_.add(listener_, util::Poller::kRead, kListenerKey);
    poller_.add(wake_.fd(), util::Poller::kRead, kWakeupKey);
    for (size_t i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    io_thread_ = std::thread([this] { ioLoop(); });
}

Server::~Server()
{
    stop();
}

void
Server::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    wake_.signal();
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_cv_.notify_all();
}

void
Server::stop()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    if (io_thread_.joinable())
        io_thread_.join();
    {
        std::lock_guard<std::mutex> lock(run_mutex_);
        workers_stop_ = true;
    }
    run_cv_.notify_all();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    listener_.close();
    ::unlink(socket_path_.c_str());
}

void
Server::waitForStop()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

// ---------------------------------------------------------------------
// Reactor (I/O thread).

void
Server::ioLoop()
{
    std::vector<util::Poller::Event> events;
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline;
    for (;;) {
        if (!draining && stopping_.load()) {
            // Enter drain mode: no new connections, no new reads —
            // only flush what is already queued or in flight.
            draining = true;
            drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
            poller_.remove(listener_);
            for (auto &entry : connections_) {
                Connection &conn = *entry.second;
                if (!conn.dead) {
                    conn.read_paused = true;
                    updateInterest(conn);
                }
            }
        }
        if (draining &&
            (drained() ||
             std::chrono::steady_clock::now() >= drain_deadline))
            break;

        poller_.wait(events, draining ? 20 : -1);
        for (const util::Poller::Event &event : events) {
            if (event.key == kWakeupKey) {
                wake_.drain();
            } else if (event.key == kListenerKey) {
                if (!draining)
                    acceptAll();
            } else {
                auto it = connections_.find(event.key);
                if (it == connections_.end())
                    continue;
                std::shared_ptr<Connection> conn = it->second;
                if (event.readable || event.error)
                    handleReadable(conn);
                if (conn->dead) {
                    closeConnection(conn);
                    continue;
                }
                if (event.writable) {
                    flushWrites(*conn);
                    if (conn->dead) {
                        closeConnection(conn);
                        continue;
                    }
                    updateInterest(*conn);
                }
            }
        }

        // Worker-side progress: move fresh outbox frames into write
        // queues, flush, enforce the backpressure cap, resume paused
        // reads, and reap connections whose peer left.
        std::vector<std::shared_ptr<Connection>> dirty;
        {
            std::lock_guard<std::mutex> lock(dirty_mutex_);
            dirty.swap(dirty_);
            for (const auto &conn : dirty)
                conn->in_dirty = false;
        }
        for (const auto &conn : dirty)
            serviceConnection(conn);
    }

    // Drain over (or grace expired): tear down every connection.
    std::vector<std::shared_ptr<Connection>> remaining;
    for (auto &entry : connections_)
        remaining.push_back(entry.second);
    for (const auto &conn : remaining)
        closeConnection(conn);
}

void
Server::acceptAll()
{
    for (;;) {
        util::Fd fd = util::acceptConnection(listener_);
        if (!fd.valid())
            return; // EAGAIN (or listener torn down).
        util::setNonBlocking(fd);
        auto conn = std::make_shared<Connection>();
        conn->key = next_key_++;
        conn->fd = std::move(fd);
        conn->interest = util::Poller::kRead;
        poller_.add(conn->fd, conn->interest, conn->key);
        conn->registered = true;
        connections_[conn->key] = conn;
        connections_gauge_.set(
            static_cast<double>(connections_.size()));
    }
}

void
Server::handleReadable(const std::shared_ptr<Connection> &conn)
{
    if (conn->dead || conn->peer_eof)
        return;
    char buf[64 * 1024];
    size_t got = 0;
    util::IoStatus status;
    try {
        status = util::readSome(conn->fd, buf, sizeof(buf), got);
    } catch (const Error &e) {
        debug("service connection read failed: ", e.what());
        conn->dead = true;
        return;
    }
    if (status == util::IoStatus::WouldBlock)
        return;
    if (status == util::IoStatus::PeerClosed) {
        conn->peer_eof = true;
        // Keep the connection until queued requests are answered and
        // flushed; serviceConnection reaps it.
        serviceConnection(conn);
        return;
    }

    size_t decoded = 0;
    bool schedule = false;
    try {
        conn->decoder.feed(buf, got);
        std::string payload;
        std::lock_guard<std::mutex> lock(conn->mutex);
        while (conn->decoder.next(payload)) {
            conn->pending.push_back(std::move(payload));
            ++decoded;
        }
        if (decoded > 0) {
            rx_frames_.add(decoded);
            schedule = !conn->running && !conn->queued;
            if (schedule)
                conn->queued = true;
            if (conn->pending.size() >= kMaxPipeline)
                conn->read_paused = true;
        }
    } catch (const Error &e) {
        // Oversized length prefix: framing is unrecoverable — drop
        // the connection.
        debug("service connection dropped: ", e.what());
        conn->dead = true;
        return;
    }
    if (conn->read_paused)
        updateInterest(*conn);
    if (schedule)
        scheduleConnection(conn);
}

void
Server::serviceConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->dead)
        return;
    size_t pending = 0;
    bool running = false;
    {
        std::lock_guard<std::mutex> lock(conn->mutex);
        for (std::string &frame : conn->outbox) {
            conn->writeq_bytes += frame.size();
            conn->writeq.push_back(std::move(frame));
        }
        conn->outbox.clear();
        pending = conn->pending.size();
        running = conn->running || conn->queued;
    }
    if (conn->writeq_bytes > 0)
        queue_depth_.observe(static_cast<double>(conn->writeq_bytes));

    flushWrites(*conn);
    if (!conn->dead && conn->writeq_bytes > options_.max_queue_bytes) {
        // A reader this far behind is treated as gone: disconnect
        // instead of letting one slow client pin daemon memory.
        backpressure_disconnects_.add(1);
        debug("service connection dropped: response queue exceeded ",
              options_.max_queue_bytes, " bytes");
        conn->dead = true;
    }
    if (conn->dead) {
        closeConnection(conn);
        return;
    }

    // Request-side flow control: resume reading once the pipeline
    // backlog has halved.
    if (conn->read_paused && !conn->peer_eof &&
        !stopping_.load(std::memory_order_relaxed) &&
        pending <= kMaxPipeline / 2)
        conn->read_paused = false;
    updateInterest(*conn);

    // Peer hung up and everything it asked for has been answered and
    // flushed: the connection is finished.
    if (conn->peer_eof && !running && pending == 0 &&
        conn->writeq.empty())
        closeConnection(conn);
}

void
Server::flushWrites(Connection &conn)
{
    if (conn.dead)
        return;
    while (!conn.writeq.empty()) {
        util::ByteRange bufs[16];
        size_t nbufs = 0;
        size_t offset = conn.head_off;
        for (const std::string &frame : conn.writeq) {
            if (nbufs == 16)
                break;
            bufs[nbufs].data = frame.data() + offset;
            bufs[nbufs].size = frame.size() - offset;
            offset = 0;
            ++nbufs;
        }
        size_t written = 0;
        util::IoStatus status;
        try {
            status =
                util::writevSome(conn.fd, bufs, nbufs, written);
        } catch (const Error &e) {
            debug("service connection write failed: ", e.what());
            conn.dead = true;
            return;
        }
        if (status == util::IoStatus::WouldBlock)
            return;
        if (status == util::IoStatus::PeerClosed) {
            conn.dead = true;
            return;
        }
        conn.writeq_bytes -= written;
        while (written > 0 && !conn.writeq.empty()) {
            const size_t head_left =
                conn.writeq.front().size() - conn.head_off;
            if (written >= head_left) {
                written -= head_left;
                conn.head_off = 0;
                conn.writeq.pop_front();
            } else {
                conn.head_off += written;
                written = 0;
            }
        }
    }
}

void
Server::updateInterest(Connection &conn)
{
    if (conn.dead)
        return;
    uint32_t interest = 0;
    if (!conn.read_paused && !conn.peer_eof)
        interest |= util::Poller::kRead;
    if (!conn.writeq.empty())
        interest |= util::Poller::kWrite;
    if (interest == 0) {
        if (conn.registered) {
            poller_.remove(conn.fd);
            conn.registered = false;
        }
        conn.interest = 0;
        return;
    }
    if (!conn.registered) {
        poller_.add(conn.fd, interest, conn.key);
        conn.registered = true;
        conn.interest = interest;
        return;
    }
    if (interest == conn.interest)
        return;
    poller_.modify(conn.fd, interest, conn.key);
    conn.interest = interest;
}

void
Server::closeConnection(const std::shared_ptr<Connection> &conn)
{
    auto it = connections_.find(conn->key);
    if (it == connections_.end())
        return; // Already closed.
    if (conn->registered) {
        poller_.remove(conn->fd);
        conn->registered = false;
    }
    conn->fd.shutdownBoth();
    conn->fd.close();
    conn->dead = true;
    connections_.erase(it);
    connections_gauge_.set(static_cast<double>(connections_.size()));
}

bool
Server::drained()
{
    std::lock_guard<std::mutex> dirty_lock(dirty_mutex_);
    if (!dirty_.empty())
        return false;
    for (auto &entry : connections_) {
        Connection &conn = *entry.second;
        if (conn.dead)
            continue;
        std::lock_guard<std::mutex> lock(conn.mutex);
        if (conn.running || conn.queued || !conn.pending.empty() ||
            !conn.outbox.empty() || !conn.writeq.empty())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Worker pool.

void
Server::scheduleConnection(const std::shared_ptr<Connection> &conn)
{
    {
        std::lock_guard<std::mutex> lock(run_mutex_);
        run_queue_.push_back(conn);
    }
    run_cv_.notify_one();
}

void
Server::markDirty(const std::shared_ptr<Connection> &conn)
{
    {
        std::lock_guard<std::mutex> lock(dirty_mutex_);
        if (conn->in_dirty)
            return;
        conn->in_dirty = true;
        dirty_.push_back(conn);
    }
    wake_.signal();
}

void
Server::workerLoop()
{
    for (;;) {
        std::shared_ptr<Connection> conn;
        {
            std::unique_lock<std::mutex> lock(run_mutex_);
            run_cv_.wait(lock, [this] {
                return workers_stop_ || !run_queue_.empty();
            });
            if (run_queue_.empty())
                return; // workers_stop_
            conn = std::move(run_queue_.front());
            run_queue_.pop_front();
        }
        processConnection(conn);
    }
}

void
Server::processConnection(const std::shared_ptr<Connection> &conn)
{
    {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->queued = false;
        if (conn->running)
            return; // Another worker already owns this connection.
        conn->running = true;
    }
    const auto emit = [this, &conn](const Response &response) {
        std::string frame = encodeFrame(response.serialize());
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            conn->outbox.push_back(std::move(frame));
        }
        tx_frames_.add(1);
        // Streamed responses (sweep) flow out as they are produced:
        // this connection's earlier responses are already queued and
        // later requests have not run yet, so order is preserved.
        markDirty(conn);
    };
    for (;;) {
        std::string payload;
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            if (conn->pending.empty()) {
                conn->running = false;
                break;
            }
            payload = std::move(conn->pending.front());
            conn->pending.pop_front();
        }
        Request request;
        try {
            request = Request::parse(payload);
        } catch (const Error &e) {
            // Malformed header: answer and keep the connection —
            // framing is still intact.
            emit(Response::error(e.what()));
            continue;
        }
        broker_->handle(request, emit);
    }
    // Even without fresh responses the reactor must re-evaluate this
    // connection: resume a paused read, reap a hung-up peer, or
    // notice the drain condition.
    markDirty(conn);
}

} // namespace service
} // namespace h2p
