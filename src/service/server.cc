#include "service/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kListenerKey = 0;
constexpr uint64_t kWakeupKey = 1;
constexpr uint32_t kArmRead = util::Poller::kRead | util::Poller::kOneShot;
constexpr uint32_t kArmWrite =
    util::Poller::kWrite | util::Poller::kOneShot;
/** How long stop() lets queued replies flush after a stop request. */
constexpr std::chrono::milliseconds kDrainGrace{2000};
/** How often stop() checks whether the drain is done. */
constexpr std::chrono::milliseconds kDrainPoll{5};
/** How long the listener stays disarmed after accept ran out of fds. */
constexpr std::chrono::milliseconds kAcceptRetry{100};
/** A flushed reply buffer larger than this is freed, not kept. */
constexpr size_t kKeepOutBytes = 1u << 20;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

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
    poller_.add(listener_, kArmRead, kListenerKey);
    poller_.add(wake_.fd(), util::Poller::kRead, kWakeupKey);
    for (size_t i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
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
    // No thread reads or accepts any more; let what was read finish
    // and what was answered flush, within the grace period.
    const Clock::time_point deadline = Clock::now() + kDrainGrace;
    while (!drained() && Clock::now() < deadline)
        std::this_thread::sleep_for(kDrainPoll);
    exit_.store(true);
    wake_.signal();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections_.clear();
        connections_gauge_.set(0.0);
    }
    listener_.close();
    ::unlink(socket_path_.c_str());
}

void
Server::waitForStop()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

bool
Server::drained()
{
    std::lock_guard<std::mutex> table_lock(connections_mutex_);
    for (auto &entry : connections_) {
        Connection &conn = *entry.second;
        std::unique_lock<std::mutex> lock(conn.mutex, std::try_to_lock);
        if (!lock.owns_lock())
            return false; // A thread is serving it.
        if (!conn.dead && conn.out_off < conn.out.size())
            return false;
    }
    return true;
}

void
Server::workerLoop()
{
    std::vector<util::Poller::Event> events;
    while (!exit_.load()) {
        int timeout_ms = -1;
        if (const int64_t retry = accept_retry_ns_.load(); retry != 0)
            timeout_ms = static_cast<int>(
                std::max<int64_t>(0, (retry - nowNs()) / 1000000 + 1));
        // One event at a time: a thread takes no connection it cannot
        // serve right away, so a long request holds only its own.
        poller_.wait(events, timeout_ms, 1);

        int64_t retry = accept_retry_ns_.load();
        if (retry != 0 && nowNs() >= retry &&
            accept_retry_ns_.compare_exchange_strong(retry, 0) &&
            !stopping_.load())
            poller_.modify(listener_, kArmRead, kListenerKey);

        for (const util::Poller::Event &event : events) {
            if (event.key == kWakeupKey)
                continue; // exit_ is set.
            if (event.key == kListenerKey)
                acceptAll();
            else
                serve(*reinterpret_cast<Connection *>(event.key));
        }
    }
}

void
Server::acceptAll()
{
    while (!stopping_.load()) {
        util::Fd fd;
        switch (util::acceptConnection(listener_, fd)) {
        case util::AcceptStatus::Ok:
            break;
        case util::AcceptStatus::WouldBlock:
            poller_.modify(listener_, kArmRead, kListenerKey);
            return;
        case util::AcceptStatus::FdLimit:
            // The connection stays in the backlog and the listener
            // stays ready: leave it disarmed for a while instead of
            // spinning on it.
            debug("service accept deferred: out of file descriptors");
            accept_retry_ns_.store(
                nowNs() + std::chrono::nanoseconds(kAcceptRetry).count());
            return;
        }
        auto owned = std::make_unique<Connection>();
        Connection &conn = *owned;
        conn.fd = std::move(fd);
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            connections_.emplace(&conn, std::move(owned));
            connections_gauge_.set(
                static_cast<double>(connections_.size()));
        }
        // Armed under its mutex: the thread that takes its first
        // event waits for this one to let go.
        std::lock_guard<std::mutex> lock(conn.mutex);
        poller_.add(conn.fd, kArmRead, reinterpret_cast<uint64_t>(&conn));
    }
}

void
Server::serve(Connection &conn)
{
    std::unique_lock<std::mutex> owned(conn.mutex);
    // A connection with replies pending was armed for write only.
    if (conn.out_off == conn.out.size() && !stopping_.load())
        readAndExecute(conn);
    flushWrites(conn);
    const bool pending = conn.out_off < conn.out.size();
    if (!conn.dead && pending)
        poller_.modify(conn.fd, kArmWrite,
                       reinterpret_cast<uint64_t>(&conn));
    else if (conn.dead || conn.peer_eof)
        closeConnection(owned, conn);
    else if (!stopping_.load())
        poller_.modify(conn.fd, kArmRead,
                       reinterpret_cast<uint64_t>(&conn));
    // Stopping with nothing to send: left disarmed for stop().
}

void
Server::readAndExecute(Connection &conn)
{
    char buf[64 * 1024];
    size_t got = 0;
    util::IoStatus status;
    try {
        status = util::readSome(conn.fd, buf, sizeof(buf), got);
    } catch (const Error &e) {
        debug("service connection read failed: ", e.what());
        conn.dead = true;
        return;
    }
    if (status == util::IoStatus::WouldBlock)
        return;
    if (status == util::IoStatus::PeerClosed) {
        conn.peer_eof = true; // Closed once its replies are flushed.
        return;
    }

    const SessionBroker::Emit emit = [this, &conn](const Response &r,
                                                   bool more) {
        queueReply(conn, r);
        // A streamed response's frames go out as they come: this
        // connection's earlier replies are already queued and its
        // later requests have not run, so order holds.
        if (more)
            flushWrites(conn);
    };
    size_t frames = 0;
    try {
        conn.decoder.feed(buf, got);
        std::string payload;
        while (!conn.dead && conn.decoder.next(payload)) {
            ++frames;
            Request request;
            try {
                request = Request::parse(payload);
            } catch (const Error &e) {
                // Malformed header: answer and keep the connection —
                // framing is still intact.
                queueReply(conn, Response::error(e.what()));
                continue;
            }
            broker_->handle(request, emit);
        }
    } catch (const Error &e) {
        // Oversized length prefix: framing is unrecoverable — drop
        // the connection.
        debug("service connection dropped: ", e.what());
        conn.dead = true;
    }
    rx_frames_.add(frames);
}

void
Server::queueReply(Connection &conn, const Response &response)
{
    if (conn.dead)
        return;
    appendFrame(conn.out, response.serialize());
    tx_frames_.add(1);
    if (conn.out.size() - conn.out_off <= options_.max_queue_bytes)
        return;
    flushWrites(conn);
    if (!conn.dead && conn.out.size() - conn.out_off >
                          options_.max_queue_bytes) {
        // A reader this far behind is treated as gone: disconnect
        // instead of letting one slow client pin daemon memory.
        backpressure_disconnects_.add(1);
        debug("service connection dropped: response queue exceeded ",
              options_.max_queue_bytes, " bytes");
        conn.dead = true;
    }
}

void
Server::flushWrites(Connection &conn)
{
    if (conn.out_off < conn.out.size())
        queue_depth_.observe(
            static_cast<double>(conn.out.size() - conn.out_off));
    while (!conn.dead && conn.out_off < conn.out.size()) {
        size_t written = 0;
        util::IoStatus status;
        try {
            status = util::writeSome(conn.fd, conn.out.data() + conn.out_off,
                                     conn.out.size() - conn.out_off,
                                     written);
        } catch (const Error &e) {
            debug("service connection write failed: ", e.what());
            conn.dead = true;
            return;
        }
        if (status == util::IoStatus::WouldBlock)
            break;
        if (status == util::IoStatus::PeerClosed) {
            conn.dead = true;
            return;
        }
        conn.out_off += written;
    }
    if (conn.out_off == conn.out.size()) {
        if (conn.out.capacity() > kKeepOutBytes)
            std::string().swap(conn.out);
        conn.out.clear();
        conn.out_off = 0;
    } else if (conn.out_off > conn.out.size() / 2) {
        conn.out.erase(0, conn.out_off);
        conn.out_off = 0;
    }
}

void
Server::closeConnection(std::unique_lock<std::mutex> &owned,
                        Connection &conn)
{
    poller_.remove(conn.fd);
    owned.unlock();
    std::unique_ptr<Connection> doomed;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        auto it = connections_.find(&conn);
        doomed = std::move(it->second);
        connections_.erase(it);
        connections_gauge_.set(static_cast<double>(connections_.size()));
    }
    // The fd closes here, outside the table lock.
}

} // namespace service
} // namespace h2p
