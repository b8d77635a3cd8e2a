/**
 * @file
 * Unix-domain socket and fd-I/O helpers for the service layer.
 *
 * The service daemon speaks its wire protocol over SOCK_STREAM
 * AF_UNIX sockets; these wrappers cover exactly what it needs —
 * RAII ownership of a descriptor, listen/accept/connect on a
 * filesystem path, EINTR-safe full-buffer read/write for blocking
 * clients, and the event-driven primitives of the service's server:
 * an epoll wrapper (Poller), an eventfd wakeup (WakeupFd) and
 * non-blocking partial read/write helpers that report would-block
 * and peer-gone as statuses instead of exceptions. All hard
 * failures raise h2p::Error naming the operation and errno text.
 *
 * POSIX/Linux-only (like the rest of the daemon); the library core
 * never includes this header.
 */

#ifndef H2P_UTIL_SOCKET_H_
#define H2P_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace h2p {
namespace util {

/**
 * Owning wrapper of a file descriptor: closes on destruction,
 * move-only. A default-made Fd is empty (valid() == false).
 */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { close(); }

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &operator=(Fd &&other) noexcept;
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    bool valid() const { return fd_ >= 0; }
    int get() const { return fd_; }

    /** Close now (idempotent). */
    void close();

  private:
    int fd_ = -1;
};

/**
 * Create, bind and listen a Unix-domain stream socket at @p path.
 * A pre-existing socket file is probed with a connect first: when a
 * live daemon answers, this throws instead of stealing its path;
 * only a stale socket (nothing listening — a crashed daemon's
 * leftover) is unlinked and reclaimed. A non-socket file at the
 * path is never touched and is an error.
 */
Fd unixListen(const std::string &path, int backlog = 128);

/** Connect to the Unix-domain socket at @p path. */
Fd unixConnect(const std::string &path);

/** Outcome of one acceptConnection() call. */
enum class AcceptStatus
{
    /** A connection was accepted. */
    Ok,
    /** Nothing is pending (or the listener was shut down under us). */
    WouldBlock,
    /**
     * Out of descriptors (EMFILE/ENFILE) or kernel memory: the
     * connection stays in the backlog, and a level-triggered listener
     * stays readable until it is taken, so back off before retrying.
     */
    FdLimit,
};

/**
 * Accept one pending connection on @p listener into @p conn, with
 * accept4(SOCK_NONBLOCK | SOCK_CLOEXEC): the new descriptor is
 * non-blocking and not inherited across exec. Never throws.
 */
AcceptStatus acceptConnection(const Fd &listener, Fd &conn);

/**
 * Read exactly @p n bytes into @p buf, retrying on EINTR and short
 * reads. Returns false on clean EOF at byte 0 (the peer closed
 * between messages); EOF mid-buffer is a truncation and throws.
 */
bool readExact(const Fd &fd, void *buf, size_t n);

/** Write all @p n bytes of @p buf, retrying on EINTR/short writes. */
void writeAll(const Fd &fd, const void *buf, size_t n);

// ---------------------------------------------------------------------
// Non-blocking primitives for the service's server.

/** Put @p fd into non-blocking mode. */
void setNonBlocking(const Fd &fd);

/** Outcome of one non-blocking I/O attempt. */
enum class IoStatus
{
    /** Some progress was made (bytes transferred > 0). */
    Ok,
    /** The operation would block; retry when the fd is ready. */
    WouldBlock,
    /** The peer is gone (EOF on read, EPIPE/ECONNRESET on write). */
    PeerClosed,
};

/**
 * Read up to @p n bytes into @p buf from a non-blocking fd. On Ok,
 * @p got is the byte count (> 0); on WouldBlock/PeerClosed it is 0.
 * Hard errors throw.
 */
IoStatus readSome(const Fd &fd, void *buf, size_t n, size_t &got);

/**
 * Write up to @p n bytes of @p buf to a non-blocking fd (sent with
 * MSG_NOSIGNAL so a vanished peer surfaces as PeerClosed, not
 * SIGPIPE). On Ok, @p written is the number of bytes accepted (may be
 * short); on WouldBlock/PeerClosed it is 0. Hard errors throw.
 */
IoStatus writeSome(const Fd &fd, const void *buf, size_t n,
                   size_t &written);

/**
 * A level-triggered epoll instance. Registered fds carry an opaque
 * 64-bit key that comes back in each Event, so the owner can map
 * events to its own records. Any number of threads may wait on one
 * Poller and add, modify or remove fds concurrently (the kernel
 * serializes them); with kOneShot, each arming is reported to exactly
 * one waiting thread, which then owns the fd until it re-arms it.
 */
class Poller
{
  public:
    /** Interest bits for add()/modify(). */
    static constexpr uint32_t kRead = 1u;
    static constexpr uint32_t kWrite = 2u;
    /** Disarm after one report (EPOLLONESHOT); modify() re-arms. */
    static constexpr uint32_t kOneShot = 4u;

    /** One readiness report. */
    struct Event
    {
        uint64_t key = 0;
        bool readable = false;
        bool writable = false;
        /** EPOLLERR/EPOLLHUP: the fd needs attention regardless. */
        bool error = false;
    };

    Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Register @p fd with @p interest (kRead/kWrite bits). */
    void add(const Fd &fd, uint32_t interest, uint64_t key);

    /** Change the interest set of a registered fd (and re-arm it). */
    void modify(const Fd &fd, uint32_t interest, uint64_t key);

    /** Deregister @p fd (must still be open). */
    void remove(const Fd &fd);

    /**
     * Wait up to @p timeout_ms (-1 = indefinitely) and fill @p out
     * with at most @p max_events (1-64) ready events. Returns the
     * event count (0 on timeout).
     */
    size_t wait(std::vector<Event> &out, int timeout_ms,
                size_t max_events = 64);

  private:
    Fd epoll_;
};

/**
 * An eventfd to wake threads sleeping in a Poller: once signal()led
 * it stays readable, so a level-triggered registration wakes every
 * waiting thread. signal() is async-signal- and thread-safe.
 */
class WakeupFd
{
  public:
    WakeupFd();

    WakeupFd(const WakeupFd &) = delete;
    WakeupFd &operator=(const WakeupFd &) = delete;

    /** Make every current and later Poller::wait on it return. */
    void signal() const;

    const Fd &fd() const { return fd_; }

  private:
    Fd fd_;
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_SOCKET_H_
