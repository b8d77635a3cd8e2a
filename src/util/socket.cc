#include "util/socket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/error.h"

namespace h2p {
namespace util {

namespace {

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    expect(path.size() < sizeof(addr.sun_path),
           "unix socket path `", path, "' exceeds the ",
           sizeof(addr.sun_path) - 1, "-byte limit");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

Fd &
Fd::operator=(Fd &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Fd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Fd
unixListen(const std::string &path, int backlog)
{
    // A file already at the path is either a live daemon's listener
    // (refuse — unlinking it would silently take its traffic), a
    // stale socket from a crashed daemon (reclaim), or not a socket
    // at all (refuse — never delete a user's file).
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
        expect(S_ISSOCK(st.st_mode), "cannot listen on `", path,
               "': path exists and is not a socket");
        Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
        expect(probe.valid(), "cannot create unix socket: ",
               std::strerror(errno));
        sockaddr_un addr = unixAddress(path);
        int rc;
        do {
            rc = ::connect(probe.get(),
                           reinterpret_cast<const sockaddr *>(&addr),
                           sizeof(addr));
        } while (rc != 0 && errno == EINTR);
        expect(rc != 0, "cannot listen on `", path,
               "': a live daemon already owns this socket");
        expect(errno == ECONNREFUSED || errno == ENOENT,
               "cannot probe existing socket `", path,
               "': ", std::strerror(errno));
        // Stale socket file (nothing accepted the probe): reclaim.
        ::unlink(path.c_str());
    }

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    expect(fd.valid(), "cannot create unix socket: ",
           std::strerror(errno));
    sockaddr_un addr = unixAddress(path);
    expect(::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0,
           "cannot bind unix socket `", path,
           "': ", std::strerror(errno));
    expect(::listen(fd.get(), backlog) == 0, "cannot listen on `", path,
           "': ", std::strerror(errno));
    return fd;
}

Fd
unixConnect(const std::string &path)
{
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    expect(fd.valid(), "cannot create unix socket: ",
           std::strerror(errno));
    sockaddr_un addr = unixAddress(path);
    expect(::connect(fd.get(),
                     reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)) == 0,
           "cannot connect to `", path, "': ", std::strerror(errno));
    return fd;
}

AcceptStatus
acceptConnection(const Fd &listener, Fd &conn)
{
    for (;;) {
        int fd = ::accept4(listener.get(), nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd >= 0) {
            conn = Fd(fd);
            return AcceptStatus::Ok;
        }
        // EINTR, or a client that gave up while still in the backlog.
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM)
            return AcceptStatus::FdLimit;
        // Nothing pending, or a listener torn down during stop.
        return AcceptStatus::WouldBlock;
    }
}

bool
readExact(const Fd &fd, void *buf, size_t n)
{
    char *p = static_cast<char *>(buf);
    size_t got = 0;
    while (got < n) {
        ssize_t rc = ::read(fd.get(), p + got, n - got);
        if (rc > 0) {
            got += static_cast<size_t>(rc);
            continue;
        }
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc == 0 && got == 0)
            return false; // Clean EOF between messages.
        if (rc == 0)
            fatal("connection truncated: expected ", n,
                  " bytes, got ", got);
        fatal("socket read failed: ", std::strerror(errno));
    }
    return true;
}

void
writeAll(const Fd &fd, const void *buf, size_t n)
{
    const char *p = static_cast<const char *>(buf);
    size_t sent = 0;
    while (sent < n) {
        // send + MSG_NOSIGNAL instead of write: a peer that hung up
        // must surface as EPIPE here, not as a process-wide SIGPIPE.
        ssize_t rc =
            ::send(fd.get(), p + sent, n - sent, MSG_NOSIGNAL);
        if (rc >= 0) {
            sent += static_cast<size_t>(rc);
            continue;
        }
        if (errno == EINTR)
            continue;
        fatal("socket write failed: ", std::strerror(errno));
    }
}

// ---------------------------------------------------------------------
// Non-blocking primitives.

void
setNonBlocking(const Fd &fd)
{
    int flags = ::fcntl(fd.get(), F_GETFL, 0);
    expect(flags >= 0, "fcntl(F_GETFL) failed: ",
           std::strerror(errno));
    expect(::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) == 0,
           "fcntl(F_SETFL, O_NONBLOCK) failed: ",
           std::strerror(errno));
}

IoStatus
readSome(const Fd &fd, void *buf, size_t n, size_t &got)
{
    got = 0;
    for (;;) {
        ssize_t rc = ::read(fd.get(), buf, n);
        if (rc > 0) {
            got = static_cast<size_t>(rc);
            return IoStatus::Ok;
        }
        if (rc == 0)
            return IoStatus::PeerClosed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return IoStatus::WouldBlock;
        if (errno == ECONNRESET)
            return IoStatus::PeerClosed;
        fatal("socket read failed: ", std::strerror(errno));
    }
}

IoStatus
writeSome(const Fd &fd, const void *buf, size_t n, size_t &written)
{
    written = 0;
    for (;;) {
        ssize_t rc = ::send(fd.get(), buf, n, MSG_NOSIGNAL);
        if (rc >= 0) {
            written = static_cast<size_t>(rc);
            return IoStatus::Ok;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return IoStatus::WouldBlock;
        if (errno == EPIPE || errno == ECONNRESET)
            return IoStatus::PeerClosed;
        fatal("socket write failed: ", std::strerror(errno));
    }
}

Poller::Poller() : epoll_(::epoll_create1(EPOLL_CLOEXEC))
{
    expect(epoll_.valid(), "epoll_create1 failed: ",
           std::strerror(errno));
}

namespace {

uint32_t
epollMask(uint32_t interest)
{
    uint32_t mask = 0;
    if (interest & Poller::kRead)
        mask |= EPOLLIN;
    if (interest & Poller::kWrite)
        mask |= EPOLLOUT;
    if (interest & Poller::kOneShot)
        mask |= EPOLLONESHOT;
    return mask;
}

} // namespace

void
Poller::add(const Fd &fd, uint32_t interest, uint64_t key)
{
    epoll_event ev{};
    ev.events = epollMask(interest);
    ev.data.u64 = key;
    expect(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd.get(), &ev) ==
               0,
           "epoll_ctl(ADD) failed: ", std::strerror(errno));
}

void
Poller::modify(const Fd &fd, uint32_t interest, uint64_t key)
{
    epoll_event ev{};
    ev.events = epollMask(interest);
    ev.data.u64 = key;
    expect(::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd.get(), &ev) ==
               0,
           "epoll_ctl(MOD) failed: ", std::strerror(errno));
}

void
Poller::remove(const Fd &fd)
{
    expect(::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd.get(),
                       nullptr) == 0,
           "epoll_ctl(DEL) failed: ", std::strerror(errno));
}

size_t
Poller::wait(std::vector<Event> &out, int timeout_ms, size_t max_events)
{
    constexpr size_t kMaxEvents = 64;
    H2P_ASSERT(max_events >= 1 && max_events <= kMaxEvents,
               "Poller::wait takes 1-64 events");
    epoll_event events[kMaxEvents];
    int rc;
    do {
        rc = ::epoll_wait(epoll_.get(), events,
                          static_cast<int>(max_events), timeout_ms);
    } while (rc < 0 && errno == EINTR);
    expect(rc >= 0, "epoll_wait failed: ", std::strerror(errno));
    out.clear();
    out.reserve(static_cast<size_t>(rc));
    for (int i = 0; i < rc; ++i) {
        Event e;
        e.key = events[i].data.u64;
        e.readable = (events[i].events & (EPOLLIN | EPOLLPRI)) != 0;
        e.writable = (events[i].events & EPOLLOUT) != 0;
        e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        out.push_back(e);
    }
    return out.size();
}

WakeupFd::WakeupFd()
    : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))
{
    expect(fd_.valid(), "eventfd failed: ", std::strerror(errno));
}

void
WakeupFd::signal() const
{
    const uint64_t one = 1;
    // EAGAIN means the counter is already saturated — the wakeup is
    // pending either way, so any outcome short of a hard error is a
    // success here (and this must stay async-signal-safe: no throw).
    ssize_t rc;
    do {
        rc = ::write(fd_.get(), &one, sizeof(one));
    } while (rc < 0 && errno == EINTR);
}

} // namespace util
} // namespace h2p
