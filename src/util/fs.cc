#include "util/fs.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "util/error.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace h2p {
namespace util {

namespace {

/** Directory part of @p path ("." when there is none). */
std::string
dirOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/**
 * Unique temp sibling of @p path: same directory (rename must not
 * cross filesystems), distinguished by pid and a process-wide counter
 * so concurrent writers never collide.
 */
std::string
tempSibling(const std::string &path)
{
    static std::atomic<uint64_t> counter{0};
    std::ostringstream os;
    os << path << ".tmp."
#ifndef _WIN32
       << ::getpid() << "."
#endif
       << counter.fetch_add(1);
    return os.str();
}

[[noreturn]] void
failWith(const std::string &op, const std::string &path)
{
    int err = errno;
    fatal("cannot ", op, " `", path, "': ",
          err != 0 ? std::strerror(err) : "I/O error");
}

/**
 * Write @p contents to a temp sibling of @p path and rename it over
 * @p path; with @p durable, fsync the temp file before the rename and
 * the directory after it.
 */
void
writeViaTemp(const std::string &path, const std::string &contents,
             bool durable)
{
    expect(!path.empty(), "write file: empty path");
    const std::string tmp = tempSibling(path);

#ifndef _WIN32
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        failWith("create temp file for", path);

    size_t written = 0;
    while (written < contents.size()) {
        ssize_t n = ::write(fd, contents.data() + written,
                            contents.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            failWith("write", path);
        }
        written += static_cast<size_t>(n);
    }

    // The data must be on stable storage *before* the rename makes it
    // reachable, or a crash could expose an empty renamed file.
    if (durable && ::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        failWith("fsync", path);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        failWith("close", path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        failWith("rename temp file over", path);
    }

    // Make the rename itself durable. Failure here (e.g. an
    // unfsyncable filesystem) does not endanger the data already
    // renamed in place, so it is not an error.
    if (durable) {
        int dir_fd = ::open(dirOf(path).c_str(), O_RDONLY);
        if (dir_fd >= 0) {
            ::fsync(dir_fd);
            ::close(dir_fd);
        }
    }
#else
    (void)durable;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        failWith("create temp file for", path);
    size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
    if (n != contents.size() || std::fflush(f) != 0) {
        std::fclose(f);
        std::remove(tmp.c_str());
        failWith("write", path);
    }
    std::fclose(f);
    std::remove(path.c_str()); // rename does not replace on Windows
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        failWith("rename temp file over", path);
    }
#endif
}

/** What @p writer renders, for the file at @p path. */
std::string
render(const std::string &path,
       const std::function<void(std::ostream &)> &writer)
{
    std::ostringstream os;
    writer(os);
    expect(os.good(), "failed rendering contents for `", path, "'");
    return os.str();
}

} // namespace

void
atomicWriteFile(const std::string &path, const std::string &contents)
{
    writeViaTemp(path, contents, true);
}

void
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &writer)
{
    writeViaTemp(path, render(path, writer), true);
}

void
replaceFile(const std::string &path,
            const std::function<void(std::ostream &)> &writer)
{
    std::error_code ec;
    std::filesystem::create_directories(dirOf(path), ec);
    if (ec)
        fatal("cannot create the directory of `", path,
              "': ", ec.message());
    writeViaTemp(path, render(path, writer), false);
}

} // namespace util
} // namespace h2p
