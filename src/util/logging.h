/**
 * @file
 * Minimal leveled logger used across the H2P library.
 *
 * Simulation components log through the process-wide logger; benches and
 * tests can silence or redirect it. The logger is intentionally simple —
 * single-threaded simulators do not need more.
 */

#ifndef H2P_UTIL_LOGGING_H_
#define H2P_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace h2p {

/** Severity of a log record. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Quiet = 3 };

/**
 * Process-wide logger with a severity threshold.
 *
 * Records below the threshold are discarded. Output defaults to stderr
 * and can be redirected to any std::ostream (e.g. a test's capture
 * buffer).
 */
class Logger
{
  public:
    /** Access the process-wide logger instance. */
    static Logger &instance();

    /** Current severity threshold. */
    LogLevel level() const { return level_; }

    /** Redirect output; the stream must outlive the logger's use. */
    void setStream(std::ostream &os) { stream_ = &os; }

    /** Emit one record at @p level built from the streamable @p args. */
    template <typename... Args>
    void
    log(LogLevel level, Args &&...args)
    {
        if (level < level_)
            return;
        std::ostringstream os;
        os << prefix(level);
        (os << ... << std::forward<Args>(args));
        os << '\n';
        (*stream_) << os.str();
    }

  private:
    Logger() = default;

    static const char *prefix(LogLevel level);

    LogLevel level_ = LogLevel::Warn;
    std::ostream *stream_ = &std::cerr;
};

/** Log an informational message through the global logger. */
template <typename... Args>
void
inform(Args &&...args)
{
    Logger::instance().log(LogLevel::Info, std::forward<Args>(args)...);
}

/** Log a warning through the global logger. */
template <typename... Args>
void
warn(Args &&...args)
{
    Logger::instance().log(LogLevel::Warn, std::forward<Args>(args)...);
}

/** Log a debug message through the global logger. */
template <typename... Args>
void
debug(Args &&...args)
{
    Logger::instance().log(LogLevel::Debug, std::forward<Args>(args)...);
}

} // namespace h2p

#endif // H2P_UTIL_LOGGING_H_
