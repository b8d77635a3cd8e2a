#include "util/error.h"

#include <cstdlib>
#include <iostream>

namespace h2p {
namespace detail {

void
panicImpl(const char *file, int line, const char *expr,
          const std::string &msg)
{
    std::cerr << "panic: assertion `" << expr << "' failed at " << file
              << ":" << line;
    if (!msg.empty())
        std::cerr << ": " << msg;
    std::cerr << std::endl;
    std::abort();
}

} // namespace detail

const char *
toString(FailureKind kind)
{
    switch (kind) {
    case FailureKind::ConfigError:
        return "config_error";
    case FailureKind::NumericDivergence:
        return "numeric_divergence";
    case FailureKind::Timeout:
        return "timeout";
    case FailureKind::Cancelled:
        return "cancelled";
    case FailureKind::Internal:
        return "internal";
    }
    return "unknown";
}

bool
isRetryable(FailureKind kind)
{
    return kind == FailureKind::Timeout ||
           kind == FailureKind::Internal;
}

std::string
RunFailure::describe() const
{
    std::ostringstream os;
    os << "[" << toString(kind) << "]";
    if (step != kNoStep)
        os << " step " << step;
    if (!stage.empty())
        os << (step != kNoStep ? ", " : " ") << "stage " << stage;
    if (!message.empty())
        os << ": " << message;
    return os.str();
}

} // namespace h2p
