/**
 * @file
 * Error handling primitives for the H2P library.
 *
 * Two failure categories are distinguished, following common simulator
 * practice:
 *
 *  - h2p::Error (thrown via h2p::fatal): the *user's* fault — bad
 *    configuration, out-of-range parameters, malformed input files.
 *    Callers may catch and recover.
 *  - H2P_ASSERT / h2p::panic: an internal invariant was violated — a bug
 *    in the library itself. Aborts the process.
 */

#ifndef H2P_UTIL_ERROR_H_
#define H2P_UTIL_ERROR_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace h2p {

/**
 * Exception type for all user-recoverable errors raised by the library.
 */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/**
 * Why a supervised run failed. The taxonomy drives the supervision
 * policy (SweepEngine): retryable kinds get bounded deterministic
 * retries, non-retryable ones are quarantined immediately, and
 * Cancelled is not a failure at all — the point is simply skipped.
 */
enum class FailureKind
{
    /** Bad configuration or input; re-running cannot help. */
    ConfigError,
    /** The model produced NaN/inf; deterministic, never retried. */
    NumericDivergence,
    /**
     * A wall-clock deadline or a step budget was exceeded (only the
     * deadline is worth a retry, see RunFailure::retryable).
     */
    Timeout,
    /** A cooperative cancellation request stopped the run. */
    Cancelled,
    /** Resource exhaustion or an unclassified exception. */
    Internal,
};

/** Stable lower-case name of @p kind ("config_error", ...). */
const char *toString(FailureKind kind);

/**
 * True when a failure of this kind may pass on a re-run: it can
 * depend on wall-clock or transient resources (Timeout, Internal),
 * not only on the deterministic inputs.
 */
bool isRetryable(FailureKind kind);

/** RunFailure::stage of a Timeout from a spent step budget. */
inline constexpr const char *kStepBudgetStage = "step_budget";

/**
 * Structured description of one failed run: what kind of failure,
 * where in the step loop (step index, pipeline stage) and the
 * human-readable message. Attached to RunError so supervisors can
 * classify without parsing what() strings.
 */
struct RunFailure
{
    /** Sentinel for `step` when no step context applies. */
    static constexpr size_t kNoStep = static_cast<size_t>(-1);

    FailureKind kind = FailureKind::Internal;
    /** Human-readable cause (exception text). */
    std::string message;
    /** Step index the failure surfaced at, or kNoStep. */
    size_t step = kNoStep;
    /** Pipeline stage ("decide", "evaluate", "deadline", ...). */
    std::string stage;

    /** One-line rendering: "[kind] step 12, stage evaluate: msg". */
    std::string describe() const;

    /**
     * True when re-running the identical computation may succeed:
     * isRetryable(kind), except a spent step budget, which fails at
     * the same step on every attempt.
     */
    bool retryable() const
    {
        return isRetryable(kind) && stage != kStepBudgetStage;
    }

    /** The one field list of a failure (sweep journal, checks). */
    template <typename V>
    void visit(V &v);
};

/**
 * An h2p::Error carrying a structured RunFailure. Thrown through
 * failRun() by the SimSession step loop (divergence at stage
 * boundaries, guard violations) and consumed by SweepEngine's
 * per-point supervision.
 */
class RunError : public Error
{
  public:
    explicit RunError(RunFailure failure)
        : Error(failure.describe()), failure_(std::move(failure))
    {
    }

    const RunFailure &failure() const { return failure_; }

  private:
    RunFailure failure_;
};

namespace detail {

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const char *expr,
                            const std::string &msg);

} // namespace detail

/**
 * Raise an h2p::Error for a user-caused failure (bad config, bad input).
 *
 * @param args Streamable message fragments.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw Error(detail::concat(std::forward<Args>(args)...));
}

/**
 * Fail a supervised run: raise a RunError of @p kind attributed to
 * @p step (or RunFailure::kNoStep) and pipeline stage @p stage.
 *
 * @param args Streamable message fragments.
 */
template <typename... Args>
[[noreturn]] void
failRun(FailureKind kind, size_t step, const char *stage, Args &&...args)
{
    RunFailure f;
    f.kind = kind;
    f.step = step;
    f.stage = stage;
    f.message = detail::concat(std::forward<Args>(args)...);
    throw RunError(std::move(f));
}

/**
 * Check a user-supplied condition; throws h2p::Error when it fails.
 */
template <typename... Args>
void
expect(bool cond, Args &&...args)
{
    if (!cond)
        fatal(std::forward<Args>(args)...);
}

template <typename V>
void
RunFailure::visit(V &v)
{
    v("kind", kind);
    expect(static_cast<uint32_t>(kind) <=
               static_cast<uint32_t>(FailureKind::Internal),
           "serialized run failure carries unknown kind ",
           static_cast<uint32_t>(kind));
    v("message", message);
    v("step", step);
    v("stage", stage);
}

} // namespace h2p

/**
 * Assert an internal invariant. Violations abort: they indicate a bug in
 * H2P itself, never a user error.
 */
#define H2P_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::h2p::detail::panicImpl(__FILE__, __LINE__, #cond,             \
                                     ::h2p::detail::concat(__VA_ARGS__));   \
        }                                                                   \
    } while (0)

#endif // H2P_UTIL_ERROR_H_
