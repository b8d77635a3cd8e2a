#include "core/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>

#include "core/h2p_system.h"
#include "core/sweep_journal.h"
#include "sched/lookup_cache.h"
#include "util/error.h"
#include "util/parallel.h"

namespace h2p {
namespace core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Map the in-flight exception to the failure taxonomy. RunError
 * carries its classification; a plain h2p::Error at this boundary is
 * a configuration/input problem (construction or validation threw
 * before or after the step loop); everything else — bad_alloc,
 * foreign std::exception subclasses, non-standard throws from custom
 * controllers — is Internal, so a misbehaving point is reported with
 * context instead of tearing the sweep down.
 */
RunFailure
classifyCurrentException()
{
    RunFailure f;
    try {
        throw;
    } catch (const RunError &e) {
        return e.failure();
    } catch (const Error &e) {
        f.kind = FailureKind::ConfigError;
        f.message = e.what();
    } catch (const std::bad_alloc &) {
        f.kind = FailureKind::Internal;
        f.message = "out of memory (std::bad_alloc)";
    } catch (const std::exception &e) {
        f.kind = FailureKind::Internal;
        f.message = e.what();
    } catch (...) {
        f.kind = FailureKind::Internal;
        f.message = "non-standard exception";
    }
    return f;
}

} // namespace

void
SweepEngine::forEachOrdered(size_t n, size_t workers,
                            const std::function<void(size_t)> &compute,
                            const std::function<void(size_t)> &emit)
{
    if (n == 0)
        return;
    if (workers == 0)
        workers = util::hardwareThreads();
    workers = std::min(workers, n);

    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i) {
            compute(i);
            if (emit)
                emit(i);
        }
        return;
    }

    if (!emit) {
        util::parallelForDynamic(n, workers, compute);
        return;
    }

    // Streaming with deterministic order: each worker marks its index
    // done, then drains the contiguous completed prefix under the
    // lock. Whichever worker happens to extend the prefix emits it,
    // so emission order is grid order no matter the completion order.
    std::mutex mutex;
    std::vector<char> done(n, 0);
    size_t next_emit = 0;
    util::parallelForDynamic(n, workers, [&](size_t i) {
        compute(i);
        std::lock_guard<std::mutex> lock(mutex);
        done[i] = 1;
        while (next_emit < n && done[next_emit] != 0) {
            emit(next_emit);
            ++next_emit;
        }
    });
}

SweepResult
SweepEngine::run(const std::vector<SweepPoint> &grid,
                 const ResultCallback &on_result) const
{
    return runSupervised(grid, on_result, /*resuming=*/false);
}

SweepResult
SweepEngine::resume(const std::vector<SweepPoint> &grid,
                    const ResultCallback &on_result) const
{
    expect(!options_.journal_path.empty(),
           "sweep resume requires SweepOptions::journal_path");
    expect(SweepJournal::exists(options_.journal_path),
           "sweep journal `", options_.journal_path, "' does not exist");
    return runSupervised(grid, on_result, /*resuming=*/true);
}

SweepResult
SweepEngine::runSupervised(const std::vector<SweepPoint> &grid,
                           const ResultCallback &on_result,
                           bool resuming) const
{
    auto cancel_requested = [this] {
        return options_.cancel != nullptr &&
               options_.cancel->cancelRequested();
    };

    SweepResult result;
    const size_t n = grid.size();

    // One worker per run: each run is a serial step loop, so the
    // budget beyond the grid size would idle.
    const size_t requested = options_.workers != 0
                                 ? options_.workers
                                 : util::hardwareThreads();
    result.workers = std::max<size_t>(
        1, std::min(requested, std::max<size_t>(1, n)));
    result.points.resize(n);

    for (size_t i = 0; i < n; ++i)
        expect(grid[i].trace != nullptr, "sweep point ", i, " (",
               grid[i].label, ") has no trace");

    // Crash-safe journal: fresh manifest on run(), load + append on
    // resume(). The fingerprints pin the journal to this exact grid.
    std::unique_ptr<SweepJournal> journal;
    std::map<size_t, SweepPointResult> restored;
    if (!options_.journal_path.empty()) {
        const SweepJournal::GridFingerprints fp =
            SweepJournal::gridFingerprints(grid);
        if (resuming) {
            SweepJournal::Loaded loaded =
                SweepJournal::load(options_.journal_path);
            expect(loaded.num_points == n, "sweep journal `",
                   options_.journal_path, "' records ",
                   loaded.num_points, " points but the grid has ", n);
            const std::string diverged =
                SweepJournal::describeMismatch(loaded.fingerprints, fp);
            expect(diverged.empty(), "sweep journal `",
                   options_.journal_path,
                   "' was written by a different sweep; these inputs "
                   "diverge from it: ", diverged);
            restored = std::move(loaded.records);
            journal = std::make_unique<SweepJournal>(SweepJournal::openAppend(
                options_.journal_path, loaded.intact_bytes));
        } else {
            journal = std::make_unique<SweepJournal>(
                SweepJournal::create(options_.journal_path, n, fp));
        }
    }

    obs::Observability *obs = options_.obs;
    obs::Counter runs_counter;
    obs::Counter retries_counter;
    obs::Counter quarantined_counter;
    obs::Counter timeouts_counter;
    obs::HistogramMetric run_ms;
    obs::TraceSpan sweep_span(
        obs != nullptr ? &obs->spans() : nullptr,
        obs != nullptr ? obs->spans().id("sweep")
                       : obs::SpanRegistry::SpanId{});
    if (obs != nullptr) {
        runs_counter = obs->metrics().counter("sweep.runs");
        retries_counter = obs->metrics().counter("sweep.retries");
        quarantined_counter =
            obs->metrics().counter("sweep.quarantined");
        timeouts_counter = obs->metrics().counter("sweep.timeouts");
        run_ms =
            obs->metrics().histogram("sweep.run_ms", 0.0, 60e3, 60);
        obs->metrics()
            .gauge("sweep.workers")
            .set(static_cast<double>(result.workers));
    }

    const uint64_t builds_before =
        sched::LookupSpaceCache::instance().builds();
    const auto sweep_t0 = std::chrono::steady_clock::now();

    const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);

    auto compute = [&](size_t i) {
        SweepPointResult &slot = result.points[i];
        auto rit = restored.find(i);
        if (rit != restored.end()) {
            // Journaled on a previous attempt of this sweep: restore
            // the finished result verbatim, bit for bit. The manifest
            // check pinned its label and policy to this grid.
            slot = std::move(rit->second);
            slot.restored = true;
            return;
        }
        slot.index = i;
        slot.label = grid[i].label;
        slot.policy = grid[i].policy;

        if (cancel_requested())
            return; // Stays Skipped.

        for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
            slot.attempts = attempt;
            try {
                // Per-point system: a system's optimizer and sessions
                // are not thread-safe, so runs never share one. The
                // expensive parts are shared underneath: the look-up
                // space and decision table (LookupSpaceCache) and
                // borrowed traces.
                const auto t0 = std::chrono::steady_clock::now();
                H2PSystem system(grid[i].config);
                SimSession session = system.startSession(
                    *grid[i].trace, grid[i].policy,
                    grid[i].make_pipeline ? grid[i].make_pipeline()
                                          : nullptr);
                RunGuard guard;
                guard.cancel = options_.cancel;
                guard.deadline_s = grid[i].deadline_s > 0.0
                                       ? grid[i].deadline_s
                                       : options_.point_deadline_s;
                guard.step_budget = grid[i].step_budget;
                session.setGuard(guard);
                session.runToCompletion();
                RunResult run = session.finish();
                slot.duration_s = secondsSince(t0);
                slot.summary = run.summary;
                if (options_.keep_recorders)
                    slot.recorder = run.recorder;
                slot.status = PointStatus::Completed;
                runs_counter.add();
                run_ms.observe(slot.duration_s * 1e3);
                return;
            } catch (...) {
                RunFailure f = classifyCurrentException();
                if (f.kind == FailureKind::Cancelled) {
                    // Cancellation is not a failure: the point simply
                    // did not run. Partial state is discarded; resume
                    // re-runs it from scratch.
                    slot.status = PointStatus::Skipped;
                    return;
                }
                if (attempt < max_attempts && f.retryable())
                    continue;
                slot.status = PointStatus::Quarantined;
                slot.failure = std::move(f);
                return;
            }
        }
    };

    // The emit path is serialized and fires in grid order, which
    // makes it the natural home for everything order-sensitive:
    // journal appends (durable before delivery), quarantine events
    // and the streaming callback.
    std::function<void(size_t)> emit;
    bool delivery_stopped = false;
    if (on_result || journal != nullptr || obs != nullptr)
        emit = [&](size_t i) {
            SweepPointResult &slot = result.points[i];
            if (slot.status == PointStatus::Skipped) {
                // Delivery is a contiguous grid prefix: once a point
                // was skipped (cancellation landed), later points that
                // happened to finish in flight are kept in the result
                // and the journal but not streamed.
                delivery_stopped = true;
                return;
            }
            if (slot.status == PointStatus::Quarantined &&
                !slot.restored) {
                quarantined_counter.add();
                retries_counter.add(slot.attempts - 1);
                if (slot.failure.kind == FailureKind::Timeout)
                    timeouts_counter.add();
                if (obs != nullptr)
                    obs->events().append(
                        0.0,
                        slot.failure.step == RunFailure::kNoStep
                            ? -1
                            : static_cast<long>(slot.failure.step),
                        "sweep.quarantine",
                        slot.label.empty()
                            ? "point " + std::to_string(i)
                            : slot.label,
                        slot.failure.describe());
            } else if (slot.status == PointStatus::Completed &&
                       !slot.restored) {
                retries_counter.add(slot.attempts - 1);
            }
            if (journal != nullptr && !slot.restored)
                journal->append(slot);
            if (on_result && !delivery_stopped)
                on_result(slot);
        };

    forEachOrdered(n, result.workers, compute, emit);

    result.wall_s = secondsSince(sweep_t0);
    result.lookup_spaces_built =
        sched::LookupSpaceCache::instance().builds() - builds_before;
    result.cancelled = cancel_requested();
    for (const SweepPointResult &p : result.points) {
        if (p.status == PointStatus::Completed)
            ++result.runs_completed;
        if (p.status == PointStatus::Quarantined)
            ++result.quarantined;
        if (p.restored)
            ++result.points_restored;
        if (!p.restored && p.attempts > 1)
            result.retries += p.attempts - 1;
    }
    if (journal != nullptr)
        journal->close();
    sweep_span.stop();
    return result;
}

} // namespace core
} // namespace h2p
