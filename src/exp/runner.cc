#include "exp/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exp/colstore.hh"
#include "exp/resume.hh"

namespace ich
{
namespace exp
{

int
resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepRunner::SweepRunner(RunnerOptions opts) : opts_(std::move(opts)) {}

StreamStats
SweepRunner::runStreaming(const ScenarioSpec &spec, ResultSink &sink) const
{
    if (!spec.run)
        throw std::invalid_argument("SweepRunner: scenario '" + spec.name +
                                    "' has no trial function");

    const SweepMeta meta = sweepMeta(spec, opts_.seed, opts_.trials);

    StreamStats stats;
    stats.points = meta.points.size();
    stats.jobs = resolveJobs(opts_.jobs);

    const std::size_t trials_per_point =
        static_cast<std::size_t>(meta.trialsPerPoint);
    const std::size_t n_points = meta.points.size();
    const std::size_t total = n_points * trials_per_point;

    auto t0 = std::chrono::steady_clock::now();

    sink.beginSweep(meta);

    // Resume: replay points completed by a previous matching run into
    // the sink (index order).
    std::vector<char> point_done(n_points, 0);
    const bool resumable = !opts_.resumeDir.empty();
    std::string store_path;
    if (resumable) {
        store_path = resultStorePath(opts_.resumeDir, meta.scenario);
        try {
            ColumnStoreReader prior(store_path);
            if (prior.matches(meta)) {
                prior.forEachPoint(
                    [&](std::size_t idx,
                        const std::vector<TrialRecord> &records) {
                        sink.acceptPoint(idx, records.data(),
                                         records.size());
                        point_done[idx] = 1;
                        ++stats.resumedPoints;
                    });
            } else {
                std::fprintf(stderr,
                             "warning: %s does not match this sweep "
                             "(grid/seed/trials changed) — restarting "
                             "from scratch\n",
                             store_path.c_str());
            }
        } catch (const state::ArchiveError &) {
            // Missing or unusable store: start fresh.
        }
    }

    // Durable checkpoint: O(1) fsync'd append per completed point. The
    // writer adopts a matching store (it will not re-append the points
    // replayed above) and recreates a stale one. Checkpointing is an
    // optimization, never worth the sweep: any failure warns once and
    // disables it.
    std::unique_ptr<ColumnStoreWriter> checkpoint;
    std::atomic<bool> checkpoint_ok{false};
    if (resumable) {
        try {
            checkpoint.reset(
                new ColumnStoreWriter(store_path, /*durable=*/true));
            checkpoint->beginSweep(meta);
            checkpoint_ok.store(true);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "warning: sweep checkpointing disabled: %s\n",
                         e.what());
            checkpoint.reset();
        }
    }

    // Pending work: the flat trial indices of not-yet-complete points,
    // point-major — workers march through one point's trials before
    // opening the next, so the open-point set stays O(jobs). The list
    // is implicit (a cursor over [0, total) that skips resumed points):
    // materializing it would cost O(total trials) memory, the very
    // class of residual the streaming path exists to avoid.
    std::size_t done_points = 0;
    for (std::size_t p = 0; p < n_points; ++p)
        done_points += point_done[p] ? 1 : 0;
    const std::size_t pending_trials =
        (n_points - done_points) * trials_per_point;

    // In-flight point buffers, allocated on first touch and released
    // the moment the point is handed to the sink. The outer vector is
    // index stability (never resized); only the inner vectors churn.
    std::vector<std::vector<TrialRecord>> open(n_points);
    std::mutex open_mu;

    // Per-point countdown driving the sink hand-off; acq_rel on the
    // final decrement makes every sibling trial's record visible to
    // the handing worker.
    std::unique_ptr<std::atomic<int>[]> remaining(
        new std::atomic<int>[n_points]);
    for (std::size_t p = 0; p < n_points; ++p)
        remaining[p].store(static_cast<int>(trials_per_point),
                           std::memory_order_relaxed);

    // Work distribution: an atomic cursor over the flat trial range.
    // Workers write only their own trial slot, so no result ordering
    // depends on scheduling.
    std::atomic<std::size_t> cursor{0};
    std::mutex sink_mu;
    std::mutex error_mu;
    std::size_t first_error_idx = total;
    std::string first_error_msg;

    auto record_error = [&](std::size_t idx, const std::string &msg) {
        {
            std::lock_guard<std::mutex> lock(error_mu);
            if (idx < first_error_idx) {
                first_error_idx = idx;
                first_error_msg = msg;
            }
        }
        // The sweep is doomed; drain the queue so in-flight trials are
        // the only remaining work instead of running the whole grid.
        cursor.store(total);
    };

    auto worker = [&]() {
        for (;;) {
            std::size_t idx = cursor.fetch_add(1);
            if (idx >= total)
                return;
            std::size_t point_idx = idx / trials_per_point;
            if (point_done[point_idx])
                continue; // resumed point: already in the sink
            {
                // First toucher allocates the point's trial buffer;
                // afterwards siblings write disjoint slots lock-free.
                std::lock_guard<std::mutex> lock(open_mu);
                if (open[point_idx].empty())
                    open[point_idx].resize(trials_per_point);
            }
            TrialRecord &rec =
                open[point_idx][idx % trials_per_point];
            rec.pointIndex = point_idx;
            rec.trial = static_cast<int>(idx % trials_per_point);
            rec.seed = deriveTrialSeed(meta.baseSeed, idx);
            TrialContext ctx{meta.points[point_idx], point_idx,
                             rec.trial, rec.seed};
            bool ok = true;
            try {
                rec.metrics = spec.run(ctx);
            } catch (const std::exception &e) {
                ok = false;
                record_error(idx, e.what());
            } catch (...) {
                // A non-std::exception escaping the worker thread would
                // otherwise std::terminate the whole process.
                ok = false;
                record_error(idx, "unknown exception type");
            }
            if (ok && remaining[point_idx].fetch_sub(
                          1, std::memory_order_acq_rel) == 1) {
                // Last trial of this point: hand it to the sink and
                // drop the buffer. Sink calls are serialized here.
                std::lock_guard<std::mutex> lock(sink_mu);
                std::vector<TrialRecord> records;
                records.swap(open[point_idx]);
                sink.acceptPoint(point_idx, records.data(),
                                 records.size());
                if (checkpoint_ok.load()) {
                    try {
                        checkpoint->acceptPoint(point_idx,
                                                records.data(),
                                                records.size());
                    } catch (const std::exception &e) {
                        // A throw would escape the thread and
                        // std::terminate: warn once and carry on
                        // without resume support.
                        if (checkpoint_ok.exchange(false))
                            std::fprintf(stderr,
                                         "warning: sweep checkpointing "
                                         "disabled: %s\n",
                                         e.what());
                    }
                }
            }
        }
    };

    int n_workers = static_cast<int>(
        std::min<std::size_t>(stats.jobs, pending_trials));
    if (n_workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n_workers);
        try {
            for (int i = 0; i < n_workers; ++i)
                pool.emplace_back(worker);
        } catch (...) {
            // Unwinding past a joinable thread would std::terminate:
            // stop handing out trials and join the workers started.
            cursor.store(total);
            for (auto &t : pool)
                t.join();
            throw;
        }
        for (auto &t : pool)
            t.join();
    }
    stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (first_error_idx < total) {
        throw std::runtime_error(
            "scenario '" + spec.name + "': trial " +
            std::to_string(first_error_idx) + " (" +
            meta.points[first_error_idx / trials_per_point].toString() +
            ") failed: " + first_error_msg);
    }

    sink.endSweep();
    if (checkpoint_ok.load()) {
        try {
            checkpoint->endSweep();
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "warning: result store footer not written: "
                         "%s\n",
                         e.what());
        }
    }
    return stats;
}

SweepResult
SweepRunner::run(const ScenarioSpec &spec) const
{
    MaterializeSink materialize;
    StreamStats stats = runStreaming(spec, materialize);
    SweepResult result = materialize.take();
    result.jobs = stats.jobs;
    result.wallSeconds = stats.wallSeconds;
    result.resumedPoints = stats.resumedPoints;
    result.aggregates = aggregate(result.points, result.trials);
    return result;
}

} // namespace exp
} // namespace ich
