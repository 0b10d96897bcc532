/**
 * @file
 * Reporters for sweep results: the table-style text the bench harnesses
 * have always printed, plus machine-readable JSON and CSV written to a
 * results directory.
 *
 * All three formats are derived only from deterministic sweep content
 * (points, seeds, aggregates) — never from execution metadata like the
 * worker count or wall time — so reports are byte-identical across
 * --jobs settings.
 *
 * Every reporter has two front ends over one shared renderer:
 *
 *  - SweepResult: the materialized path (everything in memory).
 *  - StoreSweepView: the streaming path — aggregates come from a
 *    StreamingAggregator, raw trials and whole-sweep rollups are
 *    re-read from the columnar result store (exp/colstore.hh) in
 *    ascending point order, which *is* global trial order. Output is
 *    byte-identical to the materialized path; memory stays bounded by
 *    one decoded chunk plus the rollup sample vectors.
 */

#ifndef ICH_EXP_REPORT_HH
#define ICH_EXP_REPORT_HH

#include <string>

#include "exp/aggregate.hh"
#include "exp/sink.hh"

namespace ich
{
namespace exp
{

class ColumnStoreReader; // exp/colstore.hh

/**
 * A sweep viewed through its streamed aggregates and its on-disk
 * column store, instead of a materialized SweepResult. Pure view: all
 * three referents must outlive it.
 */
struct StoreSweepView {
    const SweepMeta &meta;
    const StreamingAggregator &agg;
    /** Source of raw trials and rollups (must cover the whole grid). */
    const ColumnStoreReader &store;
};

/**
 * Column-aligned text table: one row per grid point; axis columns show
 * labels, metric columns show "mean" (single trial) or "mean ±stddev".
 */
std::string textReport(const SweepResult &result);
std::string textReport(const StoreSweepView &view);

/**
 * Full JSON document: scenario header, per-point parameter values and
 * metric summaries, whole-sweep rollups, and the raw per-trial records
 * with their derived seeds.
 */
std::string jsonReport(const SweepResult &result);
std::string jsonReport(const StoreSweepView &view);

/**
 * Wide CSV: one row per grid point; axis label columns followed by
 * `<metric>_mean` / `<metric>_stddev` columns. (Full percentiles live
 * in the JSON report.)
 */
std::string csvReport(const SweepResult &result);
std::string csvReport(const StoreSweepView &view);

/** Paths produced by writeReports(); empty when a format was skipped. */
struct ReportPaths {
    std::string json;
    std::string csv;
};

/** Format selection for writeReports(). */
struct ReportOptions {
    /** Write `<scenario>.json`. */
    bool json = true;
    /** Write `<scenario>.csv`. */
    bool csv = true;
};

/**
 * Write `<scenario>.json` / `<scenario>.csv` into @p out_dir (created,
 * with parents, if missing), for whichever formats @p opts selects.
 * Throws std::runtime_error on I/O failure.
 */
ReportPaths writeReports(const SweepResult &result,
                         const std::string &out_dir,
                         const ReportOptions &opts = {});
ReportPaths writeReports(const StoreSweepView &view,
                         const std::string &out_dir,
                         const ReportOptions &opts = {});

} // namespace exp
} // namespace ich

#endif // ICH_EXP_REPORT_HH
