/**
 * @file
 * Resumable-sweep persistence: the completed-points result store and
 * the on-disk warm-snapshot cache the SweepRunner writes into the
 * result directory when resume mode is on.
 *
 * Completed points live in the append-only columnar store
 * (exp/colstore.hh) at resultStorePath() — the same file format the
 * streaming result path spills into, so a finished sweep's store IS
 * its resume checkpoint. Metric values are raw IEEE-754 bit patterns,
 * so a resumed sweep reconstructs them bit-exactly and its
 * aggregates/reports stay byte-identical to an uninterrupted run. The
 * store header fingerprints the grid (scenario, seed, trials, expanded
 * points) and guards against resuming into a different sweep.
 *
 * Checkpointing appends one fsync'd CRC-framed chunk per completed
 * point — O(1) per point, where the old text manifest rewrote the
 * whole file each time (O(points²) over a sweep). A kill mid-append
 * leaves a torn tail that readers drop; every completed point before
 * it survives.
 *
 * ResumeManifest is the in-memory form of one such store:
 * loadManifest() reads a column store into it and writeManifest()
 * atomically writes it back as one.
 */

#ifndef ICH_EXP_RESUME_HH
#define ICH_EXP_RESUME_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/aggregate.hh"
#include "exp/scenario.hh"

namespace ich
{
namespace exp
{

/** Everything a restart needs to trust and reuse prior work. */
struct ResumeManifest {
    std::string scenario;
    std::uint64_t baseSeed = 0;
    int trialsPerPoint = 0;
    std::uint64_t numPoints = 0;
    std::uint64_t gridFp = 0;
    /** Completed points: point index -> its trials in trial order. */
    std::map<std::size_t, std::vector<TrialRecord>> points;

    /** True when @p other describes the same sweep. */
    bool matches(const ResumeManifest &other) const;
};

/** FNV-1a fingerprint of the expanded grid (axes, labels, values). */
std::uint64_t gridFingerprint(const std::vector<ParamPoint> &points);

/** `<dir>/<scenario>.colstore` — the sweep's columnar result store. */
std::string resultStorePath(const std::string &dir,
                            const std::string &scenario);

/** `<dir>/<scenario>.warm-<fnv64(key)>.snap` */
std::string warmSnapshotPath(const std::string &dir,
                             const std::string &scenario,
                             const std::string &key);

/**
 * Load a column store into a ResumeManifest. Returns false when the
 * file is missing or unusable (a corrupt store is treated as absent:
 * the sweep restarts from scratch rather than failing — resume is an
 * optimization, never a correctness dependency). A torn tail is fine:
 * every intact point before it loads.
 */
bool loadManifest(const std::string &path, ResumeManifest &out);

/**
 * Atomically persist @p m as a whole column store (creates the
 * directory when needed). This is the whole-store rewrite path; the
 * incremental checkpoint path is ColumnStoreWriter in durable mode.
 */
void writeManifest(const std::string &path, const ResumeManifest &m);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_RESUME_HH
