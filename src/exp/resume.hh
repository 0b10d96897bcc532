/**
 * @file
 * Resumable-sweep persistence: where the SweepRunner keeps the
 * completed-points result store when resume mode is on, and the grid
 * fingerprint that ties a store to its sweep.
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
 * point — O(1) per point. A kill mid-append leaves a torn tail that
 * readers drop; every completed point before it survives.
 */

#ifndef ICH_EXP_RESUME_HH
#define ICH_EXP_RESUME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hh"

namespace ich
{
namespace exp
{

/** FNV-1a fingerprint of the expanded grid (axes, labels, values). */
std::uint64_t gridFingerprint(const std::vector<ParamPoint> &points);

/** `<dir>/<scenario>.colstore` — the sweep's columnar result store. */
std::string resultStorePath(const std::string &dir,
                            const std::string &scenario);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_RESUME_HH
