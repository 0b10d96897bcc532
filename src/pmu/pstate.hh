/**
 * @file
 * P-state (frequency bin) table and turbo-license mapping (paper §5.3).
 *
 * Intel exposes three turbo licenses (LVL{0,1,2}_TURBO_LICENSE) keyed to
 * the computational intensity of in-flight instructions; each license caps
 * the attainable turbo frequency. These license-driven caps are distinct
 * from the five guardband levels (§5.5, footnote 11). The license-release
 * delay (milliseconds, a constant in central_pmu.cc) is what makes the
 * TurboCC baseline slow.
 */

#ifndef ICH_PMU_PSTATE_HH
#define ICH_PMU_PSTATE_HH

#include <array>
#include <cstddef>
#include <vector>

namespace ich
{

/** P-state / turbo-license configuration. */
struct PstateConfig {
    /** Allowed frequency bins, GHz, ascending; the first is the
     *  minimum operating frequency. */
    std::vector<double> binsGhz;
    /** Max turbo at license LVL0 / LVL1 / LVL2. */
    std::array<double, 3> licenseMaxGhz = {4.9, 4.3, 3.6};
};

/** Map a guardband level (0..4) to a turbo license (0..2). */
int licenseForGbLevel(int gb_level);

/**
 * Index of the highest bin at or below @p ghz (within 1e-9 GHz), or 0 if
 * every bin lies above it. A binary search: @p bins_ghz must be
 * non-empty and ascending, as every preset's bins are.
 */
std::size_t binIndexAtOrBelow(double ghz, const std::vector<double> &bins_ghz);

/**
 * Snap @p ghz to the nearest bin at or below it: the lowest bin if every
 * bin lies above it, @p ghz itself if there are no bins. Same ascending
 * precondition as binIndexAtOrBelow().
 */
double snapDownToBin(double ghz, const std::vector<double> &bins_ghz);

} // namespace ich

#endif // ICH_PMU_PSTATE_HH
