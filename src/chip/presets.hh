/**
 * @file
 * Chip presets for the three processors the paper characterizes (§5.1):
 *
 *  - Haswell Core i7-4770K: 4C/8T, FIVR (fast integrated VR, so shorter
 *    throttling periods, Fig. 8a), no AVX power gate (introduced in
 *    Skylake), no AVX-512.
 *  - Coffee Lake Core i7-9700K: 8C/8T desktop, MBVR, AVX power gate,
 *    no SMT, no AVX-512. Vccmax = 1.27 V, Iccmax = 100 A (Fig. 7a).
 *  - Cannon Lake Core i3-8121U: 2C/4T mobile, MBVR, AVX power gate,
 *    AVX-512. Vccmax = 1.15 V, Iccmax = 29 A (Fig. 7a/b).
 *
 * ΔCdyn / RLL / V-F parameters are calibrated so the guardband steps match
 * Fig. 6 (~8 mV per AVX2 core at 2 GHz) and the limit crossovers match
 * Fig. 7a; bench/ablation_sweeps probes how sensitive the channels are
 * to the PDN choices.
 *
 * A preset sets only what differs between parts; the timings all parts
 * share are constants beside the code that reads them (EXPERIMENTS.md
 * "Chip constants").
 */

#ifndef ICH_CHIP_PRESETS_HH
#define ICH_CHIP_PRESETS_HH

#include "chip/chip.hh"

namespace ich
{
namespace presets
{

ChipConfig haswell();
ChipConfig coffeeLake();
ChipConfig cannonLake();

/**
 * Server-class part (paper §6.4: client and server cores share the same
 * microarchitecture — a Skylake-SP-like 16C/32T Xeon with FIVR and
 * AVX-512). All three channels work unchanged on it.
 */
ChipConfig skylakeServer();

/**
 * AMD Zen-like part (paper §7 "IChannels on other Microarchitectures"):
 * recent AMD processors use per-core LDO regulators [7, 9, 93, 94, 96,
 * 103], so naively porting IChannels to them does not work — the
 * cross-core channel has no shared-rail serialization to exploit and the
 * sub-microsecond LDO transitions bury the thread/SMT levels in jitter.
 */
ChipConfig zenLike();

/** True if the preset's ISA includes AVX-512 (512b classes). */
bool hasAvx512(const ChipConfig &cfg);

} // namespace presets
} // namespace ich

#endif // ICH_CHIP_PRESETS_HH
