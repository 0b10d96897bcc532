/**
 * @file
 * Mitigation tests mirroring Table 1 (paper §7): which mitigation kills
 * which channel, and the secure-mode power overhead.
 */

#include <gtest/gtest.h>

#include "channels/cores_channel.hh"
#include "channels/smt_channel.hh"
#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "mitigations/mitigations.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

ChannelConfig
withChip(ChipConfig chip)
{
    ChannelConfig cfg;
    cfg.chip = std::move(chip);
    cfg.seed = 37;
    return cfg;
}

constexpr double kDeadUs = 0.25;  // below measurement jitter
constexpr double kAliveUs = 0.5;

TEST(Mitigations, ConfigTransformsSetFlags)
{
    ChipConfig base = presets::cannonLake();
    EXPECT_TRUE(mitigations::withPerCoreVr(base).pmu.perCoreVr);
    EXPECT_TRUE(test::sameVrStyle(mitigations::withPerCoreVr(base).pmu.vr,
                                  VrConfig::lowDropout()));
    EXPECT_TRUE(mitigations::withImprovedThrottling(base)
                    .core.throttle.perThread);
    EXPECT_TRUE(mitigations::withSecureMode(base).pmu.secureMode);
}

// Table 1 row 1: per-core VR — partial for thread/SMT, full for cores.
TEST(Mitigations, PerCoreVrKillsCoresPartialElsewhere)
{
    ChipConfig m = mitigations::withPerCoreVr(presets::cannonLake());
    IccCoresCovert cores(withChip(m));
    EXPECT_LT(cores.calibration().minSeparationUs(), 0.1);

    // Thread channel: levels compressed by ~2 orders of magnitude
    // (LDO ramps in <0.5 us) but not exactly zero — "partial".
    IccThreadCovert thread_base(withChip(presets::cannonLake()));
    IccThreadCovert thread_ldo(withChip(m));
    double base_sep = thread_base.calibration().minSeparationUs();
    double ldo_sep = thread_ldo.calibration().minSeparationUs();
    EXPECT_LT(ldo_sep, base_sep / 10.0);
}

// Table 1 row 2: improved throttling — kills SMT only.
TEST(Mitigations, ImprovedThrottlingKillsSmtOnly)
{
    ChipConfig m =
        mitigations::withImprovedThrottling(presets::cannonLake());
    IccSMTcovert smt(withChip(m));
    EXPECT_LT(smt.calibration().minSeparationUs(), kDeadUs);

    IccThreadCovert thread(withChip(m));
    EXPECT_GT(thread.calibration().minSeparationUs(), kAliveUs);

    IccCoresCovert cores(withChip(m));
    EXPECT_GT(cores.calibration().minSeparationUs(), kAliveUs);
}

// Table 1 row 3: secure mode — kills all three.
TEST(Mitigations, SecureModeKillsAllThree)
{
    ChipConfig m = mitigations::withSecureMode(presets::cannonLake());
    IccThreadCovert thread(withChip(m));
    EXPECT_LT(thread.calibration().minSeparationUs(), kDeadUs);
    IccSMTcovert smt(withChip(m));
    EXPECT_LT(smt.calibration().minSeparationUs(), kDeadUs);
    IccCoresCovert cores(withChip(m));
    EXPECT_LT(cores.calibration().minSeparationUs(), kDeadUs);
}

// §7: secure mode costs up to ~4% (AVX2 systems) / ~11% (AVX-512).
TEST(Mitigations, SecureModeOverheadInPaperRange)
{
    ChipConfig cfg = presets::cannonLake();
    double avx2 = mitigations::secureModePowerOverheadPct(cfg, 2.2, 3);
    double avx512 = mitigations::secureModePowerOverheadPct(cfg, 2.2, 4);
    EXPECT_GT(avx2, 2.0);
    EXPECT_LT(avx2, 6.0);
    EXPECT_GT(avx512, avx2);
    EXPECT_LT(avx512, 12.0);
}

TEST(Mitigations, SecureModeBurnsMorePower)
{
    // The guardband is pinned high, so idle rail voltage (and power)
    // exceeds the baseline chip's.
    Simulation base(presets::cannonLake());
    Simulation secure(mitigations::withSecureMode(presets::cannonLake()));
    EXPECT_GT(secure.chip().vccVolts(), base.chip().vccVolts());
    EXPECT_GT(secure.chip().powerWatts(), base.chip().powerWatts());
}

TEST(Mitigations, OverheadDescriptions)
{
    EXPECT_NE(mitigations::overheadDescription("per-core-vr")
                  .find("area"),
              std::string::npos);
    EXPECT_NE(mitigations::overheadDescription("secure-mode")
                  .find("power"),
              std::string::npos);
}

} // namespace
} // namespace ich
