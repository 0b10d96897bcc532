/**
 * @file
 * Cross-module integration and property tests: full-payload exfiltration
 * with framing, parameterized sweeps over presets × channels, throughput
 * ratios vs. all baselines (Fig. 12), determinism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/dfscovert.hh"
#include "baselines/netspectre.hh"
#include "baselines/powert.hh"
#include "baselines/turbocc.hh"
#include "channels/cores_channel.hh"
#include "channels/smt_channel.hh"
#include "channels/thread_channel.hh"
#include "chip/presets.hh"

namespace ich
{
namespace
{

ChannelConfig
cfgFor(const std::string &preset)
{
    ChannelConfig cfg;
    if (preset == "haswell")
        cfg.chip = presets::haswell();
    else if (preset == "coffeelake")
        cfg.chip = presets::coffeeLake();
    else
        cfg.chip = presets::cannonLake();
    cfg.seed = 41;
    return cfg;
}

// ---------------------------------------------------------------------
// Parameterized sweep: every channel on every preset that supports it
// must transfer a payload error-free without noise (the Fig. 13
// low-noise regime).
// ---------------------------------------------------------------------
using ChannelCase = std::tuple<std::string, ChannelKind>;

class ChannelMatrix : public ::testing::TestWithParam<ChannelCase>
{
};

TEST_P(ChannelMatrix, NoiselessPayloadErrorFree)
{
    auto [preset, kind] = GetParam();
    ChannelConfig cfg = cfgFor(preset);
    auto ch = makeChannel(kind, cfg);
    BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0, 0, 1};
    TransmitResult res = ch->transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u) << preset << "/" << toString(kind);
    EXPECT_GT(res.throughputBps, 2500.0);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsTimesChannels, ChannelMatrix,
    ::testing::Values(
        ChannelCase{"cannonlake", ChannelKind::kThread},
        ChannelCase{"cannonlake", ChannelKind::kSmt},
        ChannelCase{"cannonlake", ChannelKind::kCores},
        ChannelCase{"coffeelake", ChannelKind::kThread},
        ChannelCase{"coffeelake", ChannelKind::kCores},
        ChannelCase{"haswell", ChannelKind::kThread},
        ChannelCase{"haswell", ChannelKind::kSmt},
        ChannelCase{"haswell", ChannelKind::kCores}),
    [](const ::testing::TestParamInfo<ChannelCase> &info) {
        std::string name = std::get<0>(info.param);
        name += "_";
        name += toString(std::get<1>(info.param));
        return name;
    });

// ---------------------------------------------------------------------
// Fig. 12 throughput ratios.
// ---------------------------------------------------------------------
TEST(Integration, Fig12ThroughputRatios)
{
    ChannelConfig cfg = cfgFor("cannonlake");
    IccCoresCovert ich(cfg);
    double ich_bps = ich.ratedThroughputBps();

    NetSpectre ns(cfg);
    EXPECT_NEAR(ich_bps / ns.ratedThroughputBps(), 2.0, 0.05);

    TurboCC tc(presets::cannonLake(), 1);
    double r_turbo = ich_bps / tc.ratedThroughputBps();
    EXPECT_GT(r_turbo, 35.0); // paper: 47x
    EXPECT_LT(r_turbo, 60.0);

    DfsCovert dc(presets::cannonLake(), 1);
    double r_dfs = ich_bps / dc.ratedThroughputBps();
    EXPECT_GT(r_dfs, 110.0); // paper: 145x
    EXPECT_LT(r_dfs, 180.0);

    PowerT pt(presets::cannonLake(), 1);
    double r_pow = ich_bps / pt.ratedThroughputBps();
    EXPECT_GT(r_pow, 20.0); // paper: 24x
    EXPECT_LT(r_pow, 30.0);
}

// ---------------------------------------------------------------------
// End-to-end "exfiltrate a key" scenario with framing + CRC.
// ---------------------------------------------------------------------
TEST(Integration, ExfiltrateKeyWithCrc)
{
    ChannelConfig cfg = cfgFor("cannonlake");
    IccCoresCovert ch(cfg);
    std::vector<std::uint8_t> key = {0xDE, 0xAD, 0xBE, 0xEF,
                                     0x01, 0x23, 0x45, 0x67};
    BitVec bits = bytesToBits(key);
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_EQ(bitsToBytes(res.receivedBits), key);
    EXPECT_EQ(crc16(res.receivedBits), crc16(bits));
}

// ---------------------------------------------------------------------
// Determinism: identical configuration and seed => identical traces.
// ---------------------------------------------------------------------
TEST(Integration, FullRunsDeterministic)
{
    auto run = [] {
        ChannelConfig cfg = cfgFor("cannonlake");
        cfg.noise.interruptRatePerSec = 2000.0;
        IccSMTcovert ch(cfg);
        return ch.transmit({1, 0, 1, 1, 0, 0, 1, 0});
    };
    TransmitResult a = run();
    TransmitResult b = run();
    EXPECT_EQ(a.tpUs, b.tpUs);
    EXPECT_EQ(a.receivedBits, b.receivedBits);
}

// ---------------------------------------------------------------------
// Property sweep: per-symbol TP means are monotone in symbol level on
// all presets for the thread channel.
// ---------------------------------------------------------------------
class ThreadMonotone : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ThreadMonotone, TpMonotoneInSymbol)
{
    ChannelConfig cfg = cfgFor(GetParam());
    IccThreadCovert ch(cfg);
    const Calibration &cal = ch.calibration();
    for (int s = 1; s < kNumSymbols; ++s)
        EXPECT_LT(cal.meanUs(s), cal.meanUs(s - 1));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, ThreadMonotone,
                         ::testing::Values("cannonlake", "coffeelake",
                                           "haswell"));

} // namespace
} // namespace ich
