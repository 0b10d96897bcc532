/**
 * @file
 * Server-processor tests (paper §6.4: server parts share the client core
 * microarchitecture, so at least one IChannels channel affects them).
 */

#include <gtest/gtest.h>

#include "channels/cores_channel.hh"
#include "channels/smt_channel.hh"
#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

ChannelConfig
serverConfig()
{
    ChannelConfig cfg;
    cfg.chip = presets::skylakeServer();
    cfg.freqGhz = 2.1;
    cfg.seed = 83;
    return cfg;
}

TEST(ServerPreset, Shape)
{
    ChipConfig cfg = presets::skylakeServer();
    EXPECT_EQ(cfg.numCores, 16);
    EXPECT_EQ(cfg.core.smtThreads, 2);
    EXPECT_TRUE(presets::hasAvx512(cfg));
    EXPECT_TRUE(test::sameVrStyle(cfg.pmu.vr, VrConfig::integrated()));
    EXPECT_GT(cfg.pmu.limits.iccMaxAmps, 100.0); // server-class VR
}

TEST(ServerPreset, ConstructsAndIdles)
{
    Simulation sim(presets::skylakeServer());
    sim.runFor(fromMicroseconds(200));
    EXPECT_GT(sim.chip().vccVolts(), 0.5);
    EXPECT_EQ(sim.chip().coreCount(), 16);
}

TEST(ServerPreset, ThreadChannelWorks)
{
    IccThreadCovert ch(serverConfig());
    BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0};
    EXPECT_EQ(ch.transmit(bits).bitErrors, 0u);
}

TEST(ServerPreset, SmtChannelWorks)
{
    IccSMTcovert ch(serverConfig());
    BitVec bits = {0, 1, 1, 0, 1, 0};
    EXPECT_EQ(ch.transmit(bits).bitErrors, 0u);
}

TEST(ServerPreset, CoresChannelWorks)
{
    IccCoresCovert ch(serverConfig());
    BitVec bits = {1, 1, 0, 0, 1, 0};
    EXPECT_EQ(ch.transmit(bits).bitErrors, 0u);
}

TEST(ServerPreset, ManyIdleCoresDoNotPerturbChannel)
{
    // 14 idle cores sit on the same rail; the channel between cores 0/1
    // stays as clean as on the 2-core mobile part.
    IccCoresCovert server(serverConfig());
    double sep = server.calibration().minSeparationUs();
    EXPECT_GT(sep, 0.25);
}

} // namespace
} // namespace ich
