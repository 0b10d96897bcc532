/**
 * @file
 * §5.7 tests: software-level power-management policies do not affect the
 * hardware throttling mechanism — IChannels persists under userspace,
 * powersave and performance governors, because throttling is implemented
 * inside the core for nanosecond response and has no software disable.
 */

#include <gtest/gtest.h>

#include "channels/thread_channel.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

class GovernorPolicies
    : public ::testing::TestWithParam<GovernorPolicy>
{
};

TEST_P(GovernorPolicies, ThrottlingMechanismPersists)
{
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GetParam();
    cfg.pmu.governor.userspaceGhz = 1.4;
    cfg.pmu.vr.commandJitter = 0;
    Simulation sim(cfg, 7);
    Chip &chip = sim.chip();

    // Let any initial P-state settle, then run a PHI.
    sim.runFor(fromMilliseconds(1));
    Program p;
    p.loop(InstClass::k256Heavy, 400, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(sim.eq().now() + fromNanoseconds(200));
    // Hardware throttle asserted within nanoseconds, regardless of the
    // software policy in force.
    EXPECT_TRUE(chip.core(0).throttle().throttled())
        << "policy " << static_cast<int>(GetParam());
    sim.run(sim.eq().now() + fromMilliseconds(2));
    EXPECT_GT(chip.pmu().voltageRequests(), 0u);
}

TEST_P(GovernorPolicies, CovertChannelWorksUnderPolicy)
{
    // The PoC pins a userspace frequency, but the side-effect itself is
    // policy-independent; under powersave the chip simply sits at the
    // min frequency (which is itself a fixed frequency).
    if (GetParam() == GovernorPolicy::kPerformance) {
        // At max turbo the license machinery moves the clock mid-run;
        // the paper's PoC avoids this by pinning, and so do we: verify
        // the channel still decodes at the *license-capped* pin instead.
        ChannelConfig cfg;
        cfg.chip = presets::cannonLake();
        cfg.freqGhz = 1.8; // = LVL2 license cap: no mid-run transitions
        cfg.seed = 11;
        IccThreadCovert ch(cfg);
        EXPECT_EQ(ch.transmit({1, 0, 1, 1, 0, 0}).bitErrors, 0u);
        return;
    }
    ChannelConfig cfg;
    cfg.chip = presets::cannonLake();
    cfg.chip.pmu.governor.policy = GetParam();
    cfg.freqGhz = GetParam() == GovernorPolicy::kPowersave
                      ? cfg.chip.pmu.pstate.binsGhz.front()
                      : 1.4;
    cfg.seed = 11;
    IccThreadCovert ch(cfg);
    EXPECT_EQ(ch.transmit({1, 0, 1, 1, 0, 0}).bitErrors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GovernorPolicies,
    ::testing::Values(GovernorPolicy::kUserspace,
                      GovernorPolicy::kPowersave,
                      GovernorPolicy::kPerformance),
    [](const ::testing::TestParamInfo<GovernorPolicy> &info) {
        switch (info.param) {
          case GovernorPolicy::kUserspace:
            return std::string("userspace");
          case GovernorPolicy::kPowersave:
            return std::string("powersave");
          case GovernorPolicy::kPerformance:
            return std::string("performance");
        }
        return std::string("unknown");
    });

} // namespace
} // namespace ich
