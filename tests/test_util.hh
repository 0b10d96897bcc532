/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef ICH_TESTS_TEST_UTIL_HH
#define ICH_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "channels/channel.hh"
#include "chip/presets.hh"
#include "chip/simulation.hh"

namespace ich
{
namespace test
{

/** Every preset: the three §5.1 parts, the server part and the Zen part. */
inline std::vector<ChipConfig>
allPresets()
{
    return {presets::haswell(), presets::coffeeLake(), presets::cannonLake(),
            presets::skylakeServer(), presets::zenLike()};
}

/** Cannon Lake pinned to a fixed frequency (the paper's PoC setup). */
inline ChipConfig
pinnedCannonLake(double freq_ghz = 1.4)
{
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = freq_ghz;
    return cfg;
}

/**
 * A chip where power management never interferes with execution timing
 * (secure mode pins the guardband; no transitions, no throttling) —
 * for pure execution-model tests.
 */
inline ChipConfig
quietChip(double freq_ghz = 1.4, int smt = 2)
{
    ChipConfig cfg = pinnedCannonLake(freq_ghz);
    cfg.pmu.secureMode = true;
    cfg.pmu.vr.commandJitter = 0;
    cfg.core.smtThreads = smt;
    // Neutralize turbo licenses too: execution-model tests must see no
    // power-management interference at any pinned frequency.
    double top = cfg.pmu.pstate.binsGhz.back();
    cfg.pmu.pstate.licenseMaxGhz = {top, top, top};
    return cfg;
}

/**
 * True if @p vr carries @p factory's slew rate, command latency and
 * settle time: the parameters that tell the three VR styles apart.
 */
inline bool
sameVrStyle(const VrConfig &vr, const VrConfig &factory)
{
    return vr.slewVoltsPerSecond == factory.slewVoltsPerSecond &&
           vr.commandLatency == factory.commandLatency &&
           vr.settleTime == factory.settleTime;
}

/** Expected unthrottled duration of a kernel at @p freq_ghz, in ps. */
inline Time
kernelPicos(const Kernel &k, double freq_ghz)
{
    return static_cast<Time>(k.totalCycles() * cyclePicos(freq_ghz));
}

/**
 * Measured duration (µs) of a probe loop of @p probe executed right
 * after a loop of @p prelude on core 0 / SMT 0 (the Fig. 10b setup).
 * The chip starts from baseline voltage.
 */
inline double
probeAfterUs(const ChipConfig &cfg, InstClass prelude, InstClass probe,
             std::uint64_t prelude_iters = 400,
             std::uint64_t probe_iters = 100, std::uint64_t seed = 1)
{
    Simulation sim(cfg, seed);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loop(prelude, prelude_iters, 100);
    p.mark(0);
    p.loop(probe, probe_iters, 100);
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    return toMicroseconds(recs.at(1).time - recs.at(0).time);
}

/**
 * Measured duration (µs) of a single loop of @p cls from baseline on
 * core 0 / SMT 0 (the Fig. 10a setup, one core).
 */
inline double
loopFromBaselineUs(const ChipConfig &cfg, InstClass cls,
                   std::uint64_t iters = 400, std::uint64_t seed = 1)
{
    Simulation sim(cfg, seed);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loop(cls, iters, 100);
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    return toMicroseconds(recs.at(1).time - recs.at(0).time);
}

/**
 * Throttling-period estimate (µs) for a loop of @p cls from baseline:
 * measured time minus unthrottled time. While throttled the loop still
 * progresses at 1/4 rate, so this equals 3/4 of the raw throttle window
 * — a fixed scale factor that preserves ordering and level separation.
 */
inline double
throttlePeriodUs(const ChipConfig &cfg, InstClass cls, double freq_ghz,
                 std::uint64_t iters = 400, std::uint64_t seed = 1)
{
    double measured = loopFromBaselineUs(cfg, cls, iters, seed);
    double nominal =
        toMicroseconds(kernelPicos(makeKernel(cls, iters, 100), freq_ghz));
    return measured - nominal;
}

/** FNV-1a-64 over bytes and raw IEEE-754 doubles (little-endian). */
struct Fnv1a {
    std::uint64_t h = 0xCBF29CE484222325ULL;

    void byte(std::uint8_t b)
    {
        h ^= b;
        h *= 0x100000001B3ULL;
    }

    void real(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
};

/** Digest of raw measurements (e.g. runClasses' per-transaction TPs). */
inline std::uint64_t
samplesDigest(const std::vector<double> &samples)
{
    Fnv1a f;
    for (double v : samples)
        f.real(v);
    return f.h;
}

/**
 * Digest of a transfer's exact output: every tpUs value and then
 * seconds and throughputBps as raw bits, with the received bits in
 * between. Pins a channel's numbers bit for bit.
 */
inline std::uint64_t
transmitDigest(const TransmitResult &r)
{
    Fnv1a f;
    for (double v : r.tpUs)
        f.real(v);
    for (std::uint8_t b : r.receivedBits)
        f.byte(b);
    f.real(r.seconds);
    f.real(r.throughputBps);
    return f.h;
}

} // namespace test
} // namespace ich

#endif // ICH_TESTS_TEST_UTIL_HH
