/**
 * @file
 * Ablation studies for the simulator's main design choices, as
 * declarative scenarios on the exp::SweepRunner (parallel across
 * --jobs workers; see --help for the shared harness flags).
 *
 * A1 — VR slew rate (the PDN knob separating Haswell/MBVR/LDO): how the
 *      thread channel's level separation scales with ramp speed, i.e.
 *      why the §7 LDO mitigation works.
 * A2 — Reset-time vs. transaction period: the hysteresis must fully
 *      decay between transactions; shortening the period below
 *      reset-time + TX + down-ramp corrupts the channel.
 * A3 — Throttle window (1-of-N IDQ delivery): signal magnitude on the
 *      SMT channel scales with N−1/N.
 * A4 — VR command jitter: decode robustness margin.
 * A5 — FEC scheme under heavy OS noise: goodput vs. reliability of the
 *      framed link (§6.3 strategies).
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "channels/framing.hh"
#include "exp/exp.hh"

using namespace ich;

namespace
{

ChannelConfig
base(std::uint64_t seed)
{
    ChannelConfig cfg;
    cfg.chip = presets::cannonLake();
    cfg.seed = seed;
    return cfg;
}

exp::ScenarioRegistry
buildScenarios()
{
    exp::ScenarioRegistry reg;

    exp::ScenarioSpec a1;
    a1.name = "a1-vr-slew";
    a1.description =
        "thread-channel level separation vs. VR slew rate (mV/us)";
    a1.axes = {exp::axis("slew_mV_per_us",
                         {0.5, 1.0, 2.5, 10.0, 50.0, 200.0})};
    a1.baseSeed = 61;
    a1.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg = base(ctx.seed);
        cfg.chip.pmu.vr.slewVoltsPerSecond =
            ctx.point.get("slew_mV_per_us") * 1000.0;
        IccThreadCovert ch(cfg);
        exp::MetricMap m;
        m["min_separation_us"] = ch.calibration().minSeparationUs();
        m["ber_40b"] = ch.transmit(bench::lcgPayload(40, 1)).ber;
        return m;
    };
    reg.add(std::move(a1));

    exp::ScenarioSpec a2;
    a2.name = "a2-period";
    a2.description =
        "BER vs. transaction period (reset-time fixed at 650 us)";
    a2.axes = {exp::axis("period_us",
                         {500.0, 620.0, 680.0, 710.0, 800.0})};
    a2.baseSeed = 62;
    a2.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg = base(ctx.seed);
        cfg.period = fromMicroseconds(ctx.point.get("period_us"));
        IccThreadCovert ch(cfg);
        exp::MetricMap m;
        m["rated_bps"] = ch.ratedThroughputBps();
        m["ber_60b"] = ch.transmit(bench::lcgPayload(60, 2)).ber;
        return m;
    };
    reg.add(std::move(a2));

    exp::ScenarioSpec a3;
    a3.name = "a3-throttle-window";
    a3.description =
        "SMT-channel signal vs. IDQ throttle window (1 of N cycles)";
    a3.axes = {exp::axis("window_N", {2.0, 4.0, 8.0})};
    a3.baseSeed = 63;
    a3.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg = base(ctx.seed);
        cfg.chip.core.throttle.windowCycles =
            ctx.point.getInt("window_N");
        IccSMTcovert ch(cfg);
        exp::MetricMap m;
        m["L1_mean_us"] = ch.calibration().meanUs(3);
        m["min_separation_us"] = ch.calibration().minSeparationUs();
        return m;
    };
    reg.add(std::move(a3));

    exp::ScenarioSpec a4;
    a4.name = "a4-cmd-jitter";
    a4.description = "BER vs. VR command jitter (ns)";
    a4.axes = {exp::axis("jitter_ns",
                         {0.0, 200.0, 500.0, 1000.0, 2000.0})};
    a4.baseSeed = 64;
    a4.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg = base(ctx.seed);
        cfg.chip.pmu.vr.commandJitter =
            fromNanoseconds(ctx.point.get("jitter_ns"));
        IccThreadCovert ch(cfg);
        exp::MetricMap m;
        m["ber_80b"] = ch.transmit(bench::lcgPayload(80, 3)).ber;
        return m;
    };
    reg.add(std::move(a4));

    exp::ScenarioSpec a5;
    a5.name = "a5-fec";
    a5.description = "framed link (64-bit frames, 4 attempts) under "
                     "8000 irq/s + 800 ctx/s";
    a5.axes = {exp::axisLabeledValues(
        "fec",
        {{toString(FecScheme::kNone),
          static_cast<double>(FecScheme::kNone)},
         {toString(FecScheme::kHamming74),
          static_cast<double>(FecScheme::kHamming74)},
         {toString(FecScheme::kRepetition3),
          static_cast<double>(FecScheme::kRepetition3)},
         {toString(FecScheme::kRepetition5),
          static_cast<double>(FecScheme::kRepetition5)}})};
    a5.baseSeed = 65;
    a5.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg = base(ctx.seed);
        cfg.noise.interruptRatePerSec = 8000.0;
        cfg.noise.contextSwitchRatePerSec = 800.0;
        IccThreadCovert ch(cfg);
        FramingConfig fcfg;
        fcfg.fec = static_cast<FecScheme>(ctx.point.getInt("fec"));
        FramedLink link(ch, fcfg);
        FramedResult r = link.transfer(bench::lcgPayload(128, 4));
        exp::MetricMap m;
        m["success"] = r.success ? 1.0 : 0.0;
        m["frames_sent"] = static_cast<double>(r.framesSent);
        m["goodput_bps"] = r.goodputBps;
        m["raw_ber"] = r.rawBerObserved;
        return m;
    };
    reg.add(std::move(a5));

    return reg;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ScenarioRegistry reg = buildScenarios();
    exp::CliOptions cli;
    int rc = exp::harnessSetup(argc, argv, reg, cli);
    if (rc >= 0)
        return rc;

    bench::banner("Ablations", "design-choice sensitivity sweeps");

    // Conclusion line per scenario, keyed by name so reordering or
    // inserting scenarios can't mispair table and commentary.
    const std::map<std::string, const char *> commentary = {
        {"a1-vr-slew",
         "-> separation shrinks ~1/slew; LDO-class slew (>=50 mV/us) "
         "pushes levels under the jitter floor (the §7 mitigation)."},
        {"a2-period",
         "-> periods below TX + reset-time + down-ramp leave the "
         "guardband elevated, compressing levels: the 650 us hysteresis "
         "bounds the channel rate."},
        {"a3-throttle-window",
         "-> the sibling's stall scales with (N-1)/N of the ramp time; "
         "the paper's measured N=4 gives 75% starvation."},
        {"a4-cmd-jitter",
         "-> levels are ~1 us apart, so errors appear once jitter "
         "approaches the level spacing."},
        {"a5-fec",
         "-> §6.3: coding + retransmission trades throughput for "
         "reliability; stronger codes need fewer retries."},
    };
    for (const auto &spec : reg.scenarios()) {
        if (!exp::wantScenario(cli, spec.name))
            continue;
        exp::runAndReport(spec, cli);
        auto it = commentary.find(spec.name);
        if (it != commentary.end())
            std::printf("%s\n\n", it->second);
    }
    return 0;
}
