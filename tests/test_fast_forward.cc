/**
 * @file
 * Fast-forward (inline Ticker pump) vs the legacy stepped PDN path.
 *
 * Simulation::setLegacyPdnEvents(true) restores the fully stepped
 * dispatch — every rate-group fire popped through the event queue — as
 * the byte-identity oracle for the fast-forward pump. The two paths
 * must agree on *everything observable*: end times, records, counters,
 * throttle/P-state/SVID statistics, delivered ticks and executed-event
 * counts; and the pump must actually engage on the PDN-heavy mixes it
 * exists for (ffFires > 0). Skips must be suppressed by non-tick
 * events — throttle flips, VR completions, decay checks — without the
 * planner predicting anything.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "detect/detector.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;

/** Everything observable about one run. */
struct RunSig {
    std::vector<Record> records; ///< all threads, concatenated
    std::vector<std::uint64_t> counters;
    Time end = 0;
    std::uint64_t executed = 0;
    std::uint64_t ticks = 0;
    std::uint64_t throttleAsserts = 0;
    std::uint64_t pstates = 0;
    std::uint64_t voltageRequests = 0;
    std::uint64_t svidCompleted = 0;
    double tjC = 0.0;
    double volts = 0.0;
    double freq = 0.0;
};

void
collect(Simulation &sim, RunSig &sig)
{
    Chip &chip = sim.chip();
    sig.end = sim.eq().now();
    sig.executed = sim.eq().executedEvents();
    sig.ticks = chip.ticker().ticksDelivered();
    sig.pstates = chip.pmu().pstateTransitions();
    sig.voltageRequests = chip.pmu().voltageRequests();
    for (int d = 0; d < chip.pmu().numDomains(); ++d)
        sig.svidCompleted += chip.pmu().svid(d).completedTransactions();
    sig.tjC = chip.thermal().celsius();
    sig.volts = chip.vccVolts();
    sig.freq = chip.freqGhz();
    for (int c = 0; c < chip.coreCount(); ++c) {
        sig.throttleAsserts += chip.core(c).throttle().assertCount();
        for (int t = 0; t < chip.core(c).numThreads(); ++t) {
            const HwThread &thr = chip.core(c).thread(t);
            for (const Record &rec : thr.records())
                sig.records.push_back(rec);
            sig.counters.push_back(thr.counters().clkUnhalted());
            sig.counters.push_back(thr.counters().instRetired());
            sig.counters.push_back(thr.counters().idqUopsNotDelivered());
        }
    }
}

void
expectEqualSigs(const RunSig &a, const RunSig &b)
{
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.pstates, b.pstates);
    EXPECT_EQ(a.voltageRequests, b.voltageRequests);
    EXPECT_EQ(a.svidCompleted, b.svidCompleted);
    EXPECT_EQ(a.throttleAsserts, b.throttleAsserts);
    EXPECT_EQ(a.tjC, b.tjC);
    EXPECT_EQ(a.volts, b.volts);
    EXPECT_EQ(a.freq, b.freq);
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].tag, b.records[i].tag) << "record " << i;
        EXPECT_EQ(a.records[i].tsc, b.records[i].tsc) << "record " << i;
        EXPECT_EQ(a.records[i].time, b.records[i].time) << "record " << i;
        EXPECT_EQ(a.records[i].iterationsDone,
                  b.records[i].iterationsDone)
            << "record " << i;
    }
}

/** PDN-heavy base: every periodic subsystem on the Ticker. */
ChipConfig
tickHeavy(double freq_ghz)
{
    ChipConfig cfg = pinnedCannonLake(freq_ghz);
    cfg.pmu.powerLimit.enabled = true;
    cfg.pmu.powerLimit.evalInterval = fromMicroseconds(200);
    cfg.pmu.governor.evalInterval = fromMicroseconds(50);
    cfg.thermal.sampleInterval = fromMicroseconds(20);
    return cfg;
}

/** Install a chunked loop of @p cls on (core, smt) and start it. */
void
startChunked(Simulation &sim, int core, int smt, InstClass cls,
             std::uint64_t iters, std::uint64_t every, int tag)
{
    HwThread &thr = sim.chip().core(core).thread(smt);
    Program p;
    p.mark(tag * 100);
    p.loopChunked(cls, iters, every, tag);
    p.mark(tag * 100 + 1);
    thr.setProgram(std::move(p));
    thr.start();
}

/**
 * Run @p setup once fast-forwarded, once stepped, and demand identical
 * observables. Also requires the pump to have engaged in the
 * fast-forward run and to have stayed off in the stepped run.
 */
void
expectFastForwardMatchesStepped(
    const ChipConfig &cfg, std::uint64_t seed,
    const std::function<void(Simulation &)> &setup, RunSig *out = nullptr)
{
    RunSig sigs[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(cfg, seed);
        sim.setLegacyPdnEvents(legacy != 0);
        setup(sim);
        sim.run(fromSeconds(1.0));
        collect(sim, sigs[legacy]);
        if (legacy == 0)
            EXPECT_GT(sim.chip().ticker().ffFires(), 0u)
                << "pump never engaged on a PDN-heavy mix";
        else
            EXPECT_EQ(sim.chip().ticker().ffFires(), 0u);
    }
    expectEqualSigs(sigs[0], sigs[1]);
    if (out != nullptr)
        *out = sigs[0];
}

TEST(FastForward, PdnHeavyPhiLoopByteIdentical)
{
    // fig06-style: a PHI kernel provoking guardband up-transitions and
    // voltage-ramp throttling, under the full periodic mix.
    RunSig sig;
    expectFastForwardMatchesStepped(
        tickHeavy(2.0), 7,
        [](Simulation &sim) {
            startChunked(sim, 0, 0, InstClass::k512Heavy, 4000, 10, 1);
        },
        &sig);
    EXPECT_GT(sig.throttleAsserts, 0u);
    EXPECT_GT(sig.svidCompleted, 0u);
}

TEST(FastForward, CrossCorePhiByteIdentical)
{
    // fig09-style: concurrent PHIs on both cores serialize through the
    // shared SVID bus (Multi-Throttling-Cores) while the pump runs.
    RunSig sig;
    expectFastForwardMatchesStepped(
        tickHeavy(2.0), 11,
        [](Simulation &sim) {
            startChunked(sim, 0, 0, InstClass::k512Heavy, 3000, 10, 1);
            startChunked(sim, 1, 0, InstClass::k256Heavy, 6000, 10, 2);
        },
        &sig);
    EXPECT_GT(sig.voltageRequests, 1u);
}

TEST(FastForward, ThrottleFlipsMidSkipByteIdentical)
{
    // fig07-style: a tight RAPL budget flips the frequency cap back and
    // forth, so P-state transitions repeatedly interrupt the tick runs
    // the pump would otherwise skip through.
    ChipConfig cfg = tickHeavy(3.0);
    cfg.pmu.powerLimit.limitWatts = 4.0;
    RunSig sig;
    expectFastForwardMatchesStepped(
        cfg, 13,
        [](Simulation &sim) {
            startChunked(sim, 0, 0, InstClass::k512Heavy, 6000, 10, 1);
            startChunked(sim, 1, 0, InstClass::k512Heavy, 6000, 10, 2);
        },
        &sig);
    EXPECT_GT(sig.pstates, 1u);
}

TEST(FastForward, DetectorBankAttachedByteIdentical)
{
    // A DetectorBank rides the Ticker: its samples are delivered by the
    // inline pump too, and its verdict must not depend on the dispatch
    // mechanism.
    exp::MetricMap metrics[2];
    RunSig sigs[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(tickHeavy(2.0), 17);
        sim.setLegacyPdnEvents(legacy != 0);
        detect::DetectorBank bank(sim.chip());
        startChunked(sim, 0, 0, InstClass::k512Heavy, 4000, 10, 1);
        sim.run(fromSeconds(1.0));
        collect(sim, sigs[legacy]);
        metrics[legacy] = bank.metrics();
        if (legacy == 0) {
            EXPECT_GT(sim.chip().ticker().ffFires(), 0u);
        }
    }
    expectEqualSigs(sigs[0], sigs[1]);
    EXPECT_EQ(metrics[0], metrics[1]);
}

TEST(FastForward, SecondProgramAfterFirstCompletesByteIdentical)
{
    // A second program started once the first has completed — tick
    // groups armed, decay timers pending, PDN possibly still settling —
    // must continue identically under the pump and stepped.
    RunSig sigs[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(tickHeavy(2.0), 23);
        sim.setLegacyPdnEvents(legacy != 0);
        startChunked(sim, 0, 0, InstClass::k256Heavy, 3000, 10, 1);
        sim.run(fromSeconds(1.0));
        if (legacy == 0) {
            EXPECT_GT(sim.chip().ticker().ffFires(), 0u);
        }
        startChunked(sim, 0, 0, InstClass::k512Heavy, 2500, 10, 2);
        sim.runFor(fromMilliseconds(2));
        collect(sim, sigs[legacy]);
    }
    expectEqualSigs(sigs[0], sigs[1]);
}

TEST(FastForward, RunForPumpsByteIdentical)
{
    // runFor() (the duration-bounded entry used by figure harnesses and
    // detector campaigns) must pump identically to its stepped twin,
    // including the final partial span up to an off-grid cut time.
    RunSig sigs[2];
    const Time cut = fromMicroseconds(731); // not a multiple of any rate
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(tickHeavy(2.0), 29);
        sim.setLegacyPdnEvents(legacy != 0);
        startChunked(sim, 0, 0, InstClass::k512Heavy, 50000, 10, 1);
        sim.runFor(cut);
        EXPECT_EQ(sim.eq().now(), cut);
        collect(sim, sigs[legacy]);
        if (legacy == 0) {
            EXPECT_GT(sim.chip().ticker().ffFires(), 0u);
        }
    }
    expectEqualSigs(sigs[0], sigs[1]);
}

TEST(FastForward, PlannerCountsSpansAndSuppressions)
{
    Simulation sim(tickHeavy(2.0), 37);
    startChunked(sim, 0, 0, InstClass::k512Heavy, 4000, 10, 1);
    sim.run(fromSeconds(1.0));
    const HorizonPlanner &planner = sim.chip().planner();
    EXPECT_GT(planner.fires(), 0u);
    EXPECT_GT(planner.spans(), 0u);
    // Every non-tick dispatch in run() counts as a suppressed skip —
    // VR completions, decay checks, chunk boundaries all occurred.
    EXPECT_GT(planner.suppressions(), 0u);
    EXPECT_EQ(planner.fires(), sim.chip().ticker().ffFires());
}

} // namespace
} // namespace ich
