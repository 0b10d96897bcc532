/**
 * @file
 * Analytic chunk-record batching vs the per-chunk event-driven path.
 *
 * The batched materializer must be bit-identical to the legacy
 * one-event-per-chunk path — records are data, not timing — under every
 * rate disturbance the chip can produce: throttle transitions mid-kernel,
 * AVX-gate wake stalls, SMT co-runs, a frequency step mid-loop
 * (Chip::beforeFreqChange invalidation), and OS noise stalls. Mid-run
 * readers must see exactly the per-chunk prefix through the flushing
 * records() accessor, and a second chunked program on a tick-heavy
 * chip must continue byte-identically.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "os/noise.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;
using test::quietChip;

/** Everything observable about one run. */
struct RunSig {
    std::vector<Record> records; ///< all threads, concatenated
    std::vector<std::uint64_t> counters;
    Time end = 0;
    std::uint64_t throttleAsserts = 0;
    std::uint64_t pstates = 0;
};

void
collect(Simulation &sim, RunSig &sig)
{
    Chip &chip = sim.chip();
    sig.end = sim.eq().now();
    sig.pstates = chip.pmu().pstateTransitions();
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
    EXPECT_EQ(a.pstates, b.pstates);
    EXPECT_EQ(a.throttleAsserts, b.throttleAsserts);
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

/**
 * Run @p setup (install programs, optional perturbations) twice — once
 * with analytic batching, once with the per-chunk event path — and
 * demand byte-identical results. The setup callback receives the
 * simulation and the legacy flag to apply to every thread it starts.
 */
void
expectBatchedMatchesPerChunk(
    const ChipConfig &cfg, std::uint64_t seed,
    const std::function<void(Simulation &, bool)> &setup,
    RunSig *out = nullptr)
{
    RunSig sigs[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(cfg, seed);
        setup(sim, legacy != 0);
        sim.run(fromSeconds(1.0));
        collect(sim, sigs[legacy]);
    }
    ASSERT_FALSE(sigs[0].records.empty());
    expectEqualSigs(sigs[0], sigs[1]);
    if (out != nullptr)
        *out = sigs[0];
}

/** Install a chunked loop of @p cls on (core, smt) and start it. */
void
startChunked(Simulation &sim, bool legacy, int core, int smt,
             InstClass cls, std::uint64_t iters, std::uint64_t every,
             int tag)
{
    HwThread &thr = sim.chip().core(core).thread(smt);
    thr.setLegacyChunkEvents(legacy);
    Program p;
    p.mark(tag * 100);
    p.loopChunked(cls, iters, every, tag);
    p.mark(tag * 100 + 1);
    thr.setProgram(std::move(p));
    thr.start();
}

TEST(RecordBatching, UncontendedLoopByteIdentical)
{
    expectBatchedMatchesPerChunk(
        quietChip(1.4), 7, [](Simulation &sim, bool legacy) {
            startChunked(sim, legacy, 0, 0, InstClass::kScalar64, 5000,
                         10, 1);
        });
}

TEST(RecordBatching, ThrottleTransitionsMidKernelByteIdentical)
{
    // Non-secure chip: the PHI kernel provokes guardband up-transitions
    // and voltage-ramp throttling mid-loop (rate changes both ways).
    RunSig sig;
    expectBatchedMatchesPerChunk(
        pinnedCannonLake(2.0), 11,
        [](Simulation &sim, bool legacy) {
            startChunked(sim, legacy, 0, 0, InstClass::k512Heavy, 4000,
                         10, 1);
        },
        &sig);
    EXPECT_GT(sig.throttleAsserts, 0u);
}

TEST(RecordBatching, AvxGateStallByteIdentical)
{
    // Idle past the AVX gate's close so the chunked kernel's entry pays
    // a wake stall (stallUntil_ splits the first materialized segment).
    expectBatchedMatchesPerChunk(
        pinnedCannonLake(2.0), 13, [](Simulation &sim, bool legacy) {
            HwThread &thr = sim.chip().core(0).thread(0);
            thr.setLegacyChunkEvents(legacy);
            Program p;
            p.loop(InstClass::k512Heavy, 200, 100);
            p.idle(fromMicroseconds(80)); // beyond the gate idle-close
            p.loopChunked(InstClass::k512Heavy, 3000, 10, 2);
            thr.setProgram(std::move(p));
            thr.start();
        });
}

TEST(RecordBatching, SmtCoRunByteIdentical)
{
    // Receiver measures continuously on SMT 1 while the sender's PHI
    // bursts on SMT 0 flip the shared throttle and the AVX gate.
    expectBatchedMatchesPerChunk(
        pinnedCannonLake(2.0), 17, [](Simulation &sim, bool legacy) {
            HwThread &tx = sim.chip().core(0).thread(0);
            tx.setLegacyChunkEvents(legacy);
            Program p;
            for (int k = 0; k < 4; ++k) {
                p.loop(InstClass::k256Heavy, 800, 100);
                p.idle(fromMicroseconds(120));
            }
            tx.setProgram(std::move(p));
            startChunked(sim, legacy, 0, 1, InstClass::kScalar64, 40000,
                         64, 3);
            tx.start();
        });
}

TEST(RecordBatching, FrequencyStepMidLoopByteIdentical)
{
    // A governor write mid-loop forces a P-state transition: the PLL
    // change must flush pending analytic records at the old rate
    // (Chip::beforeFreqChange) before the new rate becomes visible.
    RunSig sig;
    expectBatchedMatchesPerChunk(
        pinnedCannonLake(3.0), 19,
        [](Simulation &sim, bool legacy) {
            startChunked(sim, legacy, 0, 0, InstClass::kScalar64, 30000,
                         10, 4);
            sim.eq().schedule(fromMicroseconds(120), [&sim] {
                sim.chip().pmu().writeGovernor(GovernorPolicy::kUserspace,
                                               1.8);
            });
            sim.eq().schedule(fromMicroseconds(400), [&sim] {
                sim.chip().pmu().writeGovernor(GovernorPolicy::kUserspace,
                                               3.0);
            });
        },
        &sig);
    // The scenario is only meaningful if the PLL actually stepped.
    EXPECT_GE(sig.pstates, 2u);
}

TEST(RecordBatching, FrequencyUpstepTailCrossingByteIdentical)
{
    // Regression: a record boundary crossed *within the accrual tail*
    // of a frequency change (old-rate crossing beyond the transition
    // end, new-rate crossing before it). The per-chunk path sleeps
    // until its old boundary time and emits the overshot record at the
    // deassert refresh; the analytic path must do the same — never
    // re-derive a crossing at accrue-time rates.
    for (std::uint64_t every : {std::uint64_t{100}, std::uint64_t{250}}) {
        RunSig sig;
        expectBatchedMatchesPerChunk(
            pinnedCannonLake(1.0), 43,
            [every](Simulation &sim, bool legacy) {
                startChunked(sim, legacy, 0, 0, InstClass::kScalar64,
                             20000, every, 4);
                sim.eq().schedule(fromMicroseconds(100), [&sim] {
                    sim.chip().pmu().writeGovernor(
                        GovernorPolicy::kUserspace, 3.0);
                });
            },
            &sig);
        EXPECT_GE(sig.pstates, 1u) << "recordEvery=" << every;
    }
}

TEST(RecordBatching, NoiseStallsByteIdentical)
{
    // fig14-style OS noise: interrupt/context-switch stalls re-anchor
    // the recurrence at random times.
    ChipConfig cfg = pinnedCannonLake(2.0);
    RunSig sigs[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(cfg, 23);
        startChunked(sim, legacy != 0, 0, 0, InstClass::k256Heavy, 8000,
                     10, 5);
        NoiseConfig ncfg;
        ncfg.interruptRatePerSec = 80000.0;
        ncfg.contextSwitchRatePerSec = 9000.0;
        NoiseInjector noise(sim.chip(), sim.rng(), ncfg, 0, 0);
        noise.start(fromSeconds(1.0));
        sim.run(fromSeconds(1.0));
        sigs[legacy] = RunSig{};
        collect(sim, sigs[legacy]);
        if (legacy) {
            ASSERT_FALSE(sigs[0].records.empty());
            expectEqualSigs(sigs[0], sigs[1]);
        }
    }
}

TEST(RecordBatching, MidRunReadersSeePerChunkPrefix)
{
    // Cut both runs at an arbitrary mid-loop time: the flushing
    // records()/counters() accessors must expose exactly the records
    // and accruals the per-chunk path had emitted by then.
    ChipConfig cfg = quietChip(1.4);
    RunSig sigs[2];
    const Time cut = fromMicroseconds(173);
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(cfg, 29);
        startChunked(sim, legacy != 0, 0, 0, InstClass::kScalar64, 50000,
                     10, 6);
        sim.eq().runUntil(cut);
        collect(sim, sigs[legacy]);
    }
    ASSERT_FALSE(sigs[0].records.empty());
    // The loop is far from done: these really are mid-run reads.
    EXPECT_LT(sigs[0].records.back().iterationsDone, 50000u);
    expectEqualSigs(sigs[0], sigs[1]);
}

TEST(RecordBatching, MidRunReadDoesNotPerturbContinuation)
{
    // Reading records mid-run (which flushes pending materialization)
    // must not change anything downstream.
    ChipConfig cfg = pinnedCannonLake(2.0);
    RunSig sigs[2];
    for (int probe = 0; probe < 2; ++probe) {
        Simulation sim(cfg, 31);
        startChunked(sim, false, 0, 0, InstClass::k512Heavy, 4000, 10, 7);
        if (probe) {
            sim.eq().schedule(fromMicroseconds(40), [&sim] {
                // Touch every flushing accessor.
                HwThread &thr = sim.chip().core(0).thread(0);
                (void)thr.records().size();
                (void)thr.counters().clkUnhalted();
                (void)thr.loopIterationsDone();
            });
        }
        sim.run(fromSeconds(1.0));
        collect(sim, sigs[probe]);
    }
    expectEqualSigs(sigs[0], sigs[1]);
}

TEST(RecordBatching, TickHeavyContinuationByteIdentical)
{
    // Chunk records on a tick-heavy chip (RAPL window + ondemand
    // governor + thermal sampling all on the Ticker), then a second
    // chunked program started once the first has completed: the
    // analytic path must match the per-chunk path through both.
    ChipConfig cfg = pinnedCannonLake(2.0);
    cfg.pmu.powerLimit.enabled = true;
    cfg.pmu.powerLimit.evalInterval = fromMicroseconds(200);
    cfg.pmu.governor.evalInterval = fromMicroseconds(50);
    cfg.thermal.sampleInterval = fromMicroseconds(20);

    RunSig first[2], cont[2];
    for (int legacy = 0; legacy < 2; ++legacy) {
        Simulation sim(cfg, 37);
        startChunked(sim, legacy != 0, 0, 0, InstClass::k256Heavy, 3000,
                     10, 8);
        sim.run(fromSeconds(1.0));
        collect(sim, first[legacy]);
        startChunked(sim, legacy != 0, 0, 0, InstClass::kScalar64, 4000,
                     10, 9);
        sim.runFor(fromMilliseconds(2));
        collect(sim, cont[legacy]);
    }
    ASSERT_FALSE(first[0].records.empty());
    expectEqualSigs(first[0], first[1]);
    expectEqualSigs(cont[0], cont[1]);
}

TEST(RecordBatching, SetProgramReservesRecordCapacity)
{
    Simulation sim(quietChip(1.4));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loopChunked(InstClass::kScalar64, 1000, 10, 1);
    p.mark(1);
    thr.setProgram(std::move(p));
    // 100 chunk records + 2 marks, reserved before the run starts.
    EXPECT_GE(thr.records().capacity(), 102u);
    thr.start();
    const Record *data_before = thr.records().data();
    sim.run();
    EXPECT_EQ(thr.records().size(), 102u);
    // No regrowth happened inside the hot loop.
    EXPECT_EQ(thr.records().data(), data_before);
}

} // namespace
} // namespace ich
