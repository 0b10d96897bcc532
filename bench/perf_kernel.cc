/**
 * @file
 * Perf benchmark for the discrete-event kernel — the hot path under
 * every covert-channel trial and sweep point.
 *
 * Three workloads, reported as one sweep (scenario "BENCH_kernel", so
 * `--json --out DIR` writes DIR/BENCH_kernel.json):
 *
 *  - churn       self-rescheduling timer chains: pure schedule/fire
 *                throughput. Also replays the identical workload on an
 *                embedded copy of the pre-refactor queue
 *                (shared_ptr<Entry> + std::function + unordered_map) and
 *                reports the speedup ratio — the acceptance gate for the
 *                slab/4-ary-heap rewrite is speedup >= 2.
 *  - cancel_mix  schedule/deschedule-heavy traffic (timeout-style):
 *                half of each round's events are cancelled before firing.
 *  - sim_run     full Simulation::run of a preset chip with PHI loops on
 *                every core — end-to-end events/sec including the
 *                PMU/PDN machinery.
 *
 * A third scenario, "BENCH_record" (written to DIR/BENCH_record.json),
 * measures analytic chunk-record batching in HwThread against the
 * per-chunk event-driven path (kept in-tree behind
 * HwThread::setLegacyChunkEvents as the measured baseline, the same
 * embedded-baseline pattern speedup_vs_legacy uses for the queue):
 *
 *  - record_batch  uncontended chunked scalar loops on every core — the
 *                  pure batching effect. Both modes run the identical
 *                  simulation and the records, counters and end time
 *                  are asserted byte-identical; reports
 *                  record_speedup_vs_per_chunk (acceptance gate >= 1.3
 *                  in CI, >= 2 locally).
 *  - sim_record    the sim_run workload (PHI loops, OS noise, the full
 *                  PMU/PDN machinery) both ways — byte-identity across
 *                  throttle transitions and stalls, plus
 *                  work_events_per_sec: per-chunk-baseline events
 *                  retired per analytic-wall second, the successor
 *                  metric to sim_run events/s now that the boundary
 *                  events themselves are gone.
 *
 * A second scenario, "BENCH_tick" (written to DIR/BENCH_tick.json),
 * measures the rate-grouped Ticker against the pre-refactor
 * one-event-per-component pattern on periodic-heavy workloads:
 *
 *  - tick_groups synthetic clocked members spread over a few rate
 *                groups, driven once by the Ticker and once by
 *                per-member self-rescheduling event chains; reports
 *                events_per_simulated_ms for both and
 *                speedup_vs_per_event (the acceptance gate is >= 1.3).
 *  - sim_tick    full chip with every periodic subsystem enabled (RAPL
 *                window, ondemand governor evaluation, thermal
 *                sampling) plus a bank of 1 µs observers, ticker-driven
 *                vs per-event self-arming — the sim_run-style view of
 *                the same coalescing.
 *
 * Event counts scale down via ICH_PERF_EVENTS / ICH_PERF_TICKERS /
 * ICH_PERF_TICK_MS for CI smoke runs.
 * Workers are forced to 1: wall-clock metrics must not contend.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hh"
#include "common/ticker.hh"
#include "exp/exp.hh"
#include "os/noise.hh"

using namespace ich;

namespace
{

// ------------------------------------------------------------------ legacy
// Verbatim-in-spirit copy of the pre-refactor EventQueue (PR 1 state):
// one shared_ptr allocation + one std::function (usually allocating) +
// one unordered_map insert per event. Kept here, not in src/, purely as
// the baseline the churn/cancel workloads are measured against.
namespace legacy
{

class EventQueue
{
  public:
    using Callback = std::function<void()>;
    using EventId = std::uint64_t;

    Time now() const { return now_; }

    EventId
    schedule(Time when, Callback cb, int priority = 0)
    {
        auto entry = std::make_shared<Entry>();
        entry->when = when;
        entry->priority = priority;
        entry->id = nextId_++;
        entry->cb = std::move(cb);
        byId_[entry->id] = entry;
        queue_.push(entry);
        ++liveEvents_;
        return entry->id;
    }

    EventId
    scheduleIn(Time delay, Callback cb, int priority = 0)
    {
        return schedule(now_ + delay, std::move(cb), priority);
    }

    void
    deschedule(EventId id)
    {
        auto it = byId_.find(id);
        if (it == byId_.end())
            return;
        if (auto entry = it->second.lock()) {
            if (!entry->cancelled) {
                entry->cancelled = true;
                --liveEvents_;
            }
        }
        byId_.erase(it);
    }

    bool empty() const { return liveEvents_ == 0; }
    std::uint64_t executedEvents() const { return executed_; }

    bool
    runOne()
    {
        while (!queue_.empty()) {
            auto entry = queue_.top();
            queue_.pop();
            if (entry->cancelled)
                continue;
            byId_.erase(entry->id);
            --liveEvents_;
            now_ = entry->when;
            ++executed_;
            entry->cb();
            return true;
        }
        return false;
    }

    void
    runToCompletion()
    {
        while (runOne()) {
        }
    }

  private:
    struct Entry {
        Time when;
        int priority;
        EventId id;
        Callback cb;
        bool cancelled = false;
    };

    struct EntryOrder {
        bool
        operator()(const std::shared_ptr<Entry> &a,
                   const std::shared_ptr<Entry> &b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->id > b->id;
        }
    };

    Time now_ = 0;
    EventId nextId_ = 1;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;
    std::priority_queue<std::shared_ptr<Entry>,
                        std::vector<std::shared_ptr<Entry>>,
                        EntryOrder> queue_;
    std::unordered_map<EventId, std::weak_ptr<Entry>> byId_;
};

} // namespace legacy

// --------------------------------------------------------------- workloads

using bench::envCount;
using bench::secondsSince;

/**
 * Self-rescheduling timer chains: @p chains pending events ping forward
 * with LCG-derived deltas until the fire budget is spent. The callback
 * is a 16-byte trivially-copyable functor — the same size class as the
 * simulator's real `[this, scalar]` captures, so neither queue is
 * penalized on callback storage; the measured difference is the
 * schedule/fire machinery itself. Returns events/sec.
 */
template <class Queue>
struct ChurnBench {
    Queue eq;
    std::uint64_t fired = 0;
    std::uint64_t total;
    std::vector<std::uint64_t> lcg;

    struct Fire {
        ChurnBench *b;
        unsigned c;
        void operator()() const
        {
            ++b->fired;
            b->arm(c);
        }
    };

    void
    arm(unsigned c)
    {
        if (fired >= total)
            return;
        std::uint64_t &l = lcg[c];
        l = l * 6364136223846793005ULL + 1442695040888963407ULL;
        eq.scheduleIn(1 + (l >> 33) % 1000, Fire{this, c});
    }
};

template <class Queue>
double
churnThroughput(std::uint64_t total_events, unsigned chains,
                std::uint64_t seed)
{
    ChurnBench<Queue> b;
    b.total = total_events;
    for (unsigned c = 0; c < chains; ++c)
        b.lcg.push_back(seed + c);
    for (unsigned c = 0; c < chains; ++c)
        b.arm(c);
    auto t0 = std::chrono::steady_clock::now();
    while (b.eq.runOne()) {
    }
    double dt = secondsSince(t0);
    return static_cast<double>(b.fired) / dt;
}

/**
 * Timeout-style traffic: rounds of @p batch scheduled events of which
 * every second one is descheduled before the round runs. Returns
 * (schedules + deschedules + fires) per second.
 */
template <class Queue>
double
cancelMixThroughput(std::uint64_t total_ops, unsigned batch,
                    std::uint64_t seed)
{
    Queue eq;
    std::uint64_t ops = 0;
    std::uint64_t lcg = seed;
    std::vector<typename Queue::EventId> ids;
    ids.reserve(batch);
    auto t0 = std::chrono::steady_clock::now();
    while (ops < total_ops) {
        ids.clear();
        for (unsigned i = 0; i < batch; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            Time delta = 1 + (lcg >> 33) % 500;
            ids.push_back(eq.scheduleIn(delta, [] {}, i % 3));
            ++ops;
        }
        for (unsigned i = 0; i < batch; i += 2) {
            eq.deschedule(ids[i]);
            ++ops;
        }
        while (eq.runOne())
            ++ops;
    }
    return static_cast<double>(ops) / secondsSince(t0);
}

/**
 * Full chip simulation on the paper preset: chunked PHI loops on every
 * core (one boundary event per 10 iterations) under heavy OS noise, so
 * the run exercises the whole event mix — thread boundaries, stall
 * reschedules, PMU decay/licensing, VR transitions.
 */
exp::MetricMap
simRunMetrics(std::uint64_t iters, std::uint64_t seed)
{
    ChipConfig cfg = bench::pinned(presets::cannonLake(), 3.0);
    Simulation sim(cfg, seed);
    int cores = sim.chip().coreCount();
    for (int c = 0; c < cores; ++c) {
        Program p;
        p.mark(0);
        p.loopChunked(InstClass::k512Heavy, iters,
                      /*record_every=*/10, /*tag=*/1);
        p.mark(2);
        sim.chip().core(c).thread(0).setProgram(std::move(p));
    }
    NoiseConfig ncfg;
    ncfg.interruptRatePerSec = 50000.0;
    ncfg.contextSwitchRatePerSec = 5000.0;
    NoiseInjector noise(sim.chip(), sim.rng(), ncfg, /*core=*/0,
                        /*smt=*/0);
    noise.start(fromSeconds(1.0));
    for (int c = 0; c < cores; ++c)
        sim.chip().core(c).thread(0).start();
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    double dt = secondsSince(t0);
    exp::MetricMap m;
    m["sim_events"] = static_cast<double>(sim.eq().executedEvents());
    m["sim_events_per_sec"] =
        static_cast<double>(sim.eq().executedEvents()) / dt;
    m["sim_wall_ms"] = dt * 1e3;
    return m;
}

// Adapter so churn/cancel templates see the same surface on both queues.
struct NewQueue : EventQueue {
    using EventId = ich::EventId;
};

// ----------------------------------------------------------- BENCH_record

/** One BENCH_record simulation run (analytic or per-chunk baseline). */
struct RecordRun {
    double wallSec = 0.0;
    std::uint64_t events = 0;
    Time endTime = 0;
    std::vector<Record> records;         ///< all threads, concatenated
    std::vector<std::uint64_t> counters; ///< clk/inst/idq per thread
};

RecordRun
recordRun(bool per_chunk, bool noisy, std::uint64_t iters,
          std::uint64_t seed)
{
    ChipConfig cfg = bench::pinned(presets::cannonLake(), 3.0);
    Simulation sim(cfg, seed);
    int cores = sim.chip().coreCount();
    for (int c = 0; c < cores; ++c) {
        HwThread &thr = sim.chip().core(c).thread(0);
        thr.setLegacyChunkEvents(per_chunk);
        Program p;
        p.mark(0);
        // PHI loops provoke guardband transitions + throttling in the
        // noisy variant; the clean variant isolates pure batching.
        p.loopChunked(noisy ? InstClass::k512Heavy : InstClass::kScalar64,
                      iters, /*record_every=*/10, /*tag=*/1);
        p.mark(2);
        thr.setProgram(std::move(p));
    }
    std::unique_ptr<NoiseInjector> noise;
    if (noisy) {
        NoiseConfig ncfg;
        ncfg.interruptRatePerSec = 50000.0;
        ncfg.contextSwitchRatePerSec = 5000.0;
        noise = std::make_unique<NoiseInjector>(sim.chip(), sim.rng(),
                                                ncfg, /*core=*/0,
                                                /*smt=*/0);
        noise->start(fromSeconds(1.0));
    }
    for (int c = 0; c < cores; ++c)
        sim.chip().core(c).thread(0).start();
    auto t0 = std::chrono::steady_clock::now();
    RecordRun r;
    r.endTime = sim.run();
    r.wallSec = secondsSince(t0);
    r.events = sim.eq().executedEvents();
    for (int c = 0; c < cores; ++c) {
        const HwThread &thr = sim.chip().core(c).thread(0);
        for (const Record &rec : thr.records())
            r.records.push_back(rec);
        r.counters.push_back(thr.counters().clkUnhalted());
        r.counters.push_back(thr.counters().instRetired());
        r.counters.push_back(thr.counters().idqUopsNotDelivered());
    }
    return r;
}

/** Records are data, not timing: any drift from the per-chunk path is a
 *  correctness bug, so the bench refuses to report a speedup over
 *  non-identical output. */
void
requireIdenticalRuns(const RecordRun &analytic, const RecordRun &chunk)
{
    auto bail = [](const std::string &what) {
        throw std::runtime_error(
            "BENCH_record: analytic batching diverged from the "
            "per-chunk baseline (" + what + ")");
    };
    if (analytic.endTime != chunk.endTime)
        bail("end time " + std::to_string(analytic.endTime) + " vs " +
             std::to_string(chunk.endTime));
    if (analytic.counters != chunk.counters)
        bail("perf counters");
    if (analytic.records.size() != chunk.records.size())
        bail("record count " + std::to_string(analytic.records.size()) +
             " vs " + std::to_string(chunk.records.size()));
    for (std::size_t i = 0; i < analytic.records.size(); ++i) {
        const Record &a = analytic.records[i];
        const Record &b = chunk.records[i];
        if (a.tag != b.tag || a.tsc != b.tsc || a.time != b.time ||
            a.iterationsDone != b.iterationsDone)
            bail("record " + std::to_string(i));
    }
}

exp::MetricMap
recordMetrics(bool noisy, std::uint64_t iters, std::uint64_t seed)
{
    // Interleave repetitions and keep each mode's best wall time — the
    // usual minimum-estimator defense against scheduler noise on shared
    // boxes; identity is asserted on every repetition.
    RecordRun analytic = recordRun(/*per_chunk=*/false, noisy, iters,
                                   seed);
    RecordRun chunk = recordRun(/*per_chunk=*/true, noisy, iters, seed);
    requireIdenticalRuns(analytic, chunk);
    RecordRun analytic2 = recordRun(false, noisy, iters, seed);
    RecordRun chunk2 = recordRun(true, noisy, iters, seed);
    requireIdenticalRuns(analytic2, chunk2);
    analytic.wallSec = std::min(analytic.wallSec, analytic2.wallSec);
    chunk.wallSec = std::min(chunk.wallSec, chunk2.wallSec);

    double sim_ms = toSeconds(analytic.endTime) * 1e3;
    exp::MetricMap m;
    m["records"] = static_cast<double>(analytic.records.size());
    m["sim_events"] = static_cast<double>(analytic.events);
    m["per_chunk_sim_events"] = static_cast<double>(chunk.events);
    m["events_per_simulated_ms"] =
        static_cast<double>(analytic.events) / sim_ms;
    m["per_chunk_events_per_simulated_ms"] =
        static_cast<double>(chunk.events) / sim_ms;
    m["sim_wall_ms"] = analytic.wallSec * 1e3;
    m["record_speedup_vs_per_chunk"] = chunk.wallSec / analytic.wallSec;
    // The simulated work per wall second, priced in the events the
    // per-chunk path needed for it — directly comparable to the
    // pre-batching sim_run events/s trajectory in ROADMAP.md.
    m["work_events_per_sec"] =
        static_cast<double>(chunk.events) / analytic.wallSec;
    return m;
}

// ------------------------------------------------------------- BENCH_tick

/** Synthetic clocked component: a few flops of state math per tick. */
struct SynthTick final : Clocked {
    double acc = 0.0;
    std::uint64_t ticks = 0;
    Time period = 0;

    void
    tick(Time now) override
    {
        acc += static_cast<double>(now & 0xfff) * 1e-6;
        ++ticks;
    }
};

/** Self-rearming chain emulating the pre-Ticker per-component event. */
struct SelfArm {
    EventQueue *eq;
    SynthTick *m;
    Time horizon;
    void
    operator()() const
    {
        m->tick(eq->now());
        Time next = eq->now() + m->period;
        if (next <= horizon)
            eq->scheduleChecked(next, SelfArm{eq, m, horizon});
    }
};

/**
 * K members over four rate groups, simulated to @p horizon twice: once
 * Ticker-driven (one event per group per period), once with per-member
 * self-rescheduling chains (one heap pair per member per period). The
 * member work is identical; the measured difference is the scheduling
 * machinery the Ticker coalesces away.
 */
exp::MetricMap
tickGroupsMetrics(unsigned members, Time horizon)
{
    static constexpr Time kPeriods[] = {
        fromNanoseconds(800), fromNanoseconds(1000),
        fromNanoseconds(1600), fromNanoseconds(2000)};

    std::vector<SynthTick> viaTicker(members);
    std::uint64_t ticker_events = 0;
    std::uint64_t ticker_ticks = 0;
    double ticker_wall = 0.0;
    {
        EventQueue eq;
        Ticker ticker(eq);
        for (unsigned i = 0; i < members; ++i) {
            viaTicker[i].period = kPeriods[i % 4];
            ticker.add(viaTicker[i], TickRate{viaTicker[i].period, 0, 0});
        }
        auto t0 = std::chrono::steady_clock::now();
        eq.runUntil(horizon);
        ticker_wall = secondsSince(t0);
        ticker_events = eq.executedEvents();
        for (const SynthTick &t : viaTicker)
            ticker_ticks += t.ticks;
    }

    std::vector<SynthTick> viaEvents(members);
    std::uint64_t pe_events = 0;
    std::uint64_t pe_ticks = 0;
    double pe_wall = 0.0;
    {
        EventQueue eq;
        for (unsigned i = 0; i < members; ++i) {
            viaEvents[i].period = kPeriods[i % 4];
            eq.scheduleChecked(viaEvents[i].period,
                               SelfArm{&eq, &viaEvents[i], horizon});
        }
        auto t0 = std::chrono::steady_clock::now();
        eq.runUntil(horizon);
        pe_wall = secondsSince(t0);
        pe_events = eq.executedEvents();
        for (const SynthTick &t : viaEvents)
            pe_ticks += t.ticks;
    }

    // The speedup is only meaningful over *identical* work.
    if (ticker_ticks != pe_ticks)
        throw std::runtime_error(
            "BENCH_tick: grouped and per-event runs delivered different "
            "tick counts (" + std::to_string(ticker_ticks) + " vs " +
            std::to_string(pe_ticks) + ")");

    double sim_ms = toSeconds(horizon) * 1e3;
    exp::MetricMap m;
    m["events_per_sec"] =
        static_cast<double>(ticker_events) / ticker_wall;
    m["events_per_simulated_ms"] =
        static_cast<double>(ticker_events) / sim_ms;
    m["per_event_events_per_simulated_ms"] =
        static_cast<double>(pe_events) / sim_ms;
    m["ticks_per_sec"] = static_cast<double>(ticker_ticks) / ticker_wall;
    m["speedup_vs_per_event"] = pe_wall / ticker_wall;
    return m;
}

/** Chip-state observer (volts + frequency), tickable either way. */
struct ChipProbe final : Clocked {
    Chip *chip = nullptr;
    double acc = 0.0;

    void
    tick(Time) override
    {
        acc += chip->vccVolts() + chip->freqGhz();
    }
};

/** Self-rearming observer chain (endless; the run is program-bound). */
struct ProbeArm {
    EventQueue *eq;
    ChipProbe *p;
    Time period;
    void
    operator()() const
    {
        p->tick(eq->now());
        eq->scheduleChecked(eq->now() + period, *this);
    }
};

/**
 * Full chip with every periodic subsystem enabled — RAPL window,
 * ondemand governor evaluation, thermal sampling — plus a bank of 1 µs
 * observers, run to program completion. The simulated trajectory is
 * identical in both modes (observers only read); the wall-clock delta
 * is the periodic-event machinery.
 */
exp::MetricMap
simTickMetrics(std::uint64_t iters, unsigned probes, std::uint64_t seed)
{
    auto makeSim = [&] {
        ChipConfig cfg = bench::pinned(presets::cannonLake(), 3.0);
        cfg.pmu.powerLimit.enabled = true;
        cfg.pmu.powerLimit.evalInterval = fromMicroseconds(200);
        cfg.pmu.governor.evalInterval = fromMicroseconds(50);
        cfg.thermal.sampleInterval = fromMicroseconds(20);
        auto sim = std::make_unique<Simulation>(cfg, seed);
        for (int c = 0; c < sim->chip().coreCount(); ++c) {
            Program p;
            p.loopChunked(InstClass::k512Heavy, iters,
                          /*record_every=*/10, /*tag=*/1);
            sim->chip().core(c).thread(0).setProgram(std::move(p));
            sim->chip().core(c).thread(0).start();
        }
        return sim;
    };
    const Time probe_period = fromMicroseconds(1);

    auto sim_t = makeSim();
    std::vector<ChipProbe> obs_t(probes);
    for (ChipProbe &p : obs_t) {
        p.chip = &sim_t->chip();
        sim_t->chip().ticker().add(p, TickRate{probe_period, 0, 0});
    }
    auto t0 = std::chrono::steady_clock::now();
    Time end_t = sim_t->run();
    double ticker_wall = secondsSince(t0);
    std::uint64_t ticker_events = sim_t->eq().executedEvents();

    auto sim_p = makeSim();
    std::vector<ChipProbe> obs_p(probes);
    for (ChipProbe &p : obs_p) {
        p.chip = &sim_p->chip();
        sim_p->eq().scheduleChecked(
            probe_period, ProbeArm{&sim_p->eq(), &p, probe_period});
    }
    t0 = std::chrono::steady_clock::now();
    Time end_p = sim_p->run();
    double pe_wall = secondsSince(t0);
    std::uint64_t pe_events = sim_p->eq().executedEvents();

    // Observers must not perturb the simulation: same end time or bust.
    if (end_t != end_p)
        throw std::runtime_error(
            "BENCH_tick: sim_tick grouped and per-event runs ended at "
            "different simulated times (" + std::to_string(end_t) +
            " vs " + std::to_string(end_p) + ")");

    double sim_ms = toSeconds(end_t) * 1e3;
    exp::MetricMap m;
    m["sim_events"] = static_cast<double>(ticker_events);
    m["sim_wall_ms"] = ticker_wall * 1e3;
    m["events_per_sec"] =
        static_cast<double>(ticker_events) / ticker_wall;
    m["events_per_simulated_ms"] =
        static_cast<double>(ticker_events) / sim_ms;
    m["per_event_events_per_simulated_ms"] =
        static_cast<double>(pe_events) / sim_ms;
    m["speedup_vs_per_event"] = pe_wall / ticker_wall;
    return m;
}

/**
 * Fast-forward pump vs fully stepped dispatch over the same PDN-heavy
 * chip (RAPL + governor + thermal periodic mix, observer bank, chunked
 * heavy programs). Both runs go through the Ticker; the only difference
 * is Simulation::setLegacyPdnEvents(). Every rep asserts the two modes
 * are indistinguishable in simulated outcome — end time, executed
 * events, delivered ticks, observer accumulators — so the reported
 * speedup is over bit-identical work by construction.
 */
exp::MetricMap
simFfMetrics(std::uint64_t iters, unsigned probes, std::uint64_t seed)
{
    struct RunOut {
        Time end = 0;
        std::uint64_t events = 0;
        std::uint64_t ticks = 0;
        std::uint64_t ffFires = 0;
        double probeAcc = 0.0;
        double wall = 0.0;
    };
    auto runOnce = [&](bool legacy) {
        ChipConfig cfg = bench::pinned(presets::cannonLake(), 3.0);
        cfg.pmu.powerLimit.enabled = true;
        cfg.pmu.powerLimit.evalInterval = fromMicroseconds(200);
        cfg.pmu.governor.evalInterval = fromMicroseconds(50);
        cfg.thermal.sampleInterval = fromMicroseconds(20);
        Simulation sim(cfg, seed);
        sim.setLegacyPdnEvents(legacy);
        for (int c = 0; c < sim.chip().coreCount(); ++c) {
            Program p;
            p.loopChunked(InstClass::k512Heavy, iters,
                          /*record_every=*/10, /*tag=*/1);
            sim.chip().core(c).thread(0).setProgram(std::move(p));
            sim.chip().core(c).thread(0).start();
        }
        // Staggered phases put every probe in its own rate group: the
        // stepped path pays one heap pop/push per probe per period,
        // which is exactly the fine-grained periodic traffic the pump
        // elides.
        const Time probe_period = fromMicroseconds(1);
        std::vector<ChipProbe> obs(probes);
        for (unsigned i = 0; i < probes; ++i) {
            obs[i].chip = &sim.chip();
            Time phase = probes > 0 ? (probe_period * i) / probes : 0;
            sim.chip().ticker().add(obs[i],
                                    TickRate{probe_period, phase, 0});
        }
        RunOut out;
        auto t0 = std::chrono::steady_clock::now();
        out.end = sim.run();
        out.wall = secondsSince(t0);
        out.events = sim.eq().executedEvents();
        out.ticks = sim.chip().ticker().ticksDelivered();
        out.ffFires = sim.chip().ticker().ffFires();
        for (const ChipProbe &p : obs)
            out.probeAcc += p.acc;
        for (ChipProbe &p : obs)
            sim.chip().ticker().remove(p);
        return out;
    };

    RunOut ff, stepped;
    ff.wall = stepped.wall = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
        RunOut f = runOnce(/*legacy=*/false);
        RunOut s = runOnce(/*legacy=*/true);
        // Same simulated trajectory or the comparison is meaningless.
        if (f.end != s.end || f.events != s.events ||
            f.ticks != s.ticks || f.probeAcc != s.probeAcc)
            throw std::runtime_error(
                "BENCH_ff: fast-forward and stepped runs diverged "
                "(end " + std::to_string(f.end) + " vs " +
                std::to_string(s.end) + ", events " +
                std::to_string(f.events) + " vs " +
                std::to_string(s.events) + ")");
        if (f.ffFires == 0)
            throw std::runtime_error(
                "BENCH_ff: fast-forward mode never pumped a tick");
        if (s.ffFires != 0)
            throw std::runtime_error(
                "BENCH_ff: stepped oracle run pumped ticks");
        if (f.wall < ff.wall)
            ff = f;
        if (s.wall < stepped.wall)
            stepped = s;
    }

    double sim_ms = toSeconds(ff.end) * 1e3;
    exp::MetricMap m;
    m["sim_events"] = static_cast<double>(ff.events);
    m["sim_wall_ms"] = ff.wall * 1e3;
    m["stepped_wall_ms"] = stepped.wall * 1e3;
    m["events_per_sec"] = static_cast<double>(ff.events) / ff.wall;
    m["events_per_simulated_ms"] =
        static_cast<double>(ff.events) / sim_ms;
    m["ff_fires"] = static_cast<double>(ff.ffFires);
    m["ff_fire_fraction"] =
        static_cast<double>(ff.ffFires) / static_cast<double>(ff.events);
    m["speedup_vs_stepped"] = stepped.wall / ff.wall;
    return m;
}

exp::ScenarioRegistry
buildScenarios()
{
    // Defaults give stable numbers in ~seconds; CI smoke shrinks them.
    const std::uint64_t churn_events =
        envCount("ICH_PERF_EVENTS", 1000000);
    const std::uint64_t mix_ops = envCount("ICH_PERF_EVENTS", 1000000);
    const std::uint64_t sim_iters =
        envCount("ICH_PERF_SIM_ITERS", 20000);
    const unsigned chains = 256;

    exp::ScenarioRegistry reg;
    exp::ScenarioSpec spec;
    spec.name = "BENCH_kernel";
    spec.description = "event-kernel perf: slab/4-ary-heap queue vs "
                       "legacy shared_ptr/std::function queue";
    spec.axes = {exp::axisLabeled("workload",
                                  {"churn", "cancel_mix", "sim_run"})};
    spec.trials = 3;
    spec.baseSeed = 99;
    spec.run = [=](const exp::TrialContext &ctx) {
        exp::MetricMap m;
        switch (ctx.point.getInt("workload")) {
        case 0: { // churn: the acceptance-gate workload
            double now_eps =
                churnThroughput<NewQueue>(churn_events, chains, ctx.seed);
            double legacy_eps = churnThroughput<legacy::EventQueue>(
                churn_events, chains, ctx.seed);
            m["events_per_sec"] = now_eps;
            m["legacy_events_per_sec"] = legacy_eps;
            m["speedup_vs_legacy"] = now_eps / legacy_eps;
            break;
        }
        case 1: { // cancel_mix
            double now_ops =
                cancelMixThroughput<NewQueue>(mix_ops, 256, ctx.seed);
            double legacy_ops = cancelMixThroughput<legacy::EventQueue>(
                mix_ops, 256, ctx.seed);
            m["events_per_sec"] = now_ops;
            m["legacy_events_per_sec"] = legacy_ops;
            m["speedup_vs_legacy"] = now_ops / legacy_ops;
            break;
        }
        default: // sim_run
            m = simRunMetrics(sim_iters, ctx.seed);
            m["events_per_sec"] = m["sim_events_per_sec"];
            break;
        }
        return m;
    };
    reg.add(std::move(spec));

    // Fixed, not scaled by ICH_PERF_SIM_ITERS: the byte-identity
    // assertion and the committed work_events_per_sec floor both want
    // the full-size run, which costs only tens of milliseconds.
    const std::uint64_t record_iters = 200000;

    exp::ScenarioSpec rec;
    rec.name = "BENCH_record";
    rec.description = "analytic chunk-record batching vs the per-chunk "
                      "event-driven boundary path";
    rec.axes = {exp::axisLabeled("workload",
                                 {"record_batch", "sim_record"})};
    rec.trials = 3;
    rec.baseSeed = 1234;
    rec.run = [=](const exp::TrialContext &ctx) {
        return recordMetrics(/*noisy=*/ctx.point.getInt("workload") == 1,
                             record_iters, ctx.seed);
    };
    reg.add(std::move(rec));

    const unsigned tick_members = static_cast<unsigned>(
        envCount("ICH_PERF_TICKERS", 256));
    const Time tick_horizon = fromMilliseconds(static_cast<double>(
        envCount("ICH_PERF_TICK_MS", 20)));
    const std::uint64_t tick_iters =
        envCount("ICH_PERF_SIM_ITERS", 20000);

    exp::ScenarioSpec tick;
    tick.name = "BENCH_tick";
    tick.description = "rate-grouped Ticker vs per-component periodic "
                       "self-rescheduling events";
    tick.axes = {exp::axisLabeled("workload",
                                  {"tick_groups", "sim_tick"})};
    tick.trials = 3;
    tick.baseSeed = 7;
    tick.run = [=](const exp::TrialContext &ctx) {
        if (ctx.point.getInt("workload") == 0)
            return tickGroupsMetrics(tick_members, tick_horizon);
        return simTickMetrics(tick_iters, /*probes=*/64, ctx.seed);
    };
    reg.add(std::move(tick));

    // Fixed, not scaled by ICH_PERF_SIM_ITERS: the ff-vs-stepped ratio
    // needs a few ms of simulated work to rise above wall-clock noise
    // (still ~tens of ms; same policy as BENCH_record).
    const std::uint64_t ff_iters = 20000;
    const unsigned ff_probes = 64;

    exp::ScenarioSpec ff;
    ff.name = "BENCH_ff";
    ff.description = "chip-level fast-forward pump vs fully stepped "
                     "dispatch (bit-identical trajectories)";
    ff.axes = {exp::axisLabeled("workload", {"sim_ff"})};
    ff.trials = 3;
    ff.baseSeed = 11;
    ff.run = [=](const exp::TrialContext &ctx) {
        return simFfMetrics(ff_iters, ff_probes, ctx.seed);
    };
    reg.add(std::move(ff));
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
    // Wall-clock metrics: never run trials concurrently.
    cli.jobs = 1;

    bench::banner("BENCH_kernel",
                  "event-queue hot-path throughput (new vs legacy)");
    exp::SweepResult res = exp::runAndReport(*reg.find("BENCH_kernel"), cli);

    const auto &churn = res.aggregates.at(0).metrics;
    double speedup = churn.at("speedup_vs_legacy").mean;
    std::printf("\nchurn: %.2fM events/s new vs %.2fM events/s legacy "
                "-> %.2fx speedup\n",
                churn.at("events_per_sec").mean / 1e6,
                churn.at("legacy_events_per_sec").mean / 1e6, speedup);
    if (speedup < 2.0)
        std::printf("WARNING: speedup below the 2x refactor target\n");

    bench::banner("BENCH_record",
                  "analytic chunk-record batching vs per-chunk events");
    exp::SweepResult recres =
        exp::runAndReport(*reg.find("BENCH_record"), cli);
    const auto &rbatch = recres.aggregates.at(0).metrics;
    const auto &rsim = recres.aggregates.at(1).metrics;
    std::printf("\nrecord_batch: %.0f events/sim-ms batched vs %.0f "
                "per-chunk -> %.2fx wall speedup\n",
                rbatch.at("events_per_simulated_ms").mean,
                rbatch.at("per_chunk_events_per_simulated_ms").mean,
                rbatch.at("record_speedup_vs_per_chunk").mean);
    std::printf("sim_record:   %.2fx wall speedup, %.2fM work-events/s "
                "(records byte-identical in both)\n",
                rsim.at("record_speedup_vs_per_chunk").mean,
                rsim.at("work_events_per_sec").mean / 1e6);
    if (rbatch.at("record_speedup_vs_per_chunk").mean < 2.0)
        std::printf("WARNING: record batching below the 2x refactor "
                    "target\n");

    bench::banner("BENCH_tick",
                  "rate-grouped Ticker vs per-event periodic traffic");
    exp::SweepResult tick = exp::runAndReport(*reg.find("BENCH_tick"),
                                              cli);
    const auto &groups = tick.aggregates.at(0).metrics;
    const auto &simt = tick.aggregates.at(1).metrics;
    std::printf("\ntick_groups: %.0f events/sim-ms grouped vs %.0f "
                "per-event -> %.2fx wall speedup\n",
                groups.at("events_per_simulated_ms").mean,
                groups.at("per_event_events_per_simulated_ms").mean,
                groups.at("speedup_vs_per_event").mean);
    std::printf("sim_tick:    %.0f events/sim-ms grouped vs %.0f "
                "per-event -> %.2fx wall speedup\n",
                simt.at("events_per_simulated_ms").mean,
                simt.at("per_event_events_per_simulated_ms").mean,
                simt.at("speedup_vs_per_event").mean);
    if (groups.at("speedup_vs_per_event").mean < 1.3)
        std::printf("WARNING: tick_groups speedup below the 1.3x "
                    "refactor target\n");

    bench::banner("BENCH_ff",
                  "fast-forward pump vs fully stepped PDN/PMU dispatch");
    exp::SweepResult ffres = exp::runAndReport(*reg.find("BENCH_ff"),
                                               cli);
    const auto &ffm = ffres.aggregates.at(0).metrics;
    std::printf("\nsim_ff: %.1f ms ff vs %.1f ms stepped -> %.2fx wall "
                "speedup (%.0f%% of events pumped inline)\n",
                ffm.at("sim_wall_ms").mean,
                ffm.at("stepped_wall_ms").mean,
                ffm.at("speedup_vs_stepped").mean,
                ffm.at("ff_fire_fraction").mean * 100.0);
    if (ffm.at("speedup_vs_stepped").mean < 1.3)
        std::printf("WARNING: fast-forward speedup below the 1.3x "
                    "target\n");
    return 0;
}
