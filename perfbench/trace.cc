#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench
{

const char *const kLayers[] = {"exp", "channels", "chip", "detect", "pdn"};
const std::size_t kNumLayers = sizeof(kLayers) / sizeof(kLayers[0]);

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

constexpr SpanId kNoSpan = ~SpanId(0);

struct RawSpan {
    const char *name;
    std::int64_t start;
    std::int64_t end;
    SpanId parent;
    std::int64_t trial;
};

struct ThreadBuf {
    std::uint32_t index = 0;
    std::vector<RawSpan> spans;
    std::vector<std::uint32_t> stack;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs; // guarded by g_mu
/** Bumped by collect(): a thread's cached buffer from an older
 *  generation has been released and must not be touched. */
std::atomic<std::uint64_t> g_generation{1};
std::atomic<SpanId> g_workerParent{kNoSpan};

struct TlsSlot {
    ThreadBuf *buf = nullptr;
    std::uint64_t gen = 0;
};
thread_local TlsSlot tls;

ThreadBuf &
threadBuf()
{
    const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
    if (tls.buf && tls.gen == gen)
        return *tls.buf;
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    ThreadBuf *b = g_bufs.back().get();
    b->index = static_cast<std::uint32_t>(g_bufs.size() - 1);
    tls = {b, gen};
    return *b;
}

SpanId
makeId(std::uint32_t thread, std::uint32_t idx)
{
    return (static_cast<SpanId>(thread) << 32) | idx;
}

} // namespace

SpanId
Tracer::open(const char *name, std::int64_t trial)
{
    ThreadBuf &b = threadBuf();
    SpanId parent = b.stack.empty()
                        ? g_workerParent.load(std::memory_order_acquire)
                        : makeId(b.index, b.stack.back());
    const auto idx = static_cast<std::uint32_t>(b.spans.size());
    b.spans.push_back({name, nowNs(), 0, parent, trial});
    b.stack.push_back(idx);
    return makeId(b.index, idx);
}

void
Tracer::close(SpanId id)
{
    const std::int64_t t = nowNs();
    ThreadBuf &b = threadBuf();
    const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (idx >= b.spans.size())
        return;
    b.spans[idx].end = t;
    auto it = std::find(b.stack.rbegin(), b.stack.rend(), idx);
    if (it != b.stack.rend())
        b.stack.erase(std::next(it).base());
}

void
Tracer::setWorkerParent(SpanId id)
{
    g_workerParent.store(id, std::memory_order_release);
}

void
Tracer::clearWorkerParent()
{
    g_workerParent.store(kNoSpan, std::memory_order_release);
}

std::vector<Span>
Tracer::collect()
{
    std::lock_guard<std::mutex> lock(g_mu);
    struct Entry {
        SpanId id;
        SpanId parent;
        Span span;
    };
    std::vector<Entry> all;
    for (const auto &b : g_bufs)
        for (std::uint32_t j = 0; j < b->spans.size(); ++j) {
            const RawSpan &r = b->spans[j];
            Span s;
            s.name = r.name;
            s.start = r.start;
            s.end = r.end;
            s.thread = static_cast<int>(b->index);
            s.trial = r.trial;
            all.push_back({makeId(b->index, j), r.parent, s});
        }
    // Start order; ties keep open order within a thread, so a parent
    // precedes a child opened in the same nanosecond.
    std::stable_sort(all.begin(), all.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.span.start < b.span.start;
                     });
    std::vector<std::vector<std::int64_t>> newIndex(g_bufs.size());
    for (std::size_t i = 0; i < g_bufs.size(); ++i)
        newIndex[i].resize(g_bufs[i]->spans.size(), -1);
    for (std::size_t i = 0; i < all.size(); ++i)
        newIndex[all[i].id >> 32][all[i].id & 0xffffffffu] =
            static_cast<std::int64_t>(i);
    std::vector<Span> out;
    out.reserve(all.size());
    for (auto &e : all) {
        if (e.parent != kNoSpan) {
            const std::size_t t = e.parent >> 32;
            const std::size_t j = e.parent & 0xffffffffu;
            if (t < newIndex.size() && j < newIndex[t].size())
                e.span.parent = newIndex[t][j];
        }
        out.push_back(e.span);
    }
    g_bufs.clear();
    g_generation.fetch_add(1, std::memory_order_acq_rel);
    g_workerParent.store(kNoSpan, std::memory_order_release);
    return out;
}

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    const std::size_t n = spans.size();
    std::vector<double> self(n, 0.0);
    struct Event {
        std::int64_t t;
        bool open;
        std::size_t idx;
    };
    std::vector<Event> events;
    events.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].end <= spans[i].start)
            continue; // zero-length: never covers an interval
        events.push_back({spans[i].start, true, i});
        events.push_back({spans[i].end, false, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.t < b.t; });

    std::vector<int> activeChildren(n, 0);
    std::vector<std::size_t> active; // small: one chain per thread
    std::vector<std::size_t> exposed;
    std::size_t i = 0;
    while (i < events.size()) {
        const std::int64_t t = events[i].t;
        for (; i < events.size() && events[i].t == t; ++i) {
            const Event &e = events[i];
            const std::int64_t p = spans[e.idx].parent;
            if (e.open) {
                active.push_back(e.idx);
                if (p >= 0)
                    ++activeChildren[p];
            } else {
                active.erase(std::find(active.begin(), active.end(), e.idx));
                if (p >= 0)
                    --activeChildren[p];
            }
        }
        if (i == events.size())
            break;
        exposed.clear();
        for (std::size_t a : active)
            if (activeChildren[a] == 0)
                exposed.push_back(a);
        if (exposed.empty())
            continue;
        const double share =
            static_cast<double>(events[i].t - t) / exposed.size();
        for (std::size_t a : exposed)
            self[a] += share;
    }
    return self;
}

namespace
{

/** Layer of a span name: the prefix before the first '.'. */
std::string
layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

/** Linear-interpolated percentile of sorted @p v (0 when empty). */
double
percentile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * (v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

bool
isSinkSpan(const char *name)
{
    return std::strncmp(name, "exp.sink.", 9) == 0 ||
           std::strcmp(name, "exp.colstore.write") == 0;
}

} // namespace

std::map<std::string, double>
layerMetrics(const std::vector<Span> &spans, const PassCounters &c)
{
    constexpr double kMs = 1e-6;
    const std::vector<double> self = selfTimesNs(spans);

    std::map<std::string, double> durMs; // inclusive, summed over threads
    std::map<std::string, double> layerMs;
    double passMs = 0.0;
    double otherMs = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        durMs[s.name] += (s.end - s.start) * kMs;
        const std::string layer = layerOf(s.name);
        bool known = false;
        for (std::size_t l = 0; l < kNumLayers; ++l)
            known = known || layer == kLayers[l];
        if (known)
            layerMs[layer] += self[i] * kMs;
        else
            otherMs += self[i] * kMs;
        if (s.parent < 0)
            passMs += (s.end - s.start) * kMs;
    }
    auto dur = [&durMs](const char *name) {
        auto it = durMs.find(name);
        return it == durMs.end() ? 0.0 : it->second;
    };

    // Runner: trials are the spans opened directly under a runner span
    // that are not sink calls.
    std::vector<double> trialMs;
    double trialSumMs = 0.0;
    double runnerMs = 0.0;
    double drainMs = 0.0;
    double overheadMs = 0.0;
    for (std::size_t r = 0; r < spans.size(); ++r) {
        if (std::strcmp(spans[r].name, "exp.runner") != 0)
            continue;
        runnerMs += (spans[r].end - spans[r].start) * kMs;
        const auto under = [r](const Span &s) {
            return s.parent == static_cast<std::int64_t>(r);
        };
        std::map<int, std::int64_t> lastEnd; // per worker thread
        std::int64_t first = 0, last = 0;
        double windowTrialMs = 0.0;
        for (const Span &s : spans) {
            if (!under(s) || isSinkSpan(s.name) || s.trial < 0)
                continue;
            const double ms = (s.end - s.start) * kMs;
            trialMs.push_back(ms);
            windowTrialMs += ms;
            if (lastEnd.empty() || s.start < first)
                first = s.start;
            last = std::max(last, s.end);
            std::int64_t &workerLast = lastEnd[s.thread];
            workerLast = std::max(workerLast, s.end);
        }
        if (lastEnd.empty())
            continue;
        trialSumMs += windowTrialMs;
        // Sink calls inside the trial window (beginSweep and the final
        // endSweep flush fall outside it).
        double sinkMs = 0.0;
        for (const Span &s : spans)
            if (under(s) && isSinkSpan(s.name))
                sinkMs += std::max<std::int64_t>(
                              0, std::min(s.end, last) -
                                     std::max(s.start, first)) *
                          kMs;
        std::int64_t firstIdle = last;
        double idleMs = 0.0;
        for (const auto &kv : lastEnd) {
            firstIdle = std::min(firstIdle, kv.second);
            idleMs += (last - kv.second) * kMs;
        }
        drainMs += (last - firstIdle) * kMs;
        overheadMs += c.workers * (last - first) * kMs - windowTrialMs -
                      sinkMs - idleMs;
    }
    std::sort(trialMs.begin(), trialMs.end());

    std::map<std::string, double> m;
    m["pass_ms"] = passMs;
    m["other_ms"] = otherMs;
    for (std::size_t l = 0; l < kNumLayers; ++l)
        m[std::string("layer.") + kLayers[l] + "_ms"] = layerMs[kLayers[l]];
    m["exp_frac"] = ratio(layerMs["exp"], passMs);
    m["sim_frac"] =
        ratio(layerMs["channels"] + layerMs["chip"] + layerMs["detect"],
              passMs);

    m["exp.runner.trial_p50_ms"] = percentile(trialMs, 0.5);
    m["exp.runner.trial_p90_ms"] = percentile(trialMs, 0.9);
    m["exp.runner.busy_frac"] = ratio(trialSumMs, c.workers * runnerMs);
    m["exp.runner.drain_ms"] = drainMs;
    m["exp.runner.overhead_us_per_trial"] =
        ratio(overheadMs * 1e3, static_cast<double>(trialMs.size()));
    m["exp.scenario.expand_ms"] = c.expandNs * kMs;
    m["exp.scenario.fingerprint_ms"] = c.fingerprintNs * kMs;
    m["exp.sink.aggregate_ms"] = dur("exp.sink.aggregate");
    m["exp.colstore.write_ms"] = dur("exp.colstore.write");
    m["exp.colstore.write_mib"] = c.storeBytes / (1024.0 * 1024.0);
    m["exp.colstore.read_ms"] = dur("exp.colstore.read");
    m["exp.report.text_ms"] = dur("exp.report.text");
    m["exp.report.csv_ms"] = dur("exp.report.csv");
    m["exp.report.json_ms"] = dur("exp.report.json");
    m["exp.report.mib"] = c.reportBytes / (1024.0 * 1024.0);

    const double symbols = c.calibrationSymbols + c.payloadSymbols;
    const double calMs = dur("channels.calibrate");
    const double txMs = dur("channels.transmit");
    m["channels.calibrate_ms"] = calMs;
    m["channels.transmit_ms"] = txMs;
    m["channels.symbols"] = symbols;
    m["channels.host_us_per_symbol"] = ratio((calMs + txMs) * 1e3, symbols);
    m["channels.payload_symbol_frac"] = ratio(c.payloadSymbols, symbols);

    const double simMs = dur("chip.sim");
    m["chip.sim_host_ms"] = simMs;
    m["chip.events"] = c.simEvents;
    m["chip.sim_ms"] = c.simNs * kMs;
    m["chip.host_ns_per_event"] = ratio(simMs * 1e6, c.simEvents);
    m["chip.pump_fire_frac"] = ratio(c.pumpFires, c.simEvents);
    m["chip.pump_suppress_frac"] =
        ratio(c.pumpSuppressions, c.pumpSpans + c.pumpSuppressions);
    m["chip.pstate_transitions"] = c.pstateTransitions;
    m["chip.throttle_asserts"] = c.throttleAsserts;

    const double attackerMs = dur("detect.attacker_trial");
    const double honestMs = dur("detect.honest_trial");
    m["detect.attacker_trial_ms"] = attackerMs;
    m["detect.honest_trial_ms"] = honestMs;
    m["detect.frontier_ms"] = dur("detect.frontier");
    m["detect.samples"] = c.detectorSamples;
    m["detect.host_us_per_sample"] =
        ratio((attackerMs + honestMs) * 1e3, c.detectorSamples);
    return m;
}

} // namespace perfbench
