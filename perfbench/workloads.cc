#include "workloads.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench_util.hh"
#include "channels/channel.hh"
#include "chip/presets.hh"
#include "detect/tenant.hh"
#include "pdn/loadline.hh"
#include "pmu/guardband.hh"

namespace perfbench
{

using namespace ich;
namespace fs = std::filesystem;

namespace
{

// ------------------------------------------------- traced-pass counters

std::mutex g_countMu;
PassCounters g_counts; // guarded by g_countMu during a traced pass

std::int64_t
trialIndex(const exp::TrialContext &ctx, int trials)
{
    return static_cast<std::int64_t>(ctx.pointIndex) * trials + ctx.trial;
}

/** @p spec with a trial function that wraps the original in a span named
 *  by @p name and folds its outputs into the pass counters. */
exp::ScenarioSpec
wrapTrials(exp::ScenarioSpec spec,
           std::function<const char *(const exp::ParamPoint &)> name)
{
    spec.run = [inner = spec.run, name = std::move(name),
                trials = spec.trials](const exp::TrialContext &ctx) {
        exp::MetricMap m;
        {
            Scope s(name(ctx.point), trialIndex(ctx, trials));
            m = inner(ctx);
        }
        auto it = m.find("det_samples");
        if (it != m.end()) {
            std::lock_guard<std::mutex> lock(g_countMu);
            g_counts.detectorSamples += it->second;
        }
        return m;
    };
    return spec;
}

// ------------------------------------------------------- detect-server

/** roc_detect's full-size grids (its RocOptions without --quick). */
constexpr int kRocPayloadBits = 64;
constexpr int kRocFrontierIters = 5;

std::vector<exp::ScenarioSpec>
detectServerSpecs()
{
    exp::ScenarioSpec roc;
    roc.name = "roc-detect";
    roc.description =
        "detector scores: attacker-present vs honest co-residency";
    roc.axes = {
        exp::axisLabeledValues("attacker",
                               {{"honest", 0.0}, {"attacker", 1.0}}),
        exp::axis("honest_rate", {500.0, 2000.0, 8000.0}),
        exp::axis("tenants", {2.0, 6.0}),
    };
    roc.trials = 3;
    roc.baseSeed = 42;
    roc.run = [](const exp::TrialContext &ctx) {
        detect::TenantConfig cfg;
        cfg.seed = ctx.seed;
        cfg.payloadBits = kRocPayloadBits;
        cfg.honestTenants = ctx.point.getInt("tenants");
        cfg.honestPhiRatePerSec = ctx.point.get("honest_rate");
        cfg.attackerPresent = ctx.point.getInt("attacker") == 1;
        return detect::runTenantTrial(cfg).metrics;
    };

    exp::ScenarioSpec frontier;
    frontier.name = "roc-frontier";
    frontier.description =
        "adaptive attacker: capacity vs sketch-score budget";
    frontier.axes = {exp::axis("budget", {0.05, 0.10, 0.15, 0.20})};
    frontier.trials = 1;
    frontier.baseSeed = 43;
    frontier.run = [](const exp::TrialContext &ctx) {
        detect::TenantConfig base;
        base.seed = ctx.seed;
        base.payloadBits = kRocPayloadBits;
        detect::FrontierPoint p = detect::adaptiveDutySearch(
            base, "sketch", ctx.point.get("budget"), kRocFrontierIters);
        exp::MetricMap m;
        m["duty"] = p.duty;
        m["score"] = p.score;
        m["throughput_bps"] = p.throughputBps;
        m["ber"] = p.ber;
        m["feasible"] = p.feasible ? 1.0 : 0.0;
        return m;
    };
    return {roc, frontier};
}

std::vector<exp::ScenarioSpec>
detectServerTraced(const std::vector<exp::ScenarioSpec> &specs)
{
    return {wrapTrials(specs[0],
                       [](const exp::ParamPoint &p) {
                           return p.getInt("attacker") == 1
                                      ? "detect.attacker_trial"
                                      : "detect.honest_trial";
                       }),
            wrapTrials(specs[1], [](const exp::ParamPoint &) {
                return "detect.frontier";
            })};
}

// ---------------------------------------------------- channels-desktop

ChannelConfig
gridChannelConfig(const exp::TrialContext &ctx)
{
    ChannelConfig cfg;
    cfg.chip = presets::cannonLake();
    cfg.seed = ctx.seed;
    double rate = ctx.point.get("noise_events_per_s");
    cfg.noise.interruptRatePerSec = rate;
    cfg.noise.contextSwitchRatePerSec = rate / 10.0;
    cfg.app.phiRatePerSec = rate / 10.0;
    return cfg;
}

exp::MetricMap
gridMetrics(const TransmitResult &r)
{
    exp::MetricMap m;
    m["ber"] = r.ber;
    m["throughput_bps"] = r.throughputBps;
    m["bit_errors"] = static_cast<double>(r.bitErrors);
    return m;
}

exp::ScenarioSpec
channelsDesktopSpec()
{
    exp::ScenarioSpec grid;
    grid.name = "grid-ber-noise";
    grid.description = "BER/throughput grid: channel kind x mixed-noise "
                       "intensity (irq+ctx+App-PHI)";
    grid.axes = {
        exp::axisLabeledValues(
            "channel",
            {{toString(ChannelKind::kThread),
              static_cast<double>(ChannelKind::kThread)},
             {toString(ChannelKind::kSmt),
              static_cast<double>(ChannelKind::kSmt)},
             {toString(ChannelKind::kCores),
              static_cast<double>(ChannelKind::kCores)}}),
        exp::axis("noise_events_per_s",
                  {0.0, 100.0, 1000.0, 5000.0, 10000.0}),
    };
    grid.trials = 3;
    grid.baseSeed = 2021;
    grid.run = [](const exp::TrialContext &ctx) {
        auto ch = makeChannel(
            static_cast<ChannelKind>(ctx.point.getInt("channel")),
            gridChannelConfig(ctx));
        return gridMetrics(ch->transmit(bench::lcgPayload(64, 0xFEED)));
    };
    return grid;
}

/** Counter snapshot of one Simulation, for onFinish - onStart deltas. */
struct SimSnapshot {
    double events = 0, simNs = 0, fires = 0, spans = 0, suppressions = 0,
           pstates = 0, asserts = 0;

    explicit SimSnapshot(const Simulation &sim)
    {
        const Chip &chip = sim.chip();
        events = static_cast<double>(sim.eq().executedEvents());
        simNs = toSeconds(sim.eq().now()) * 1e9;
        fires = static_cast<double>(chip.planner().fires());
        spans = static_cast<double>(chip.planner().spans());
        suppressions = static_cast<double>(chip.planner().suppressions());
        pstates = static_cast<double>(chip.pmu().pstateTransitions());
        for (int c = 0; c < chip.coreCount(); ++c)
            asserts +=
                static_cast<double>(chip.core(c).throttle().assertCount());
    }
};

/**
 * The grid trial with calibration() called before transmit() (transmit
 * would calibrate lazily: same work, same output) and observe-only
 * SimHooks that span each simulation and read its chip counters.
 */
exp::ScenarioSpec
channelsDesktopTraced(exp::ScenarioSpec spec)
{
    spec.run = [trials = spec.trials](const exp::TrialContext &ctx) {
        const std::int64_t idx = trialIndex(ctx, trials);
        Scope trial("channels.trial", idx);
        // Declared before the channel: its hooks refer to them.
        PassCounters local;
        std::unique_ptr<SimSnapshot> before;
        SpanId simSpan = 0;
        ChannelConfig cfg = gridChannelConfig(ctx);
        auto ch = makeChannel(
            static_cast<ChannelKind>(ctx.point.getInt("channel")), cfg);

        CovertChannel::SimHooks hooks;
        hooks.onStart = [&](Simulation &sim) {
            simSpan = Tracer::open("chip.sim", idx);
            before = std::make_unique<SimSnapshot>(sim);
        };
        hooks.onFinish = [&](Simulation &sim) {
            SimSnapshot after(sim);
            Tracer::close(simSpan);
            local.simEvents += after.events - before->events;
            local.simNs += after.simNs - before->simNs;
            local.pumpFires += after.fires - before->fires;
            local.pumpSpans += after.spans - before->spans;
            local.pumpSuppressions +=
                after.suppressions - before->suppressions;
            local.pstateTransitions += after.pstates - before->pstates;
            local.throttleAsserts += after.asserts - before->asserts;
        };
        ch->setSimHooks(std::move(hooks));

        {
            Scope s("channels.calibrate", idx);
            ch->calibration();
        }
        TransmitResult r;
        {
            Scope s("channels.transmit", idx);
            r = ch->transmit(bench::lcgPayload(64, 0xFEED));
        }

        std::lock_guard<std::mutex> lock(g_countMu);
        g_counts.calibrationSymbols +=
            static_cast<double>(cfg.calibrationRepeats) * kNumSymbols;
        g_counts.payloadSymbols += static_cast<double>(r.symbolsSent.size());
        g_counts.simEvents += local.simEvents;
        g_counts.simNs += local.simNs;
        g_counts.pumpFires += local.pumpFires;
        g_counts.pumpSpans += local.pumpSpans;
        g_counts.pumpSuppressions += local.pumpSuppressions;
        g_counts.pstateTransitions += local.pstateTransitions;
        g_counts.throttleAsserts += local.throttleAsserts;
        return gridMetrics(r);
    };
    return spec;
}

// --------------------------------------------------------- store-sweep

std::vector<double>
steps(double first, double step, int n)
{
    std::vector<double> v;
    for (int i = 0; i < n; ++i)
        v.push_back(first + step * i);
    return v;
}

/**
 * Fig. 2's load-line and guardband math over 15 x 25 x 5 x 4 = 7,500
 * points, one trial each: microseconds of model code per trial, so the
 * exp layers (aggregation, store, reports) carry the pass.
 */
exp::ScenarioSpec
storeSweepSpec()
{
    exp::ScenarioSpec grid;
    grid.name = "store-sweep";
    grid.description = "load-line droop and guardband set points: RLL x "
                       "Icc x frequency x virus level";
    grid.axes = {
        exp::axis("rll_mohm", steps(1.0, 0.2, 15)),
        exp::axis("icc_a", steps(0.5, 1.0, 25)),
        exp::axis("freq_ghz", {0.8, 1.2, 1.6, 2.0, 2.4}),
        exp::axisLabeledValues(
            "level", {{"L1", 1.0}, {"L2", 2.0}, {"L3", 3.0}, {"L4", 4.0}}),
    };
    grid.trials = 1;
    grid.baseSeed = 2;
    grid.run = [](const exp::TrialContext &ctx) {
        LoadLine ll(ctx.point.get("rll_mohm") * 1e-3);
        GuardbandModel gb(ll, VfCurve{});
        const double f = ctx.point.get("freq_ghz");
        const int level = ctx.point.getInt("level");
        // Load current jittered by up to 0.5 A from the trial seed, so
        // the benchmark seed changes every trial's inputs.
        const double icc = ctx.point.get("icc_a") +
                           0.5 * static_cast<double>(ctx.seed >> 11) *
                               0x1.0p-53;
        const double gbVolts = gb.gbVolts(level, f);
        const double vcc = gb.baseVolts(f) + gbVolts;
        exp::MetricMap m;
        m["gb_mv"] = gbVolts * 1e3;
        m["vcc_set_v"] = vcc;
        m["vccload_v"] = ll.vccLoad(vcc, icc);
        m["droop_mv"] = ll.droop(icc) * 1e3;
        return m;
    };
    return grid;
}

// ------------------------------------------------------------- passes

/** Redirects stdout (fd 1) into a file for its lifetime. */
class StdoutCapture
{
  public:
    explicit StdoutCapture(const std::string &path)
    {
        std::fflush(stdout);
        saved_ = ::dup(1);
        int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (saved_ < 0 || fd < 0 || ::dup2(fd, 1) < 0) {
            if (fd >= 0)
                ::close(fd);
            if (saved_ >= 0)
                ::close(saved_);
            throw std::runtime_error("cannot capture stdout into " + path);
        }
        ::close(fd);
    }
    ~StdoutCapture()
    {
        std::fflush(stdout);
        ::dup2(saved_, 1);
        ::close(saved_);
    }
    StdoutCapture(const StdoutCapture &) = delete;
    StdoutCapture &operator=(const StdoutCapture &) = delete;

  private:
    int saved_ = -1;
};

std::string
capturePath(const Workload &w, const exp::ScenarioSpec &spec)
{
    return w.cli.outDir + "/" + spec.name + ".txt";
}

/** Spans one call of each sink method. */
class TracedSink final : public exp::ResultSink
{
  public:
    TracedSink(exp::ResultSink &inner, const char *name)
        : inner_(inner), name_(name)
    {
    }
    void beginSweep(const exp::SweepMeta &meta) override
    {
        Scope s(name_);
        inner_.beginSweep(meta);
    }
    void acceptPoint(std::size_t idx, const exp::TrialRecord *records,
                     std::size_t count) override
    {
        Scope s(name_);
        inner_.acceptPoint(idx, records, count);
    }
    void endSweep() override
    {
        Scope s(name_);
        inner_.endSweep();
    }

  private:
    exp::ResultSink &inner_;
    const char *name_;
};

/**
 * First sink of the tee: its beginSweep() marks the end of the runner's
 * set-up (grid expansion + fingerprint), and it keeps the sweep meta
 * for the store-backed report view.
 */
class SetupTap final : public exp::ResultSink
{
  public:
    void arm() { setup_ = Tracer::open("exp.scenario.setup"); }
    void beginSweep(const exp::SweepMeta &meta) override
    {
        Tracer::close(setup_);
        meta_ = meta;
    }
    void acceptPoint(std::size_t, const exp::TrialRecord *,
                     std::size_t) override
    {
    }
    void endSweep() override {}
    const exp::SweepMeta &meta() const { return meta_; }

  private:
    SpanId setup_ = 0;
    exp::SweepMeta meta_;
};

/** runner.runStreaming() inside an "exp.runner" span. */
void
tracedRun(const exp::ScenarioSpec &spec, const exp::CliOptions &cli,
          SetupTap &tap, exp::ResultSink &sink)
{
    exp::SweepRunner runner(exp::toRunnerOptions(cli));
    Scope rs("exp.runner");
    Tracer::setWorkerParent(rs.id());
    tap.arm();
    runner.runStreaming(spec, sink);
    Tracer::clearWorkerParent();
}

/** What runAndReport prints and writes after a sweep, one span per
 *  reporter. */
template <typename Sweep>
void
tracedReports(const Sweep &sweep, const exp::CliOptions &cli,
              const std::string &scenario, const std::string &description)
{
    std::printf("%s: %s\n", scenario.c_str(), description.c_str());
    {
        Scope s("exp.report.text");
        std::string text = exp::textReport(sweep);
        std::fputs(text.c_str(), stdout);
    }
    exp::ReportPaths paths;
    if (cli.json) {
        Scope s("exp.report.json");
        exp::ReportOptions o;
        o.csv = false;
        paths.json = exp::writeReports(sweep, cli.outDir, o).json;
    }
    if (cli.csv) {
        Scope s("exp.report.csv");
        exp::ReportOptions o;
        o.json = false;
        paths.csv = exp::writeReports(sweep, cli.outDir, o).csv;
    }
    if (!paths.json.empty())
        std::printf("wrote %s\n", paths.json.c_str());
    if (!paths.csv.empty())
        std::printf("wrote %s\n", paths.csv.c_str());
    std::printf("\n");
}

/** SweepRunner::run(), layer by layer, then the reports. */
void
tracedMaterialized(const exp::ScenarioSpec &spec, const exp::CliOptions &cli)
{
    SetupTap tap;
    exp::MaterializeSink materialize;
    TracedSink timed(materialize, "exp.sink.materialize");
    exp::TeeSink tee({&tap, &timed});
    tracedRun(spec, cli, tap, tee);
    exp::SweepResult result = materialize.take();
    {
        Scope s("exp.sink.aggregate");
        result.aggregates = exp::aggregate(result.points, result.trials);
    }
    tracedReports(result, cli, result.scenario, result.description);
}

/** runAndReport's --stream path, layer by layer, then the reports. */
void
tracedStreaming(const exp::ScenarioSpec &spec, const exp::CliOptions &cli)
{
    SetupTap tap;
    exp::StreamingAggregator agg;
    TracedSink timedAgg(agg, "exp.sink.aggregate");
    const std::string store = exp::resultStorePath(cli.outDir, spec.name);
    exp::ColumnStoreWriter spill(store);
    TracedSink timedSpill(spill, "exp.colstore.write");
    exp::TeeSink tee({&tap, &timedAgg, &timedSpill});
    tracedRun(spec, cli, tap, tee);
    std::unique_ptr<exp::ColumnStoreReader> reader;
    {
        Scope s("exp.colstore.read");
        reader = std::make_unique<exp::ColumnStoreReader>(store);
    }
    exp::StoreSweepView view{tap.meta(), agg, *reader};
    tracedReports(view, cli, tap.meta().scenario, tap.meta().description);
}

double
bytesWithExtension(const std::string &dir,
                   const std::vector<std::string> &exts)
{
    double total = 0;
    for (const auto &e : fs::directory_iterator(dir))
        for (const auto &x : exts)
            if (e.is_regular_file() && e.path().extension() == x)
                total += static_cast<double>(e.file_size());
    return total;
}

std::string
fnv1aHex(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::uint64_t h = 0xcbf29ce484222325ull;
    char buf[1 << 16];
    while (f.read(buf, sizeof buf) || f.gcount() > 0) {
        for (std::streamsize i = 0; i < f.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 0x100000001b3ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.cli.json = true;
    w.cli.csv = true;
    if (name == "detect-server") {
        w.specs = detectServerSpecs();
        w.tracedSpecs = detectServerTraced(w.specs);
        w.cli.jobs = 2;
    } else if (name == "channels-desktop") {
        w.specs = {channelsDesktopSpec()};
        w.tracedSpecs = {channelsDesktopTraced(w.specs[0])};
        w.cli.jobs = 1;
    } else if (name == "store-sweep") {
        w.specs = {storeSweepSpec()};
        w.tracedSpecs = {wrapTrials(
            w.specs[0], [](const exp::ParamPoint &) { return "pdn.trial"; })};
        // One worker: trials take under a microsecond, so a second worker
        // would only wait on the runner's sink lock (NOTES.md).
        w.cli.jobs = 1;
        w.cli.stream = true;
        w.cli.json = false; // JSON at this grid size hides the store layer
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (seed != 0)
        w.cli.seed = seed;
    // From the axis sizes (every grid here is cartesian): expanding the
    // grid would add work to the set-up probe that the harness never does.
    for (const auto &spec : w.specs) {
        std::size_t points = 1;
        for (const auto &a : spec.axes)
            points *= a.values.size();
        w.trialsPerPass += points * static_cast<std::size_t>(spec.trials);
    }
    return w;
}

void
resetDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

double
runPass(const Workload &w)
{
    resetDir(w.cli.outDir);
    const std::int64_t t0 = nowNs();
    for (const auto &spec : w.specs) {
        StdoutCapture capture(capturePath(w, spec));
        exp::runAndReport(spec, w.cli);
    }
    return (nowNs() - t0) * 1e-9;
}

TracedPass
runTracedPass(const Workload &w)
{
    resetDir(w.cli.outDir);
    {
        std::lock_guard<std::mutex> lock(g_countMu);
        g_counts = PassCounters{};
        g_counts.workers = exp::resolveJobs(w.cli.jobs);
    }
    Tracer::collect(); // start from an empty recorder

    const std::int64_t t0 = nowNs();
    {
        Scope pass("pass");
        for (const auto &spec : w.tracedSpecs) {
            StdoutCapture capture(capturePath(w, spec));
            if (w.cli.stream)
                tracedStreaming(spec, w.cli);
            else
                tracedMaterialized(spec, w.cli);
        }
    }
    TracedPass out;
    out.wallSeconds = (nowNs() - t0) * 1e-9;
    out.spans = Tracer::collect();
    {
        std::lock_guard<std::mutex> lock(g_countMu);
        out.counters = g_counts;
    }
    out.counters.storeBytes = bytesWithExtension(w.cli.outDir, {".colstore"});
    out.counters.reportBytes =
        bytesWithExtension(w.cli.outDir, {".txt", ".json", ".csv"});

    // exp.scenario: the runner's first two steps, timed by direct calls
    // outside the pass (inside it they sit under exp.scenario.setup).
    for (const auto &spec : w.specs) {
        std::int64_t t = nowNs();
        std::vector<exp::ParamPoint> points = exp::expandPoints(spec);
        out.counters.expandNs += static_cast<double>(nowNs() - t);
        t = nowNs();
        volatile std::uint64_t fp = exp::gridFingerprint(points);
        (void)fp;
        out.counters.fingerprintNs += static_cast<double>(nowNs() - t);
    }
    return out;
}

Digests
digestDir(const std::string &dir)
{
    Digests d;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string ext = e.path().extension().string();
        if (e.is_regular_file() &&
            (ext == ".txt" || ext == ".json" || ext == ".csv"))
            d[e.path().filename().string()] = fnv1aHex(e.path().string());
    }
    return d;
}

int
digestMismatches(const Digests &expected, const Digests &actual,
                 std::string *detail)
{
    int n = 0;
    auto note = [&](const std::string &what) {
        ++n;
        if (detail)
            *detail += what + "\n";
    };
    for (const auto &kv : expected) {
        auto it = actual.find(kv.first);
        if (it == actual.end())
            note(kv.first + ": missing");
        else if (it->second != kv.second)
            note(kv.first + ": digest " + it->second + ", expected " +
                 kv.second);
    }
    for (const auto &kv : actual)
        if (!expected.count(kv.first))
            note(kv.first + ": unexpected report");
    return n;
}

Digests
readDigests(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read golden digests " + path);
    Digests d;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::string file, digest;
        if (!(in >> file >> digest))
            throw std::runtime_error(path + ": malformed line '" + line +
                                     "'");
        d[file] = digest;
    }
    return d;
}

std::string
formatDigests(const Digests &d)
{
    std::string out;
    for (const auto &kv : d)
        out += kv.first + " " + kv.second + "\n";
    return out;
}

} // namespace perfbench
