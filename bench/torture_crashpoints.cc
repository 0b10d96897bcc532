/**
 * @file
 * torture_crashpoints — CrashMonkey-style crash-consistency campaign
 * over the durability stack (state/chunkio, exp/colstore, exp/resume).
 *
 * The harness first runs each victim workload fault-free in counting
 * mode (ICH_FAULT_COUNT_FILE) to discover every injectable fault point
 * — each (site, op) pair and how often it is reached — then attacks
 * the points one cycle at a time: fork/exec the victim with a one-rule
 * fault::Plan in ICH_FAULT_PLAN (crash, torn write, bit flip, ENOSPC,
 * EINTR, short write, dropped fsync...), let the fault land, and then
 * run the *real* recovery path (reader adoption, --resume). The
 * invariant asserted after every cycle:
 *
 *   recovery converges to a result bit-identical to the fault-free
 *   run, or the failure is loud — NEVER a silently wrong answer.
 *
 * Workloads:
 *   colstore   durable ColumnStoreWriter fed synthetic deterministic
 *              records (chunk.write open/write/fsync sites)
 *   resume     a real SweepRunner --resume sweep; run fresh
 *              (chunk.write sites) and pre-seeded from a truncated
 *              store (chunk.read sites)
 *
 * Modes: --quick (default; the CI campaign, fixed seeds, bounded
 * occurrence caps) and --full (ICH_TORTURE_FULL=1; every occurrence
 * plus torn-offset and bit-position sweeps). Every failing cycle
 * prints a copy-pasteable repro line.
 *
 * Internal mode (spawned by the harness itself):
 *   --victim NAME --dir D    run one victim workload (faults via env)
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include "exp/exp.hh"
#include "fault/fault.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

using PointMap = std::map<std::size_t, std::vector<exp::TrialRecord>>;

// ------------------------------------------------------------ workloads

/** Synthetic sweep identity for the colstore victim: 8 points. */
exp::ScenarioSpec
colstoreSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "torture-colstore";
    spec.description = "synthetic durable-store torture workload";
    spec.axes = {
        exp::axis("x", {1.0, 2.0, 3.0, 4.0}),
        exp::axis("y", {0.25, 0.75}),
    };
    spec.trials = 2;
    spec.baseSeed = 0xC0FFEEull;
    return spec;
}

/**
 * Deterministic records for one point, including the bit-exactness
 * landmines (-0.0, subnormals) the store must round-trip.
 */
std::vector<exp::TrialRecord>
synthRecords(const exp::SweepMeta &meta, std::size_t idx)
{
    std::vector<exp::TrialRecord> recs;
    for (int t = 0; t < meta.trialsPerPoint; ++t) {
        std::uint64_t global =
            static_cast<std::uint64_t>(idx) *
                static_cast<std::uint64_t>(meta.trialsPerPoint) +
            static_cast<std::uint64_t>(t);
        exp::TrialRecord rec;
        rec.pointIndex = idx;
        rec.trial = t;
        rec.seed = exp::deriveTrialSeed(meta.baseSeed, global);
        rec.metrics["alpha"] =
            static_cast<double>(rec.seed >> 11) * 0x1p-42;
        rec.metrics["beta"] = t == 0 ? -0.0 : 3.0e-310 * (idx + 1.0);
        rec.metrics["gamma"] = meta.points[idx].get("x") *
                               meta.points[idx].get("y") +
                               static_cast<double>(t);
        recs.push_back(std::move(rec));
    }
    return recs;
}

PointMap
colstoreGolden()
{
    exp::SweepMeta meta = exp::sweepMeta(colstoreSpec());
    PointMap golden;
    for (std::size_t i = 0; i < meta.points.size(); ++i)
        golden[i] = synthRecords(meta, i);
    return golden;
}

std::string
colstorePath(const std::string &dir)
{
    return dir + "/torture.colstore";
}

/** The colstore victim body: append every point durably. */
int
runVictimColstore(const std::string &dir)
{
    exp::SweepMeta meta = exp::sweepMeta(colstoreSpec());
    exp::ColumnStoreWriter writer(colstorePath(dir), /*durable=*/true);
    writer.beginSweep(meta);
    for (std::size_t i = 0; i < meta.points.size(); ++i) {
        std::vector<exp::TrialRecord> recs = synthRecords(meta, i);
        writer.acceptPoint(i, recs.data(), recs.size());
    }
    writer.endSweep();
    return 0;
}

/**
 * The resume victim: a real SweepRunner sweep with synthetic trials
 * (no chip simulated), checkpointing into the result directory.
 */
exp::ScenarioSpec
resumeSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "torture-resume";
    spec.description = "resumable-sweep torture workload";
    spec.axes = {
        exp::axis("k", {0.0, 1.0, 2.0}),
        exp::axis("j", {0.0, 1.0}),
    };
    spec.trials = 2;
    spec.baseSeed = 0xFEEDull;
    spec.run = [](const exp::TrialContext &ctx) {
        const std::uint64_t z =
            1000 + static_cast<std::uint64_t>(ctx.point.getInt("k")) * 17;
        std::uint64_t h = ctx.seed ^ (z * 0x9E3779B97F4A7C15ull);
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDull;
        h ^= h >> 33;
        exp::MetricMap m;
        m["mix"] = static_cast<double>(h >> 11) * 0x1p-42 +
                   ctx.point.get("j");
        m["neg"] = ctx.trial == 0 ? -0.0 : 2.0e-310;
        return m;
    };
    return spec;
}

std::string
runResumeSweep(const std::string &dir, exp::SweepResult *out = nullptr)
{
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir;
    exp::SweepResult res = exp::SweepRunner(opts).run(resumeSpec());
    if (out)
        *out = res;
    return exp::jsonReport(res);
}

int
runVictimResume(const std::string &dir)
{
    std::string json = runResumeSweep(dir);
    std::ofstream report(dir + "/report.json",
                         std::ios::binary | std::ios::trunc);
    report << json;
    report.close();
    return report ? 0 : 1;
}

// -------------------------------------------------- bit-exact equality

bool
sameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameRecords(const std::vector<exp::TrialRecord> &a,
            const std::vector<exp::TrialRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pointIndex != b[i].pointIndex ||
            a[i].trial != b[i].trial || a[i].seed != b[i].seed)
            return false;
        if (a[i].metrics.size() != b[i].metrics.size())
            return false;
        auto it = b[i].metrics.begin();
        for (const auto &kv : a[i].metrics) {
            if (kv.first != it->first ||
                !sameDouble(kv.second, it->second))
                return false;
            ++it;
        }
    }
    return true;
}

// ------------------------------------------------------ victim control

struct VictimExit {
    bool signaled = false;
    int code = -1;
    int sig = 0;
};

std::string gSelfExe;

/**
 * fork/exec this binary in victim mode with one fault env var set.
 * stdout+stderr go to @p log_path (shown only on failure).
 */
VictimExit
runVictim(const std::string &victim, const std::string &dir,
          const char *env_key, const std::string &env_val,
          const std::string &log_path)
{
    pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(2);
    }
    if (pid == 0) {
        ::unsetenv("ICH_FAULT_PLAN");
        ::unsetenv("ICH_FAULT_COUNT_FILE");
        if (env_key)
            ::setenv(env_key, env_val.c_str(), 1);
        int logfd = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (logfd >= 0) {
            ::dup2(logfd, 1);
            ::dup2(logfd, 2);
            ::close(logfd);
        }
        ::execl(gSelfExe.c_str(), gSelfExe.c_str(), "--victim",
                victim.c_str(), "--dir", dir.c_str(),
                static_cast<char *>(nullptr));
        std::perror("execl");
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
        std::perror("waitpid");
        std::exit(2);
    }
    VictimExit ve;
    if (WIFSIGNALED(status)) {
        ve.signaled = true;
        ve.sig = WTERMSIG(status);
    } else {
        ve.code = WEXITSTATUS(status);
    }
    return ve;
}

// -------------------------------------------------------------- cycles

enum class Outcome {
    kIdentical, ///< recovery converged bit-identically
    kLoudAbort, ///< corruption was detected loudly, then recomputed
    kFail,      ///< invariant violated (silent divergence / no recovery)
};

struct CycleResult {
    Outcome outcome = Outcome::kFail;
    std::string detail;
};

struct Tally {
    std::size_t total = 0;
    std::size_t identical = 0;
    std::size_t loud = 0;
    std::vector<std::string> failures; ///< repro lines
};

/**
 * Decode every completed point of @p path. Returns false (leaving
 * @p out empty) when the reader aborts loudly; a missing file decodes
 * as zero points.
 */
bool
decodeStore(const std::string &path, PointMap &out, std::string &err)
{
    out.clear();
    if (!fs::exists(path))
        return true;
    try {
        exp::ColumnStoreReader reader(path);
        reader.forEachPoint(
            [&](std::size_t idx,
                const std::vector<exp::TrialRecord> &recs) {
                out[idx] = recs;
            });
        return true;
    } catch (const state::ArchiveError &e) {
        err = e.what();
        return false;
    }
}

/**
 * The colstore recovery path: adopt what survived (the production
 * mechanism — ColumnStoreWriter::beginSweep truncates the torn tail
 * and appends after the valid prefix), recompute the missing points,
 * and verify the final decode against @p golden. An unreadable store
 * (loud corruption) is deleted and rebuilt from scratch, exactly what
 * an operator does after the alarm.
 */
CycleResult
recoverColstore(const std::string &dir, const PointMap &golden,
                const VictimExit &ve)
{
    CycleResult res;
    const std::string path = colstorePath(dir);
    exp::SweepMeta meta = exp::sweepMeta(colstoreSpec());

    PointMap have;
    std::string decode_err;
    bool decoded = decodeStore(path, have, decode_err);

    if (!ve.signaled && ve.code == 0) {
        // The victim claims success: the store must be complete and
        // bit-identical with no repair at all — anything else is a
        // silently wrong answer... unless the written bytes fail CRC,
        // which is the loud-corruption outcome (bitflip cycles).
        if (!decoded) {
            res.outcome = Outcome::kLoudAbort;
            res.detail = "reader aborted loudly: " + decode_err;
            fs::remove(path);
            have.clear();
        } else if (have.size() != golden.size()) {
            res.outcome = Outcome::kFail;
            res.detail = "victim exited 0 but store has " +
                         std::to_string(have.size()) + " of " +
                         std::to_string(golden.size()) + " points";
            return res;
        }
    } else if (!decoded) {
        // Crash/error cycles may leave an unreadable store only via
        // detected corruption — which is loud by construction.
        res.outcome = Outcome::kLoudAbort;
        res.detail = "reader aborted loudly: " + decode_err;
        fs::remove(path);
        have.clear();
    }

    // Silent-divergence check: every surviving point must already be
    // bit-identical to the fault-free run.
    for (const auto &kv : have) {
        auto it = golden.find(kv.first);
        if (it == golden.end() || !sameRecords(kv.second, it->second)) {
            res.outcome = Outcome::kFail;
            res.detail = "surviving point " + std::to_string(kv.first) +
                         " diverges from the fault-free run";
            return res;
        }
    }

    if (have.size() < golden.size()) {
        try {
            exp::ColumnStoreWriter writer(path, /*durable=*/true);
            writer.beginSweep(meta); // adopts the valid prefix
            for (const auto &kv : golden)
                if (!have.count(kv.first))
                    writer.acceptPoint(kv.first, kv.second.data(),
                                       kv.second.size());
            writer.endSweep();
        } catch (const std::exception &e) {
            res.outcome = Outcome::kFail;
            res.detail = std::string("repair failed: ") + e.what();
            return res;
        }
    }

    PointMap final_points;
    std::string final_err;
    if (!decodeStore(path, final_points, final_err)) {
        res.outcome = Outcome::kFail;
        res.detail = "store unreadable after repair: " + final_err;
        return res;
    }
    if (final_points.size() != golden.size()) {
        res.outcome = Outcome::kFail;
        res.detail = "repair left " +
                     std::to_string(final_points.size()) + " of " +
                     std::to_string(golden.size()) + " points";
        return res;
    }
    for (const auto &kv : golden) {
        if (!sameRecords(final_points.at(kv.first), kv.second)) {
            res.outcome = Outcome::kFail;
            res.detail = "point " + std::to_string(kv.first) +
                         " not bit-identical after repair";
            return res;
        }
    }
    if (res.outcome != Outcome::kLoudAbort)
        res.outcome = Outcome::kIdentical;
    return res;
}

CycleResult
runColstoreCycle(const std::string &plan, const std::string &dir,
                 const PointMap &golden)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    VictimExit ve = runVictim("colstore", dir, "ICH_FAULT_PLAN", plan,
                              dir + "/victim.log");
    return recoverColstore(dir, golden, ve);
}

/**
 * Pre-seed a resume directory: run the sweep to completion, then
 * rewrite the checkpoint store with only its first two points (as if
 * the run died early), so the victim's resume pass exercises the
 * read-side sites.
 */
void
seedResumeDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    runResumeSweep(dir);
    const std::string path = exp::resultStorePath(dir, resumeSpec().name);
    PointMap first;
    std::string err;
    if (!decodeStore(path, first, err) || first.size() < 2) {
        std::fprintf(stderr, "torture: pre-seed store read failed: %s\n",
                     err.c_str());
        std::exit(2);
    }
    first.erase(std::next(first.begin(), 2), first.end());
    // A fresh writer would adopt the complete store; start from none.
    fs::remove(path);
    exp::ColumnStoreWriter writer(path);
    writer.beginSweep(exp::sweepMeta(resumeSpec()));
    for (const auto &kv : first)
        writer.acceptPoint(kv.first, kv.second.data(), kv.second.size());
    writer.endSweep();
}

CycleResult
runResumeCycle(const std::string &plan, const std::string &dir,
               bool pre_seed, const std::string &golden_json)
{
    if (pre_seed) {
        seedResumeDir(dir);
    } else {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    VictimExit ve = runVictim("resume", dir, "ICH_FAULT_PLAN", plan,
                              dir + "/victim.log");
    CycleResult res;
    if (!ve.signaled && ve.code == 0) {
        std::ifstream in(dir + "/report.json", std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        if (!in) {
            res.outcome = Outcome::kFail;
            res.detail = "victim exited 0 without a report";
            return res;
        }
        if (ss.str() != golden_json) {
            res.outcome = Outcome::kFail;
            res.detail =
                "victim report diverges from the fault-free run";
            return res;
        }
        res.outcome = Outcome::kIdentical;
        return res;
    }
    // The victim died or errored: the production recovery path is
    // simply re-running with --resume against the same directory.
    try {
        std::string recovered = runResumeSweep(dir);
        if (recovered != golden_json) {
            res.outcome = Outcome::kFail;
            res.detail =
                "resumed report diverges from the fault-free run";
            return res;
        }
        res.outcome = Outcome::kIdentical;
    } catch (const std::exception &e) {
        // --resume must absorb anything a crash can leave behind
        // (corrupt stores are detected and recomputed),
        // so recovery refusing to run is an invariant violation.
        res.outcome = Outcome::kFail;
        res.detail = std::string("resume recovery threw: ") + e.what();
    }
    return res;
}

// --------------------------------------------------------- enumeration

/** (site, op) -> calls observed in one fault-free victim run. */
using CountMap = std::map<std::pair<std::string, std::string>,
                          std::uint64_t>;

CountMap
countVictim(const std::string &victim, const std::string &dir,
            bool pre_seed)
{
    if (pre_seed) {
        seedResumeDir(dir);
    } else {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    std::string counts_path = dir + "/counts.txt";
    VictimExit ve = runVictim(victim, dir, "ICH_FAULT_COUNT_FILE",
                              counts_path, dir + "/victim.log");
    if (ve.signaled || ve.code != 0) {
        std::fprintf(stderr,
                     "torture: fault-free %s victim failed (counting "
                     "mode) — see %s/victim.log\n",
                     victim.c_str(), dir.c_str());
        std::exit(2);
    }
    CountMap counts;
    std::ifstream in(counts_path);
    std::string site, op;
    std::uint64_t n;
    while (in >> site >> op >> n)
        counts[{site, op}] = n;
    if (counts.empty()) {
        std::fprintf(stderr,
                     "torture: %s victim produced no fault-point "
                     "counts\n",
                     victim.c_str());
        std::exit(2);
    }
    return counts;
}

struct Cycle {
    std::string workload; ///< colstore | resume | resume-seeded
    std::string plan;
};

std::string
rulePlan(std::uint64_t seed, const std::string &site,
         const std::string &op, std::uint64_t occ,
         const std::string &kind, std::int64_t arg = -1)
{
    std::string plan = "seed=" + std::to_string(seed) +
                       ";site=" + site + ":op=" + op +
                       ":occ=" + std::to_string(occ) + ":fault=" + kind;
    if (arg >= 0)
        plan += ":arg=" + std::to_string(arg);
    return plan;
}

/**
 * Expand one (site, op) fault point into attack cycles: every kind in
 * @p kinds at every occurrence up to @p cap (full mode: uncapped, plus
 * seeded variants so torn offsets and flipped bits move around).
 */
void
expandCycles(std::vector<Cycle> &out, const std::string &workload,
             const std::string &site, const std::string &op,
             std::uint64_t count, std::uint64_t cap,
             const std::vector<std::string> &kinds, bool full,
             std::uint64_t &dropped)
{
    std::uint64_t limit = full ? count : std::min(count, cap);
    dropped += (count - limit) * kinds.size();
    for (std::uint64_t occ = 1; occ <= limit; ++occ) {
        for (const std::string &kind : kinds) {
            std::uint64_t seed = 0x7071ull + occ * 131 + out.size();
            Cycle c;
            c.workload = workload;
            c.plan = rulePlan(seed, site, op, occ, kind);
            out.push_back(c);
            if (full && (kind == "torn" || kind == "bitflip")) {
                // Sweep the tear offset / bit position via the seed:
                // same rule, different draws.
                for (int v = 1; v <= 3; ++v) {
                    Cycle cv;
                    cv.workload = workload;
                    cv.plan = rulePlan(seed + 7919ull * v, site, op,
                                       occ, kind);
                    out.push_back(cv);
                }
            }
        }
    }
}

std::vector<Cycle>
buildFileCycles(const CountMap &colstore_counts,
                const CountMap &resume_fresh_counts,
                const CountMap &resume_seeded_counts, bool full,
                std::uint64_t &dropped)
{
    const std::vector<std::string> write_kinds = {
        "crash", "torn", "bitflip", "enospc", "eintr", "short"};
    const std::vector<std::string> fsync_kinds = {"crash", "eio",
                                                  "fsync-drop"};
    const std::vector<std::string> open_kinds = {"crash", "enospc"};
    const std::vector<std::string> read_kinds = {"eio", "eintr"};

    std::vector<Cycle> cycles;
    auto expand = [&](const std::string &workload, const CountMap &counts,
                      const std::string &site, const std::string &op,
                      std::uint64_t cap,
                      const std::vector<std::string> &kinds) {
        auto it = counts.find({site, op});
        if (it == counts.end() || it->second == 0)
            return;
        expandCycles(cycles, workload, site, op, it->second, cap, kinds,
                     full, dropped);
    };

    // colstore victim: the durable writer's own sites.
    expand("colstore", colstore_counts, "chunk.write", "open", 4,
           open_kinds);
    expand("colstore", colstore_counts, "chunk.write", "write", 16,
           write_kinds);
    expand("colstore", colstore_counts, "chunk.write", "fsync", 16,
           fsync_kinds);
    // The write()==0 pathology, explicitly (arg=0 short write).
    cycles.push_back(
        {"colstore",
         rulePlan(0x7071ull, "chunk.write", "write", 2, "short", 0)});

    // fresh resume victim: the checkpoint store.
    expand("resume", resume_fresh_counts, "chunk.write", "write", 8,
           {"crash", "torn"});

    // pre-seeded resume victim: the read-side recovery sites.
    expand("resume-seeded", resume_seeded_counts, "chunk.read", "open",
           2, {"eio"});
    expand("resume-seeded", resume_seeded_counts, "chunk.read", "read",
           10, read_kinds);
    return cycles;
}

// -------------------------------------------------------------- driver

void
reportCycle(Tally &tally, const CycleResult &res,
            const std::string &repro, bool verbose)
{
    ++tally.total;
    switch (res.outcome) {
      case Outcome::kIdentical:
        ++tally.identical;
        break;
      case Outcome::kLoudAbort:
        ++tally.loud;
        break;
      case Outcome::kFail:
        tally.failures.push_back(repro + "\n    " + res.detail);
        std::fprintf(stderr, "FAIL: %s\n  repro: %s\n",
                     res.detail.c_str(), repro.c_str());
        break;
    }
    if (verbose && res.outcome != Outcome::kFail)
        std::fprintf(stderr, "ok [%s]: %s\n",
                     res.outcome == Outcome::kIdentical ? "identical"
                                                        : "loud",
                     repro.c_str());
}

int
runCampaign(bool full, bool verbose)
{
    const std::string root =
        (fs::temp_directory_path() /
         ("ich-torture-" + std::to_string(::getpid())))
            .string();
    fs::remove_all(root);
    fs::create_directories(root);

    std::printf("torture_crashpoints: %s campaign (root %s)\n",
                full ? "full" : "quick", root.c_str());

    // Fault-free goldens and crash-point discovery.
    PointMap colstore_golden = colstoreGolden();
    const std::string resume_golden = [&] {
        std::string dir = root + "/golden-resume";
        fs::create_directories(dir);
        std::string json = runResumeSweep(dir);
        fs::remove_all(dir);
        return json;
    }();

    CountMap colstore_counts =
        countVictim("colstore", root + "/count-colstore", false);
    CountMap resume_fresh_counts =
        countVictim("resume", root + "/count-resume", false);
    CountMap resume_seeded_counts =
        countVictim("resume", root + "/count-resume-seeded", true);

    std::uint64_t dropped = 0;
    std::vector<Cycle> cycles =
        buildFileCycles(colstore_counts, resume_fresh_counts,
                        resume_seeded_counts, full, dropped);

    std::printf("torture: %zu fault points planned%s\n", cycles.size(),
                full ? "" : " — quick mode");
    if (dropped > 0)
        std::printf("torture: quick mode capped occurrence sweeps: %" PRIu64
                    " cycles skipped (run --full or ICH_TORTURE_FULL=1 "
                    "for every occurrence)\n",
                    dropped);

    Tally tally;
    const std::string cdir = root + "/cycle";
    for (const Cycle &c : cycles) {
        CycleResult res;
        std::string repro;
        if (c.workload == "colstore") {
            res = runColstoreCycle(c.plan, cdir, colstore_golden);
            repro = "ICH_FAULT_PLAN='" + c.plan + "' " + gSelfExe +
                    " --victim colstore --dir <dir>";
        } else {
            bool seeded = c.workload == "resume-seeded";
            res = runResumeCycle(c.plan, cdir, seeded, resume_golden);
            repro = "ICH_FAULT_PLAN='" + c.plan + "' " + gSelfExe +
                    " --victim resume --dir <dir>" +
                    (seeded ? "  # pre-seed: run once fault-free, trim "
                              "store to 2 points"
                            : "");
        }
        reportCycle(tally, res, repro, verbose);
    }

    std::printf(
        "torture: %zu fault points exercised — %zu recovered "
        "bit-identically, %zu loud aborts (then recomputed), %zu "
        "invariant violations\n",
        tally.total, tally.identical, tally.loud,
        tally.failures.size());

    int rc = 0;
    if (!tally.failures.empty()) {
        std::fprintf(stderr, "\n%zu failing cycle(s):\n",
                     tally.failures.size());
        for (const std::string &f : tally.failures)
            std::fprintf(stderr, "  %s\n", f.c_str());
        rc = 1;
    }
    if (tally.total < 100) {
        std::fprintf(stderr,
                     "torture: only %zu fault points enumerated "
                     "(>= 100 required) — a victim workload shrank?\n",
                     tally.total);
        rc = 1;
    }
    if (rc == 0)
        fs::remove_all(root);
    else
        std::fprintf(stderr, "torture: artifacts kept in %s\n",
                     root.c_str());
    return rc;
}

} // namespace
} // namespace ich

int
main(int argc, char **argv)
{
    using namespace ich;
    gSelfExe = std::filesystem::read_symlink("/proc/self/exe").string();

    std::string victim, dir;
    bool full = std::getenv("ICH_TORTURE_FULL") != nullptr;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--victim")
            victim = next();
        else if (arg == "--dir")
            dir = next();
        else if (arg == "--full")
            full = true;
        else if (arg == "--quick")
            full = false;
        else if (arg == "--verbose")
            verbose = true;
        else {
            std::fprintf(stderr,
                         "usage: torture_crashpoints [--quick|--full] "
                         "[--verbose]\n"
                         "       torture_crashpoints --victim "
                         "colstore|resume --dir DIR\n");
            return 2;
        }
    }

    if (!victim.empty()) {
        if (dir.empty()) {
            std::fprintf(stderr, "--victim needs --dir\n");
            return 2;
        }
        try {
            fault::armFromEnv();
            if (victim == "colstore")
                return runVictimColstore(dir);
            if (victim == "resume")
                return runVictimResume(dir);
            std::fprintf(stderr, "unknown victim '%s'\n",
                         victim.c_str());
            return 2;
        } catch (const std::exception &e) {
            // A loud abort: the injected failure surfaced as an
            // exception instead of being masked.
            std::fprintf(stderr, "victim aborted: %s\n", e.what());
            return 1;
        }
    }

    return runCampaign(full, verbose);
}
