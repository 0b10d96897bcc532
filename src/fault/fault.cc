#include "fault/fault.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

namespace ich
{
namespace fault
{

std::atomic<bool> gActive{false};

namespace
{

std::mutex gMu;
Plan gPlan;
bool gArmed = false;

// Matching-call counters, keyed per rule index (occurrence tracking)
// and per (site, op) pair (counting mode). Both live outside the Plan
// so re-arming the same plan restarts the occurrence clock.
std::vector<std::uint64_t> gHits;
std::vector<bool> gFired;
bool gCounting = false;
std::string gCountFile;
std::map<std::string, std::uint64_t> gCounts;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const char *s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (; *s; ++s) {
        h ^= static_cast<std::uint8_t>(*s);
        h *= 1099511628211ull;
    }
    return h;
}

bool
tagMatches(const std::string &pat, const char *value)
{
    return pat == "*" || pat == value;
}

Kind
parseKind(const std::string &name)
{
    if (name == "crash") return Kind::kCrash;
    if (name == "eintr") return Kind::kEintr;
    if (name == "enospc") return Kind::kEnospc;
    if (name == "eio") return Kind::kEio;
    if (name == "short") return Kind::kShort;
    if (name == "torn") return Kind::kTorn;
    if (name == "bitflip") return Kind::kBitflip;
    if (name == "fsync-drop") return Kind::kFsyncDrop;
    throw std::invalid_argument("fault plan: unknown fault kind '" +
                                name + "'");
}

/** The syscall classes the io:: wrappers report (plus "*"). */
std::string
parseOp(const std::string &name)
{
    for (const char *op : {"open", "read", "write", "fsync", "truncate",
                           "*"})
        if (name == op)
            return name;
    throw std::invalid_argument("fault plan: unknown op '" + name +
                                "' (want open|read|write|fsync|"
                                "truncate|*)");
}

std::uint64_t
parseNum(const std::string &field, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("fault plan: " + field +
                                    ": expected a non-negative "
                                    "integer, got '" +
                                    text + "'");
    return std::stoull(text);
}

void
dumpCountsAtExit()
{
    std::lock_guard<std::mutex> lock(gMu);
    if (!gCounting || gCountFile.empty())
        return;
    std::FILE *f = std::fopen(gCountFile.c_str(), "w");
    if (!f)
        return; // counting is diagnostics; never take the victim down
    for (const auto &kv : gCounts)
        std::fprintf(f, "%s %llu\n", kv.first.c_str(),
                     static_cast<unsigned long long>(kv.second));
    std::fclose(f);
}

void
refreshActive()
{
    gActive.store(gArmed || gCounting, std::memory_order_relaxed);
}

} // namespace

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::kNone: return "none";
      case Kind::kCrash: return "crash";
      case Kind::kEintr: return "eintr";
      case Kind::kEnospc: return "enospc";
      case Kind::kEio: return "eio";
      case Kind::kShort: return "short";
      case Kind::kTorn: return "torn";
      case Kind::kBitflip: return "bitflip";
      case Kind::kFsyncDrop: return "fsync-drop";
    }
    return "none";
}

Plan
parsePlan(const std::string &spec)
{
    Plan plan;
    plan.spec = spec;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string seg = spec.substr(pos, end - pos);
        pos = end + 1;
        if (seg.empty())
            continue;
        if (seg.compare(0, 5, "seed=") == 0) {
            plan.seed = parseNum("seed", seg.substr(5));
            continue;
        }
        Rule rule;
        bool have_site = false, have_fault = false;
        std::size_t fpos = 0;
        while (fpos <= seg.size()) {
            std::size_t fend = seg.find(':', fpos);
            if (fend == std::string::npos)
                fend = seg.size();
            std::string field = seg.substr(fpos, fend - fpos);
            fpos = fend + 1;
            if (field.empty())
                continue;
            std::size_t eq = field.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument(
                    "fault plan: malformed field '" + field +
                    "' (want key=value)");
            std::string key = field.substr(0, eq);
            std::string val = field.substr(eq + 1);
            if (key == "site") {
                rule.site = val;
                have_site = true;
            } else if (key == "op") {
                rule.op = parseOp(val);
            } else if (key == "occ") {
                rule.occ = parseNum("occ", val);
            } else if (key == "fault") {
                rule.kind = parseKind(val);
                have_fault = true;
            } else if (key == "arg") {
                rule.arg = parseNum("arg", val);
            } else if (key == "path") {
                rule.pathSub = val;
            } else {
                throw std::invalid_argument(
                    "fault plan: unknown field '" + key + "'");
            }
        }
        if (!have_site || !have_fault)
            throw std::invalid_argument(
                "fault plan: rule '" + seg +
                "' needs at least site= and fault=");
        plan.rules.push_back(std::move(rule));
    }
    if (plan.rules.empty())
        throw std::invalid_argument(
            "fault plan: no rules in '" + spec + "'");
    return plan;
}

void
arm(Plan plan)
{
    std::lock_guard<std::mutex> lock(gMu);
    gPlan = std::move(plan);
    gHits.assign(gPlan.rules.size(), 0);
    gFired.assign(gPlan.rules.size(), false);
    gArmed = true;
    refreshActive();
}

void
disarm()
{
    std::lock_guard<std::mutex> lock(gMu);
    gPlan = Plan{};
    gHits.clear();
    gFired.clear();
    gArmed = false;
    refreshActive();
}

std::string
armedSpec()
{
    std::lock_guard<std::mutex> lock(gMu);
    return gArmed ? gPlan.spec : std::string();
}

void
armFromEnv()
{
    if (const char *count = std::getenv("ICH_FAULT_COUNT_FILE")) {
        std::lock_guard<std::mutex> lock(gMu);
        if (!gCounting) {
            gCounting = true;
            gCountFile = count;
            std::atexit(dumpCountsAtExit);
        }
        refreshActive();
    }
    if (const char *spec = std::getenv("ICH_FAULT_PLAN"))
        arm(parsePlan(spec));
}

bool
decide(const char *site, const char *op, const char *path,
       Decision &out)
{
    std::lock_guard<std::mutex> lock(gMu);
    if (gCounting)
        ++gCounts[std::string(site) + " " + op];
    if (!gArmed)
        return false;
    for (std::size_t i = 0; i < gPlan.rules.size(); ++i) {
        const Rule &r = gPlan.rules[i];
        if (!tagMatches(r.site, site) || !tagMatches(r.op, op))
            continue;
        if (!r.pathSub.empty() &&
            (path == nullptr ||
             std::string(path).find(r.pathSub) == std::string::npos))
            continue;
        std::uint64_t hit = ++gHits[i];
        if (gFired[i])
            continue;
        if (r.occ != 0 && hit != r.occ)
            continue;
        if (r.occ != 0)
            gFired[i] = true;
        out.kind = r.kind;
        out.arg = r.arg;
        out.draw = splitmix64(gPlan.seed ^ fnv1a(site) ^
                              (fnv1a(op) << 1) ^ (hit * 0x9E37ull));
        return true;
    }
    return false;
}

} // namespace fault
} // namespace ich
