/**
 * @file
 * Deterministic, seeded fault injection for the durability stack.
 *
 * A FaultPlan scripts faults by *site* and *occurrence count*: "on the
 * 3rd write at site chunk.write, tear the frame at a seeded byte and
 * SIGKILL". Plans are parsed from a compact spec string so they travel
 * through env vars and CLI flags unchanged — which is what makes a
 * failing torture cycle reproducible with one copy-pasteable line.
 *
 *   spec   := [seed=S;] rule (';' rule)*
 *   rule   := site=SITE:op=OP:occ=N:fault=KIND[:arg=A][:path=SUB]
 *
 *   SITE   injection site tag ("chunk.write", "chunk.read" or "*")
 *   OP     syscall class at the site: open|read|write|fsync|truncate
 *          or "*"; anything else is rejected, because no call could
 *          ever match it
 *   N      1-based Nth matching call fires the fault once; 0 = every
 *          matching call
 *   KIND   crash | eintr | enospc | eio | short | torn | bitflip |
 *          fsync-drop
 *   A      kind-specific argument (bytes for short/torn, bit index for
 *          bitflip); omitted = derived from the plan seed via
 *          splitmix64, so unspecified faults are still deterministic
 *   SUB    only fire when the target path contains SUB
 *
 * The injection points are the io::FileOps wrappers (io/fileops.hh) —
 * routed through by state/chunkio, and therefore by everything layered
 * on it (exp/colstore, exp/resume).
 * With no plan armed every wrapper is a single predicted-not-taken
 * branch in front of the real syscall: the seam is free (BENCH floors
 * are unaffected).
 *
 * Counting mode (ICH_FAULT_COUNT_FILE) records how many times each
 * (site, op) pair is reached during a fault-free run and dumps the
 * totals at process exit — the torture harness uses it to enumerate
 * every injectable crash point of a workload before attacking them.
 */

#ifndef ICH_FAULT_FAULT_HH
#define ICH_FAULT_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ich
{
namespace fault
{

/** No explicit arg in the rule: derive one from the plan seed. */
constexpr std::uint64_t kNoArg = ~0ull;

enum class Kind : int {
    kNone = 0,
    kCrash,     ///< raise(SIGKILL) before the operation
    kEintr,     ///< fail with errno = EINTR (must be retried)
    kEnospc,    ///< fail with errno = ENOSPC (must throw loudly)
    kEio,       ///< fail with errno = EIO (must throw loudly)
    kShort,     ///< write only arg bytes (default seeded, >= 1)
    kTorn,      ///< write arg bytes of the buffer, then SIGKILL
    kBitflip,   ///< flip one seeded bit of the buffer, write it all
    kFsyncDrop, ///< report fsync success without syncing
};

const char *kindName(Kind k);

struct Rule {
    std::string site = "*";
    std::string op = "*";
    std::string pathSub; ///< empty: any path
    std::uint64_t occ = 1; ///< 1-based Nth matching call; 0 = every
    Kind kind = Kind::kNone;
    std::uint64_t arg = kNoArg;
};

struct Plan {
    std::uint64_t seed = 1;
    std::vector<Rule> rules;
    std::string spec; ///< the string this plan was parsed from
};

/** Parse @p spec (grammar above). Throws std::invalid_argument. */
Plan parsePlan(const std::string &spec);

/** Arm @p plan process-wide (replacing any armed plan). */
void arm(Plan plan);

/** Disarm: every wrapper returns to the zero-cost pass-through. */
void disarm();

/** Spec string of the armed plan (empty when disarmed). */
std::string armedSpec();

/**
 * Arm from the environment: ICH_FAULT_PLAN holds a plan spec,
 * ICH_FAULT_COUNT_FILE enables counting mode (totals are dumped to the
 * named file at process exit). Harness main()s call this once so any
 * harness binary can be a torture victim. No-op when neither is set.
 */
void armFromEnv();

/** True when a plan is armed or counting mode is on (seam hot path). */
extern std::atomic<bool> gActive;
inline bool active()
{
    return gActive.load(std::memory_order_relaxed);
}

/** What a wrapper should do at one injection point. */
struct Decision {
    Kind kind = Kind::kNone;
    std::uint64_t arg = kNoArg; ///< rule arg (kNoArg: use draw)
    std::uint64_t draw = 0;     ///< seeded 64-bit value for defaults
};

/**
 * Record one (site, op) call and check the armed plan. Returns true —
 * filling @p out — when a rule fires here. Thread-safe; occurrence
 * counters are global across threads.
 */
bool decide(const char *site, const char *op, const char *path,
            Decision &out);

} // namespace fault
} // namespace ich

#endif // ICH_FAULT_FAULT_HH
