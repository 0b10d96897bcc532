/**
 * @file
 * Thread programs: step lists executed by a hardware thread.
 *
 * Programs express the sender/receiver pseudo-code of Figure 3 —
 * busy-wait on rdtsc for wall-clock synchronization, execute a PHI loop,
 * timestamp with rdtsc, idle through the reset-time — plus hooks for
 * software actions (governor writes) used by the baseline channels.
 */

#ifndef ICH_ISA_PROGRAM_HH
#define ICH_ISA_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hh"
#include "isa/kernel.hh"

namespace ich
{

/**
 * Execute a loop kernel. If recordEveryIterations > 0, the thread appends
 * a Record each time that many iterations retire (chunked timing, used by
 * the SMT receiver's continuously-measuring 64b loop).
 */
struct LoopStep {
    Kernel kernel;
    std::uint64_t recordEveryIterations = 0;
    int tag = 0;
};

/** Busy-wait (rdtsc spin) until the invariant TSC reaches `tsc`. */
struct WaitUntilTscStep {
    Cycles tsc;
};

/** Halt (no instruction execution) for a fixed simulated duration. */
struct IdleStep {
    Time duration;
};

/** Read rdtsc and append a Record with this tag. */
struct MarkStep {
    int tag;
};

/** Invoke a software action (e.g. a governor write). */
struct CallStep {
    std::function<void()> fn;
};

using ProgramStep =
    std::variant<LoopStep, WaitUntilTscStep, IdleStep, MarkStep, CallStep>;

/** rdtsc-style measurement record emitted by Mark/chunked-Loop steps. */
struct Record {
    int tag;
    Cycles tsc;
    Time time;
    /** Loop iterations completed at emit time (chunk records). */
    std::uint64_t iterationsDone;
};

/**
 * A straight-line list of steps. Helper builders keep channel code
 * readable.
 */
class Program
{
  public:
    Program &loop(InstClass cls, std::uint64_t iterations,
                  int unroll = 100);
    Program &loopChunked(InstClass cls, std::uint64_t iterations,
                         std::uint64_t record_every, int tag,
                         int unroll = 100);
    Program &waitUntilTsc(Cycles tsc);
    Program &idle(Time duration);
    Program &mark(int tag);
    Program &call(std::function<void()> fn);

    bool empty() const { return steps_.empty(); }
    std::size_t size() const { return steps_.size(); }
    const ProgramStep &step(std::size_t i) const { return steps_.at(i); }

  private:
    std::vector<ProgramStep> steps_;
};

} // namespace ich

#endif // ICH_ISA_PROGRAM_HH
