#include "os/phi_app.hh"

#include <iterator>

namespace ich
{

namespace
{
/** Classes the app draws from, uniformly at random. */
constexpr InstClass kClasses[] = {InstClass::k128Heavy,
                                  InstClass::k256Light,
                                  InstClass::k256Heavy,
                                  InstClass::k512Heavy};
/** Iterations per burst (burst length ≈ a few microseconds). */
constexpr std::uint64_t kBurstIterations = 40;
constexpr int kUnroll = 100;
} // namespace

PhiApp::PhiApp(Chip &chip, Rng &rng, const PhiAppConfig &cfg, CoreId core,
               int smt)
    : chip_(chip), rng_(rng), cfg_(cfg), core_(core), smt_(smt)
{
}

void
PhiApp::start(Time until)
{
    until_ = until;
    if (cfg_.phiRatePerSec > 0.0)
        scheduleBurst();
}

void
PhiApp::scheduleBurst()
{
    Time gap = rng_.exponentialInterarrival(cfg_.phiRatePerSec);
    Time when = chip_.eventQueue().now() + gap;
    if (when > until_)
        return;
    // App-PHI bursts fire at up to 1k/s alongside the covert channel.
    chip_.eventQueue().scheduleChecked(when, [this] {
        ++bursts_;
        InstClass cls =
            kClasses[rng_.uniformInt(0, std::size(kClasses) - 1)];
        // The burst announces itself to the PMU exactly as an executing
        // loop would: level request at start, hysteresis stamp at end.
        chip_.phiStarted(core_, smt_, cls);
        Kernel k = makeKernel(cls, kBurstIterations, kUnroll);
        double cycles = k.totalCycles();
        Time dur = static_cast<Time>(cycles *
                                     cyclePicos(chip_.freqGhz()));
        chip_.eventQueue().scheduleInChecked(dur, [this, cls] {
            chip_.kernelEnded(core_, smt_, cls);
        });
        scheduleBurst();
    });
}

} // namespace ich
