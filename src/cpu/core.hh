/**
 * @file
 * CPU core: up to two SMT hardware threads sharing a front-end throttle
 * unit and an AVX-unit power gate (Figure 1's per-core blocks).
 */

#ifndef ICH_CPU_CORE_HH
#define ICH_CPU_CORE_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "cpu/chip_api.hh"
#include "cpu/thread.hh"
#include "cpu/throttle_unit.hh"
#include "pdn/power_gate.hh"
#include "pmu/limits.hh"

namespace ich
{

/** Per-core configuration. */
struct CoreConfig {
    int smtThreads = 1;
    ThrottleConfig throttle;
    PowerGateConfig avxGate;
    /** Baseline (scalar power-virus) dynamic capacitance, nF. */
    double cdynBaseNf = 2.2;
};

/** One physical core. */
class Core
{
  public:
    Core(ChipApi &chip, CoreId id, const CoreConfig &cfg);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    CoreId id() const { return id_; }
    int numThreads() const { return static_cast<int>(threads_.size()); }
    HwThread &thread(int i) { return *threads_.at(i); }
    const HwThread &thread(int i) const { return *threads_.at(i); }

    ThrottleUnit &throttle() { return throttle_; }
    const ThrottleUnit &throttle() const { return throttle_; }

    PowerGate &avxGate() { return avxGate_; }

    /** Accrue all threads' progress at their current rates. */
    void touch();

    /** Touch + advance steps + reschedule all threads. */
    void refresh();

    /**
     * Materialize all threads' analytically-deferred chunk records at
     * the current rates, *without* accruing the partial tail past the
     * last crossed boundary (that tail belongs to whatever rate applies
     * when it is eventually accrued). Called before a frequency change.
     */
    void materializePending();

    /**
     * Instantaneous activity, from one pass over the threads: active if
     * any thread executes instructions; dynamic capacitance (nF) is the
     * baseline plus the largest ΔCdyn among concurrently-executing
     * classes (the vector unit is shared between SMT threads), 0 when
     * idle; activeGbLevel is the highest guardband level among them.
     * gbLevel is left 0 for the PMU to fill.
     */
    CoreActivity activity() const;

  private:
    ChipApi &chip_;
    CoreId id_;
    CoreConfig cfg_;
    ThrottleUnit throttle_;
    PowerGate avxGate_;
    std::vector<std::unique_ptr<HwThread>> threads_;
};

} // namespace ich

#endif // ICH_CPU_CORE_HH
