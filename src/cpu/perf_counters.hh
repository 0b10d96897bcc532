/**
 * @file
 * Per-thread performance monitoring counters, mirroring the Intel PMCs the
 * paper's characterization reads (§5.6): CPU_CLK_UNHALTED,
 * IDQ_UOPS_NOT_DELIVERED, plus retired instructions.
 *
 * Counters accrue analytically over piecewise-constant-rate execution
 * segments (fractional internally; integer at the read interface).
 */

#ifndef ICH_CPU_PERF_COUNTERS_HH
#define ICH_CPU_PERF_COUNTERS_HH

#include <cstdint>

namespace ich
{

/** Counter block for one hardware thread. */
class PerfCounters
{
  public:
    /** Core cycles while the thread was unhalted. */
    std::uint64_t
    clkUnhalted() const
    {
        return static_cast<std::uint64_t>(clkUnhalted_);
    }

    /** Instructions retired. */
    std::uint64_t
    instRetired() const
    {
        return static_cast<std::uint64_t>(instRetired_);
    }

    /**
     * IDQ uop slots not delivered to the back-end while the back-end was
     * not stalled. The front end is `slotsPerCycle` wide (4 on the modeled
     * cores); during throttling 3 of every 4 cycles deliver nothing.
     */
    std::uint64_t
    idqUopsNotDelivered() const
    {
        return static_cast<std::uint64_t>(idqNotDelivered_);
    }

    /** Front-end width used for normalization (Fig. 11). */
    static constexpr int slotsPerCycle = 4;

    /**
     * Normalized undelivered fraction over a counter interval, as in
     * §5.6: IDQ_UOPS_NOT_DELIVERED / (4 * CPU_CLK_UNHALTED).
     */
    static double
    normalizedNotDelivered(std::uint64_t idq_delta,
                           std::uint64_t clk_delta)
    {
        if (clk_delta == 0)
            return 0.0;
        return static_cast<double>(idq_delta) /
               (static_cast<double>(slotsPerCycle) *
                static_cast<double>(clk_delta));
    }

    /** Accrual interface (used by HwThread). */
    void
    accrue(double cycles, double insts, double idq_not_delivered)
    {
        clkUnhalted_ += cycles;
        instRetired_ += insts;
        idqNotDelivered_ += idq_not_delivered;
    }

    void
    reset()
    {
        clkUnhalted_ = instRetired_ = idqNotDelivered_ = 0.0;
    }

  private:
    double clkUnhalted_ = 0.0;
    double instRetired_ = 0.0;
    double idqNotDelivered_ = 0.0;
};

} // namespace ich

#endif // ICH_CPU_PERF_COUNTERS_HH
