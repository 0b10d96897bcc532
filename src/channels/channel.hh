/**
 * @file
 * Common covert-channel framework. CovertLink is the bit pipe all seven
 * Fig. 12 contenders share: label packing, calibration, nearest-mean
 * decoding and throughput/BER accounting. CovertChannel adds the
 * configuration, transaction pacing and noise plumbing of
 * IccThreadCovert, IccSMTcovert and IccCoresCovert (paper §4, §6).
 *
 * Transactions are wall-clock paced (rdtsc epochs, §4.3.3): each symbol
 * occupies one `period`, consisting of a ~40 µs transmit window followed
 * by the 650 µs reset-time that lets the hysteresis decay the guardband
 * back to baseline.
 */

#ifndef ICH_CHANNELS_CHANNEL_HH
#define ICH_CHANNELS_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "channels/calibration.hh"
#include "channels/coding.hh"
#include "channels/levels.hh"
#include "chip/simulation.hh"
#include "os/noise.hh"
#include "os/phi_app.hh"

namespace ich
{

/** Where the two communicating execution contexts live. */
enum class ChannelKind { kThread, kSmt, kCores };

const char *toString(ChannelKind kind);

class CovertChannel;

/** Construct the IChannels covert channel of the given kind. */
std::unique_ptr<CovertChannel> makeChannel(ChannelKind kind,
                                           const struct ChannelConfig &cfg);

/**
 * Deterministic per-transaction application PHI burst (the Fig. 14b
 * error-matrix experiment): one concurrent-app PHI of a fixed class,
 * on the SMT sibling of core 0, collides with every transaction at a
 * fixed offset into the TX window. Decoding fails exactly when the
 * burst's power level exceeds the channel's symbol level.
 */
struct PerTxnBurst {
    bool enabled = false;
    InstClass cls = InstClass::k256Heavy;
};

/** Channel configuration. */
struct ChannelConfig {
    ChipConfig chip;
    std::uint64_t seed = 1;
    /** Pinned operating frequency (paper characterizes at 1–1.4 GHz). */
    double freqGhz = 1.4;
    /** Transaction period: TX window + reset-time + down-ramp margin. */
    Time period = fromMicroseconds(710);
    /** Receiver start offset after the sender epoch (cross-core sync). */
    static constexpr Time coresReceiverDelay = fromNanoseconds(150);
    /** Sender PHI loop iterations (sized to outlast its own TP). */
    static constexpr std::uint64_t senderIterations = 220;
    /** Receiver probe loop iterations (thread/cores channels). */
    static constexpr std::uint64_t probeIterations = 85;
    /** Receiver chunk size in iterations (SMT channel). */
    static constexpr std::uint64_t smtChunkIterations = 250;
    /** Training transactions per symbol for calibration. */
    static constexpr int calibrationRepeats = 8;
    /** OS noise applied to the receiver's hardware thread. */
    NoiseConfig noise;
    /** Concurrent PHI application noise (free-running Poisson bursts). */
    PhiAppConfig app;
    /** Per-transaction colliding app burst (Fig. 14b). */
    PerTxnBurst burst;
};

/** @p cfg's chip with the governor pinned at the channel frequency. */
ChipConfig pinnedChip(const ChannelConfig &cfg);

/**
 * Epoch of transaction @p k in TSC cycles: 50 µs for rail settling and
 * program start skew, then one @p cfg.period per transaction.
 */
Cycles epochTsc(const ChannelConfig &cfg, std::size_t k);

/** Outcome of one CovertLink::transmit() call. */
struct TransmitResult {
    BitVec sentBits;
    BitVec receivedBits;
    std::vector<int> symbolsSent;     ///< label per transaction
    std::vector<int> symbolsReceived; ///< decoded label per transaction
    /**
     * Per-transaction receiver reading: µs, or GHz for the frequency
     * baselines (TurboCC, DFScovert, PowerT).
     */
    std::vector<double> tpUs;
    std::size_t bitErrors = 0;
    double ber = 0.0;
    double seconds = 0.0;        ///< simulated payload transfer time
    double throughputBps = 0.0;  ///< payload bits / seconds
};

/**
 * A covert link that sends bitsPerLabel payload bits per transaction as
 * one of 2^bitsPerLabel labels, one transaction per period. The
 * receiver turns each transaction into one reading (a throttling period
 * in µs, or a frequency in GHz for the frequency baselines) and decodes
 * it to the label with the nearest calibrated mean, so the decoder's
 * polarity comes from calibration, not from the channel.
 */
class CovertLink
{
  public:
    virtual ~CovertLink() = default;
    CovertLink(const CovertLink &) = delete;
    CovertLink &operator=(const CovertLink &) = delete;

    /**
     * Transmit @p bits (packed LSB-first, zero-padded, bitsPerLabel per
     * transaction) through the link and decode them on the receiver
     * side.
     */
    TransmitResult transmit(const BitVec &bits);

    /**
     * Lazily-computed noise-free calibration: trainingRepeats passes
     * over every label, in label order.
     */
    const Calibration &calibration();

    /** Bits per second the transaction pacing supports. */
    double ratedThroughputBps() const;

  protected:
    CovertLink(int bits_per_label, int training_repeats, Time period,
               std::uint64_t seed);

    /**
     * Run one transaction per entry of @p labels and return the
     * receiver's reading of each. @p with_noise enables the configured
     * noise sources (calibration runs without them).
     */
    virtual std::vector<double> measure(const std::vector<int> &labels,
                                        bool with_noise) = 0;

    /** The link seed every run's seed derives from. */
    std::uint64_t baseSeed() const { return seed_; }

    /**
     * Seed for the next run's Simulation: the link seed plus the run's
     * 1-based index, counting every run of this link (calibration
     * included).
     */
    std::uint64_t nextRunSeed() { return seed_ + (++runCounter_); }

  private:
    int bitsPerLabel_;
    int trainingRepeats_;
    Time period_;
    std::uint64_t seed_;
    std::uint64_t runCounter_ = 0;
    std::optional<Calibration> calibration_;
};

/**
 * Base class for the three IChannels covert channels: two bits per
 * transaction, one symbol per ChannelConfig::period.
 */
class CovertChannel : public CovertLink
{
  public:
    explicit CovertChannel(ChannelConfig cfg);

    virtual ChannelKind kind() const = 0;

    /**
     * Run raw symbol transactions and return the receiver's per-symbol
     * TP measurements (µs). @p with_noise enables the configured OS and
     * application noise sources.
     */
    std::vector<double> runSymbols(const std::vector<int> &symbols,
                                   bool with_noise);

    /**
     * Run one transaction per entry of @p sender, whose sender loop
     * executes that class, on a fresh Simulation at the pinned chip and
     * the next run seed; return the receiver's per-transaction TP (µs).
     */
    std::vector<double> runClasses(const std::vector<InstClass> &sender,
                                   bool with_noise);

    /**
     * Observer hooks around each internally-constructed Simulation:
     * onStart fires right after construction (attach a
     * detect::DetectorBank, extra Daq probes, ...), onFinish right
     * after the run completes, while the Simulation is still alive
     * (harvest detector metrics). Hooks must only *observe* — anything
     * that perturbs channel physics invalidates the calibration.
     * Install them after calibration() if the calibration run should
     * stay unobserved.
     */
    struct SimHooks {
        std::function<void(Simulation &)> onStart;
        std::function<void(Simulation &)> onFinish;
    };
    void setSimHooks(SimHooks hooks) { simHooks_ = std::move(hooks); }

    const ChannelConfig &config() const { return cfg_; }
    const SymbolMap &symbolMap() const { return map_; }

  protected:
    ChannelConfig cfg_;
    SymbolMap map_;

    std::vector<double> measure(const std::vector<int> &symbols,
                                bool with_noise) override
    {
        return runSymbols(symbols, with_noise);
    }

    /**
     * Channel-specific plumbing: install sender/receiver programs for
     * the given sender loop classes onto @p sim, and return (after the
     * run) the per-transaction TP measurements.
     */
    virtual std::vector<double>
    runOnSimulation(Simulation &sim, const std::vector<InstClass> &sender,
                    bool with_noise) = 0;

    /** Attach configured noise sources targeting the given thread. */
    struct NoiseHandles {
        std::unique_ptr<NoiseInjector> injector;
        std::unique_ptr<PhiApp> app;
    };
    NoiseHandles attachNoise(Simulation &sim, CoreId rx_core, int rx_smt,
                             CoreId app_core, int app_smt,
                             Time until) const;

    /**
     * Schedule the configured per-transaction app bursts (no-op when
     * disabled) for @p n_symbols transactions on @p sim.
     */
    void scheduleBursts(Simulation &sim, std::size_t n_symbols) const;

  private:
    SimHooks simHooks_;
};

} // namespace ich

#endif // ICH_CHANNELS_CHANNEL_HH
