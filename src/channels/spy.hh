/**
 * @file
 * Instruction-class side-channel spy (paper §6.5).
 *
 * The throttling side-effects also work as a *side* channel: attacker
 * code co-located with an unwitting victim (SMT sibling or another core)
 * infers the guardband level — and hence the width/heaviness class — of
 * the instructions the victim executes. This is the paper's synthetic
 * side-channel built "with minimal changes" from the covert-channel PoC.
 */

#ifndef ICH_CHANNELS_SPY_HH
#define ICH_CHANNELS_SPY_HH

#include <memory>
#include <optional>
#include <vector>

#include "channels/channel.hh"
#include "isa/inst_class.hh"

namespace ich
{

/** Result of one observation run. */
struct SpyResult {
    std::vector<InstClass> victimClasses;
    std::vector<int> actualLevels;
    std::vector<int> inferredLevels;
    double levelAccuracy = 0.0;
};

/**
 * Observes a victim's instruction-class sequence from an SMT sibling or
 * another core. The victim runs where the covert channel's sender would
 * and the spy is that channel's own receiver, decoding guardband levels
 * with a nearest-mean Calibration instead of symbols.
 */
class InstructionSpy
{
  public:
    /**
     * @param cfg Channel-style configuration (chip, frequency, pacing).
     * @param vantage kSmt (sibling thread) or kCores (other core); the
     *        channel of that kind rejects a chip lacking the resource.
     */
    InstructionSpy(const ChannelConfig &cfg, ChannelKind vantage);

    /** Observe one victim kernel per epoch and infer its level. */
    SpyResult observe(const std::vector<InstClass> &victim_sequence);

  private:
    std::unique_ptr<CovertChannel> channel_;
    std::optional<Calibration> calibration_;
};

} // namespace ich

#endif // ICH_CHANNELS_SPY_HH
