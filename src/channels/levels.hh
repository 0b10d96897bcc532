/**
 * @file
 * Symbol (2-bit) to instruction-class mapping of Figure 3.
 *
 * The sender encodes two secret bits per transaction as the computational
 * intensity of the PHI loop it executes:
 *   00 → L4 (lowest intensity) ... 11 → L1 (512b_Heavy, highest).
 * The receiver executes a fixed probe class whose throttling period
 * reveals the sender's level. Probe class depends on where the receiver
 * runs (same thread / SMT sibling / other core), also per Figure 3.
 *
 * On parts without AVX-512 (Haswell, Coffee Lake) the map shifts down one
 * width so four distinct guardband levels remain available.
 */

#ifndef ICH_CHANNELS_LEVELS_HH
#define ICH_CHANNELS_LEVELS_HH

#include <array>

#include "chip/chip.hh"
#include "isa/inst_class.hh"

namespace ich
{

/** Bits conveyed per covert transaction. */
constexpr int kBitsPerSymbol = 2;
constexpr int kNumSymbols = 4;

/** Class assignment for the four symbols plus the receiver probes. */
struct SymbolMap {
    /** symbolClasses[s] is the sender loop class for symbol s (0..3). */
    std::array<InstClass, kNumSymbols> symbolClasses;
    InstClass threadProbe; ///< same-hardware-thread receiver loop
    InstClass smtProbe;    ///< co-located SMT receiver loop
    InstClass coresProbe;  ///< cross-core receiver loop
};

/** Symbol map suited to @p cfg's ISA (AVX-512 or not). */
SymbolMap symbolMapFor(const ChipConfig &cfg);

} // namespace ich

#endif // ICH_CHANNELS_LEVELS_HH
