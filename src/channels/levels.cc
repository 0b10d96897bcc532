#include "channels/levels.hh"

#include "chip/presets.hh"

namespace ich
{

SymbolMap
symbolMapFor(const ChipConfig &cfg)
{
    SymbolMap map;
    if (presets::hasAvx512(cfg)) {
        // Paper Figure 3: 00→128b_Heavy (L4), 01→256b_Light (L3),
        // 10→256b_Heavy (L2), 11→512b_Heavy (L1).
        map.symbolClasses = {InstClass::k128Heavy, InstClass::k256Light,
                             InstClass::k256Heavy, InstClass::k512Heavy};
        map.threadProbe = InstClass::k512Heavy;
        map.coresProbe = InstClass::k128Heavy;
    } else {
        // AVX2-only parts: shift the ladder down one width; four
        // distinct guardband levels remain (0,1,2,3).
        map.symbolClasses = {InstClass::kScalar64, InstClass::k128Heavy,
                             InstClass::k256Light, InstClass::k256Heavy};
        map.threadProbe = InstClass::k256Heavy;
        map.coresProbe = InstClass::k128Heavy;
    }
    map.smtProbe = InstClass::kScalar64; // 64b loop per Figure 3
    return map;
}

} // namespace ich
