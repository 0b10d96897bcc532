/**
 * @file
 * Tests for the 2-bit symbol ↔ instruction-class mapping (Figure 3).
 */

#include <gtest/gtest.h>

#include "channels/levels.hh"
#include "chip/presets.hh"

namespace ich
{
namespace
{

TEST(Levels, Avx512MapMatchesFigure3)
{
    SymbolMap map = symbolMapFor(presets::cannonLake());
    EXPECT_EQ(map.symbolClasses[0], InstClass::k128Heavy); // 00 → L4
    EXPECT_EQ(map.symbolClasses[1], InstClass::k256Light); // 01 → L3
    EXPECT_EQ(map.symbolClasses[2], InstClass::k256Heavy); // 10 → L2
    EXPECT_EQ(map.symbolClasses[3], InstClass::k512Heavy); // 11 → L1
    EXPECT_EQ(map.threadProbe, InstClass::k512Heavy);
    EXPECT_EQ(map.smtProbe, InstClass::kScalar64);
    EXPECT_EQ(map.coresProbe, InstClass::k128Heavy);
}

TEST(Levels, Avx2MapUsesDistinctLevels)
{
    for (const auto &cfg :
         {presets::coffeeLake(), presets::haswell()}) {
        SymbolMap map = symbolMapFor(cfg);
        // Four distinct guardband levels are required for 2 bits.
        std::set<int> levels;
        for (auto cls : map.symbolClasses)
            levels.insert(traits(cls).guardbandLevel);
        EXPECT_EQ(levels.size(), 4u);
        // No 512b classes on AVX2-only parts.
        for (auto cls : map.symbolClasses)
            EXPECT_LT(traits(cls).widthBits, 512);
        EXPECT_LT(traits(map.threadProbe).widthBits, 512);
    }
}

TEST(Levels, SymbolLevelsStrictlyIncrease)
{
    for (const auto &cfg :
         {presets::cannonLake(), presets::coffeeLake()}) {
        SymbolMap map = symbolMapFor(cfg);
        for (int s = 1; s < kNumSymbols; ++s)
            EXPECT_GT(traits(map.symbolClasses[s]).guardbandLevel,
                      traits(map.symbolClasses[s - 1]).guardbandLevel);
    }
}

} // namespace
} // namespace ich
