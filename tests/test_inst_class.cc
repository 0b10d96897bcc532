/**
 * @file
 * Tests for the instruction-class taxonomy (paper §4/§5.5): seven
 * classes, five guardband levels, monotone intensity.
 */

#include <gtest/gtest.h>

#include "isa/inst_class.hh"

namespace ich
{
namespace
{

TEST(InstClass, SevenClasses)
{
    EXPECT_EQ(kNumInstClasses, 7);
    EXPECT_EQ(kAllInstClasses.size(), 7u);
}

TEST(InstClass, FiveGuardbandLevels)
{
    // Paper Key Conclusion 4: at least five throttling levels.
    EXPECT_EQ(numGuardbandLevels(), 5);
}

TEST(InstClass, LevelsMonotoneInIntensityOrder)
{
    int prev = -1;
    for (auto cls : kAllInstClasses) {
        EXPECT_GE(traits(cls).guardbandLevel, prev);
        prev = traits(cls).guardbandLevel;
    }
}

TEST(InstClass, CdynMonotoneWithLevel)
{
    for (auto a : kAllInstClasses) {
        for (auto b : kAllInstClasses) {
            if (traits(a).guardbandLevel < traits(b).guardbandLevel) {
                EXPECT_LT(traits(a).deltaCdynNf, traits(b).deltaCdynNf);
            }
        }
    }
}

TEST(InstClass, SharedLevels)
{
    // 64b and 128b-light share level 0; 256b-heavy and 512b-light share
    // level 3 — seven classes onto five levels.
    EXPECT_EQ(traits(InstClass::kScalar64).guardbandLevel,
              traits(InstClass::k128Light).guardbandLevel);
    EXPECT_EQ(traits(InstClass::k256Heavy).guardbandLevel,
              traits(InstClass::k512Light).guardbandLevel);
}

TEST(InstClass, PhiPredicate)
{
    EXPECT_FALSE(isPhi(InstClass::kScalar64));
    EXPECT_FALSE(isPhi(InstClass::k128Light));
    EXPECT_TRUE(isPhi(InstClass::k128Heavy));
    EXPECT_TRUE(isPhi(InstClass::k512Heavy));
}

TEST(InstClass, HeavyFlagMatchesNames)
{
    EXPECT_TRUE(traits(InstClass::k256Heavy).heavy);
    EXPECT_FALSE(traits(InstClass::k256Light).heavy);
    EXPECT_EQ(toString(InstClass::k256Heavy), "256b_Heavy");
    EXPECT_EQ(toString(InstClass::kScalar64), "64b");
}

TEST(InstClass, AvxUnitUsage)
{
    // 256-bit and wider use the power-gated AVX unit.
    EXPECT_FALSE(traits(InstClass::kScalar64).usesAvxUnit);
    EXPECT_FALSE(traits(InstClass::k128Heavy).usesAvxUnit);
    EXPECT_TRUE(traits(InstClass::k256Light).usesAvxUnit);
    EXPECT_TRUE(traits(InstClass::k512Heavy).usesAvxUnit);
}

TEST(InstClass, ScalarHasDoubleIpc)
{
    EXPECT_DOUBLE_EQ(traits(InstClass::kScalar64).baseIpc, 2.0);
    EXPECT_DOUBLE_EQ(traits(InstClass::k512Heavy).baseIpc, 1.0);
}

TEST(InstClass, WidthsMatch)
{
    EXPECT_EQ(traits(InstClass::kScalar64).widthBits, 64);
    EXPECT_EQ(traits(InstClass::k128Light).widthBits, 128);
    EXPECT_EQ(traits(InstClass::k512Heavy).widthBits, 512);
}

} // namespace
} // namespace ich
