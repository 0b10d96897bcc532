/**
 * @file
 * Tests for Trace: query semantics (the binary search against a
 * reference scan) and in-order appends.
 */

#include <gtest/gtest.h>

#include <vector>

#include "measure/trace.hh"

namespace ich
{
namespace
{

TEST(Trace, EmptyTraceDefaults)
{
    Trace t("x");
    EXPECT_EQ(t.size(), 0u);
    EXPECT_DOUBLE_EQ(t.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(t.meanValue(), 0.0);
    EXPECT_DOUBLE_EQ(t.valueAt(100), 0.0);
}

TEST(Trace, MinMaxMean)
{
    Trace t("x");
    t.add(0, 1.0);
    t.add(10, 3.0);
    t.add(20, 2.0);
    EXPECT_DOUBLE_EQ(t.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(t.maxValue(), 3.0);
    EXPECT_DOUBLE_EQ(t.meanValue(), 2.0);
}

TEST(Trace, ValueAtReturnsLastSampleBefore)
{
    Trace t("x");
    t.add(fromMicroseconds(10), 1.0);
    t.add(fromMicroseconds(20), 2.0);
    EXPECT_DOUBLE_EQ(t.valueAt(fromMicroseconds(5)), 0.0);
    EXPECT_DOUBLE_EQ(t.valueAt(fromMicroseconds(15)), 1.0);
    EXPECT_DOUBLE_EQ(t.valueAt(fromMicroseconds(25)), 2.0);
}

TEST(Trace, ToRowsDecimates)
{
    Trace t("x");
    for (int i = 0; i < 1000; ++i)
        t.add(fromMicroseconds(i), i);
    std::string rows = t.toRows(100);
    // ~100 rows of "time value".
    std::size_t lines = std::count(rows.begin(), rows.end(), '\n');
    EXPECT_GE(lines, 90u);
    EXPECT_LE(lines, 110u);
}

TEST(Trace, SortedValueAtMatchesTheLegacyScanEverywhere)
{
    // Duplicated timestamps and irregular spacing: the binary search
    // must return exactly what the historical linear scan returned.
    Trace t("x");
    std::vector<Time> times = {5, 5, 7, 20, 20, 20, 31, 90};
    for (std::size_t i = 0; i < times.size(); ++i)
        t.add(times[i], 1.0 + static_cast<double>(i));

    auto legacy = [&](Time q) {
        double v = 0.0;
        for (const auto &p : t.points()) {
            if (p.time > q)
                break;
            v = p.value;
        }
        return v;
    };
    for (Time q = 0; q <= 95; ++q)
        EXPECT_DOUBLE_EQ(t.valueAt(q), legacy(q)) << "at t=" << q;
}

TEST(Trace, OutOfOrderSampleIsRejected)
{
    Trace t("x");
    t.add(20, 2.0);
    t.add(20, 3.0); // an equal timestamp is in order
    EXPECT_THROW(t.add(10, 1.0), std::invalid_argument);
    // The rejected sample left the series as it was.
    EXPECT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t.valueAt(25), 3.0);
}

} // namespace
} // namespace ich
