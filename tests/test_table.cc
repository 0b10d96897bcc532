/**
 * @file
 * Tests for the text-table emitter.
 */

#include <gtest/gtest.h>

#include "common/table.hh"

namespace ich
{
namespace
{

TEST(Table, RejectsEmptyHeader)
{
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"1"}), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    // Left-aligned, padded to the widest cell plus a two-space gutter.
    EXPECT_EQ(t.toString(), "name         value  \n"
                            "-----------  -----  \n"
                            "x            1      \n"
                            "longer-name  2      \n");
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, FmtFormatsPrecision)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

} // namespace
} // namespace ich
