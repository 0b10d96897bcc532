#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace ich
{

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    if (header_.empty())
        throw std::invalid_argument("Table: empty header");
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        throw std::invalid_argument("Table: row width mismatch");
    rows_.push_back(std::move(row));
}

std::string
Table::fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
Table::toString() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    std::size_t line = 1; // '\n'
    for (std::size_t w : widths)
        line += w + 2;

    // Left-aligned cells padded to the column width plus a two-space
    // gutter. Widths count bytes, so a multi-byte "±" cell pads by its
    // byte length, not its display width.
    std::string out;
    out.reserve(line * (rows_.size() + 2));
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            out.append(widths[c] + 2 - row[c].size(), ' ');
        }
        out += '\n';
    };
    emit(header_);
    for (std::size_t c = 0; c < header_.size(); ++c) {
        out.append(widths[c], '-');
        out.append(2, ' ');
    }
    out += '\n';
    for (const auto &row : rows_)
        emit(row);
    return out;
}

} // namespace ich
