/**
 * @file
 * Plain-text table emitter used by the bench harnesses to print the rows
 * and series the paper's tables and figures report.
 */

#ifndef ICH_COMMON_TABLE_HH
#define ICH_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace ich
{

/**
 * Column-aligned text table. Build with a header row, append data rows,
 * render with toString().
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append one row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with the given precision. */
    static std::string fmt(double v, int precision = 2);

    std::string toString() const;

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return header_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ich

#endif // ICH_COMMON_TABLE_HH
