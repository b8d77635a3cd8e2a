/**
 * @file
 * CSV reading and writing.
 *
 * Used to export bench results (one file per figure/table) and to import
 * real cluster traces (Google/Alibaba) when the user has them on disk.
 * The dialect is deliberately simple: comma separated, no quoting, '#'
 * comment lines, optional header row.
 */

#ifndef H2P_UTIL_CSV_H_
#define H2P_UTIL_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace h2p {

/**
 * In-memory CSV table: a header and rows of doubles.
 */
class CsvTable
{
  public:
    CsvTable() = default;

    /** Create a table with the given column names. */
    explicit CsvTable(std::vector<std::string> columns);

    /** Column names (may be empty if the source had no header). */
    const std::vector<std::string> &columns() const { return columns_; }

    /** Number of data rows. */
    size_t numRows() const { return rows_.size(); }

    /** Number of columns. */
    size_t numCols() const;

    /** Append one row; its width must match the table. */
    void addRow(std::vector<double> row);

    /** Access row @p r (bounds-checked). */
    const std::vector<double> &row(size_t r) const;

    /** Access cell (@p r, @p c) (bounds-checked). */
    double at(size_t r, size_t c) const;

    /** Extract one full column by index. */
    std::vector<double> column(size_t c) const;

    /** Serialize to a stream in CSV form. */
    void write(std::ostream &os) const;

    /**
     * Write to @p path atomically (temp + fsync + rename: crashes
     * never leave a truncated file), throwing h2p::Error on failure.
     */
    void save(const std::string &path) const;

    /** Parse from a stream. @p has_header reads the first row as names. */
    static CsvTable read(std::istream &is, bool has_header = true);

    /** Load from @p path, throwing h2p::Error on I/O failure. */
    static CsvTable load(const std::string &path, bool has_header = true);

  private:
    std::vector<std::string> columns_;
    std::vector<std::vector<double>> rows_;
};

} // namespace h2p

#endif // H2P_UTIL_CSV_H_
