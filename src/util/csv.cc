#include "util/csv.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/fs.h"
#include "util/number_format.h"
#include "util/strings.h"

namespace h2p {

CsvTable::CsvTable(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

size_t
CsvTable::numCols() const
{
    if (!columns_.empty())
        return columns_.size();
    return rows_.empty() ? 0 : rows_.front().size();
}

void
CsvTable::addRow(std::vector<double> row)
{
    size_t width = numCols();
    expect(width == 0 || row.size() == width,
           "CSV row width ", row.size(), " does not match table width ",
           width);
    rows_.push_back(std::move(row));
}

const std::vector<double> &
CsvTable::row(size_t r) const
{
    expect(r < rows_.size(), "CSV row index ", r, " out of range");
    return rows_[r];
}

double
CsvTable::at(size_t r, size_t c) const
{
    const auto &rr = row(r);
    expect(c < rr.size(), "CSV column index ", c, " out of range");
    return rr[c];
}

std::vector<double>
CsvTable::column(size_t c) const
{
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const auto &r : rows_) {
        expect(c < r.size(), "CSV column index ", c, " out of range");
        out.push_back(r[c]);
    }
    return out;
}

void
CsvTable::write(std::ostream &os) const
{
    util::TextBuffer line;
    if (!columns_.empty()) {
        for (size_t i = 0; i < columns_.size(); ++i)
            line << (i ? "," : "") << columns_[i];
        line << '\n';
    }
    for (const auto &r : rows_) {
        for (size_t i = 0; i < r.size(); ++i)
            line << (i ? "," : "") << r[i];
        line << '\n';
        line.flushTo(os);
    }
    line.flushTo(os);
}

void
CsvTable::save(const std::string &path) const
{
    // Atomic temp + rename: a crash mid-save can never leave a
    // truncated CSV behind (util::atomicWriteFile).
    util::atomicWriteFile(path,
                          [this](std::ostream &os) { write(os); });
}

CsvTable
CsvTable::read(std::istream &is, bool has_header)
{
    CsvTable table;
    std::string line;
    bool header_pending = has_header;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::string t = strings::trim(line);
        if (t.empty() || t.front() == '#')
            continue;
        auto fields = strings::split(t, ',');
        if (header_pending) {
            for (auto &f : fields)
                table.columns_.push_back(strings::trim(f));
            header_pending = false;
            continue;
        }
        std::vector<double> row;
        row.reserve(fields.size());
        for (const auto &f : fields) {
            try {
                row.push_back(strings::toDouble(f));
            } catch (const Error &e) {
                fatal("CSV line ", line_no, ": ", e.what());
            }
        }
        table.addRow(std::move(row));
    }
    return table;
}

CsvTable
CsvTable::load(const std::string &path, bool has_header)
{
    std::ifstream is(path);
    expect(is.good(), "cannot open `", path, "' for reading");
    return read(is, has_header);
}

} // namespace h2p
