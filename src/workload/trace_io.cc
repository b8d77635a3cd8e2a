#include "workload/trace_io.h"

#include "util/csv.h"
#include "util/error.h"

namespace h2p {
namespace workload {

void
saveTraceCsv(const UtilizationTrace &trace, const std::string &path)
{
    std::vector<std::string> header;
    header.reserve(trace.numServers());
    for (size_t i = 0; i < trace.numServers(); ++i)
        header.push_back('s' + std::to_string(i));
    CsvTable table(std::move(header));
    for (size_t s = 0; s < trace.numSteps(); ++s)
        table.addRow(trace.step(s));
    table.save(path);
}

UtilizationTrace
loadTraceCsv(const std::string &path, double dt_s)
{
    CsvTable table = CsvTable::load(path, /*has_header=*/true);
    expect(table.numCols() >= 1, "trace CSV `", path, "' has no columns");
    expect(table.numRows() >= 1, "trace CSV `", path, "' has no rows");
    UtilizationTrace trace(table.numCols(), dt_s);
    for (size_t r = 0; r < table.numRows(); ++r)
        trace.addStep(table.row(r));
    return trace;
}

} // namespace workload
} // namespace h2p
