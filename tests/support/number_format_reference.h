/**
 * @file
 * Test-only reference for util::writeDouble and the writers built on
 * it: the iostream formatting they replaced.
 *
 * The library writes every round-trip number with std::to_chars at 17
 * significant digits. Before that, each writer set an ostream to
 * precision 17 (max_digits10) and streamed the double. These
 * functions keep that formatting — and the service's reply bodies as
 * they were written with it — so tests can prove the bytes did not
 * move. Every stream here is imbued with the classic locale: that is
 * what the old writers produced under the default global locale, and
 * it keeps the reference fixed while a test installs another one.
 */

#ifndef H2P_TESTS_SUPPORT_NUMBER_FORMAT_REFERENCE_H_
#define H2P_TESTS_SUPPORT_NUMBER_FORMAT_REFERENCE_H_

#include <cmath>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "control/thermal_balancer.h"
#include "obs/metrics.h"
#include "sched/policy.h"
#include "util/csv.h"

namespace h2p {
namespace oracle {

/** A classic-locale stream at max_digits10, as the old writers set. */
class RoundTripStream : public std::ostringstream
{
  public:
    RoundTripStream()
    {
        imbue(std::locale::classic());
        precision(std::numeric_limits<double>::max_digits10);
    }
};

/** @p x as `ostream << x` wrote it at max_digits10. */
inline std::string
iostreamDouble(double x)
{
    RoundTripStream os;
    os << x;
    return os.str();
}

/** The old obs::jsonNumber: the stream's digits, or null. */
inline void
jsonNumber(std::ostream &os, double x)
{
    if (std::isfinite(x))
        os << x;
    else
        os << "null";
}

/** The old CsvTable::write. */
inline std::string
csvText(const CsvTable &table)
{
    RoundTripStream os;
    const std::vector<std::string> &columns = table.columns();
    if (!columns.empty()) {
        for (size_t i = 0; i < columns.size(); ++i)
            os << (i ? "," : "") << columns[i];
        os << '\n';
    }
    for (size_t r = 0; r < table.numRows(); ++r) {
        const std::vector<double> &row = table.row(r);
        for (size_t i = 0; i < row.size(); ++i)
            os << (i ? "," : "") << row[i];
        os << '\n';
    }
    return os.str();
}

/** The old `query <id> state` body. */
inline std::string
stateJson(const cluster::DatacenterState &state, size_t num_servers)
{
    RoundTripStream os;
    os << "{\"cpu_power_w\":";
    jsonNumber(os, state.cpu_power_w);
    os << ",\"teg_power_w\":";
    jsonNumber(os, state.teg_power_w);
    os << ",\"teg_w_per_server\":";
    jsonNumber(os, state.tegPowerPerServer(num_servers));
    os << ",\"heat_w\":";
    jsonNumber(os, state.heat_w);
    os << ",\"pump_power_w\":";
    jsonNumber(os, state.pump_power_w);
    os << ",\"plant_power_w\":";
    jsonNumber(os, state.plant_power_w);
    os << ",\"faulted_servers\":" << state.faulted_servers
       << ",\"teg_power_lost_w\":";
    jsonNumber(os, state.teg_power_lost_w);
    os << ",\"plant_degraded\":"
       << (state.plant_degraded ? "true" : "false")
       << ",\"all_safe\":" << (state.all_safe ? "true" : "false")
       << "}\n";
    return os.str();
}

/** The old `query <id> decision` body. */
inline std::string
decisionJson(const sched::ScheduleDecision &decision)
{
    RoundTripStream os;
    double umean = 0.0, umax = 0.0;
    for (double u : decision.utils) {
        umean += u;
        if (u > umax)
            umax = u;
    }
    if (!decision.utils.empty())
        umean /= static_cast<double>(decision.utils.size());
    os << "{\"util_mean\":";
    jsonNumber(os, umean);
    os << ",\"util_max\":";
    jsonNumber(os, umax);
    os << ",\"settings\":[";
    for (size_t i = 0; i < decision.settings.size(); ++i) {
        os << (i ? "," : "") << "{\"t_in_c\":";
        jsonNumber(os, decision.settings[i].t_in_c);
        os << ",\"flow_lph\":";
        jsonNumber(os, decision.settings[i].flow_lph);
        os << "}";
    }
    os << "]}\n";
    return os.str();
}

/** The old `balancer <id>` body. */
inline std::string
balancerJson(const control::ThermalBalancer &balancer)
{
    const control::BalancerStats &st = balancer.stats();
    RoundTripStream os;
    os << "{\"converged\":" << (st.converged ? "true" : "false")
       << ",\"max_abs_dev\":";
    jsonNumber(os, st.max_abs_dev);
    os << ",\"stale_steps\":" << st.stale_steps
       << ",\"migrations\":" << st.migrations
       << ",\"local_moves\":" << st.local_moves
       << ",\"pulls\":" << st.pulls
       << ",\"drains_started\":" << st.drains_started
       << ",\"drains_completed\":" << st.drains_completed
       << ",\"active_drains\":" << st.active_drains
       << ",\"circulations\":[";
    const std::vector<control::CirculationView> &view = balancer.view();
    for (size_t c = 0; c < view.size(); ++c) {
        const control::CirculationView &row = view[c];
        os << (c ? "," : "") << "{\"circ\":" << c << ",\"mode\":\""
           << control::toString(row.mode)
           << "\",\"servers\":" << row.servers << ",\"avg_util\":";
        jsonNumber(os, row.avg_util);
        os << ",\"dev_util\":";
        jsonNumber(os, row.dev_util);
        os << ",\"headroom_c\":";
        jsonNumber(os, row.headroom_c);
        os << ",\"teg_w\":";
        jsonNumber(os, row.teg_w);
        os << ",\"drained_util\":";
        jsonNumber(os, row.drained_util);
        os << "}";
    }
    os << "]}\n";
    return os.str();
}

/** The old `stats` body over @p m's service.* metrics. */
inline std::string
statsJson(const obs::MetricsRegistry &m)
{
    RoundTripStream os;
    os << "{";
    bool first = true;
    const auto append = [&os, &first](const std::string &name) {
        os << (first ? "" : ",") << "\"" << name << "\":";
        first = false;
    };
    for (const auto &c : m.counters())
        if (c.name.rfind("service.", 0) == 0) {
            append(c.name);
            os << c.value;
        }
    for (const auto &g : m.gauges())
        if (g.name.rfind("service.", 0) == 0) {
            append(g.name);
            jsonNumber(os, g.value);
        }
    for (const auto &h : m.histograms())
        if (h.name.rfind("service.", 0) == 0) {
            append(h.name);
            os << "{\"count\":" << h.count << ",\"mean\":";
            jsonNumber(os, h.count > 0
                               ? h.sum / static_cast<double>(h.count)
                               : 0.0);
            os << ",\"max\":";
            jsonNumber(os, h.max);
            os << "}";
        }
    os << "}\n";
    return os.str();
}

} // namespace oracle
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_NUMBER_FORMAT_REFERENCE_H_
