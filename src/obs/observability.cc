#include "obs/observability.h"

#include <cmath>
#include <limits>
#include <ostream>

#include "util/table.h"

namespace h2p {
namespace obs {

void
jsonNumber(std::ostream &os, double x)
{
    if (std::isfinite(x))
        os << x;
    else
        os << "null";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

Observability::Observability(const ObsParams &params)
    : params_(params), events_(params.max_events)
{
}

void
Observability::writeJsonl(std::ostream &os) const
{
    const auto precision = os.precision();
    os.precision(std::numeric_limits<double>::max_digits10);

    for (const Event &e : events_.snapshot()) {
        os << "{\"type\":\"event\",\"time_s\":";
        jsonNumber(os, e.time_s);
        os << ",\"step\":" << e.step << ",\"kind\":\""
           << jsonEscape(e.kind) << "\",\"subject\":\""
           << jsonEscape(e.subject) << "\",\"detail\":\""
           << jsonEscape(e.detail) << "\"";
        if (!e.fields.empty()) {
            os << ",\"fields\":{";
            bool first = true;
            for (const auto &[key, value] : e.fields) {
                if (!first)
                    os << ",";
                first = false;
                os << "\"" << jsonEscape(key) << "\":";
                jsonNumber(os, value);
            }
            os << "}";
        }
        os << "}\n";
    }
    if (events_.dropped() > 0)
        os << "{\"type\":\"event_overflow\",\"dropped\":"
           << events_.dropped() << "}\n";

    for (const SpanRegistry::Stat &s : spans_.snapshot()) {
        os << "{\"type\":\"span\",\"name\":\"" << jsonEscape(s.name)
           << "\",\"count\":" << s.count
           << ",\"total_ns\":" << s.total_ns
           << ",\"min_ns\":" << s.min_ns << ",\"max_ns\":" << s.max_ns
           << ",\"mean_ns\":";
        jsonNumber(os, s.meanNs());
        os << "}\n";
    }

    for (const auto &c : metrics_.counters())
        os << "{\"type\":\"counter\",\"name\":\"" << jsonEscape(c.name)
           << "\",\"value\":" << c.value << "}\n";
    // Overflow is surfaced as a uniform counter too, so metric-only
    // consumers (and the CSV export) see the loss without having to
    // scan for the event_overflow record.
    if (events_.dropped() > 0)
        os << "{\"type\":\"counter\",\"name\":\"dropped_events\","
              "\"value\":"
           << events_.dropped() << "}\n";

    for (const auto &g : metrics_.gauges()) {
        os << "{\"type\":\"gauge\",\"name\":\"" << jsonEscape(g.name)
           << "\",\"value\":";
        jsonNumber(os, g.value);
        os << "}\n";
    }

    for (const auto &h : metrics_.histograms()) {
        os << "{\"type\":\"histogram\",\"name\":\""
           << jsonEscape(h.name) << "\",\"count\":" << h.count
           << ",\"sum\":";
        jsonNumber(os, h.sum);
        os << ",\"min\":";
        jsonNumber(os, h.min);
        os << ",\"max\":";
        jsonNumber(os, h.max);
        os << ",\"bins\":[";
        for (size_t i = 0; i < h.histogram.numBins(); ++i) {
            if (i > 0)
                os << ",";
            os << "{\"lo\":";
            jsonNumber(os, h.histogram.binLo(i));
            os << ",\"hi\":";
            jsonNumber(os, h.histogram.binHi(i));
            os << ",\"count\":" << h.histogram.binCount(i) << "}";
        }
        os << "]}\n";
    }

    os.precision(precision);
}

void
Observability::writeMetricsCsv(std::ostream &os) const
{
    const auto precision = os.precision();
    os.precision(std::numeric_limits<double>::max_digits10);

    os << "metric,kind,count,value,sum,min,max\n";
    for (const auto &c : metrics_.counters())
        os << c.name << ",counter,," << c.value << ",,,\n";
    if (events_.dropped() > 0)
        os << "dropped_events,counter,," << events_.dropped()
           << ",,,\n";
    for (const auto &g : metrics_.gauges())
        os << g.name << ",gauge,," << g.value << ",,,\n";
    for (const auto &h : metrics_.histograms())
        os << h.name << ",histogram," << h.count << ",," << h.sum << ","
           << h.min << "," << h.max << "\n";
    for (const auto &s : spans_.snapshot())
        os << s.name << ",span_ns," << s.count << "," << s.meanNs()
           << "," << s.total_ns << "," << s.min_ns << "," << s.max_ns
           << "\n";

    os.precision(precision);
}

void
Observability::writeSummary(std::ostream &os) const
{
    const auto spans = spans_.snapshot();
    if (!spans.empty()) {
        TablePrinter t("Span timings");
        t.setHeader({"span", "count", "mean_us", "min_us", "max_us",
                     "total_ms"});
        for (const auto &s : spans)
            t.addRow(s.name,
                     {static_cast<double>(s.count), s.meanNs() / 1e3,
                      static_cast<double>(s.min_ns) / 1e3,
                      static_cast<double>(s.max_ns) / 1e3,
                      static_cast<double>(s.total_ns) / 1e6});
        t.print(os);
        os << "\n";
    }

    const auto counters = metrics_.counters();
    const auto gauges = metrics_.gauges();
    if (!counters.empty() || !gauges.empty()) {
        TablePrinter t("Metrics");
        t.setHeader({"metric", "value"});
        for (const auto &c : counters)
            t.addRow({c.name, std::to_string(c.value)});
        for (const auto &g : gauges)
            t.addRow(g.name, {g.value});
        t.print(os);
        os << "\n";
    }

    const auto hists = metrics_.histograms();
    if (!hists.empty()) {
        TablePrinter t("Distributions");
        t.setHeader({"metric", "count", "mean", "min", "max"});
        for (const auto &h : hists)
            t.addRow(h.name,
                     {static_cast<double>(h.count),
                      h.count > 0
                          ? h.sum / static_cast<double>(h.count)
                          : 0.0,
                      h.min, h.max});
        t.print(os);
        os << "\n";
    }

    const size_t nevents = events_.size();
    os << "Events: " << nevents << " recorded";
    if (events_.dropped() > 0)
        os << " (" << events_.dropped() << " dropped)";
    os << "\n";
}

} // namespace obs
} // namespace h2p
