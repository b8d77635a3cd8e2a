#include "obs/observability.h"

#include <cmath>
#include <ostream>

#include "util/number_format.h"
#include "util/table.h"

namespace h2p {
namespace obs {

void
jsonNumber(util::TextBuffer &out, double x)
{
    if (std::isfinite(x))
        out << x;
    else
        out << "null";
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
    util::TextBuffer out;
    for (const Event &e : events_.snapshot()) {
        out << "{\"type\":\"event\",\"time_s\":";
        jsonNumber(out, e.time_s);
        out << ",\"step\":" << e.step << ",\"kind\":\""
            << jsonEscape(e.kind) << "\",\"subject\":\""
            << jsonEscape(e.subject) << "\",\"detail\":\""
            << jsonEscape(e.detail) << "\"";
        if (!e.fields.empty()) {
            out << ",\"fields\":{";
            bool first = true;
            for (const auto &[key, value] : e.fields) {
                if (!first)
                    out << ",";
                first = false;
                out << "\"" << jsonEscape(key) << "\":";
                jsonNumber(out, value);
            }
            out << "}";
        }
        out << "}\n";
    }
    if (events_.dropped() > 0)
        out << "{\"type\":\"event_overflow\",\"dropped\":"
            << events_.dropped() << "}\n";

    for (const SpanRegistry::Stat &s : spans_.snapshot()) {
        out << "{\"type\":\"span\",\"name\":\"" << jsonEscape(s.name)
            << "\",\"count\":" << s.count
            << ",\"total_ns\":" << s.total_ns
            << ",\"min_ns\":" << s.min_ns << ",\"max_ns\":" << s.max_ns
            << ",\"mean_ns\":";
        jsonNumber(out, s.meanNs());
        out << "}\n";
    }

    for (const auto &c : metrics_.counters())
        out << "{\"type\":\"counter\",\"name\":\"" << jsonEscape(c.name)
            << "\",\"value\":" << c.value << "}\n";
    // Overflow is surfaced as a uniform counter too, so metric-only
    // consumers (and the CSV export) see the loss without having to
    // scan for the event_overflow record.
    if (events_.dropped() > 0)
        out << "{\"type\":\"counter\",\"name\":\"dropped_events\","
               "\"value\":"
            << events_.dropped() << "}\n";

    for (const auto &g : metrics_.gauges()) {
        out << "{\"type\":\"gauge\",\"name\":\"" << jsonEscape(g.name)
            << "\",\"value\":";
        jsonNumber(out, g.value);
        out << "}\n";
    }

    for (const auto &h : metrics_.histograms()) {
        out << "{\"type\":\"histogram\",\"name\":\""
            << jsonEscape(h.name) << "\",\"count\":" << h.count
            << ",\"sum\":";
        jsonNumber(out, h.sum);
        out << ",\"min\":";
        jsonNumber(out, h.min);
        out << ",\"max\":";
        jsonNumber(out, h.max);
        out << ",\"bins\":[";
        for (size_t i = 0; i < h.histogram.numBins(); ++i) {
            if (i > 0)
                out << ",";
            out << "{\"lo\":";
            jsonNumber(out, h.histogram.binLo(i));
            out << ",\"hi\":";
            jsonNumber(out, h.histogram.binHi(i));
            out << ",\"count\":" << h.histogram.binCount(i) << "}";
        }
        out << "]}\n";
    }

    out.flushTo(os);
}

void
Observability::writeMetricsCsv(std::ostream &os) const
{
    util::TextBuffer out;
    out << "metric,kind,count,value,sum,min,max\n";
    for (const auto &c : metrics_.counters())
        out << c.name << ",counter,," << c.value << ",,,\n";
    if (events_.dropped() > 0)
        out << "dropped_events,counter,," << events_.dropped()
            << ",,,\n";
    for (const auto &g : metrics_.gauges())
        out << g.name << ",gauge,," << g.value << ",,,\n";
    for (const auto &h : metrics_.histograms())
        out << h.name << ",histogram," << h.count << ",," << h.sum << ","
            << h.min << "," << h.max << "\n";
    for (const auto &s : spans_.snapshot())
        out << s.name << ",span_ns," << s.count << "," << s.meanNs()
            << "," << s.total_ns << "," << s.min_ns << "," << s.max_ns
            << "\n";

    out.flushTo(os);
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
