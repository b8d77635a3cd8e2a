#include "sim/recorder.h"

#include <ostream>

#include "util/csv.h"
#include "util/error.h"
#include "util/number_format.h"

namespace h2p {
namespace sim {

Recorder::Recorder(double dt_s) : dt_(dt_s)
{
    expect(dt_s > 0.0, "recorder period must be positive");
}

Recorder::Channel
Recorder::channel(const std::string &name)
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        expect(!frozen_, "recorder channel set is frozen; cannot "
                         "register new channel `",
               name, "' after the run has started");
        it = index_.emplace(name, storage_.size()).first;
        storage_.emplace_back(dt_);
    }
    return Channel(it->second);
}

void
Recorder::freeze()
{
    frozen_ = true;
}

void
Recorder::record(Channel ch, double value)
{
    expect(ch.index_ < storage_.size(),
           "recording through an unresolved channel handle");
    storage_[ch.index_].append(value);
}

void
Recorder::record(const std::string &name, double value)
{
    record(channel(name), value);
}

bool
Recorder::has(const std::string &name) const
{
    return index_.count(name) > 0;
}

const TimeSeries &
Recorder::series(const std::string &name) const
{
    auto it = index_.find(name);
    expect(it != index_.end(), "no recorded channel named `", name,
           "'");
    return storage_[it->second];
}

const TimeSeries &
Recorder::series(Channel ch) const
{
    expect(ch.index_ < storage_.size(),
           "reading through an unresolved channel handle");
    return storage_[ch.index_];
}

std::vector<std::string>
Recorder::channels() const
{
    std::vector<std::string> names;
    names.reserve(index_.size());
    for (const auto &[name, idx] : index_)
        names.push_back(name);
    return names;
}

void
Recorder::saveCsv(const std::string &path) const
{
    expect(!index_.empty(), "cannot export an empty recorder");
    size_t len = storage_[index_.begin()->second].size();
    for (const auto &[name, idx] : index_) {
        expect(storage_[idx].size() == len, "channel `", name,
               "' length differs; cannot export");
    }
    std::vector<std::string> header{"time_s"};
    for (const auto &[name, idx] : index_)
        header.push_back(name);
    CsvTable table(std::move(header));
    for (size_t i = 0; i < len; ++i) {
        std::vector<double> row;
        row.reserve(index_.size() + 1);
        row.push_back(dt_ * static_cast<double>(i));
        for (const auto &[name, idx] : index_)
            row.push_back(storage_[idx].at(i));
        table.addRow(std::move(row));
    }
    table.save(path);
}

void
Recorder::writeJsonl(std::ostream &os) const
{
    expect(!index_.empty(), "cannot export an empty recorder");
    size_t len = storage_[index_.begin()->second].size();
    for (const auto &[name, idx] : index_) {
        expect(storage_[idx].size() == len, "channel `", name,
               "' length differs; cannot export");
    }
    util::TextBuffer line;
    for (size_t i = 0; i < len; ++i) {
        line << "{\"type\":\"step\",\"time_s\":"
             << dt_ * static_cast<double>(i);
        for (const auto &[name, idx] : index_)
            line << ",\"" << name << "\":" << storage_[idx].at(i);
        line << "}\n";
        line.flushTo(os);
    }
}

} // namespace sim
} // namespace h2p
