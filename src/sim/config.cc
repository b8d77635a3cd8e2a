#include "sim/config.h"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/error.h"
#include "util/strings.h"

namespace h2p {
namespace sim {

Config
Config::parse(std::istream &is)
{
    Config cfg;
    std::string line;
    std::string section;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::string t = strings::trim(line);
        if (t.empty() || t.front() == '#' || t.front() == ';')
            continue;
        if (t.front() == '[') {
            expect(t.back() == ']', "config line ", line_no,
                   ": unterminated section header");
            section = strings::trim(t.substr(1, t.size() - 2));
            expect(!section.empty(), "config line ", line_no,
                   ": empty section name");
            cfg.data_[section]; // create even if empty
            continue;
        }
        size_t eq = t.find('=');
        expect(eq != std::string::npos, "config line ", line_no,
               ": expected `key = value'");
        expect(!section.empty(), "config line ", line_no,
               ": key/value before any [section]");
        std::string key = strings::trim(t.substr(0, eq));
        std::string value = strings::trim(t.substr(eq + 1));
        expect(!key.empty(), "config line ", line_no, ": empty key");
        expect(cfg.data_[section].count(key) == 0, "config line ",
               line_no, ": duplicate key `", key, "' in [", section,
               "]");
        cfg.data_[section][key] = value;
    }
    return cfg;
}

Config
Config::load(const std::string &path)
{
    std::ifstream is(path);
    expect(is.good(), "cannot open config `", path, "'");
    return parse(is);
}

bool
Config::has(const std::string &s, const std::string &k) const
{
    auto it = data_.find(s);
    return it != data_.end() && it->second.count(k) > 0;
}

std::string
Config::getString(const std::string &s, const std::string &k) const
{
    expect(has(s, k), "config is missing [", s, "] ", k);
    return data_.at(s).at(k);
}

std::string
Config::getString(const std::string &s, const std::string &k,
                  const std::string &fallback) const
{
    return has(s, k) ? data_.at(s).at(k) : fallback;
}

double
Config::getDouble(const std::string &s, const std::string &k) const
{
    try {
        return strings::toDouble(getString(s, k));
    } catch (const Error &e) {
        fatal("config [", s, "] ", k, ": ", e.what());
    }
}

double
Config::getDouble(const std::string &s, const std::string &k,
                  double fallback) const
{
    return has(s, k) ? getDouble(s, k) : fallback;
}

long
Config::getLong(const std::string &s, const std::string &k) const
{
    try {
        return strings::toLong(getString(s, k));
    } catch (const Error &e) {
        fatal("config [", s, "] ", k, ": ", e.what());
    }
}

long
Config::getLong(const std::string &s, const std::string &k,
                long fallback) const
{
    return has(s, k) ? getLong(s, k) : fallback;
}

bool
Config::getBool(const std::string &s, const std::string &k) const
{
    std::string v = getString(s, k);
    for (char &c : v)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (v == "true" || v == "1" || v == "on" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "off" || v == "no")
        return false;
    fatal("config [", s, "] ", k, ": cannot parse `", getString(s, k),
          "' as a boolean (use true/false, 1/0, on/off, yes/no)");
}

bool
Config::getBool(const std::string &s, const std::string &k,
                bool fallback) const
{
    return has(s, k) ? getBool(s, k) : fallback;
}

void
Config::set(const std::string &s, const std::string &k,
            const std::string &v)
{
    expect(!s.empty() && !k.empty(),
           "section and key must be non-empty");
    data_[s][k] = v;
}

std::vector<std::string>
Config::sections() const
{
    std::vector<std::string> out;
    for (const auto &[s, kv] : data_)
        out.push_back(s);
    return out;
}

std::vector<std::string>
Config::keys(const std::string &s) const
{
    std::vector<std::string> out;
    auto it = data_.find(s);
    if (it == data_.end())
        return out;
    for (const auto &[k, v] : it->second)
        out.push_back(k);
    return out;
}

void
Config::write(std::ostream &os) const
{
    for (const auto &[s, kv] : data_) {
        os << '[' << s << "]\n";
        for (const auto &[k, v] : kv)
            os << k << " = " << v << '\n';
        os << '\n';
    }
}

} // namespace sim
} // namespace h2p
