#include "util/args.h"

#include <iostream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace h2p {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

ArgParser &
ArgParser::addString(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    expect(!options_.count(name), "duplicate option --", name);
    options_[name] = Option{Kind::String, default_value, default_value,
                            help};
    order_.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    std::ostringstream os;
    os << default_value;
    expect(!options_.count(name), "duplicate option --", name);
    options_[name] = Option{Kind::Double, os.str(), os.str(), help};
    order_.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addLong(const std::string &name, long default_value,
                   const std::string &help)
{
    std::string d = std::to_string(default_value);
    expect(!options_.count(name), "duplicate option --", name);
    options_[name] = Option{Kind::Long, d, d, help};
    order_.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    expect(!options_.count(name), "duplicate option --", name);
    options_[name] = Option{Kind::Flag, "0", "0", help};
    order_.push_back(name);
    return *this;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage();
            return false;
        }
        expect(strings::startsWith(arg, "--"),
               "unexpected argument `", arg, "'\n", usage());
        std::string name = arg.substr(2);
        auto it = options_.find(name);
        expect(it != options_.end(), "unknown option --", name, "\n",
               usage());
        Option &opt = it->second;
        if (opt.kind == Kind::Flag) {
            opt.value = '1';
            continue;
        }
        expect(i + 1 < argc, "missing value after --", name);
        opt.value = argv[++i];
        // Validate numerics eagerly so errors carry the option name.
        try {
            if (opt.kind == Kind::Double)
                strings::toDouble(opt.value);
            else if (opt.kind == Kind::Long)
                strings::toLong(opt.value);
        } catch (const Error &e) {
            fatal("--", name, ": ", e.what());
        }
    }
    return true;
}

const ArgParser::Option &
ArgParser::find(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    expect(it != options_.end(), "undeclared option --", name);
    expect(it->second.kind == kind, "option --", name,
           " accessed with the wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

double
ArgParser::getDouble(const std::string &name) const
{
    return strings::toDouble(find(name, Kind::Double).value);
}

long
ArgParser::getLong(const std::string &name) const
{
    return strings::toLong(find(name, Kind::Long).value);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [options]\n";
    if (!description_.empty())
        os << description_ << "\n";
    os << "options:\n";
    for (const auto &name : order_) {
        const Option &opt = options_.at(name);
        os << "  --" << name;
        if (opt.kind != Kind::Flag)
            os << " <value>";
        os << "  " << opt.help;
        if (opt.kind != Kind::Flag)
            os << " (default: " << opt.default_value << ")";
        os << "\n";
    }
    os << "  --help  show this message\n";
    return os.str();
}

} // namespace h2p
