/**
 * @file
 * INI-style configuration files.
 *
 * Experiments are reproducible artifacts: a run should be describable
 * as a small text file checked in next to its results. The format is
 * the usual INI dialect:
 *
 *     # comment
 *     [datacenter]
 *     num_servers = 1000
 *     cold_source_c = 20
 *
 * Values are kept as strings; typed accessors parse on demand and
 * report the section/key on failure. core/config_io.h binds this to
 * H2PConfig.
 */

#ifndef H2P_SIM_CONFIG_H_
#define H2P_SIM_CONFIG_H_

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace h2p {
namespace sim {

/**
 * A parsed configuration: sections of key/value pairs.
 */
class Config
{
  public:
    Config() = default;

    /** Parse from a stream; throws h2p::Error with line numbers. */
    static Config parse(std::istream &is);

    /** Load from a file path. */
    static Config load(const std::string &path);

    /** True when key @p k exists in section @p s. */
    bool has(const std::string &s, const std::string &k) const;

    /** Raw string value; throws when absent. */
    std::string getString(const std::string &s,
                          const std::string &k) const;

    /** String with default when absent. */
    std::string getString(const std::string &s, const std::string &k,
                          const std::string &fallback) const;

    /** Double value; throws when absent or unparsable. */
    double getDouble(const std::string &s, const std::string &k) const;

    /** Double with default when absent. */
    double getDouble(const std::string &s, const std::string &k,
                     double fallback) const;

    /** Integer value; throws when absent or unparsable. */
    long getLong(const std::string &s, const std::string &k) const;

    /** Integer with default when absent. */
    long getLong(const std::string &s, const std::string &k,
                 long fallback) const;

    /**
     * Boolean value; accepts true/false, 1/0, on/off, yes/no
     * (case-insensitive). Throws when absent or unparsable.
     */
    bool getBool(const std::string &s, const std::string &k) const;

    /** Boolean with default when absent. */
    bool getBool(const std::string &s, const std::string &k,
                 bool fallback) const;

    /** Set (or overwrite) a value. */
    void set(const std::string &s, const std::string &k,
             const std::string &v);

    /** All section names, sorted. */
    std::vector<std::string> sections() const;

    /** All keys of one section, sorted. */
    std::vector<std::string> keys(const std::string &s) const;

    /** Serialize back to INI form. */
    void write(std::ostream &os) const;

  private:
    std::map<std::string, std::map<std::string, std::string>> data_;
};

} // namespace sim
} // namespace h2p

#endif // H2P_SIM_CONFIG_H_
