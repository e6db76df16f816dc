/**
 * @file
 * Tiny key=value configuration parser for the CLI driver: lines of
 * `section.key = value` with '#' comments, plus typed accessors with
 * defaults. Intentionally minimal — enough to configure CoreParams and
 * campaign settings from a file or command-line overrides without
 * pulling in a dependency.
 */

#ifndef FH_SIM_CONFIG_HH
#define FH_SIM_CONFIG_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fh
{

class Config
{
  public:
    Config() = default;

    /** Parse `key = value` lines; later keys override earlier ones.
     *  Returns false (with an error message) on malformed input. */
    bool parse(const std::string &text, std::string &error);

    /** Parse a file; missing files are user errors (returns false). */
    bool parseFile(const std::string &path, std::string &error);

    /** Apply a single `key=value` override (e.g. from argv). */
    bool set(const std::string &assignment);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    /** def when unset; an empty, signed, out-of-range or partly
     *  numeric value (`5k`) is fatal, naming key and value. */
    u64 getU64(const std::string &key, u64 def = 0) const;
    /** def when unset; an empty, overflowing or partly numeric value
     *  is fatal. */
    double getDouble(const std::string &key, double def = 0.0) const;
    /** def when unset; a value parseBool refuses is fatal. */
    bool getBool(const std::string &key, bool def = false) const;

    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

    /**
     * Register a key a driver understands without reading it yet
     * (e.g. `injections`, consulted only when `campaign=true`). Every
     * typed accessor registers its key automatically, so drivers only
     * declare keys they read conditionally.
     */
    void declareKey(const std::string &key) const;

    /**
     * Register a key together with a one-line description. The
     * description feeds keyDocs(), from which a driver generates its
     * help text — the registry that powers the typo check doubles as
     * the single source of truth for what the driver understands, so
     * help can never drift from the accepted option set.
     */
    void declareKey(const std::string &key,
                    const std::string &desc) const;

    /**
     * Every declared key with its description (empty for keys
     * registered without one), sorted by key.
     */
    std::vector<std::pair<std::string, std::string>> keyDocs() const;

    /**
     * Keys that were set but never declared or read — in a CLI
     * driver, almost certainly typos (`injectons=5000` silently
     * running the default campaign is the motivating bug). Call after
     * all options are consumed and fh_fatal on a non-empty result.
     */
    std::vector<std::string> unknownKeys() const;

  private:
    std::map<std::string, std::string> values_;
    /** Keys consumed by accessors or declareKey, with their help
     *  descriptions (the recognition set for unknownKeys); mutable
     *  because reading a value is logically const. */
    mutable std::map<std::string, std::string> declared_;
};

/**
 * The one boolean syntax of options and environment variables,
 * case-insensitive: 1/true/yes/on or 0/false/no/off. Anything else,
 * the empty string included, returns false and leaves out untouched.
 */
bool parseBool(std::string text, bool &out);

/** Environment variable name as a boolean: def when unset; a value
 *  parseBool refuses is fatal, naming the variable and the value. */
bool envBool(const char *name, bool def);

/** Environment variable as a number, read whole like
 *  Config::getU64/getDouble: def when unset; a value they would
 *  refuse (`5k`, `-1`, empty) is fatal, naming variable and value. */
u64 envU64(const char *name, u64 def);
double envDouble(const char *name, double def);

} // namespace fh

#endif // FH_SIM_CONFIG_HH
