#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace fh
{

namespace
{

std::string
strip(const std::string &s)
{
    size_t a = 0;
    size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a])))
        ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    return s.substr(a, b - a);
}

} // namespace

bool
Config::parse(const std::string &text, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = strip(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = "line " + std::to_string(lineno) +
                    ": expected key = value";
            return false;
        }
        std::string key = strip(line.substr(0, eq));
        std::string value = strip(line.substr(eq + 1));
        if (key.empty()) {
            error = "line " + std::to_string(lineno) + ": empty key";
            return false;
        }
        values_[key] = value;
    }
    return true;
}

bool
Config::parseFile(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return parse(ss.str(), error);
}

bool
Config::set(const std::string &assignment)
{
    std::string error;
    return parse(assignment, error);
}

bool
Config::has(const std::string &key) const
{
    declareKey(key);
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    declareKey(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

namespace
{

/** The whole text as an unsigned integer, else fatal after `what`.
 *  Base 0 keeps hex (`seed=0x5eed`); strtoull alone would wrap `-1`. */
u64
strictU64(const char *text, const std::string &what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE || *text == '-')
        fh_fatal("%s'%s' is not an unsigned integer", what.c_str(), text);
    return v;
}

/** The whole text as a non-overflowing double, else fatal. */
double
strictDouble(const char *text, const std::string &what)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' ||
        (errno == ERANGE && std::isinf(v)))
        fh_fatal("%s'%s' is not a number", what.c_str(), text);
    return v;
}

} // namespace

u64
Config::getU64(const std::string &key, u64 def) const
{
    declareKey(key);
    auto it = values_.find(key);
    return it == values_.end()
               ? def
               : strictU64(it->second.c_str(), "option '" + key + "': ");
}

double
Config::getDouble(const std::string &key, double def) const
{
    declareKey(key);
    auto it = values_.find(key);
    return it == values_.end()
               ? def
               : strictDouble(it->second.c_str(),
                              "option '" + key + "': ");
}

bool
Config::getBool(const std::string &key, bool def) const
{
    declareKey(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    bool v = def;
    if (!parseBool(it->second, v))
        fh_fatal("option '%s': '%s' is not a boolean (use 1/true/yes/on "
                 "or 0/false/no/off)",
                 key.c_str(), it->second.c_str());
    return v;
}

void
Config::declareKey(const std::string &key) const
{
    declared_.emplace(key, std::string());
}

void
Config::declareKey(const std::string &key,
                   const std::string &desc) const
{
    declared_[key] = desc;
}

std::vector<std::pair<std::string, std::string>>
Config::keyDocs() const
{
    return {declared_.begin(), declared_.end()};
}

std::vector<std::string>
Config::unknownKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : values_) {
        (void)value;
        if (declared_.count(key) == 0)
            out.push_back(key);
    }
    return out;
}

bool
parseBool(std::string text, bool &out)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    if (text == "1" || text == "true" || text == "yes" || text == "on")
        out = true;
    else if (text == "0" || text == "false" || text == "no" ||
             text == "off")
        out = false;
    else
        return false;
    return true;
}

bool
envBool(const char *name, bool def)
{
    const char *v = std::getenv(name);
    bool out = def;
    if (v && !parseBool(v, out))
        fh_fatal("%s='%s' is not a boolean (use 1/true/yes/on or "
                 "0/false/no/off)",
                 name, v);
    return out;
}

u64
envU64(const char *name, u64 def)
{
    const char *v = std::getenv(name);
    return v ? strictU64(v, std::string(name) + "=") : def;
}

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    return v ? strictDouble(v, std::string(name) + "=") : def;
}

} // namespace fh
