#include "common/strutil.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace tsp {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(trim(s.substr(start)));
            break;
        }
        out.emplace_back(trim(s.substr(start, pos - start)));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWs(std::string_view s)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        std::size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseInt(std::string_view s, long &out)
{
    s = trim(s);
    if (s.empty())
        return false;
    std::string tmp(s);
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(tmp.c_str(), &end, 0);
    if (end != tmp.c_str() + tmp.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseDouble(std::string_view s, double &out)
{
    s = trim(s);
    if (s.empty())
        return false;
    std::string tmp(s);
    char *end = nullptr;
    const double v = std::strtod(tmp.c_str(), &end);
    if (end != tmp.c_str() + tmp.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace tsp
