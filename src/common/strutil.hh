/**
 * @file
 * Small string helpers shared by the assembler and report printers.
 */

#ifndef TSP_COMMON_STRUTIL_HH
#define TSP_COMMON_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace tsp {

/** Strips leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Splits on @p sep, trimming each piece; empty pieces are kept. */
std::vector<std::string> split(std::string_view s, char sep);

/** Splits on runs of whitespace; empty pieces are dropped. */
std::vector<std::string> splitWs(std::string_view s);

/** Case-insensitive ASCII string equality. */
bool iequals(std::string_view a, std::string_view b);

/** ASCII lower-casing. */
std::string toLower(std::string_view s);

/** @return true if @p s parses fully as a (possibly negative) integer
 * that fits a long (C prefixes: 0x hex, leading-0 octal). */
bool parseInt(std::string_view s, long &out);

/** @return true if @p s parses fully as a finite double. */
bool parseDouble(std::string_view s, double &out);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tsp

#endif // TSP_COMMON_STRUTIL_HH
