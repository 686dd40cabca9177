/**
 * @file
 * Checked numeric flag values for the serving command-line tools. A
 * value must parse whole and fit its type; anything else prints the
 * tool's usage and exits 2, instead of running on a prefix, a wrapped
 * integer or zero.
 */

#ifndef TSP_TOOLS_CLI_ARGS_HH
#define TSP_TOOLS_CLI_ARGS_HH

#include <climits>
#include <cstdlib>

#include "common/strutil.hh"

namespace tsp::cli {

/** Prints the tool's usage line to stderr; each tool defines it. */
void usage();

/** Prints usage and exits 2. */
[[noreturn]] inline void
badArg()
{
    usage();
    std::exit(2);
}

/** @return flag value @p s as a long (usage + exit 2 otherwise). */
inline long
longArg(const char *s)
{
    long v = 0;
    if (!parseInt(s, v))
        badArg();
    return v;
}

/** @return flag value @p s as an int (usage + exit 2 otherwise). */
inline int
intArg(const char *s)
{
    const long v = longArg(s);
    if (v < INT_MIN || v > INT_MAX)
        badArg();
    return static_cast<int>(v);
}

/** @return flag value @p s as a finite double (usage + exit 2
 * otherwise). */
inline double
realArg(const char *s)
{
    double v = 0.0;
    if (!parseDouble(s, v))
        badArg();
    return v;
}

} // namespace tsp::cli

#endif // TSP_TOOLS_CLI_ARGS_HH
