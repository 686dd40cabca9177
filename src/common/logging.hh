/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal simulator bugs
 * (conditions that should never happen regardless of user input) and
 * aborts; fatal() is for user errors (bad configuration, invalid
 * arguments) and exits cleanly with an error code. warn() reports on
 * stderr without stopping the simulation.
 */

#ifndef TSP_COMMON_LOGGING_HH
#define TSP_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tsp {

/**
 * Report an internal simulator bug and abort.
 *
 * @param fmt printf-style format string followed by its arguments.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad config, invalid argument)
 * and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious but non-fatal behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert a simulator invariant; calls panic() with location info when
 * the condition does not hold. Enabled in all build types because the
 * simulator's correctness claims depend on these checks.
 */
#define TSP_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::tsp::panicAt(__FILE__, __LINE__, #cond);                     \
        }                                                                  \
    } while (0)

/** Implementation hook for TSP_ASSERT. */
[[noreturn]] void panicAt(const char *file, int line, const char *cond);

} // namespace tsp

#endif // TSP_COMMON_LOGGING_HH
