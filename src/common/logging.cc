#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace tsp {

namespace {

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
panicAt(const char *file, int line, const char *cond)
{
    panic("assertion '%s' failed at %s:%d", cond, file, line);
}

} // namespace tsp
