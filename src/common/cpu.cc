#include "common/cpu.hh"

#include <cstdlib>

namespace tsp {

namespace {

/** -1: follow TSP_FORCE_SCALAR; 0: SIMD if supported; 1: scalar. */
int forced = -1;

bool
envForceScalar()
{
    static const bool v = [] {
        const char *e = std::getenv("TSP_FORCE_SCALAR");
        return e != nullptr && e[0] != '\0' &&
               !(e[0] == '0' && e[1] == '\0');
    }();
    return v;
}

} // namespace

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool v = __builtin_cpu_supports("avx2");
    return v;
#else
    return false;
#endif
}

bool
cpuHasAvx512Vnni()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool v = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vnni");
    return v;
#else
    return false;
#endif
}

bool
cpuHasAvx512f()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool v = __builtin_cpu_supports("avx512f");
    return v;
#else
    return false;
#endif
}

bool
cpuHasGfniAvx512()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool v = __builtin_cpu_supports("gfni") &&
                          __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vbmi");
    return v;
#else
    return false;
#endif
}

bool
simdKernelsEnabled()
{
    if (forced >= 0)
        return forced == 0 && cpuHasAvx2();
    return !envForceScalar() && cpuHasAvx2();
}

void
forceScalarKernels(int force)
{
    forced = force;
}

} // namespace tsp
