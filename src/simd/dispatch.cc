/**
 * @file
 * Runtime dispatch: probe the CPU once, honor the IDEAL_SIMD override,
 * and hand out the matching kernel table.
 */

#include "simd/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ideal {
namespace simd {

namespace {

const KernelTable &
tableFor(Level level)
{
    switch (level) {
    case Level::Avx512:
        return detail::avx512Table();
    case Level::Avx2:
        return detail::kAvx2Table;
    case Level::Sse:
        return detail::kSseTable;
    case Level::Scalar:
    default:
        return detail::kScalarTable;
    }
}

Level
probeBest()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl"))
        return Level::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    if (__builtin_cpu_supports("sse4.2"))
        return Level::Sse;
#endif
    return Level::Scalar;
}

/**
 * Parse IDEAL_SIMD. Returns the best supported level when unset;
 * warns and clamps when the request is unknown or above what the CPU
 * supports.
 */
Level
resolveLevel(Level best)
{
    const char *env = std::getenv("IDEAL_SIMD");
    if (env == nullptr || env[0] == '\0')
        return best;

    Level requested = best;
    if (std::strcmp(env, "scalar") == 0) {
        requested = Level::Scalar;
    } else if (std::strcmp(env, "sse") == 0) {
        requested = Level::Sse;
    } else if (std::strcmp(env, "avx2") == 0) {
        requested = Level::Avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
        requested = Level::Avx512;
    } else {
        std::fprintf(stderr,
                     "ideal: unknown IDEAL_SIMD=\"%s\" "
                     "(expected scalar|sse|avx2|avx512), using %s\n",
                     env, toString(best));
        return requested;
    }
    if (requested > best) {
        std::fprintf(stderr,
                     "ideal: IDEAL_SIMD=%s not supported by this CPU, "
                     "using %s\n",
                     env, toString(best));
        return best;
    }
    return requested;
}

std::atomic<int> gActiveLevel{-1};

/**
 * The active level's table, resolved once: kernels() runs per kernel
 * call, and the AVX-512 table sits behind a function-local static.
 */
std::atomic<const KernelTable *> gActiveTable{nullptr};

Level
initLevel()
{
    const Level resolved = resolveLevel(probeBest());
    int expected = -1;
    // First caller wins; concurrent callers all resolve to the same
    // value anyway (env + CPUID are stable).
    gActiveLevel.compare_exchange_strong(expected,
                                         static_cast<int>(resolved));
    return static_cast<Level>(gActiveLevel.load());
}

} // namespace

const char *
toString(Level level)
{
    switch (level) {
    case Level::Avx512:
        return "avx512";
    case Level::Avx2:
        return "avx2";
    case Level::Sse:
        return "sse";
    case Level::Scalar:
    default:
        return "scalar";
    }
}

Level
bestSupported()
{
    static const Level best = probeBest();
    return best;
}

Level
activeLevel()
{
    const int level = gActiveLevel.load(std::memory_order_acquire);
    if (level >= 0)
        return static_cast<Level>(level);
    return initLevel();
}

void
setLevel(Level level)
{
    if (level > bestSupported())
        level = bestSupported();
    gActiveLevel.store(static_cast<int>(level),
                       std::memory_order_release);
    gActiveTable.store(&tableFor(level), std::memory_order_release);
}

const KernelTable &
kernels()
{
    const KernelTable *table = gActiveTable.load(std::memory_order_acquire);
    if (table == nullptr) {
        table = &tableFor(activeLevel());
        gActiveTable.store(table, std::memory_order_release);
    }
    return *table;
}

const KernelTable &
kernelsFor(Level level)
{
    if (level > bestSupported())
        level = bestSupported();
    return tableFor(level);
}

} // namespace simd
} // namespace ideal
