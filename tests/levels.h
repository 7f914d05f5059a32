#ifndef IDEAL_TESTS_LEVELS_H_
#define IDEAL_TESTS_LEVELS_H_

/**
 * @file
 * SIMD level lists for tests that name their levels. simd::setLevel
 * and simd::kernelsFor clamp a level the CPU lacks to bestSupported(),
 * so looping over a named level there would quietly re-test a lower
 * one under its name. supportedLevels() drops those levels and names
 * them; the test runs the rest, then GTEST_SKIP()s with that message.
 */

#include <initializer_list>
#include <string>
#include <vector>

#include "simd/simd.h"

namespace ideal {
namespace test {

/**
 * The levels of @p wanted this CPU supports, in order. Each level it
 * lacks is appended to @p unsupported as one sentence naming it and
 * bestSupported().
 */
inline std::vector<simd::Level>
supportedLevels(std::initializer_list<simd::Level> wanted,
                std::string &unsupported)
{
    std::vector<simd::Level> levels;
    for (simd::Level level : wanted) {
        if (level <= simd::bestSupported()) {
            levels.push_back(level);
        } else {
            unsupported += std::string(simd::toString(level)) +
                           " not supported by this CPU (bestSupported() = " +
                           simd::toString(simd::bestSupported()) +
                           "), not tested. ";
        }
    }
    return levels;
}

} // namespace test
} // namespace ideal

#endif // IDEAL_TESTS_LEVELS_H_
