#ifndef IDEAL_SIMD_KERNELS_H_
#define IDEAL_SIMD_KERNELS_H_

/**
 * @file
 * Internal: the per-level kernel tables, one per translation unit so
 * each can be compiled for its own ISA. The scalar table defines the
 * reference semantics (see simd.h's reduction-order rule); the SSE,
 * AVX2 and AVX-512 tables must reproduce it bitwise and are verified
 * to do so by tests/test_simd.cc.
 *
 * On non-x86 builds the SSE/AVX2/AVX-512 translation units compile to
 * empty and the tables below alias the scalar table.
 */

#include "simd/simd.h"

namespace ideal {
namespace simd {
namespace detail {

extern const KernelTable kScalarTable;
extern const KernelTable &kSseTable;
extern const KernelTable &kAvx2Table;

/**
 * The AVX-512 table: the AVX2 table with band_lanes.h's four band-scan
 * rows at 16 lanes swapped in. Built on first use.
 */
const KernelTable &avx512Table();

/**
 * The scalar matchReplay, shared by the scalar and SSE tables: a
 * 4-wide list would take eight registers and as many permutes per
 * insert as the scalar shift loop has moves.
 */
void matchReplayScalar(const MatchRun *runs, int n, float tau);

} // namespace detail
} // namespace simd
} // namespace ideal

#endif // IDEAL_SIMD_KERNELS_H_
