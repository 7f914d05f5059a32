/**
 * @file
 * AVX-512 kernels (512-bit, F + BW + VL): band_lanes.h's band-scan
 * rows at 16 lanes — 16 reference lanes per bm1LaneScan group, the
 * lock-step EBM count of IDEALB (paper §4), and 16-wide BM2 folds.
 * Mask registers replace AVX2's vector masks, and vpcompressd its
 * left-pack table. Every other row of the table is the AVX2 function.
 * Compiled with -mavx512f -mavx512bw -mavx512vl -ffp-contract=off (and
 * no -mfma); bitwise parity with the scalar table is enforced by
 * tests/test_simd.cc.
 */

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include "simd/band_lanes.h"

namespace ideal {
namespace simd {
namespace detail {

const KernelTable &
avx512Table()
{
    // Built on first use from the AVX2 table, which is constant-
    // initialized, so no static initialization order is involved.
    static const KernelTable table = [] {
        KernelTable t = kAvx2Table;
        t.bandSqDiff = bandSqDiff<Avx512Lanes>;
        t.bandColSum4 = bandColSum4<Avx512Lanes>;
        t.bandFoldSelect = bandFoldSelect<Avx512Lanes>;
        t.bm1LaneScan = bm1LaneScan<Avx512Lanes>;
        t.bm1Lanes = Avx512Lanes::kWidth;
        return t;
    }();
    return table;
}

} // namespace detail
} // namespace simd
} // namespace ideal

#else // !x86

namespace ideal {
namespace simd {
namespace detail {

const KernelTable &
avx512Table()
{
    return kScalarTable;
}

} // namespace detail
} // namespace simd
} // namespace ideal

#endif
