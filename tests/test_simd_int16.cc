/**
 * @file
 * Differential suite for the int16 quantized kernel path.
 *
 * Two properties are enforced for every *I16 kernel:
 *
 *  - bitwise parity: every dispatch level (scalar, SSE4.2, AVX2) must
 *    reproduce the scalar reference bit for bit, on random inputs and
 *    on adversarial saturating inputs (±32767, -32768, alternating
 *    signs) that stress the wrap/saturation contract;
 *  - quantization tolerance: each int16 kernel must land within the
 *    tolerance.h bound of its float twin on in-range inputs (the bound
 *    derived from the Int16DctPlan's Q formats).
 *
 * Plus the end-to-end fig09-style gate: a full denoise run under
 * Config::precision = Int16 at 12 fractional bits must stay within
 * 0.05 dB SNR of the float pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <cstring>
#include <vector>

#include "bm3d/blockmatch.h"
#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "fixed/format.h"
#include "fixed/int16plan.h"
#include "image/image.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "simd/simd.h"
#include "tolerance.h"
#include "transforms/dct.h"

using namespace ideal;
using testing_tol::expectNearQuant;
using testing_tol::snrDeltaDb;

namespace {

/** Deterministic xorshift64* generator (seeds fixed per test). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}

    uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform int in [lo, hi]. */
    int
    uniform(int lo, int hi)
    {
        return lo + static_cast<int>(next() %
                                     (static_cast<uint64_t>(hi - lo) + 1));
    }

    int16_t
    i16(int lo, int hi)
    {
        return static_cast<int16_t>(uniform(lo, hi));
    }

    float
    uniformF(float lo, float hi)
    {
        const double u =
            static_cast<double>(next() >> 11) / 9007199254740992.0;
        return lo + static_cast<float>(u * (hi - lo));
    }

  private:
    uint64_t state_;
};

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> levels;
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l)
        levels.push_back(static_cast<simd::Level>(l));
    return levels;
}

/**
 * Int16 input families for the parity sweeps: random in-range raws,
 * full-scale saturating raws (including INT16_MIN, whose square wraps
 * under _mm256_madd_epi16 when paired with itself), all-zero, and
 * alternating-sign full-scale.
 */
std::vector<std::vector<int16_t>>
int16Families(Rng &rng, int len)
{
    std::vector<std::vector<int16_t>> families;

    std::vector<int16_t> plain(len);
    for (int16_t &v : plain)
        v = rng.i16(-4096, 4096);
    families.push_back(plain);

    std::vector<int16_t> sat(len);
    for (int i = 0; i < len; ++i) {
        const int pick = rng.uniform(0, 3);
        sat[i] = pick == 0   ? INT16_MAX
                 : pick == 1 ? INT16_MIN
                 : pick == 2 ? static_cast<int16_t>(INT16_MIN + 1)
                             : static_cast<int16_t>(INT16_MAX - 1);
    }
    families.push_back(sat);

    families.emplace_back(len, static_cast<int16_t>(0));

    std::vector<int16_t> alt(len);
    for (int i = 0; i < len; ++i)
        alt[i] = (i % 2 == 0) ? INT16_MAX : INT16_MIN;
    families.push_back(alt);

    return families;
}

const int kLens[] = {1, 3, 7, 8, 15, 16, 17, 24, 33, 64, 100};

class SimdInt16 : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

/** SoA plane set: coefs planes of n positions each. */
struct SoaPlanes
{
    std::vector<std::vector<int16_t>> store;
    std::vector<const int16_t *> ptrs;

    SoaPlanes(Rng &rng, int coefs, size_t n, int lo, int hi)
    {
        store.resize(coefs);
        ptrs.resize(coefs);
        for (int k = 0; k < coefs; ++k) {
            store[k].resize(n);
            for (int16_t &v : store[k])
                v = rng.i16(lo, hi);
            ptrs[k] = store[k].data();
        }
    }

    void
    gather(size_t off, int coefs, int16_t *out) const
    {
        for (int k = 0; k < coefs; ++k)
            out[k] = store[k][off];
    }
};

} // namespace

// ---------------------------------------------------------------------
// SSD kernels: bitwise parity across levels, wrap semantics included.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, SsdI16MatchesScalarBitwise)
{
    Rng rng(601);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : kLens) {
        for (const auto &a : int16Families(rng, len)) {
            std::vector<int16_t> b(len);
            for (int16_t &v : b)
                v = rng.i16(-32768, 32767);
            const int32_t expected = ref.ssdI16(a.data(), b.data(), len);
            for (simd::Level level : availableLevels()) {
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len);
                EXPECT_EQ(expected, simd::kernelsFor(level).ssdI16(
                                        a.data(), b.data(), len));
            }
        }
    }
}

TEST_F(SimdInt16, SsdI16MatchesWideReference)
{
    // In-range inputs: the int32 result must equal an exact int64
    // reference (no wrap below the ssdSafeMagnitudeBits bound).
    Rng rng(602);
    const int m = fixed::ssdSafeMagnitudeBits(16);
    const int lim = (1 << m) - 1;
    for (int len : {8, 16}) {
        std::vector<int16_t> a(len), b(len);
        for (int i = 0; i < len; ++i) {
            a[i] = rng.i16(-lim, lim);
            b[i] = 0;
        }
        int64_t wide = 0;
        for (int i = 0; i < len; ++i) {
            const int64_t d = a[i] - b[i];
            wide += d * d;
        }
        for (simd::Level level : availableLevels()) {
            EXPECT_EQ(wide, simd::kernelsFor(level).ssdI16(a.data(),
                                                           b.data(), len));
        }
    }
}

TEST_F(SimdInt16, SsdBoundedI16MatchesScalarBitwiseAcrossBounds)
{
    Rng rng(603);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : kLens) {
        for (const auto &a : int16Families(rng, len)) {
            std::vector<int16_t> b(len);
            for (int16_t &v : b)
                v = rng.i16(-8192, 8192);
            const int32_t full = ref.ssdI16(a.data(), b.data(), len);
            const int32_t bounds[] = {0,          1,         full / 2,
                                      full - 1,   full,      full + 1,
                                      INT32_MAX};
            for (int32_t bound : bounds) {
                const int32_t expected =
                    ref.ssdBoundedI16(a.data(), b.data(), len, bound);
                // Exit points are part of the contract: partial sums
                // are bitwise identical at every level too.
                for (simd::Level level : availableLevels()) {
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " bound=" << bound);
                    EXPECT_EQ(expected,
                              simd::kernelsFor(level).ssdBoundedI16(
                                  a.data(), b.data(), len, bound));
                }
                // A partial result may only occur above the bound;
                // otherwise it must be the exact full distance.
                if (expected <= bound) {
                    EXPECT_EQ(expected, full);
                }
            }
        }
    }
}

TEST_F(SimdInt16, SsdSoaI16MatchesGatheredSsd)
{
    Rng rng(604);
    const int coefs = 16;
    const size_t n = 64;
    SoaPlanes planes(rng, coefs, n, -8192, 8192);
    int16_t pa[16], pb[16];
    for (size_t off_a : {size_t{0}, size_t{17}, size_t{63}}) {
        for (size_t off_b : {size_t{5}, size_t{40}}) {
            planes.gather(off_a, coefs, pa);
            planes.gather(off_b, coefs, pb);
            const int32_t expected =
                simd::kernelsFor(simd::Level::Scalar)
                    .ssdI16(pa, pb, coefs);
            for (simd::Level level : availableLevels()) {
                EXPECT_EQ(expected, simd::kernelsFor(level).ssdSoaI16(
                                        planes.ptrs.data(), off_a,
                                        planes.ptrs.data(), off_b, coefs,
                                        INT32_MAX));
            }
        }
    }
}

TEST_F(SimdInt16, SsdSoaBatchI16MatchesSingleCandidateCalls)
{
    Rng rng(605);
    const int coefs = 16;
    const size_t n = 256;
    SoaPlanes planes(rng, coefs, n, -32768, 32767);
    int16_t ref[16], cand[16];
    for (const auto &ref_family : int16Families(rng, coefs)) {
        std::memcpy(ref, ref_family.data(), sizeof(ref));
        for (int count : {1, 3, 7, 8, 15, 16, 17, 33, 100}) {
            const size_t off = 11;
            std::vector<int32_t> scalar_out(count);
            simd::kernelsFor(simd::Level::Scalar)
                .ssdSoaBatchI16(ref, planes.ptrs.data(), off, coefs, count,
                                scalar_out.data());
            // Single-candidate reference: batch position i is the
            // plain SSD against the gathered candidate at off + i.
            for (int i = 0; i < count; ++i) {
                planes.gather(off + i, coefs, cand);
                EXPECT_EQ(scalar_out[i],
                          simd::kernelsFor(simd::Level::Scalar)
                              .ssdI16(ref, cand, coefs))
                    << "candidate " << i;
            }
            for (simd::Level level : availableLevels()) {
                std::vector<int32_t> out(count, -1);
                simd::kernelsFor(level).ssdSoaBatchI16(
                    ref, planes.ptrs.data(), off, coefs, count,
                    out.data());
                for (int i = 0; i < count; ++i) {
                    EXPECT_EQ(scalar_out[i], out[i])
                        << "level=" << simd::toString(level)
                        << " count=" << count << " candidate=" << i;
                }
            }
        }
    }
}

TEST_F(SimdInt16, SsdPairBatchI16MatchesSoaBatchAcrossLevels)
{
    Rng rng(606);
    const int coefs = 16;
    const size_t n = 256;
    SoaPlanes planes(rng, coefs, n, -32768, 32767);
    // Pair-interleaved twin of the SoA planes: plane p holds
    // coefficients (2p, 2p+1) adjacent per position.
    std::vector<std::vector<int16_t>> pair_store(coefs / 2);
    std::vector<const int16_t *> pair_ptrs(coefs / 2);
    for (int p = 0; p < coefs / 2; ++p) {
        pair_store[p].resize(2 * n);
        for (size_t i = 0; i < n; ++i) {
            pair_store[p][2 * i] = planes.store[2 * p][i];
            pair_store[p][2 * i + 1] = planes.store[2 * p + 1][i];
        }
        pair_ptrs[p] = pair_store[p].data();
    }
    int16_t ref[16];
    for (const auto &ref_family : int16Families(rng, coefs)) {
        std::memcpy(ref, ref_family.data(), sizeof(ref));
        for (int count : {1, 3, 7, 8, 15, 16, 17, 33, 100}) {
            const size_t off = 11;
            // The plain SoA batch kernel is the semantic reference:
            // both layouts must produce identical raw SSDs.
            std::vector<int32_t> expected(count);
            simd::kernelsFor(simd::Level::Scalar)
                .ssdSoaBatchI16(ref, planes.ptrs.data(), off, coefs,
                                count, expected.data());
            for (simd::Level level : availableLevels()) {
                std::vector<int32_t> out(count, -1);
                simd::kernelsFor(level).ssdPairBatchI16(
                    ref, pair_ptrs.data(), off, coefs, count, out.data());
                for (int i = 0; i < count; ++i) {
                    EXPECT_EQ(expected[i], out[i])
                        << "level=" << simd::toString(level)
                        << " count=" << count << " candidate=" << i;
                }
            }
        }
    }
}

// Short window rows (1-33 candidates: edge-clamped rows, window 13,
// one 16-wide pass plus a remainder) take the 8-wide overlapped and
// masked passes. Planes end exactly at the run, so a wide load past
// it shows under ASan, and sentinels past count catch stray stores.
TEST_F(SimdInt16, ShortRunBatchesMatchScalarBitwise)
{
    Rng rng(607);
    const size_t off = 5;
    const int32_t kSentinel = 0x5a5a5a5a;
    // Candidate planes: full-scale saturating raws, and alternating
    // sign by position and coefficient (every madd pair at +-max).
    const auto candidate = [&](int family, int k, size_t x) -> int16_t {
        if (family == 0) {
            const int pick = rng.uniform(0, 3);
            return pick == 0   ? INT16_MAX
                   : pick == 1 ? INT16_MIN
                   : pick == 2 ? static_cast<int16_t>(INT16_MIN + 1)
                               : static_cast<int16_t>(INT16_MAX - 1);
        }
        return ((x + static_cast<size_t>(k)) % 2 == 0) ? INT16_MAX
                                                         : INT16_MIN;
    };
    for (int coefs : {16, 9}) {
        const auto refs = int16Families(rng, coefs);
        for (int count = 1; count <= 33; ++count) {
            const size_t n = off + static_cast<size_t>(count);
            for (int family = 0; family < 2; ++family) {
                std::vector<std::vector<int16_t>> soa(coefs,
                                                      std::vector<int16_t>(n));
                std::vector<const int16_t *> soa_ptrs(coefs);
                for (int k = 0; k < coefs; ++k) {
                    for (size_t x = 0; x < n; ++x)
                        soa[k][x] = candidate(family, k, x);
                    soa_ptrs[k] = soa[k].data();
                }
                std::vector<std::vector<int16_t>> pairs(coefs / 2);
                std::vector<const int16_t *> pair_ptrs(coefs / 2);
                for (int p = 0; p < coefs / 2; ++p) {
                    pairs[p].resize(2 * n);
                    for (size_t x = 0; x < n; ++x) {
                        pairs[p][2 * x] = soa[2 * p][x];
                        pairs[p][2 * x + 1] = soa[2 * p + 1][x];
                    }
                    pair_ptrs[p] = pairs[p].data();
                }
                for (const auto &ref : refs) {
                    std::vector<int32_t> expected(count);
                    int16_t cand[16];
                    for (int i = 0; i < count; ++i) {
                        for (int k = 0; k < coefs; ++k)
                            cand[k] = soa[k][off + i];
                        expected[i] = simd::kernelsFor(simd::Level::Scalar)
                                          .ssdI16(ref.data(), cand, coefs);
                    }
                    for (simd::Level level : availableLevels()) {
                        const simd::KernelTable &kt =
                            simd::kernelsFor(level);
                        std::vector<int32_t> out(count + 8, kSentinel);
                        kt.ssdSoaBatchI16(ref.data(), soa_ptrs.data(), off,
                                          coefs, count, out.data());
                        std::vector<int32_t> pair_out(count + 8,
                                                      kSentinel);
                        if (coefs % 2 == 0) {
                            kt.ssdPairBatchI16(ref.data(), pair_ptrs.data(),
                                               off, coefs, count,
                                               pair_out.data());
                        }
                        for (int i = 0; i < count + 8; ++i) {
                            SCOPED_TRACE(testing::Message()
                                         << "level=" << simd::toString(level)
                                         << " coefs=" << coefs
                                         << " count=" << count
                                         << " family=" << family
                                         << " candidate=" << i);
                            const int32_t want =
                                i < count ? expected[i] : kSentinel;
                            EXPECT_EQ(want, out[i]);
                            if (coefs % 2 == 0) {
                                EXPECT_EQ(want, pair_out[i]);
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Int16 folded DCT: bitwise parity + tolerance against the float twin.
// ---------------------------------------------------------------------

namespace {

void
quantizedBasis(const transforms::Dct2D &dct, const fixed::Int16DctPlan &plan,
               int16_t *even_q, int16_t *odd_q)
{
    const float even_f[4] = {dct.coefficient(0, 0), dct.coefficient(0, 1),
                             dct.coefficient(2, 0), dct.coefficient(2, 1)};
    const float odd_f[4] = {dct.coefficient(1, 0), dct.coefficient(1, 1),
                            dct.coefficient(3, 0), dct.coefficient(3, 1)};
    fixed::quantizeBasisQ(even_f, 4, plan.coefFracBits, even_q);
    fixed::quantizeBasisQ(odd_f, 4, plan.coefFracBits, odd_q);
}

} // namespace

TEST_F(SimdInt16, Dct4ForwardI16MatchesScalarBitwise)
{
    Rng rng(606);
    const fixed::Int16DctPlan plan;
    transforms::Dct2D dct(4);
    int16_t even_q[4], odd_q[4];
    quantizedBasis(dct, plan, even_q, odd_q);

    for (const auto &in : int16Families(rng, 16)) {
        int16_t expected[16];
        simd::kernelsFor(simd::Level::Scalar)
            .dct4ForwardI16(in.data(), expected, even_q, odd_q, plan.shift1,
                            plan.shift2);
        for (simd::Level level : availableLevels()) {
            int16_t out[16];
            simd::kernelsFor(level).dct4ForwardI16(
                in.data(), out, even_q, odd_q, plan.shift1, plan.shift2);
            for (int i = 0; i < 16; ++i) {
                EXPECT_EQ(expected[i], out[i])
                    << "level=" << simd::toString(level) << " coef " << i;
            }
        }
    }
}

TEST_F(SimdInt16, Dct4ForwardI16WithinToleranceOfFloat)
{
    Rng rng(607);
    const fixed::Int16DctPlan plan;
    transforms::Dct2D dct(4);
    int16_t even_q[4], odd_q[4];
    quantizedBasis(dct, plan, even_q, odd_q);

    for (int trial = 0; trial < 64; ++trial) {
        float pixels[16];
        for (float &p : pixels)
            p = rng.uniformF(-255.0f, 255.0f);

        int16_t pixq[16], coefq[16];
        fixed::quantizeToI16(pixels, 16, plan.pixel, pixq);
        simd::kernels().dct4ForwardI16(pixq, coefq, even_q, odd_q,
                                       plan.shift1, plan.shift2);

        // Float reference on the *roundtripped* pixels: the tolerance
        // covers the transform's own rounding stages, not the input
        // quantization (which is exact by construction here).
        float rtrip[16], ref[16];
        for (int i = 0; i < 16; ++i)
            rtrip[i] =
                static_cast<float>(plan.pixel.toDouble(pixq[i]));
        dct.forward(rtrip, ref);

        // Two renormalizing shifts plus the Q13 basis error across a
        // 4-term fold: comfortably inside one Q11.1 step.
        for (int i = 0; i < 16; ++i) {
            expectNearQuant(ref[i], plan.match.toDouble(coefq[i]),
                            plan.match, 1.0, "dct4 coef", i);
        }
    }
}

// ---------------------------------------------------------------------
// Int16 Haar butterflies.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, HaarPairI16MatchesScalarBitwise)
{
    Rng rng(608);
    const int16_t factor = 23170; // round(2^15 / sqrt(2))
    for (int width : {1, 3, 7, 8, 15, 16, 31, 64}) {
        for (const auto &even : int16Families(rng, width)) {
            std::vector<int16_t> odd(width);
            for (int16_t &v : odd)
                v = rng.i16(-32768, 32767);
            std::vector<int16_t> ea(width), ed(width), eo(width), ee(width);
            const simd::KernelTable &ref =
                simd::kernelsFor(simd::Level::Scalar);
            ref.haarForwardPairI16(even.data(), odd.data(), ea.data(),
                                   ed.data(), factor, width);
            ref.haarInversePairI16(ea.data(), ed.data(), ee.data(),
                                   eo.data(), factor, width);
            for (simd::Level level : availableLevels()) {
                std::vector<int16_t> a(width), d(width), oe(width),
                    oo(width);
                const simd::KernelTable &k = simd::kernelsFor(level);
                k.haarForwardPairI16(even.data(), odd.data(), a.data(),
                                     d.data(), factor, width);
                k.haarInversePairI16(a.data(), d.data(), oe.data(),
                                     oo.data(), factor, width);
                for (int i = 0; i < width; ++i) {
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " width=" << width << " lane " << i);
                    EXPECT_EQ(ea[i], a[i]);
                    EXPECT_EQ(ed[i], d[i]);
                    EXPECT_EQ(ee[i], oe[i]);
                    EXPECT_EQ(eo[i], oo[i]);
                }
            }
        }
    }
}

TEST_F(SimdInt16, HaarForwardPairI16WithinToleranceOfFloat)
{
    Rng rng(609);
    const int16_t factor = 23170;
    const double factor_real = factor / 32768.0;
    const int width = 16;
    // In-range raws: |even + odd| stays below the saturation point.
    std::vector<int16_t> even(width), odd(width);
    for (int i = 0; i < width; ++i) {
        even[i] = rng.i16(-16000, 16000);
        odd[i] = rng.i16(-16000, 16000);
    }
    std::vector<int16_t> approx(width), detail(width);
    simd::kernels().haarForwardPairI16(even.data(), odd.data(),
                                       approx.data(), detail.data(), factor,
                                       width);
    for (int i = 0; i < width; ++i) {
        // One Q15 rounded multiply: half a raw step, plus the factor's
        // own quantization error (|f - 1/sqrt 2| * |sum| < 0.3 raw).
        const double ea = (even[i] + odd[i]) * factor_real;
        const double ed = (even[i] - odd[i]) * factor_real;
        EXPECT_NEAR(ea, approx[i], 1.0) << "approx lane " << i;
        EXPECT_NEAR(ed, detail[i], 1.0) << "detail lane " << i;
    }
}

// ---------------------------------------------------------------------
// Int16 hard threshold.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, HardThresholdI16MatchesScalarBitwise)
{
    Rng rng(610);
    for (int len : kLens) {
        for (const auto &base : int16Families(rng, len)) {
            for (int16_t thr : {int16_t{1}, int16_t{100}, int16_t{5000},
                                int16_t{INT16_MAX}}) {
                std::vector<int16_t> expected(base);
                const int expected_kept =
                    simd::kernelsFor(simd::Level::Scalar)
                        .hardThresholdI16(expected.data(), len, thr);
                for (simd::Level level : availableLevels()) {
                    std::vector<int16_t> v(base);
                    const int kept =
                        simd::kernelsFor(level).hardThresholdI16(
                            v.data(), len, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " thr=" << thr);
                    EXPECT_EQ(expected_kept, kept);
                    EXPECT_EQ(expected, v);
                }
            }
        }
    }
}

TEST_F(SimdInt16, HardThresholdI16AlwaysZeroesInt16Min)
{
    // abs_epi16(-32768) == -32768, which compares below any positive
    // threshold: INT16_MIN never survives. The scalar reference must
    // reproduce the intrinsic's quirk exactly.
    for (simd::Level level : availableLevels()) {
        int16_t v[4] = {INT16_MIN, 100, -100, INT16_MAX};
        const int kept =
            simd::kernelsFor(level).hardThresholdI16(v, 4, 50);
        EXPECT_EQ(v[0], 0) << simd::toString(level);
        EXPECT_EQ(kept, 3) << simd::toString(level);
        EXPECT_EQ(v[1], 100);
        EXPECT_EQ(v[2], -100);
        EXPECT_EQ(v[3], INT16_MAX);
    }
}

// ---------------------------------------------------------------------
// End-to-end fig09-style gate: |delta SNR| <= 0.05 dB at 12 fractional
// bits, int16 matching vs float matching.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, DenoiseInt16WithinSnrToleranceOfFloat)
{
    const image::ImageF clean =
        image::makeScene(image::SceneKind::Street, 96, 96, 1, 77);
    const image::ImageF noisy = image::addGaussianNoise(clean, 25.0f, 78);

    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    cfg.fixedPoint = fixed::PipelineFormats::forFraction(12);

    cfg.precision = bm3d::Precision::Float32;
    const image::ImageF base = bm3d::Bm3d(cfg).denoise(noisy).output;

    cfg.precision = bm3d::Precision::Int16;
    const image::ImageF quant = bm3d::Bm3d(cfg).denoise(noisy).output;

    const double delta = snrDeltaDb(clean, base, quant);
    EXPECT_LE(std::abs(delta), 0.05)
        << "int16 matching moved SNR by " << delta << " dB";
}

// ---------------------------------------------------------------------
// Fused int16 DE1 spectrum kernel (DESIGN §12): parity across levels
// and bitwise equality with the discrete butterfly + threshold
// composition, on the same saturating / all-zero / alternating-sign
// differential families as the element kernels.
// ---------------------------------------------------------------------

namespace {

/**
 * Discrete reference for haarShrinkFusedI16: replay the Haar1D
 * forwardRows/inverseRows schedule with the scalar haarForwardPairI16 /
 * haarInversePairI16 row kernels, hardThresholdI16 over the
 * transform-domain tile in between.
 */
int
haarShrinkDiscreteI16(int16_t *g, int stack, int width, int16_t threshold,
                      int16_t factor)
{
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    if (stack == 1)
        return ref.hardThresholdI16(g, width, threshold);

    const size_t n = static_cast<size_t>(stack) * width;
    std::vector<int16_t> buf(g, g + n), dom(n);
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i)
            ref.haarForwardPairI16(&buf[2 * i * width],
                                   &buf[(2 * i + 1) * width],
                                   &buf[static_cast<size_t>(i) * width],
                                   &dom[static_cast<size_t>(half + i) *
                                        width],
                                   factor, width);
        len = half;
    }
    std::memcpy(dom.data(), buf.data(), sizeof(int16_t) * width);

    const int kept =
        ref.hardThresholdI16(dom.data(), stack * width, threshold);

    std::memcpy(buf.data(), dom.data(), sizeof(int16_t) * width);
    len = 1;
    std::vector<int16_t> tmp(n);
    while (len < stack) {
        for (int i = 0; i < len; ++i)
            ref.haarInversePairI16(&buf[static_cast<size_t>(i) * width],
                                   &dom[static_cast<size_t>(len + i) *
                                        width],
                                   &tmp[2 * i * width],
                                   &tmp[(2 * i + 1) * width], factor,
                                   width);
        len *= 2;
        std::memcpy(buf.data(), tmp.data(),
                    sizeof(int16_t) * static_cast<size_t>(len) * width);
    }
    std::memcpy(g, buf.data(), sizeof(int16_t) * n);
    return kept;
}

} // namespace

TEST_F(SimdInt16, HaarShrinkFusedI16MatchesScalarBitwise)
{
    Rng rng(612);
    const int16_t factor = 23170;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 7, 8, 15, 16, 20}) {
            for (const auto &tile : int16Families(rng, stack * width)) {
                for (int16_t thr : {int16_t{135}, int16_t{5000}}) {
                    std::vector<int16_t> g_ref = tile;
                    const int kept_ref = ref.haarShrinkFusedI16(
                        g_ref.data(), stack, width, thr, factor);
                    for (simd::Level level : availableLevels()) {
                        std::vector<int16_t> g = tile;
                        const int kept =
                            simd::kernelsFor(level).haarShrinkFusedI16(
                                g.data(), stack, width, thr, factor);
                        SCOPED_TRACE(testing::Message()
                                     << "level=" << simd::toString(level)
                                     << " stack=" << stack
                                     << " width=" << width
                                     << " thr=" << thr);
                        EXPECT_EQ(kept_ref, kept);
                        EXPECT_EQ(g_ref, g);
                    }
                }
            }
        }
    }
}

TEST_F(SimdInt16, HaarShrinkFusedI16MatchesDiscreteComposition)
{
    // The fused kernel must equal the pair-kernel butterfly schedule
    // plus hardThresholdI16, including the saturating-add and
    // mulhrs rounding at every level of the transform — verified on
    // the saturating and alternating-sign families where adds/subs
    // clamp and abs(-32768) stays negative.
    Rng rng(613);
    const int16_t factor = 23170;
    const int16_t thr = 135; // the production Q11.1 DE1 threshold
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {7, 16}) {
            for (const auto &tile : int16Families(rng, stack * width)) {
                std::vector<int16_t> g_ref = tile;
                const int kept_ref = haarShrinkDiscreteI16(
                    g_ref.data(), stack, width, thr, factor);
                for (simd::Level level : availableLevels()) {
                    std::vector<int16_t> g = tile;
                    const int kept =
                        simd::kernelsFor(level).haarShrinkFusedI16(
                            g.data(), stack, width, thr, factor);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    EXPECT_EQ(g_ref, g);
                }
            }
        }
    }
}

TEST_F(SimdInt16, HaarShrinkFusedI16DifferentialEdgeCases)
{
    const int16_t factor = 23170;
    for (simd::Level level : availableLevels()) {
        const simd::KernelTable &k = simd::kernelsFor(level);
        SCOPED_TRACE(simd::toString(level));

        // All-zero tile: the transform is exactly zero, nothing
        // survives, and the tile comes back all zero.
        std::vector<int16_t> zeros(16 * 16, 0);
        EXPECT_EQ(k.haarShrinkFusedI16(zeros.data(), 16, 16, 135, factor),
                  0);
        for (int16_t v : zeros)
            EXPECT_EQ(v, 0);

        // Full-scale same-sign tile: every butterfly's saturating add
        // clamps to INT16_MAX before the mulhrs scales it back down,
        // details cancel to zero; with a full-scale threshold
        // everything is zeroed, so the inverse maps the tile to zero.
        std::vector<int16_t> sat(16 * 16, INT16_MAX);
        EXPECT_EQ(k.haarShrinkFusedI16(sat.data(), 16, 16, INT16_MAX,
                                       factor),
                  0);
        for (int16_t v : sat)
            EXPECT_EQ(v, 0);

        // Alternating-sign full-scale rows: the first butterfly's
        // detail is (32767 - (-32768)) saturated to 32767; parity with
        // scalar pins the clamp behaviour.
        std::vector<int16_t> alt(16 * 16);
        for (int i = 0; i < 16 * 16; ++i)
            alt[i] = (i / 16) % 2 == 0 ? INT16_MAX : INT16_MIN;
        std::vector<int16_t> alt_ref = alt;
        const int kept_ref = simd::kernelsFor(simd::Level::Scalar)
                                 .haarShrinkFusedI16(alt_ref.data(), 16,
                                                     16, 135, factor);
        const int kept =
            k.haarShrinkFusedI16(alt.data(), 16, 16, 135, factor);
        EXPECT_EQ(kept_ref, kept);
        EXPECT_EQ(alt_ref, alt);
    }
}

// ---------------------------------------------------------------------
// The Int16 window scans threshold fromRaw(raw) floats (DESIGN §16.4).
// They used to compare the raw SSD against the exact raw image of the
// cutoff instead; fromRaw is monotone in raw, so both select the same
// candidates. Checked over +-64 raws around the raw threshold of
// several cutoffs, with both domains' real ssdFactors.
// ---------------------------------------------------------------------

namespace {

/**
 * min { r : fromRaw(r) >= c }, clamped to INT32_MAX: the raw-side
 * cutoff the Int16 scans used, found the way they found it (truncated
 * estimate, then nudged across the rounding boundary).
 */
template <typename Domain>
int32_t
rawThreshold(const Domain &domain, float c)
{
    const float factor = domain.fromRaw(1);
    int64_t t = bm3d::DctMatchDomainI16::rawBound(c, factor);
    while (t < INT32_MAX && domain.fromRaw(static_cast<int32_t>(t)) < c)
        ++t;
    while (t > 0 && domain.fromRaw(static_cast<int32_t>(t - 1)) >= c)
        --t;
    return static_cast<int32_t>(t);
}

template <typename Domain>
void
expectRawCutoffEquivalent(const Domain &domain, const char *name)
{
    for (float c : {0.25f, 1.0f, 37.3f, 400.0f, 2500.0f, 3000.0f, 12345.6f,
                    1e30f}) {
        const int32_t t = rawThreshold(domain, c);
        const int64_t lo = std::max<int64_t>(0, int64_t{t} - 64);
        const int64_t hi = std::min<int64_t>(INT32_MAX - 1, int64_t{t} + 64);
        for (int64_t r = lo; r <= hi; ++r) {
            const int32_t raw = static_cast<int32_t>(r);
            EXPECT_EQ(raw < t, domain.fromRaw(raw) < c)
                << name << " cutoff " << c << " raw " << raw
                << " threshold " << t;
        }
    }
}

} // namespace

TEST_F(SimdInt16, RawCutoffMatchesFloatCompareOfFromRaw)
{
    const image::ImageF plane = image::makeScene(
        image::SceneKind::Street, 24, 24, 1, 4242);
    const transforms::Dct2D dct(4);
    bm3d::DctPatchField field;
    field.build(plane, dct, 50.0f, std::nullopt, nullptr);
    field.prepareI16();
    field.fillRowsI16(plane, dct, 50.0f, 0, field.positionsY());
    expectRawCutoffEquivalent(bm3d::DctMatchDomainI16(field), "dct");
    expectRawCutoffEquivalent(bm3d::ColorMatchDomainI16(plane, 4), "color");
}
