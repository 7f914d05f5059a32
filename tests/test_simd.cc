/**
 * @file
 * Bitwise parity suite for the runtime-dispatched SIMD kernel layer:
 * every kernel, at every level the CPU supports, must reproduce the
 * scalar reference bit for bit — on random inputs, on adversarial
 * saturating/overflow inputs, and on sign-of-zero / NaN / infinity
 * edge cases. Also covers the dispatch mechanics (setLevel clamping,
 * kernelsFor addressing) and cross-checks the integrated transforms
 * (Dct2D, Haar1D) across levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "bm3d/matchlist.h"
#include "simd/simd.h"
#include "transforms/dct.h"
#include "transforms/distance.h"
#include "transforms/haar.h"

using namespace ideal;

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

    float
    uniform(float lo, float hi)
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

/** EXPECT bit equality of two floats (distinguishes -0.0, NaN bits). */
void
expectBitEqual(float a, float b, const char *what, int index)
{
    uint32_t ba, bb;
    std::memcpy(&ba, &a, 4);
    std::memcpy(&bb, &b, 4);
    EXPECT_EQ(ba, bb) << what << " [" << index << "]: " << a << " vs "
                      << b;
}

void
expectBitEqual(const float *a, const float *b, int count, const char *what)
{
    for (int i = 0; i < count; ++i)
        expectBitEqual(a[i], b[i], what, i);
}

/**
 * Input families for the parity sweeps. "Saturating" stresses the
 * reduction order: values large enough that partial sums round
 * differently under any reassociation, plus cancellation pairs.
 */
std::vector<std::vector<float>>
inputFamilies(Rng &rng, int len)
{
    std::vector<std::vector<float>> families;

    std::vector<float> plain(len);
    for (float &v : plain)
        v = rng.uniform(-255.0f, 255.0f);
    families.push_back(plain);

    std::vector<float> tiny(len);
    for (float &v : tiny)
        v = rng.uniform(-1e-5f, 1e-5f);
    families.push_back(tiny);

    std::vector<float> huge(len);
    for (float &v : huge)
        v = rng.uniform(-1e18f, 1e18f); // squares near FLT_MAX
    families.push_back(huge);

    std::vector<float> mixed(len);
    for (int i = 0; i < len; ++i)
        mixed[i] = (i % 2 == 0) ? rng.uniform(1e15f, 1e18f)
                                : rng.uniform(-1e-3f, 1e-3f);
    families.push_back(mixed);

    std::vector<float> zeros(len, 0.0f);
    for (int i = 0; i < len; i += 3)
        zeros[i] = -0.0f;
    families.push_back(zeros);

    return families;
}

class SimdParity : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

} // namespace

// ---------------------------------------------------------------------
// Dispatch mechanics.
// ---------------------------------------------------------------------

TEST_F(SimdParity, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::toString(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::toString(simd::Level::Sse), "sse");
    EXPECT_STREQ(simd::toString(simd::Level::Avx2), "avx2");
    EXPECT_STREQ(simd::toString(simd::Level::Avx512), "avx512");
}

TEST_F(SimdParity, ReportsBestSupportedLevel)
{
    // The log line a CI runner leaves: which levels this run checked.
    // Levels above bestSupported() are not tested on this host.
    const simd::Level best = simd::bestSupported();
    std::printf("bestSupported() = %s, active = %s%s\n",
                simd::toString(best), simd::toString(simd::activeLevel()),
                best < simd::Level::Avx512
                    ? " (avx512 not supported: its rows are not tested "
                      "on this host)"
                    : "");
    EXPECT_LE(simd::activeLevel(), best);
}

TEST_F(SimdParity, SetLevelRoundTripsAndClamps)
{
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(simd::activeLevel(), level);
    }
    // A request above what the CPU supports clamps down.
    simd::setLevel(simd::Level::Avx512);
    EXPECT_LE(simd::activeLevel(), simd::bestSupported());
}

TEST_F(SimdParity, KernelsForMatchesActiveTable)
{
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(&simd::kernels(), &simd::kernelsFor(level));
    }
}

TEST_F(SimdParity, KernelTablesAreFullyPopulated)
{
    for (simd::Level level : availableLevels()) {
        const simd::KernelTable &k = simd::kernelsFor(level);
        EXPECT_NE(k.ssd, nullptr);
        EXPECT_NE(k.ssdBounded, nullptr);
        EXPECT_NE(k.ssdFull, nullptr);
        EXPECT_NE(k.ssdBatch16, nullptr);
        EXPECT_NE(k.dct4Forward, nullptr);
        EXPECT_NE(k.dct4Inverse, nullptr);
        EXPECT_NE(k.haarForwardPair, nullptr);
        EXPECT_NE(k.haarInversePair, nullptr);
        EXPECT_NE(k.hardThreshold, nullptr);
        EXPECT_NE(k.wienerApply, nullptr);
        EXPECT_NE(k.aggregateAdd, nullptr);
        EXPECT_NE(k.ssdSoa, nullptr);
        EXPECT_NE(k.ssdSoaBatch, nullptr);
        EXPECT_NE(k.mergeAdd, nullptr);
        EXPECT_NE(k.ssdI16, nullptr);
        EXPECT_NE(k.ssdBoundedI16, nullptr);
        EXPECT_NE(k.ssdSoaI16, nullptr);
        EXPECT_NE(k.ssdSoaBatchI16, nullptr);
        EXPECT_NE(k.ssdPairBatchI16, nullptr);
        EXPECT_NE(k.dct4ForwardI16, nullptr);
        EXPECT_NE(k.haarForwardPairI16, nullptr);
        EXPECT_NE(k.haarInversePairI16, nullptr);
        EXPECT_NE(k.hardThresholdI16, nullptr);
        EXPECT_NE(k.bandSqDiff, nullptr);
        EXPECT_NE(k.bandColSum4, nullptr);
        EXPECT_NE(k.bandFoldSelect, nullptr);
        EXPECT_NE(k.bm1LaneScan, nullptr);
        EXPECT_NE(k.matchReplay, nullptr);
        EXPECT_EQ(k.bm1Lanes, level == simd::Level::Avx512 ? 16 : 8);
        EXPECT_LE(k.bm1Lanes, simd::kMaxLanes);
    }
}

TEST_F(SimdParity, Avx512TableWidensOnlyTheBandScanRows)
{
    if (simd::bestSupported() < simd::Level::Avx512)
        GTEST_SKIP() << "avx512 not supported (bestSupported() = "
                     << simd::toString(simd::bestSupported()) << ")";
    const simd::KernelTable &a = simd::kernelsFor(simd::Level::Avx2);
    const simd::KernelTable &w = simd::kernelsFor(simd::Level::Avx512);
    EXPECT_NE(w.bandSqDiff, a.bandSqDiff);
    EXPECT_NE(w.bandColSum4, a.bandColSum4);
    EXPECT_NE(w.bandFoldSelect, a.bandFoldSelect);
    EXPECT_NE(w.bm1LaneScan, a.bm1LaneScan);
    EXPECT_EQ(w.ssd, a.ssd);
    EXPECT_EQ(w.ssdBounded, a.ssdBounded);
    EXPECT_EQ(w.ssdFull, a.ssdFull);
    EXPECT_EQ(w.ssdBatch16, a.ssdBatch16);
    EXPECT_EQ(w.ssdSoa, a.ssdSoa);
    EXPECT_EQ(w.ssdSoaBatch, a.ssdSoaBatch);
    EXPECT_EQ(w.dct4Forward, a.dct4Forward);
    EXPECT_EQ(w.dct4Inverse, a.dct4Inverse);
    EXPECT_EQ(w.haarForwardPair, a.haarForwardPair);
    EXPECT_EQ(w.haarInversePair, a.haarInversePair);
    EXPECT_EQ(w.hardThreshold, a.hardThreshold);
    EXPECT_EQ(w.wienerApply, a.wienerApply);
    EXPECT_EQ(w.aggregateAdd, a.aggregateAdd);
    EXPECT_EQ(w.mergeAdd, a.mergeAdd);
    EXPECT_EQ(w.ssdI16, a.ssdI16);
    EXPECT_EQ(w.ssdBoundedI16, a.ssdBoundedI16);
    EXPECT_EQ(w.ssdSoaI16, a.ssdSoaI16);
    EXPECT_EQ(w.ssdSoaBatchI16, a.ssdSoaBatchI16);
    EXPECT_EQ(w.ssdPairBatchI16, a.ssdPairBatchI16);
    EXPECT_EQ(w.dct4ForwardI16, a.dct4ForwardI16);
    EXPECT_EQ(w.haarForwardPairI16, a.haarForwardPairI16);
    EXPECT_EQ(w.haarInversePairI16, a.haarInversePairI16);
    EXPECT_EQ(w.hardThresholdI16, a.hardThresholdI16);
    EXPECT_EQ(w.haarShrinkFused, a.haarShrinkFused);
    EXPECT_EQ(w.wienerShrinkFused, a.wienerShrinkFused);
    EXPECT_EQ(w.aggregateGroup, a.aggregateGroup);
    EXPECT_EQ(w.haarShrinkFusedI16, a.haarShrinkFusedI16);
    EXPECT_EQ(w.matchReplay, a.matchReplay);
}

// ---------------------------------------------------------------------
// SSD kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, SsdMatchesScalarBitwise)
{
    Rng rng(101);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : {1, 3, 7, 8, 9, 15, 16, 17, 24, 33, 64, 100}) {
        for (const auto &a : inputFamilies(rng, len)) {
            std::vector<float> b(len);
            for (float &v : b)
                v = rng.uniform(-255.0f, 255.0f);
            const float expected = ref.ssd(a.data(), b.data(), len);
            for (simd::Level level : availableLevels()) {
                const float got = simd::kernelsFor(level).ssd(
                    a.data(), b.data(), len);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len);
                expectBitEqual(expected, got, "ssd", 0);
            }
        }
    }
}

TEST_F(SimdParity, SsdBoundedMatchesScalarBitwiseIncludingEarlyExit)
{
    Rng rng(202);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : {8, 16, 32, 48, 100}) {
        for (const auto &a : inputFamilies(rng, len)) {
            std::vector<float> b(len);
            for (float &v : b)
                v = rng.uniform(-255.0f, 255.0f);
            const float full = ref.ssdFull(a.data(), b.data(), len);
            // Bounds that never trigger, always trigger, and trigger
            // mid-way exercise each early-exit position.
            for (float bound : {std::numeric_limits<float>::infinity(),
                                full * 2.0f, full, full * 0.5f,
                                full * 0.1f, 0.0f}) {
                const float expected = ref.ssdBounded(a.data(), b.data(),
                                                      len, bound);
                for (simd::Level level : availableLevels()) {
                    const float got = simd::kernelsFor(level).ssdBounded(
                        a.data(), b.data(), len, bound);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " bound=" << bound);
                    expectBitEqual(expected, got, "ssdBounded", 0);
                }
            }
        }
    }
}

TEST_F(SimdParity, SsdVariantsAgreeBitwiseAtPatchLength16)
{
    // The contract the batched block-matching path relies on: at 16
    // elements, ssd, ssdFull and ssdBounded (any bound) are the same
    // reduction tree, at every level.
    Rng rng(303);
    for (int trial = 0; trial < 50; ++trial) {
        float a[16], b[16];
        for (int i = 0; i < 16; ++i) {
            a[i] = rng.uniform(-1e4f, 1e4f);
            b[i] = rng.uniform(-1e4f, 1e4f);
        }
        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            const float plain = k.ssd(a, b, 16);
            const float full = k.ssdFull(a, b, 16);
            const float bounded = k.ssdBounded(a, b, 16, plain * 0.5f);
            SCOPED_TRACE(simd::toString(level));
            expectBitEqual(plain, full, "ssd vs ssdFull", trial);
            expectBitEqual(plain, bounded, "ssd vs ssdBounded", trial);
        }
    }
}

TEST_F(SimdParity, SsdBatch16MatchesSsdFullPerCandidate)
{
    Rng rng(404);
    float ref_patch[16];
    std::vector<float> cands(16 * 8);
    for (float &v : ref_patch)
        v = rng.uniform(-255.0f, 255.0f);
    for (float &v : cands)
        v = rng.uniform(-255.0f, 255.0f);

    for (simd::Level level : availableLevels()) {
        const simd::KernelTable &k = simd::kernelsFor(level);
        for (int count = 1; count <= 8; ++count) {
            float out[8];
            k.ssdBatch16(ref_patch, cands.data(), count, out);
            for (int i = 0; i < count; ++i) {
                const float expected =
                    k.ssdFull(ref_patch, cands.data() + 16 * i, 16);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " count=" << count);
                expectBitEqual(expected, out[i], "ssdBatch16", i);
            }
        }
    }
}

namespace {

/**
 * Coefficient-major (SoA) fixture: @p len planes of @p positions
 * candidates each, plus the pointer array the kernels take. slot(k, i)
 * is coefficient k of candidate i.
 */
struct SoaPlanes
{
    SoaPlanes(int len, int positions)
        : positions(positions),
          store(static_cast<size_t>(len) * positions), planes(len)
    {
        for (int k = 0; k < len; ++k)
            planes[k] = store.data() + static_cast<size_t>(k) * positions;
    }

    float &
    slot(int k, int i)
    {
        return store[static_cast<size_t>(k) * positions + i];
    }

    int positions;
    std::vector<float> store;
    std::vector<const float *> planes;
};

} // namespace

TEST_F(SimdParity, SsdSoaMatchesScalarBitwiseIncludingEarlyExit)
{
    Rng rng(1414);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : {1, 7, 9, 16, 25, 33, 64}) {
        for (const auto &a : inputFamilies(rng, len)) {
            SoaPlanes pa(len, 3), pb(len, 3);
            const size_t off_a = 1, off_b = 2;
            for (int k = 0; k < len; ++k) {
                for (int i = 0; i < 3; ++i) {
                    pa.slot(k, i) = rng.uniform(-255.0f, 255.0f);
                    pb.slot(k, i) = rng.uniform(-255.0f, 255.0f);
                }
                pa.slot(k, static_cast<int>(off_a)) = a[k];
            }
            const float full = ref.ssdSoa(
                pa.planes.data(), off_a, pb.planes.data(), off_b, len,
                std::numeric_limits<float>::infinity());
            for (float bound : {std::numeric_limits<float>::infinity(),
                                full * 2.0f, full, full * 0.5f, 0.0f}) {
                const float expected =
                    ref.ssdSoa(pa.planes.data(), off_a, pb.planes.data(),
                               off_b, len, bound);
                for (simd::Level level : availableLevels()) {
                    const float got = simd::kernelsFor(level).ssdSoa(
                        pa.planes.data(), off_a, pb.planes.data(), off_b,
                        len, bound);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " bound=" << bound);
                    expectBitEqual(expected, got, "ssdSoa", 0);
                }
            }
        }
    }
}

TEST_F(SimdParity, SsdSoaAgreesWithSsdFullOnGatheredDescriptors)
{
    // The layout-independence contract: the SoA distance equals the
    // position-major ssdFull of the gathered descriptors bit for bit,
    // at every level (same per-16-block reduction tree).
    Rng rng(1515);
    for (int len : {4, 9, 16, 32, 48}) {
        SoaPlanes pa(len, 4), pb(len, 4);
        std::vector<float> a(len), b(len);
        for (int k = 0; k < len; ++k) {
            for (int i = 0; i < 4; ++i) {
                pa.slot(k, i) = rng.uniform(-1e4f, 1e4f);
                pb.slot(k, i) = rng.uniform(-1e4f, 1e4f);
            }
            a[k] = pa.slot(k, 3);
            b[k] = pb.slot(k, 0);
        }
        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            const float soa =
                k.ssdSoa(pa.planes.data(), 3, pb.planes.data(), 0, len,
                         std::numeric_limits<float>::infinity());
            const float aos = k.ssdFull(a.data(), b.data(), len);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " len=" << len);
            expectBitEqual(aos, soa, "ssdSoa vs ssdFull", 0);
        }
    }
}

TEST_F(SimdParity, SsdSoaBatchMatchesSsdSoaPerCandidate)
{
    Rng rng(1616);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int len : {9, 16, 33}) {
        for (int count : {1, 3, 7, 8, 9, 16, 20, 49}) {
            SoaPlanes planes(len, count);
            std::vector<float> ref_desc(len);
            for (int k = 0; k < len; ++k) {
                ref_desc[k] = rng.uniform(-255.0f, 255.0f);
                for (int i = 0; i < count; ++i)
                    planes.slot(k, i) = rng.uniform(-255.0f, 255.0f);
            }
            // Edge-case candidates: signed zeros and NaN lanes must
            // propagate identically through the vector and the scalar
            // tail paths.
            planes.slot(0, 0) = -0.0f;
            if (count > 1)
                planes.slot(len - 1, 1) = nan;
            const simd::KernelTable &ref =
                simd::kernelsFor(simd::Level::Scalar);
            std::vector<float> expected(count);
            ref.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0, len,
                            count, expected.data());
            for (simd::Level level : availableLevels()) {
                const simd::KernelTable &k = simd::kernelsFor(level);
                std::vector<float> out(count, -1.0f);
                k.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0,
                              len, count, out.data());
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len << " count=" << count);
                expectBitEqual(expected.data(), out.data(), count,
                               "ssdSoaBatch vs scalar");
            }
        }
    }
}

TEST_F(SimdParity, SsdSoaBatchEqualsSingleCandidateSsdSoa)
{
    // batch[i] must be bitwise the single-pair ssdSoa of candidate i:
    // build a reference that itself lives in a plane set so both
    // kernels see identical operands.
    Rng rng(1717);
    const float inf = std::numeric_limits<float>::infinity();
    for (int len : {16, 25}) {
        const int count = 13;
        SoaPlanes planes(len, count);
        SoaPlanes refp(len, 1);
        std::vector<float> ref_desc(len);
        for (int k = 0; k < len; ++k) {
            for (int i = 0; i < count; ++i)
                planes.slot(k, i) = rng.uniform(-1e3f, 1e3f);
            ref_desc[k] = rng.uniform(-1e3f, 1e3f);
            refp.slot(k, 0) = ref_desc[k];
        }
        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            float out[16];
            k.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0, len,
                          count, out);
            for (int i = 0; i < count; ++i) {
                const float single =
                    k.ssdSoa(refp.planes.data(), 0, planes.planes.data(),
                             static_cast<size_t>(i), len, inf);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len << " i=" << i);
                expectBitEqual(single, out[i], "batch vs single", i);
            }
        }
    }
}

TEST_F(SimdParity, MergeAddMatchesScalarBitwise)
{
    Rng rng(1818);
    for (int count : {1, 3, 4, 7, 8, 16, 21, 64}) {
        std::vector<float> num0(count), den0(count), onum(count),
            oden(count);
        for (int i = 0; i < count; ++i) {
            num0[i] = rng.uniform(-1e4f, 1e4f);
            den0[i] = rng.uniform(0.0f, 1e4f);
            onum[i] = rng.uniform(-1e4f, 1e4f);
            oden[i] = rng.uniform(0.0f, 1e4f);
        }
        num0[0] = -0.0f;
        onum[0] = 0.0f;

        std::vector<float> num_ref = num0, den_ref = den0;
        simd::kernelsFor(simd::Level::Scalar)
            .mergeAdd(num_ref.data(), den_ref.data(), onum.data(),
                      oden.data(), count);
        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).mergeAdd(num.data(), den.data(),
                                             onum.data(), oden.data(),
                                             count);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " count=" << count);
            expectBitEqual(num_ref.data(), num.data(), count, "num");
            expectBitEqual(den_ref.data(), den.data(), count, "den");
        }
    }
}

// ---------------------------------------------------------------------
// DCT kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, Dct4KernelsMatchScalarBitwise)
{
    Rng rng(505);
    // The real folded half-matrices for n = 4 (values only matter for
    // realism; parity must hold for any coefficients).
    const float even[4] = {0.5f, 0.5f, 0.65328148f, -0.27059805f};
    const float odd[4] = {0.65328148f, 0.27059805f, 0.27059805f,
                          -0.65328148f};
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::vector<float>> families = inputFamilies(rng, 16);
        for (const auto &in : families) {
            float expected[16], got[16];
            ref.dct4Forward(in.data(), expected, even, odd);
            for (simd::Level level : availableLevels()) {
                simd::kernelsFor(level).dct4Forward(in.data(), got, even,
                                                    odd);
                SCOPED_TRACE(simd::toString(level));
                expectBitEqual(expected, got, 16, "dct4Forward");
            }
            ref.dct4Inverse(in.data(), expected, even, odd);
            for (simd::Level level : availableLevels()) {
                simd::kernelsFor(level).dct4Inverse(in.data(), got, even,
                                                    odd);
                SCOPED_TRACE(simd::toString(level));
                expectBitEqual(expected, got, 16, "dct4Inverse");
            }
        }
    }
}

TEST_F(SimdParity, Dct2DTransformIdenticalAcrossLevels)
{
    // Integration: the real Dct2D(4) must produce identical bits at
    // every dispatch level (forward and inverse).
    Rng rng(606);
    transforms::Dct2D dct(4);
    float in[16];
    for (float &v : in)
        v = rng.uniform(-255.0f, 255.0f);

    simd::setLevel(simd::Level::Scalar);
    float fwd_ref[16], inv_ref[16];
    dct.forward(in, fwd_ref);
    dct.inverse(fwd_ref, inv_ref);

    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        float fwd[16], inv[16];
        dct.forward(in, fwd);
        dct.inverse(fwd, inv);
        SCOPED_TRACE(simd::toString(level));
        expectBitEqual(fwd_ref, fwd, 16, "Dct2D::forward");
        expectBitEqual(inv_ref, inv, 16, "Dct2D::inverse");
    }
}

// ---------------------------------------------------------------------
// Haar kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, HaarPairKernelsMatchScalarBitwise)
{
    Rng rng(707);
    const float factor = 1.0f / std::sqrt(2.0f);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int width : {1, 3, 4, 7, 8, 15, 16, 31, 64}) {
        for (const auto &even : inputFamilies(rng, width)) {
            std::vector<float> odd(width);
            for (float &v : odd)
                v = rng.uniform(-255.0f, 255.0f);
            std::vector<float> a_ref(width), d_ref(width);
            ref.haarForwardPair(even.data(), odd.data(), a_ref.data(),
                                d_ref.data(), factor, width);
            for (simd::Level level : availableLevels()) {
                std::vector<float> a(width), d(width);
                simd::kernelsFor(level).haarForwardPair(
                    even.data(), odd.data(), a.data(), d.data(), factor,
                    width);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " width=" << width);
                expectBitEqual(a_ref.data(), a.data(), width, "approx");
                expectBitEqual(d_ref.data(), d.data(), width, "detail");
            }

            std::vector<float> e_ref(width), o_ref(width);
            ref.haarInversePair(even.data(), odd.data(), e_ref.data(),
                                o_ref.data(), factor, width);
            for (simd::Level level : availableLevels()) {
                std::vector<float> e(width), o(width);
                simd::kernelsFor(level).haarInversePair(
                    even.data(), odd.data(), e.data(), o.data(), factor,
                    width);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " width=" << width);
                expectBitEqual(e_ref.data(), e.data(), width, "out_even");
                expectBitEqual(o_ref.data(), o.data(), width, "out_odd");
            }
        }
    }
}

TEST_F(SimdParity, HaarForwardPairSupportsApproxAliasingEven)
{
    // forwardRows writes the approximation row in place over its even
    // input; the kernel contract allows approx == even.
    Rng rng(808);
    const float factor = 1.0f / std::sqrt(2.0f);
    for (int width : {4, 8, 16, 33}) {
        std::vector<float> even(width), odd(width);
        for (int i = 0; i < width; ++i) {
            even[i] = rng.uniform(-255.0f, 255.0f);
            odd[i] = rng.uniform(-255.0f, 255.0f);
        }
        for (simd::Level level : availableLevels()) {
            std::vector<float> sep_a(width), sep_d(width);
            const simd::KernelTable &k = simd::kernelsFor(level);
            k.haarForwardPair(even.data(), odd.data(), sep_a.data(),
                              sep_d.data(), factor, width);
            std::vector<float> aliased = even;
            std::vector<float> d(width);
            k.haarForwardPair(aliased.data(), odd.data(), aliased.data(),
                              d.data(), factor, width);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " width=" << width);
            expectBitEqual(sep_a.data(), aliased.data(), width,
                           "aliased approx");
            expectBitEqual(sep_d.data(), d.data(), width, "detail");
        }
    }
}

TEST_F(SimdParity, Haar1DRowsIdenticalAcrossLevels)
{
    // Integration: the 16-point row-wise Haar used by the denoising
    // engine must produce identical bits at every dispatch level.
    Rng rng(909);
    transforms::Haar1D haar(16);
    const int width = 16;
    std::vector<float> in(16 * width);
    for (float &v : in)
        v = rng.uniform(-255.0f, 255.0f);

    simd::setLevel(simd::Level::Scalar);
    std::vector<float> fwd_ref(in.size()), inv_ref(in.size());
    haar.forwardRows(in.data(), fwd_ref.data(), width, width);
    haar.inverseRows(fwd_ref.data(), inv_ref.data(), width, width);

    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        std::vector<float> fwd(in.size()), inv(in.size());
        haar.forwardRows(in.data(), fwd.data(), width, width);
        haar.inverseRows(fwd.data(), inv.data(), width, width);
        SCOPED_TRACE(simd::toString(level));
        expectBitEqual(fwd_ref.data(), fwd.data(),
                       static_cast<int>(fwd.size()), "forwardRows");
        expectBitEqual(inv_ref.data(), inv.data(),
                       static_cast<int>(inv.size()), "inverseRows");
    }
}

// ---------------------------------------------------------------------
// Shrinkage and aggregation kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, HardThresholdMatchesScalarBitwiseAndByCount)
{
    const float thr = 10.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Straddle the threshold, include exact ties (kept: < is strict),
    // signed zeros, NaN (kept: the comparison is false) and infinities.
    const std::vector<float> base = {0.0f,   -0.0f, 5.0f,  -5.0f, 10.0f,
                                     -10.0f, 9.99f, 10.01f, 1e30f, -1e30f,
                                     inf,    -inf,  nan,    -2.5f, 64.0f,
                                     -11.0f, 3.0f};
    for (int count : {1, 4, 8, 16, 17}) {
        std::vector<float> ref_v(base.begin(), base.begin() + count);
        const int ref_kept = simd::kernelsFor(simd::Level::Scalar)
                                 .hardThreshold(ref_v.data(), count, thr);
        for (simd::Level level : availableLevels()) {
            std::vector<float> v(base.begin(), base.begin() + count);
            const int kept = simd::kernelsFor(level).hardThreshold(
                v.data(), count, thr);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " count=" << count);
            EXPECT_EQ(ref_kept, kept);
            expectBitEqual(ref_v.data(), v.data(), count, "thresholded");
        }
    }
}

TEST_F(SimdParity, HardThresholdZeroesToPositiveZero)
{
    // The zeroed coefficients must be +0.0f (their bit pattern feeds
    // the bitwise determinism contract downstream).
    for (simd::Level level : availableLevels()) {
        float v[8] = {-0.5f, 0.5f, -0.0f, 0.0f, -3.0f, 3.0f, -7.9f, 7.9f};
        simd::kernelsFor(level).hardThreshold(v, 8, 8.0f);
        for (int i = 0; i < 8; ++i) {
            uint32_t bits;
            std::memcpy(&bits, &v[i], 4);
            EXPECT_EQ(bits, 0u)
                << simd::toString(level) << " [" << i << "]";
        }
    }
}

TEST_F(SimdParity, WienerApplyMatchesScalarBitwise)
{
    Rng rng(1111);
    const float s2 = 625.0f; // sigma 25
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int count : {1, 4, 8, 16, 19}) {
        for (const auto &b : inputFamilies(rng, count)) {
            std::vector<float> v0(count);
            for (float &v : v0)
                v = rng.uniform(-255.0f, 255.0f);

            std::vector<float> v_ref = v0, w_ref(count);
            const int strong_ref = ref.wienerApply(
                v_ref.data(), b.data(), w_ref.data(), count, s2);
            for (simd::Level level : availableLevels()) {
                std::vector<float> v = v0, w(count);
                const int strong = simd::kernelsFor(level).wienerApply(
                    v.data(), b.data(), w.data(), count, s2);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " count=" << count);
                EXPECT_EQ(strong_ref, strong);
                expectBitEqual(v_ref.data(), v.data(), count, "v");
                expectBitEqual(w_ref.data(), w.data(), count, "w");
            }
        }
    }
}

TEST_F(SimdParity, AggregateAddMatchesScalarBitwise)
{
    Rng rng(1212);
    for (int count : {1, 3, 4, 8, 16, 21}) {
        std::vector<float> num0(count), den0(count), pix(count);
        for (int i = 0; i < count; ++i) {
            num0[i] = rng.uniform(-1e4f, 1e4f);
            den0[i] = rng.uniform(0.0f, 1e4f);
            pix[i] = rng.uniform(-255.0f, 255.0f);
        }
        const float weight = rng.uniform(0.01f, 1.0f);

        std::vector<float> num_ref = num0, den_ref = den0;
        simd::kernelsFor(simd::Level::Scalar)
            .aggregateAdd(num_ref.data(), den_ref.data(), pix.data(),
                          weight, count);
        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).aggregateAdd(
                num.data(), den.data(), pix.data(), weight, count);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " count=" << count);
            expectBitEqual(num_ref.data(), num.data(), count, "num");
            expectBitEqual(den_ref.data(), den.data(), count, "den");
        }
    }
}

// ---------------------------------------------------------------------
// distance.h wrappers follow the active level.
// ---------------------------------------------------------------------

TEST_F(SimdParity, DistanceWrappersDispatchOnActiveLevel)
{
    Rng rng(1313);
    float a[33], b[33];
    for (int i = 0; i < 33; ++i) {
        a[i] = rng.uniform(-255.0f, 255.0f);
        b[i] = rng.uniform(-255.0f, 255.0f);
    }
    simd::setLevel(simd::Level::Scalar);
    const float d_ref = transforms::squaredDistance(a, b, 33);
    const float f_ref = transforms::squaredDistanceFull(a, b, 33);
    const float bd_ref = transforms::squaredDistanceBounded(
        a, b, 33, f_ref * 0.25f);
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        SCOPED_TRACE(simd::toString(level));
        expectBitEqual(d_ref, transforms::squaredDistance(a, b, 33),
                       "squaredDistance", 0);
        expectBitEqual(f_ref, transforms::squaredDistanceFull(a, b, 33),
                       "squaredDistanceFull", 0);
        expectBitEqual(
            bd_ref,
            transforms::squaredDistanceBounded(a, b, 33, f_ref * 0.25f),
            "squaredDistanceBounded", 0);
    }
}

// ---------------------------------------------------------------------
// Fused group-major denoise kernels (DESIGN §12): bitwise parity
// across levels AND bitwise equality with the discrete composition
// they replace (Haar1D rows + hardThreshold/wienerApply + dct4Inverse
// + aggregateAdd).
// ---------------------------------------------------------------------

namespace {

/** Discrete reference for haarShrinkFused: Haar1D::forwardRows across
    the stack, scalar hardThreshold over the tile, inverseRows back. */
int
haarShrinkDiscrete(float *g, int stack, int width, float threshold)
{
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    if (stack == 1)
        return ref.hardThreshold(g, width, threshold);
    transforms::Haar1D haar(stack);
    std::vector<float> fwd(static_cast<size_t>(stack) * width);
    haar.forwardRows(g, fwd.data(), width, width);
    const int kept = ref.hardThreshold(fwd.data(), stack * width, threshold);
    haar.inverseRows(fwd.data(), g, width, width);
    return kept;
}

/** Discrete reference for wienerShrinkFused; like the fused kernel it
    leaves bg in the transform domain and fills the weight tile. */
int
wienerShrinkDiscrete(float *g, float *bg, float *w, int stack, int width,
                     float sigma2)
{
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    if (stack == 1)
        return ref.wienerApply(g, bg, w, width, sigma2);
    transforms::Haar1D haar(stack);
    const size_t n = static_cast<size_t>(stack) * width;
    std::vector<float> gfwd(n), bfwd(n);
    haar.forwardRows(g, gfwd.data(), width, width);
    haar.forwardRows(bg, bfwd.data(), width, width);
    const int strong =
        ref.wienerApply(gfwd.data(), bfwd.data(), w, stack * width, sigma2);
    haar.inverseRows(gfwd.data(), g, width, width);
    // The fused kernel leaves bg in the transform domain.
    std::memcpy(bg, bfwd.data(), n * sizeof(float));
    return strong;
}

} // namespace

TEST_F(SimdParity, HaarShrinkFusedMatchesScalarBitwise)
{
    Rng rng(1414);
    const float thr = 100.0f;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 4, 7, 13, 16}) {
            for (const auto &tile : inputFamilies(rng, stack * width)) {
                std::vector<float> g_ref = tile;
                const int kept_ref = ref.haarShrinkFused(
                    g_ref.data(), stack, width, thr);
                for (simd::Level level : availableLevels()) {
                    std::vector<float> g = tile;
                    const int kept = simd::kernelsFor(level).haarShrinkFused(
                        g.data(), stack, width, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    expectBitEqual(g_ref.data(), g.data(), stack * width,
                                   "haarShrinkFused tile");
                }
            }
        }
    }
}

TEST_F(SimdParity, HaarShrinkFusedMatchesDiscreteComposition)
{
    // The fused kernel replays Haar1D's exact butterfly schedule with
    // hardThreshold's element semantics in between, so it must equal
    // the three-step discrete sequence bit for bit — at every level.
    Rng rng(1515);
    const float thr = 100.0f;
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {7, 16}) {
            for (const auto &tile : inputFamilies(rng, stack * width)) {
                // Haar1D rows dispatch on the active level; pin the
                // discrete reference to scalar.
                simd::setLevel(simd::Level::Scalar);
                std::vector<float> g_ref = tile;
                const int kept_ref = haarShrinkDiscrete(
                    g_ref.data(), stack, width, thr);
                for (simd::Level level : availableLevels()) {
                    simd::setLevel(level); // Haar1D-independent: fused
                                           // kernel addressed directly
                    std::vector<float> g = tile;
                    const int kept = simd::kernelsFor(level).haarShrinkFused(
                        g.data(), stack, width, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    expectBitEqual(g_ref.data(), g.data(), stack * width,
                                   "fused vs discrete");
                }
            }
        }
    }
}

TEST_F(SimdParity, WienerShrinkFusedMatchesScalarBitwise)
{
    Rng rng(1616);
    const float s2 = 625.0f;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 5, 8, 16}) {
            const int n = stack * width;
            for (const auto &tile : inputFamilies(rng, n)) {
                std::vector<float> basic(n);
                for (float &v : basic)
                    v = rng.uniform(-255.0f, 255.0f);

                std::vector<float> g_ref = tile, bg_ref = basic, w_ref(n);
                const int strong_ref = ref.wienerShrinkFused(
                    g_ref.data(), bg_ref.data(), w_ref.data(), stack,
                    width, s2);
                for (simd::Level level : availableLevels()) {
                    std::vector<float> g = tile, bg = basic, w(n);
                    const int strong =
                        simd::kernelsFor(level).wienerShrinkFused(
                            g.data(), bg.data(), w.data(), stack, width,
                            s2);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(strong_ref, strong);
                    expectBitEqual(g_ref.data(), g.data(), n, "g");
                    expectBitEqual(bg_ref.data(), bg.data(), n, "bg");
                    expectBitEqual(w_ref.data(), w.data(), n, "w");
                }
            }
        }
    }
}

TEST_F(SimdParity, WienerShrinkFusedMatchesDiscreteComposition)
{
    Rng rng(1717);
    const float s2 = 625.0f;
    for (int stack : {1, 2, 4, 8, 16}) {
        const int width = 16;
        const int n = stack * width;
        for (const auto &tile : inputFamilies(rng, n)) {
            std::vector<float> basic(n);
            for (float &v : basic)
                v = rng.uniform(-255.0f, 255.0f);

            simd::setLevel(simd::Level::Scalar);
            std::vector<float> g_ref = tile, bg_ref = basic, w_ref(n);
            const int strong_ref = wienerShrinkDiscrete(
                g_ref.data(), bg_ref.data(), w_ref.data(), stack, width,
                s2);
            for (simd::Level level : availableLevels()) {
                std::vector<float> g = tile, bg = basic, w(n);
                const int strong = simd::kernelsFor(level).wienerShrinkFused(
                    g.data(), bg.data(), w.data(), stack, width, s2);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " stack=" << stack);
                EXPECT_EQ(strong_ref, strong);
                expectBitEqual(g_ref.data(), g.data(), n, "g");
                expectBitEqual(bg_ref.data(), bg.data(), n,
                               "bg (transform domain)");
                expectBitEqual(w_ref.data(), w.data(), n, "w");
            }
        }
    }
}

TEST_F(SimdParity, AggregateGroupMatchesDiscreteSequence)
{
    // aggregateGroup == for each patch i ascending: dct4Inverse, then
    // four 4-wide aggregateAdd rows — bitwise, including overlapping
    // patches (the in-order contract is what makes tile merges and the
    // fused path deterministic).
    Rng rng(1818);
    transforms::Dct2D dct(4);
    const int plane_w = 16, plane_h = 16;
    const int n = plane_w * plane_h;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        std::vector<float> coefs(static_cast<size_t>(stack) * 16);
        for (float &v : coefs)
            v = rng.uniform(-255.0f, 255.0f);
        std::vector<int> lx(stack), ly(stack);
        for (int i = 0; i < stack; ++i) {
            // Deliberately overlapping corners (range keeps 4x4 inside).
            lx[i] = static_cast<int>(rng.next() % (plane_w - 3));
            ly[i] = static_cast<int>(rng.next() % (plane_h - 3));
        }
        const float weight = rng.uniform(0.01f, 1.0f);

        std::vector<float> num0(n), den0(n);
        for (int i = 0; i < n; ++i) {
            num0[i] = rng.uniform(-1e3f, 1e3f);
            den0[i] = rng.uniform(0.0f, 1e3f);
        }

        // Discrete reference, scalar kernels throughout.
        std::vector<float> num_ref = num0, den_ref = den0;
        for (int i = 0; i < stack; ++i) {
            float px[16];
            ref.dct4Inverse(&coefs[16 * i], px, dct.invEvenHalf(),
                            dct.invOddHalf());
            for (int r = 0; r < 4; ++r) {
                const int off = (ly[i] + r) * plane_w + lx[i];
                ref.aggregateAdd(&num_ref[off], &den_ref[off], px + 4 * r,
                                 weight, 4);
            }
        }

        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).aggregateGroup(
                num.data(), den.data(), plane_w, coefs.data(), lx.data(),
                ly.data(), stack, weight, dct.invEvenHalf(),
                dct.invOddHalf());
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " stack=" << stack);
            expectBitEqual(num_ref.data(), num.data(), n, "num");
            expectBitEqual(den_ref.data(), den.data(), n, "den");
        }
    }
}

// ---------------------------------------------------------------------
// Displacement-major BM2 band-scan rows (DESIGN §16).
// ---------------------------------------------------------------------

TEST_F(SimdParity, BandScanRowsMatchScalarBitwise)
{
    // Widths cover whole 8- and 16-lane vectors, partial tails of both
    // and sub-vector rows; NaN, infinity and signed zeros ride through
    // every pass, and some cutoffs tie their distance exactly.
    Rng rng(1717);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int cols : {1, 3, 4, 7, 8, 9, 15, 16, 17, 21, 31, 33, 64}) {
        const int rows = 5;
        const size_t stride = static_cast<size_t>(cols) + 11;
        const size_t pitch = static_cast<size_t>(cols) + 3;
        std::vector<float> a(stride * (rows + 3)), b(a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = rng.uniform(-255.0f, 255.0f);
            b[i] = rng.uniform(-255.0f, 255.0f);
        }
        a[1] = -0.0f;
        b[1] = 0.0f;
        a[stride + 2] = nan;
        b[2 * stride] = inf;

        const int d_cols = cols + 3;
        std::vector<float> d_ref(pitch * (rows + 3));
        std::vector<float> v_ref(pitch * rows);
        ref.bandSqDiff(a.data(), b.data(), stride, rows + 3, d_cols,
                       d_ref.data(), pitch);
        ref.bandColSum4(d_ref.data(), pitch, rows, d_cols, v_ref.data());

        // Cutoffs around the distance scale (mean squared difference
        // ~43k), so hits, pruned and rejected lanes all occur; tau
        // sits below some cutoffs too.
        const float tau = 45000.0f;
        std::vector<float> cut(static_cast<size_t>(rows) * cols);
        for (float &c : cut)
            c = rng.uniform(0.0f, 90000.0f);
        // Every 5th reference's cutoff is its own distance: a tie is
        // no hit, and pruned when below tau.
        for (int r = 0; r < rows; ++r)
            for (int c = r % 5; c < cols; c += 5) {
                const float *p = v_ref.data() + r * pitch + c;
                cut[r * cols + c] =
                    ((p[0] + p[2]) + (p[1] + p[3])) * (1.0f / 16.0f);
            }
        const size_t n = cut.size();
        std::vector<int32_t> pruned_ref(n, 7), idx_ref(n + simd::kMaxLanes);
        std::vector<float> dist_ref(n + simd::kMaxLanes);
        const int hits_ref = ref.bandFoldSelect(
            v_ref.data(), pitch, rows, cols, 1.0f / 16.0f, tau, cut.data(),
            pruned_ref.data(), cols, idx_ref.data(), dist_ref.data());

        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            SCOPED_TRACE(testing::Message() << "level="
                                            << simd::toString(level)
                                            << " cols=" << cols);
            std::vector<float> d(d_ref.size(), -1.0f);
            std::vector<float> v(v_ref.size(), -1.0f);
            k.bandSqDiff(a.data(), b.data(), stride, rows + 3, d_cols,
                         d.data(), pitch);
            k.bandColSum4(d.data(), pitch, rows, d_cols, v.data());
            for (int r = 0; r < rows + 3; ++r)
                expectBitEqual(d_ref.data() + r * pitch,
                               d.data() + r * pitch, d_cols, "bandSqDiff");
            for (int r = 0; r < rows; ++r)
                expectBitEqual(v_ref.data() + r * pitch,
                               v.data() + r * pitch, d_cols,
                               "bandColSum4");

            std::vector<int32_t> pruned(n, 7), idx(n + simd::kMaxLanes);
            std::vector<float> dist(n + simd::kMaxLanes);
            const int hits = k.bandFoldSelect(
                v.data(), pitch, rows, cols, 1.0f / 16.0f, tau,
                cut.data(), pruned.data(), cols, idx.data(), dist.data());
            ASSERT_EQ(hits, hits_ref);
            if (cols >= 8) // narrower rows are all NaN/inf lanes
                EXPECT_GT(hits, 0);
            for (int h = 0; h < hits; ++h) {
                EXPECT_EQ(idx[h], idx_ref[h]) << "hit " << h;
                expectBitEqual(dist_ref[h], dist[h], "hit distance", h);
            }
            EXPECT_EQ(pruned, pruned_ref);
        }
    }
}

// ---------------------------------------------------------------------
// Reference-lane BM1 window-row scan (DESIGN §16).
// ---------------------------------------------------------------------

namespace {

/** bm1LaneScan's outputs for one call. */
struct LaneScanResult
{
    std::vector<int32_t> idx; ///< hit indices s * width + l
    std::vector<float> dist;
    std::vector<int32_t> pruned; ///< width lanes, starting at 7
};

/**
 * One bm1LaneScan call of a group of @p width lanes (8 or 16) at
 * table @p k: lane l's descriptor is desc[16 * l + k], laid out as
 * k.bm1Lanes-stride lanes. A 16-lane group on an 8-lane table runs as
 * two 8-lane calls (lanes 0-7 at x0, 8-15 at x0 + 8) merged in (s, l)
 * order, which is the kernel contract at width 16.
 */
LaneScanResult
laneScan(const simd::KernelTable &k, int width, const float *desc,
         int lanes, const float *const *planes, int x0, int pos_x,
         int steps, int skip, float scale, float tau, const float *cut)
{
    const int w = k.bm1Lanes;
    LaneScanResult out;
    out.pruned.assign(width, 7);
    std::vector<std::pair<int32_t, float>> hits;
    for (int g = 0; g < width; g += w) {
        const int n = std::min(w, lanes - g);
        if (n <= 0)
            break;
        std::vector<float> ref(16 * w, 0.0f);
        for (int c = 0; c < 16; ++c)
            for (int l = 0; l < n; ++l)
                ref[c * w + l] = desc[16 * (g + l) + c];
        std::vector<int32_t> idx(steps * w + w, -1);
        std::vector<float> dist(idx.size());
        const int count = k.bm1LaneScan(ref.data(), n, planes, 0, x0 + g,
                                        pos_x, steps, skip, scale, tau,
                                        cut + g, out.pruned.data() + g,
                                        idx.data(), dist.data());
        for (int h = 0; h < count; ++h)
            hits.push_back({idx[h] / w * width + g + idx[h] % w, dist[h]});
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &h : hits) {
        out.idx.push_back(h.first);
        out.dist.push_back(h.second);
    }
    return out;
}

} // namespace

TEST_F(SimdParity, Bm1LaneScanMatchesScalarBitwise)
{
    // Each coefficient plane is one row in its own buffer: exactly
    // sized, so a plain load outside [0, pos_x) leaves the allocation
    // (and trips ASan), or with 32 zeros on either side, so a lane
    // wrongly left unmasked at an edge scores a candidate of zeros and
    // changes the hits (masked loads are not instrumented by ASan).
    // Steps start left of the row and run past its end,
    // and the 11-wide row is narrower than a 16-lane group: every group
    // size 1-16 meets masked edge lanes, cut by the left edge, the
    // right edge or both. NaN, +-inf and +-0 ride through references
    // and candidates alike; one lane's descriptor equals a candidate
    // (distance +0, against a cutoff of +0), and cutoffs and tau tie
    // distances exactly. Groups of 16 lanes are checked at every level
    // against the scalar table run as two 8-lane halves.
    Rng rng(2029);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float scale = 1.0f / 16.0f;
    const simd::KernelTable &scalar = simd::kernelsFor(simd::Level::Scalar);
    int total_hits = 0, total_pruned = 0;
    // (guard, pos_x) pairs.
    const std::pair<int, int> shapes[] = {{0, 29}, {0, 11}, {32, 29},
                                          {32, 11}};
    for (const auto &[guard, pos_x] : shapes) {
        std::vector<std::vector<float>> rows(
            16, std::vector<float>(pos_x + 2 * guard, 0.0f));
        std::vector<float *> row(16);
        std::vector<const float *> planes(16);
        for (int k = 0; k < 16; ++k) {
            row[k] = rows[k].data() + guard;
            for (int x = 0; x < pos_x; ++x)
                row[k][x] = rng.uniform(-40.0f, 40.0f);
            planes[k] = row[k];
        }
        row[3][7] = nan;
        row[5][pos_x - 2] = inf;
        row[9][pos_x - 2] = -inf;
        row[0][pos_x - 5] = -0.0f;
        row[1][pos_x - 4] = 0.0f;
        // Lane l's descriptor at desc[16 * l + k].
        std::vector<float> desc(16 * 16);
        for (float &v : desc)
            v = rng.uniform(-40.0f, 40.0f);
        desc[16 * 5 + 2] = nan;
        desc[16 * 6 + 7] = -inf;
        desc[16 * 1 + 11] = -0.0f;
        for (int k = 0; k < 16; ++k) // lane 9 is candidate x = 4
            desc[16 * 9 + k] = k == 0 ? -0.0f : planes[k][4];
        row[0][4] = 0.0f;

        const float tau = 1000.0f; // the mean distance is ~1070
        for (int lanes = 1; lanes <= 16; ++lanes) {
            for (int x0 : {-20, -12, -5, 0, 3, 14, 24}) {
                const int steps = 13;
                float cut[16];
                for (float &c : cut)
                    c = rng.uniform(500.0f, 1600.0f);
                cut[9] = 0.0f;
                // Ties: lane 2's cutoff is its distance at step 6, and
                // lane 4 scores tau exactly at step 3 when that is no
                // hit (neither hit nor pruned).
                auto distance = [&](int l, int s, float *d) {
                    const int x = x0 + s + l;
                    if (x < 0 || x >= pos_x)
                        return false;
                    scalar.ssdSoaBatch(&desc[16 * l], planes.data(), x, 16,
                                       1, d);
                    *d *= scale;
                    return true;
                };
                float tie;
                if (distance(2, 6, &tie))
                    cut[2] = tie;
                float tau_here = tau;
                if (lanes > 4 && distance(4, 3, &tie) && !(tie < cut[4]))
                    tau_here = tie;
                for (int skip = -1; skip < steps; ++skip) {
                    SCOPED_TRACE(testing::Message()
                                 << "guard=" << guard << " pos_x=" << pos_x
                                 << " lanes=" << lanes
                                 << " x0=" << x0 << " skip=" << skip);
                    const LaneScanResult want =
                        laneScan(scalar, 16, desc.data(), lanes,
                                 planes.data(), x0, pos_x, steps, skip,
                                 scale, tau_here, cut);
                    total_hits += static_cast<int>(want.idx.size());
                    // Hits lie on unmasked lanes, ascend in (step,
                    // lane), and carry the candidate's ssdSoaBatch
                    // distance.
                    for (size_t h = 0; h < want.idx.size(); ++h) {
                        const int s = want.idx[h] / 16;
                        const int l = want.idx[h] % 16;
                        const int x = x0 + s + l;
                        ASSERT_TRUE(l < lanes && s != skip && x >= 0 &&
                                    x < pos_x)
                            << "hit " << h;
                        if (h > 0) {
                            EXPECT_GT(want.idx[h], want.idx[h - 1]);
                        }
                        float d;
                        ASSERT_TRUE(distance(l, s, &d));
                        expectBitEqual(d, want.dist[h], "hit distance",
                                       static_cast<int>(h));
                    }
                    for (int l = 0; l < 16; ++l) {
                        if (l >= lanes) {
                            EXPECT_EQ(want.pruned[l], 7)
                                << "masked lane " << l;
                        }
                        total_pruned += want.pruned[l] - 7;
                    }

                    for (simd::Level level : availableLevels()) {
                        const simd::KernelTable &k = simd::kernelsFor(level);
                        SCOPED_TRACE(testing::Message()
                                     << "level=" << simd::toString(level));
                        // The table's own width, and a 16-lane group at
                        // every level.
                        const LaneScanResult own =
                            laneScan(k, k.bm1Lanes, desc.data(),
                                     std::min(lanes, k.bm1Lanes),
                                     planes.data(), x0, pos_x, steps, skip,
                                     scale, tau_here, cut);
                        const LaneScanResult got =
                            laneScan(k, 16, desc.data(), lanes,
                                     planes.data(), x0, pos_x, steps, skip,
                                     scale, tau_here, cut);
                        ASSERT_EQ(got.idx, want.idx);
                        for (size_t h = 0; h < got.idx.size(); ++h)
                            expectBitEqual(want.dist[h], got.dist[h],
                                           "hit distance",
                                           static_cast<int>(h));
                        EXPECT_EQ(got.pruned, want.pruned);
                        const int w = k.bm1Lanes;
                        size_t h16 = 0;
                        for (size_t h = 0; h < own.idx.size(); ++h) {
                            const int s = own.idx[h] / w;
                            const int l = own.idx[h] % w;
                            while (h16 < want.idx.size() &&
                                   want.idx[h16] != s * 16 + l)
                                ++h16;
                            ASSERT_LT(h16, want.idx.size()) << "hit " << h;
                            expectBitEqual(want.dist[h16], own.dist[h],
                                           "own-width distance",
                                           static_cast<int>(h));
                        }
                        for (int l = 0; l < std::min(lanes, w); ++l)
                            EXPECT_EQ(own.pruned[l], want.pruned[l])
                                << "lane " << l;
                    }
                }
            }
        }
    }
    EXPECT_GT(total_hits, 1000); // the cutoffs sit inside the distances
    EXPECT_GT(total_pruned, 1000);
}

// ---------------------------------------------------------------------
// Match selection (DESIGN §16.4).
// ---------------------------------------------------------------------

namespace {

/** One list's replay state: the list, its cutoff and pruned count. */
struct ReplayState
{
    bm3d::MatchList list;
    float cut = 0.0f;
    int32_t pruned = 0;
};

/** One call shape: runs over the states, candidates per run. */
struct ReplayCase
{
    std::vector<int> target;             ///< state index of each run
    std::vector<std::vector<float>> dist; ///< candidates of each run
    std::vector<std::vector<uint32_t>> pos; ///< empty: contiguous
    std::vector<uint32_t> pos0;
};

/**
 * The reference: BlockMatcher::considerRun's rule as a loop over
 * MatchList::insert.
 */
void
replayWithInsert(std::vector<ReplayState> &states, const ReplayCase &c,
                 float tau)
{
    for (size_t r = 0; r < c.target.size(); ++r) {
        ReplayState &st = states[c.target[r]];
        for (size_t j = 0; j < c.dist[r].size(); ++j) {
            const float d = c.dist[r][j];
            const uint32_t p = c.pos[r].empty()
                                   ? c.pos0[r] + static_cast<uint32_t>(j)
                                   : c.pos[r][j];
            if (d < st.cut) {
                st.list.insert(bm3d::Match{static_cast<int>(p & 0xffffu),
                                           static_cast<int>(p >> 16), d});
                st.cut = std::min(st.cut, st.list.worstDistance());
            } else if (d < tau) {
                ++st.pruned;
            }
        }
    }
}

void
replayWithKernel(const simd::KernelTable &k,
                 std::vector<ReplayState> &states, const ReplayCase &c,
                 float tau)
{
    std::vector<simd::MatchRun> runs;
    for (size_t r = 0; r < c.target.size(); ++r) {
        ReplayState &st = states[c.target[r]];
        runs.push_back({&st.list.slots(), &st.cut, &st.pruned,
                        c.dist[r].data(),
                        c.pos[r].empty() ? nullptr : c.pos[r].data(),
                        c.pos0[r], static_cast<int>(c.dist[r].size())});
    }
    k.matchReplay(runs.data(), static_cast<int>(runs.size()), tau);
}

/** Compare two states slot for slot (padding included), bitwise. */
void
expectSameState(const ReplayState &want, const ReplayState &got, int i)
{
    const simd::MatchSlots &a = want.list.slots();
    const simd::MatchSlots &b = got.list.slots();
    ASSERT_EQ(a.size, b.size) << "state " << i;
    ASSERT_EQ(a.capacity, b.capacity) << "state " << i;
    for (int k = 0; k < simd::MatchSlots::kCapacity; ++k) {
        expectBitEqual(a.dist[k], b.dist[k], "slot distance", k);
        EXPECT_EQ(a.pos[k], b.pos[k]) << "state " << i << " slot " << k;
    }
    expectBitEqual(want.cut, got.cut, "cutoff", i);
    EXPECT_EQ(want.pruned, got.pruned) << "state " << i;
}

} // namespace

TEST_F(SimdParity, MatchReplayMatchesScalarBitwise)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {nan, inf, -inf, 0.0f, -0.0f};
    Rng rng(1919);
    // Distance sources: spread values, few distinct values (ties),
    // all equal (tie order only), and the specials mixed in.
    auto draw = [&](int source) {
        switch (source) {
        case 0:
            return rng.uniform(0.0f, 100.0f);
        case 1:
            return static_cast<float>(rng.next() % 6) * 10.0f;
        case 2:
            return 25.0f;
        default:
            return rng.next() % 4 == 0 ? specials[rng.next() % 5]
                                       : rng.uniform(-1.0f, 60.0f);
        }
    };
    const int lengths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 127,
                           128};
    int cases = 0;
    for (int cap = 1; cap <= 16; ++cap) {
        for (float bound : {inf, 40.0f}) {
            for (float tau : {50.0f, 1e30f}) {
                for (int source = 0; source < 4; ++source) {
                    for (int shape = 0; shape < 3; ++shape) {
                        for (int len : lengths) {
                            // Shape (a): one list, one contiguous run.
                            // (b): 8 lists, a run each (explicit
                            // positions). (c): len lists, one
                            // candidate each.
                            const int lists = shape == 0   ? 1
                                              : shape == 1 ? 8
                                                           : len;
                            std::vector<ReplayState> init(lists);
                            for (int i = 0; i < lists; ++i) {
                                ReplayState &st = init[i];
                                st.list = bm3d::MatchList(cap);
                                st.list.insert(bm3d::Match{i, 7, 0.0f});
                                st.cut = std::min(tau, bound);
                                st.pruned = i;
                                // Some lists start partly filled.
                                const int pre = static_cast<int>(
                                    rng.next() % (cap + 1));
                                for (int k = 1; k < pre; ++k) {
                                    const float d = rng.uniform(0.0f, 45.0f);
                                    if (d < st.cut) {
                                        st.list.insert(
                                            bm3d::Match{k, 3, d});
                                        st.cut = std::min(
                                            st.cut,
                                            st.list.worstDistance());
                                    }
                                }
                            }
                            ReplayCase c;
                            for (int r = 0; r < lists; ++r) {
                                const int n = shape == 0   ? len
                                              : shape == 1 ? 1 + (len + r) %
                                                                     len
                                                           : 1;
                                c.target.push_back(
                                    shape == 1 ? (r * 5) % lists : r);
                                std::vector<float> d(n);
                                std::vector<uint32_t> p;
                                for (float &v : d)
                                    v = draw(source);
                                if (shape == 1)
                                    for (int j = 0; j < n; ++j)
                                        p.push_back(bm3d::MatchList::pack(
                                            static_cast<int>(rng.next() %
                                                             65536),
                                            static_cast<int>(rng.next() %
                                                             65536)));
                                c.dist.push_back(d);
                                c.pos.push_back(p);
                                c.pos0.push_back(bm3d::MatchList::pack(
                                    100 + r, 65535));
                            }
                            std::vector<ReplayState> want = init;
                            replayWithInsert(want, c, tau);
                            for (simd::Level level : availableLevels()) {
                                std::vector<ReplayState> got = init;
                                replayWithKernel(simd::kernelsFor(level),
                                                 got, c, tau);
                                SCOPED_TRACE(testing::Message()
                                             << "level="
                                             << simd::toString(level)
                                             << " cap=" << cap
                                             << " bound=" << bound
                                             << " tau=" << tau
                                             << " source=" << source
                                             << " shape=" << shape
                                             << " len=" << len);
                                for (int i = 0; i < lists; ++i)
                                    expectSameState(want[i], got[i], i);
                                if (HasFailure())
                                    return;
                            }
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 16 * 2 * 2 * 4 * 3 * 14);
}
