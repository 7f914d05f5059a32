/**
 * @file
 * AVX2 kernels (256-bit). The 8 canonical SSD lanes live in a single
 * __m256 whose extract/add/movehl fold is exactly the canonical tree;
 * the 4x4 DCT passes process two rows per register. The band-scan
 * rows are band_lanes.h's single source at 8 lanes. Compiled with
 * -mavx2 -ffp-contract=off (and no -mfma); bitwise parity with the
 * scalar table is enforced by tests/test_simd.cc.
 */

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/band_lanes.h"

namespace ideal {
namespace simd {
namespace detail {

namespace {

/**
 * Canonical fold of the 8 lanes of @p acc:
 * ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
 */
inline float
fold8(__m256 acc)
{
    const __m128 t = _mm_add_ps(_mm256_castps256_ps128(acc),
                                _mm256_extractf128_ps(acc, 1));
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    const __m128 r = _mm_add_ss(
        u, _mm_shuffle_ps(u, u, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
}

inline float
ssdBlock16(const float *a, const float *b)
{
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + 8), _mm256_loadu_ps(b + 8));
    const __m256 acc =
        _mm256_add_ps(_mm256_mul_ps(d0, d0), _mm256_mul_ps(d1, d1));
    return fold8(acc);
}

float
ssd(const float *a, const float *b, int len)
{
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 d =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    float r = fold8(acc);
    for (; i < len; ++i) {
        const float d = a[i] - b[i];
        r += d * d;
    }
    return r;
}

float
ssdFull(const float *a, const float *b, int len)
{
    float acc = 0.0f;
    int i = 0;
    for (; i + 16 <= len; i += 16)
        acc += ssdBlock16(a + i, b + i);
    for (; i < len; ++i) {
        const float d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

float
ssdBounded(const float *a, const float *b, int len, float bound)
{
    float acc = 0.0f;
    int i = 0;
    for (; i + 16 <= len; i += 16) {
        acc += ssdBlock16(a + i, b + i);
        if (acc > bound)
            return acc;
    }
    for (; i < len; ++i) {
        const float d = a[i] - b[i];
        acc += d * d;
        if (acc > bound)
            return acc;
    }
    return acc;
}

void
ssdBatch16(const float *ref, const float *cands, int count, float *out)
{
    const __m256 r0 = _mm256_loadu_ps(ref);
    const __m256 r1 = _mm256_loadu_ps(ref + 8);
    for (int i = 0; i < count; ++i) {
        const float *c = cands + 16 * i;
        const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(c), r0);
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(c + 8), r1);
        const __m256 acc =
            _mm256_add_ps(_mm256_mul_ps(d0, d0), _mm256_mul_ps(d1, d1));
        out[i] = fold8(acc);
    }
}

/**
 * Scalar canonical fold of 8 lanes (the SoA pair kernel walks strided
 * per-coefficient values, so there is nothing to vectorize — the
 * scalar sequence IS the reference order and keeps bitwise parity).
 */
inline float
fold8Scalar(const float s[8])
{
    const float t0 = s[0] + s[4];
    const float t1 = s[1] + s[5];
    const float t2 = s[2] + s[6];
    const float t3 = s[3] + s[7];
    const float u0 = t0 + t2;
    const float u1 = t1 + t3;
    return u0 + u1;
}

float
ssdSoa(const float *const *pa, size_t off_a, const float *const *pb,
       size_t off_b, int len, float bound)
{
    float acc = 0.0f;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        float s[8];
        for (int j = 0; j < 8; ++j) {
            const float d = pa[k + j][off_a] - pb[k + j][off_b];
            s[j] = d * d;
        }
        for (int j = 0; j < 8; ++j) {
            const float d = pa[k + 8 + j][off_a] - pb[k + 8 + j][off_b];
            s[j] += d * d;
        }
        acc += fold8Scalar(s);
        if (acc > bound)
            return acc;
    }
    for (; k < len; ++k) {
        const float d = pa[k][off_a] - pb[k][off_b];
        acc += d * d;
        if (acc > bound)
            return acc;
    }
    return acc;
}

/** One scalar SoA candidate (partial-vector batch tail). */
inline float
ssdSoaOne(const float *ref, const float *const *planes, size_t off,
          int len)
{
    float acc = 0.0f;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        float s[8];
        for (int j = 0; j < 8; ++j) {
            const float d = ref[k + j] - planes[k + j][off];
            s[j] = d * d;
        }
        for (int j = 0; j < 8; ++j) {
            const float d = ref[k + 8 + j] - planes[k + 8 + j][off];
            s[j] += d * d;
        }
        acc += fold8Scalar(s);
    }
    for (; k < len; ++k) {
        const float d = ref[k] - planes[k][off];
        acc += d * d;
    }
    return acc;
}

void
ssdSoaBatch(const float *ref, const float *const *planes, size_t off,
            int len, int count, float *out)
{
    // Eight candidates per pass: the 8 canonical accumulator lanes of
    // each candidate live across 8 __m256 registers (candidate =
    // vector lane); every coefficient plane is one contiguous 8-float
    // load and the block fold is purely vertical, so the per-lane
    // operation sequence equals the scalar reference exactly.
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const size_t o = off + static_cast<size_t>(i);
        __m256 acc = _mm256_setzero_ps();
        int k = 0;
        for (; k + 16 <= len; k += 16) {
            __m256 s[8];
            for (int j = 0; j < 8; ++j) {
                const __m256 d =
                    _mm256_sub_ps(_mm256_set1_ps(ref[k + j]),
                                  _mm256_loadu_ps(planes[k + j] + o));
                s[j] = _mm256_mul_ps(d, d);
            }
            for (int j = 0; j < 8; ++j) {
                const __m256 d =
                    _mm256_sub_ps(_mm256_set1_ps(ref[k + 8 + j]),
                                  _mm256_loadu_ps(planes[k + 8 + j] + o));
                s[j] = _mm256_add_ps(s[j], _mm256_mul_ps(d, d));
            }
            const __m256 u0 = _mm256_add_ps(_mm256_add_ps(s[0], s[4]),
                                            _mm256_add_ps(s[2], s[6]));
            const __m256 u1 = _mm256_add_ps(_mm256_add_ps(s[1], s[5]),
                                            _mm256_add_ps(s[3], s[7]));
            acc = _mm256_add_ps(acc, _mm256_add_ps(u0, u1));
        }
        for (; k < len; ++k) {
            const __m256 d =
                _mm256_sub_ps(_mm256_set1_ps(ref[k]),
                              _mm256_loadu_ps(planes[k] + o));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        _mm256_storeu_ps(out + i, acc);
    }
    for (; i < count; ++i)
        out[i] = ssdSoaOne(ref, planes, off + static_cast<size_t>(i), len);
}

/** [coef_lo broadcast | coef_hi broadcast] */
inline __m256
pair(float lo, float hi)
{
    return _mm256_set_m128(_mm_set1_ps(hi), _mm_set1_ps(lo));
}

/** low128(v) + high128(v), per lane. */
inline __m128
halfAdd(__m256 v)
{
    return _mm_add_ps(_mm256_castps256_ps128(v),
                      _mm256_extractf128_ps(v, 1));
}

inline void
dct4Pass(const float *in, float *out, const float *even, const float *odd)
{
    // [row0|row1] and [row3|row2] give S = [s0|s1], D = [d0|d1]
    // with one vertical add/sub each.
    const __m256 r01 = _mm256_loadu_ps(in);
    const __m256 r32 = _mm256_set_m128(_mm_loadu_ps(in + 8),
                                       _mm_loadu_ps(in + 12));
    const __m256 s = _mm256_add_ps(r01, r32);
    const __m256 d = _mm256_sub_ps(r01, r32);
    _mm_storeu_ps(out, halfAdd(_mm256_mul_ps(s, pair(even[0], even[1]))));
    _mm_storeu_ps(out + 4,
                  halfAdd(_mm256_mul_ps(d, pair(odd[0], odd[1]))));
    _mm_storeu_ps(out + 8,
                  halfAdd(_mm256_mul_ps(s, pair(even[2], even[3]))));
    _mm_storeu_ps(out + 12,
                  halfAdd(_mm256_mul_ps(d, pair(odd[2], odd[3]))));
}

inline void
dct4PassInv(const float *in, float *out, const float *even,
            const float *odd)
{
    // E = [e(i=0)|e(i=1)], O likewise; lo rows = E+O = [out0|out1],
    // hi rows = E-O = [out3|out2].
    const __m256 r0 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128 *>(in));
    const __m256 r1 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128 *>(in + 4));
    const __m256 r2 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128 *>(in + 8));
    const __m256 r3 = _mm256_broadcast_ps(
        reinterpret_cast<const __m128 *>(in + 12));
    const __m256 e =
        _mm256_add_ps(_mm256_mul_ps(pair(even[0], even[2]), r0),
                      _mm256_mul_ps(pair(even[1], even[3]), r2));
    const __m256 o =
        _mm256_add_ps(_mm256_mul_ps(pair(odd[0], odd[2]), r1),
                      _mm256_mul_ps(pair(odd[1], odd[3]), r3));
    const __m256 lo = _mm256_add_ps(e, o);
    const __m256 hi = _mm256_sub_ps(e, o);
    _mm256_storeu_ps(out, lo);
    _mm_storeu_ps(out + 12, _mm256_castps256_ps128(hi));
    _mm_storeu_ps(out + 8, _mm256_extractf128_ps(hi, 1));
}

inline void
transpose4(const float *in, float *out)
{
    __m128 r0 = _mm_loadu_ps(in);
    __m128 r1 = _mm_loadu_ps(in + 4);
    __m128 r2 = _mm_loadu_ps(in + 8);
    __m128 r3 = _mm_loadu_ps(in + 12);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(out, r0);
    _mm_storeu_ps(out + 4, r1);
    _mm_storeu_ps(out + 8, r2);
    _mm_storeu_ps(out + 12, r3);
}

void
dct4Forward(const float *in, float *out, const float *fwd_even,
            const float *fwd_odd)
{
    float t1[16], t2[16];
    dct4Pass(in, t1, fwd_even, fwd_odd);
    transpose4(t1, t2);
    dct4Pass(t2, out, fwd_even, fwd_odd);
}

void
dct4Inverse(const float *in, float *out, const float *inv_even,
            const float *inv_odd)
{
    float t1[16], t2[16];
    dct4PassInv(in, t1, inv_even, inv_odd);
    transpose4(t1, t2);
    dct4PassInv(t2, out, inv_even, inv_odd);
}

void
haarForwardPair(const float *even, const float *odd, float *approx,
                float *detail, float factor, int width)
{
    const __m256 f = _mm256_set1_ps(factor);
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        const __m256 e = _mm256_loadu_ps(even + c);
        const __m256 o = _mm256_loadu_ps(odd + c);
        _mm256_storeu_ps(approx + c,
                         _mm256_mul_ps(_mm256_add_ps(e, o), f));
        _mm256_storeu_ps(detail + c,
                         _mm256_mul_ps(_mm256_sub_ps(e, o), f));
    }
    for (; c < width; ++c) {
        const float e = even[c];
        const float o = odd[c];
        approx[c] = (e + o) * factor;
        detail[c] = (e - o) * factor;
    }
}

void
haarInversePair(const float *approx, const float *detail, float *out_even,
                float *out_odd, float factor, int width)
{
    const __m256 f = _mm256_set1_ps(factor);
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        const __m256 a = _mm256_loadu_ps(approx + c);
        const __m256 d = _mm256_loadu_ps(detail + c);
        _mm256_storeu_ps(out_even + c,
                         _mm256_mul_ps(_mm256_add_ps(a, d), f));
        _mm256_storeu_ps(out_odd + c,
                         _mm256_mul_ps(_mm256_sub_ps(a, d), f));
    }
    for (; c < width; ++c) {
        const float a = approx[c];
        const float d = detail[c];
        out_even[c] = (a + d) * factor;
        out_odd[c] = (a - d) * factor;
    }
}

int
hardThreshold(float *v, int count, float threshold)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 thr = _mm256_set1_ps(threshold);
    int kept = 0;
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 x = _mm256_loadu_ps(v + i);
        // |x| < thr (ordered: NaN compares false, so NaN is kept —
        // same as scalar std::abs(x) < thr).
        const __m256 below = _mm256_cmp_ps(_mm256_and_ps(x, abs_mask),
                                           thr, _CMP_LT_OQ);
        _mm256_storeu_ps(v + i, _mm256_andnot_ps(below, x));
        kept += 8 - _mm_popcnt_u32(static_cast<unsigned>(
                        _mm256_movemask_ps(below)));
    }
    for (; i < count; ++i) {
        if (std::fabs(v[i]) < threshold)
            v[i] = 0.0f;
        else
            ++kept;
    }
    return kept;
}

int
wienerApply(float *v, const float *b, float *w, int count, float sigma2)
{
    const __m256 s2 = _mm256_set1_ps(sigma2);
    const __m256 half = _mm256_set1_ps(0.5f);
    int strong = 0;
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 bv = _mm256_loadu_ps(b + i);
        const __m256 b2 = _mm256_mul_ps(bv, bv);
        const __m256 wv = _mm256_div_ps(b2, _mm256_add_ps(b2, s2));
        _mm256_storeu_ps(w + i, wv);
        _mm256_storeu_ps(v + i,
                         _mm256_mul_ps(_mm256_loadu_ps(v + i), wv));
        strong += _mm_popcnt_u32(static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(wv, half, _CMP_GT_OQ))));
    }
    for (; i < count; ++i) {
        const float b2 = b[i] * b[i];
        const float wi = b2 / (b2 + sigma2);
        w[i] = wi;
        v[i] *= wi;
        if (wi > 0.5f)
            ++strong;
    }
    return strong;
}

void
aggregateAdd(float *num, float *den, const float *pix, float weight,
             int count)
{
    const __m256 wv = _mm256_set1_ps(weight);
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 n = _mm256_loadu_ps(num + i);
        const __m256 p = _mm256_loadu_ps(pix + i);
        _mm256_storeu_ps(num + i,
                         _mm256_add_ps(n, _mm256_mul_ps(wv, p)));
        _mm256_storeu_ps(den + i,
                         _mm256_add_ps(_mm256_loadu_ps(den + i), wv));
    }
    for (; i < count; ++i) {
        num[i] += weight * pix[i];
        den[i] += weight;
    }
}

void
mergeAdd(float *num, float *den, const float *onum, const float *oden,
         int count)
{
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        _mm256_storeu_ps(num + i,
                         _mm256_add_ps(_mm256_loadu_ps(num + i),
                                       _mm256_loadu_ps(onum + i)));
        _mm256_storeu_ps(den + i,
                         _mm256_add_ps(_mm256_loadu_ps(den + i),
                                       _mm256_loadu_ps(oden + i)));
    }
    for (; i < count; ++i) {
        num[i] += onum[i];
        den[i] += oden[i];
    }
}

// ---- int16 kernels -----------------------------------------------
//
// _mm256_madd_epi16 accumulates 16 int16 lanes per instruction — the
// throughput win this path exists for. Integer adds commute mod 2^32,
// so lane/fold order is free; only the element semantics of the
// scalar reference must hold (and the intrinsics define them).

/** Scalar element helpers for tails (same bodies as the scalar TU). */
inline int16_t
diffI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(static_cast<uint16_t>(a) -
                                static_cast<uint16_t>(b));
}

inline uint32_t
sqI16(int16_t d)
{
    return static_cast<uint32_t>(static_cast<int32_t>(d) * d);
}

inline int16_t
satAddI16(int16_t a, int16_t b)
{
    const int32_t v = static_cast<int32_t>(a) + b;
    return static_cast<int16_t>(v > 32767 ? 32767 : (v < -32768 ? -32768 : v));
}

inline int16_t
satSubI16(int16_t a, int16_t b)
{
    const int32_t v = static_cast<int32_t>(a) - b;
    return static_cast<int16_t>(v > 32767 ? 32767 : (v < -32768 ? -32768 : v));
}

inline int16_t
mulhrsI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(
        (static_cast<int32_t>(a) * b + 0x4000) >> 15);
}

/** Wrapping horizontal sum of the 8 int32 lanes. */
inline uint32_t
hsumEpi32(__m256i v)
{
    __m128i t = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    t = _mm_add_epi32(t, _mm_srli_si128(t, 8));
    t = _mm_add_epi32(t, _mm_srli_si128(t, 4));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(t));
}

int32_t
ssdI16(const int16_t *a, const int16_t *b, int len)
{
    __m256i acc = _mm256_setzero_si256();
    int i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m256i d = _mm256_sub_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
    }
    uint32_t r = hsumEpi32(acc);
    for (; i < len; ++i)
        r += sqI16(diffI16(a[i], b[i]));
    return static_cast<int32_t>(r);
}

inline uint32_t
ssdBlock16I16(const int16_t *a, const int16_t *b)
{
    const __m256i d = _mm256_sub_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b)));
    return hsumEpi32(_mm256_madd_epi16(d, d));
}

int32_t
ssdBoundedI16(const int16_t *a, const int16_t *b, int len, int32_t bound)
{
    uint32_t acc = 0;
    int i = 0;
    for (; i + 16 <= len; i += 16) {
        acc += ssdBlock16I16(a + i, b + i);
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    for (; i < len; ++i) {
        acc += sqI16(diffI16(a[i], b[i]));
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    return static_cast<int32_t>(acc);
}

/** Strided gathers — scalar at every level (like the float ssdSoa). */
int32_t
ssdSoaI16(const int16_t *const *pa, size_t off_a, const int16_t *const *pb,
          size_t off_b, int len, int32_t bound)
{
    uint32_t acc = 0;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        for (int j = 0; j < 16; ++j)
            acc += sqI16(diffI16(pa[k + j][off_a], pb[k + j][off_b]));
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    for (; k < len; ++k) {
        acc += sqI16(diffI16(pa[k][off_a], pb[k][off_b]));
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    return static_cast<int32_t>(acc);
}

void
ssdSoaBatchI16(const int16_t *ref, const int16_t *const *planes,
               size_t off, int len, int count, int32_t *out)
{
    // Sixteen candidates per pass. Coefficient pairs (k, k+1) are
    // interleaved per 128-bit lane with unpacklo/hi so one madd
    // accumulates both squares per candidate:
    //   accA int32 lanes = candidates {0-3, 8-11},
    //   accB int32 lanes = candidates {4-7, 12-15};
    // permute2x128 relinearizes after the loop.
    const auto block16 = [&](size_t o, int32_t *dst) {
        __m256i accA = _mm256_setzero_si256();
        __m256i accB = _mm256_setzero_si256();
        int k = 0;
        for (; k + 2 <= len; k += 2) {
            const __m256i dk = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k] + o)));
            const __m256i dk1 = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k + 1]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k + 1] + o)));
            const __m256i lo = _mm256_unpacklo_epi16(dk, dk1);
            const __m256i hi = _mm256_unpackhi_epi16(dk, dk1);
            accA = _mm256_add_epi32(accA, _mm256_madd_epi16(lo, lo));
            accB = _mm256_add_epi32(accB, _mm256_madd_epi16(hi, hi));
        }
        __m256i out0 = _mm256_permute2x128_si256(accA, accB, 0x20);
        __m256i out1 = _mm256_permute2x128_si256(accA, accB, 0x31);
        if (k < len) { // odd trailing coefficient, linear layout
            const __m256i d = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k] + o)));
            const __m256i wa =
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(d));
            const __m256i wb =
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(d, 1));
            out0 = _mm256_add_epi32(out0, _mm256_mullo_epi32(wa, wa));
            out1 = _mm256_add_epi32(out1, _mm256_mullo_epi32(wb, wb));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), out0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 8), out1);
    };
    // Eight candidates per pass, for runs of 8-15 (window-13 rows):
    // the same interleave on 128-bit loads, the two halves joined into
    // one register, so the madd lanes come out linear.
    const auto block8 = [&](const int16_t *const *src, size_t o,
                            int32_t *dst) {
        __m256i acc = _mm256_setzero_si256();
        int k = 0;
        for (; k + 2 <= len; k += 2) {
            const __m128i dk = _mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src[k] + o)));
            const __m128i dk1 = _mm_sub_epi16(
                _mm_set1_epi16(ref[k + 1]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src[k + 1] + o)));
            const __m256i d = _mm256_set_m128i(_mm_unpackhi_epi16(dk, dk1),
                                               _mm_unpacklo_epi16(dk, dk1));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
        }
        if (k < len) { // odd trailing coefficient: widen and square
            const __m256i w = _mm256_cvtepi16_epi32(_mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src[k] + o))));
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(w, w));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), acc);
    };
    int i = 0;
    for (; i + 16 <= count; i += 16)
        block16(off + static_cast<size_t>(i), out + i);
    if (i == count)
        return;
    if (count >= 16) {
        // Overlapped final pass: recompute the last full window of 16
        // candidates instead of falling back to strided scalar
        // gathers. SSDs are pure per-candidate functions, so the
        // overlapping lanes just rewrite identical values.
        block16(off + static_cast<size_t>(count - 16), out + (count - 16));
    } else if (count >= 8) {
        block8(planes, off, out);
        block8(planes, off + static_cast<size_t>(count - 8),
               out + (count - 8)); // overlapped, as above
    } else {
        // Fewer than eight: copy the run into zero-padded 8-wide rows
        // (a plane may end right after it, so no wide load may reach
        // past) and keep the first count sums. len <= 64 coefs.
        int16_t rows[64][8] = {};
        const int16_t *row_ptrs[64];
        for (int k = 0; k < len && k < 64; ++k) {
            std::memcpy(rows[k], planes[k] + off,
                        static_cast<size_t>(count) * sizeof(int16_t));
            row_ptrs[k] = rows[k];
        }
        int32_t sums[8];
        block8(row_ptrs, 0, sums);
        std::memcpy(out, sums, static_cast<size_t>(count) * sizeof(int32_t));
    }
}

void
ssdPairBatchI16(const int16_t *ref, const int16_t *const *pair_planes,
                size_t off, int len, int count, int32_t *out)
{
    // The pair-interleaved layout is what the interleave dance in
    // ssdSoaBatchI16 exists to synthesize: one 256-bit load covers the
    // (2p, 2p+1) lanes of eight adjacent candidates and madd against
    // the broadcast reference pair yields eight already-linear int32
    // partial sums. Sixteen candidates per pass, two loads and two
    // madds per pair, zero shuffles.
    const int pairs = len / 2;
    __m256i rbc[32]; // ref pairs broadcast once; len <= 64 coefs
    for (int p = 0; p < pairs && p < 32; ++p) {
        const uint32_t packed =
            static_cast<uint16_t>(ref[2 * p]) |
            (static_cast<uint32_t>(static_cast<uint16_t>(ref[2 * p + 1]))
             << 16);
        rbc[p] = _mm256_set1_epi32(static_cast<int32_t>(packed));
    }
    const auto block16 = [&](size_t o2, int32_t *dst) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int p = 0; p < pairs; ++p) {
            const int16_t *base = pair_planes[p] + o2;
            const __m256i d0 = _mm256_sub_epi16(
                rbc[p], _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(base)));
            const __m256i d1 = _mm256_sub_epi16(
                rbc[p],
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(base + 16)));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0, d0));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d1, d1));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), acc0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 8), acc1);
    };
    // Eight candidates per pass over the int32 pair lanes selected by
    // @p mask: all eight for runs of 8-15 (window-13 rows), the first
    // count below that. Masked-out lanes are neither loaded nor
    // stored, so a short run never reads past its plane.
    const auto block8 = [&](size_t o2, __m256i mask, int32_t *dst) {
        __m256i acc = _mm256_setzero_si256();
        for (int p = 0; p < pairs; ++p) {
            const __m256i d = _mm256_sub_epi16(
                rbc[p], _mm256_maskload_epi32(
                            reinterpret_cast<const int *>(pair_planes[p] +
                                                          o2),
                            mask));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
        }
        _mm256_maskstore_epi32(reinterpret_cast<int *>(dst), mask, acc);
    };
    int i = 0;
    for (; i + 16 <= count; i += 16)
        block16(2 * (off + static_cast<size_t>(i)), out + i);
    if (i == count)
        return;
    if (count >= 16) {
        // Overlapped final pass (see ssdSoaBatchI16).
        block16(2 * (off + static_cast<size_t>(count - 16)),
                out + (count - 16));
    } else if (count >= 8) {
        const __m256i all = _mm256_set1_epi32(-1);
        block8(2 * off, all, out);
        block8(2 * (off + static_cast<size_t>(count - 8)), all,
               out + (count - 8)); // overlapped, as above
    } else {
        const __m256i mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(count), _mm256_setr_epi32(0, 1, 2, 3, 4, 5,
                                                        6, 7));
        block8(2 * off, mask, out);
    }
}

/** [set1(lo) | set1(hi)] as 8 int32 lanes. */
inline __m256i
pairI32(int lo, int hi)
{
    return _mm256_set_m128i(_mm_set1_epi32(hi), _mm_set1_epi32(lo));
}

/**
 * Int16 DCT row pass, two output rows per register: widen the four
 * input rows to int32, mirror fold, compute [row0|row2] from the sums
 * and [row1|row3] from the differences, rounded shift, then one
 * 256-bit packs_epi32 whose per-lane packing emits rows 0,1,2,3 in
 * order.
 */
inline void
dct4PassI16(const int16_t *in, int16_t *out, const int16_t *even,
            const int16_t *odd, int shift)
{
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m256i rnd = _mm256_set1_epi32(1 << (shift - 1));
    const __m128i r0 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in)));
    const __m128i r1 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 4)));
    const __m128i r2 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 8)));
    const __m128i r3 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 12)));
    const __m256i s0 =
        _mm256_broadcastsi128_si256(_mm_add_epi32(r0, r3));
    const __m256i s1 =
        _mm256_broadcastsi128_si256(_mm_add_epi32(r1, r2));
    const __m256i d0 =
        _mm256_broadcastsi128_si256(_mm_sub_epi32(r0, r3));
    const __m256i d1 =
        _mm256_broadcastsi128_si256(_mm_sub_epi32(r1, r2));
    const __m256i v02 = _mm256_add_epi32(
        _mm256_mullo_epi32(pairI32(even[0], even[2]), s0),
        _mm256_mullo_epi32(pairI32(even[1], even[3]), s1));
    const __m256i v13 = _mm256_add_epi32(
        _mm256_mullo_epi32(pairI32(odd[0], odd[2]), d0),
        _mm256_mullo_epi32(pairI32(odd[1], odd[3]), d1));
    const __m256i q02 =
        _mm256_sra_epi32(_mm256_add_epi32(v02, rnd), cnt);
    const __m256i q13 =
        _mm256_sra_epi32(_mm256_add_epi32(v13, rnd), cnt);
    // per lane: low = [row0, row1], high = [row2, row3]
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out),
                        _mm256_packs_epi32(q02, q13));
}

/** Pure permutation — bitwise-neutral, scalar is fine. */
inline void
transpose4I16(const int16_t *in, int16_t *out)
{
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            out[c * 4 + r] = in[r * 4 + c];
}

void
dct4ForwardI16(const int16_t *in, int16_t *out, const int16_t *even_q,
               const int16_t *odd_q, int shift1, int shift2)
{
    int16_t t1[16], t2[16];
    dct4PassI16(in, t1, even_q, odd_q, shift1);
    transpose4I16(t1, t2);
    dct4PassI16(t2, out, even_q, odd_q, shift2);
}

void
haarForwardPairI16(const int16_t *even, const int16_t *odd,
                   int16_t *approx, int16_t *detail, int16_t factor_q15,
                   int width)
{
    const __m256i f = _mm256_set1_epi16(factor_q15);
    int c = 0;
    for (; c + 16 <= width; c += 16) {
        const __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(even + c));
        const __m256i o = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(odd + c));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(approx + c),
            _mm256_mulhrs_epi16(_mm256_adds_epi16(e, o), f));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(detail + c),
            _mm256_mulhrs_epi16(_mm256_subs_epi16(e, o), f));
    }
    for (; c < width; ++c) {
        const int16_t e = even[c];
        const int16_t o = odd[c];
        approx[c] = mulhrsI16(satAddI16(e, o), factor_q15);
        detail[c] = mulhrsI16(satSubI16(e, o), factor_q15);
    }
}

void
haarInversePairI16(const int16_t *approx, const int16_t *detail,
                   int16_t *out_even, int16_t *out_odd, int16_t factor_q15,
                   int width)
{
    const __m256i f = _mm256_set1_epi16(factor_q15);
    int c = 0;
    for (; c + 16 <= width; c += 16) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(approx + c));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(detail + c));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out_even + c),
            _mm256_mulhrs_epi16(_mm256_adds_epi16(a, d), f));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out_odd + c),
            _mm256_mulhrs_epi16(_mm256_subs_epi16(a, d), f));
    }
    for (; c < width; ++c) {
        const int16_t a = approx[c];
        const int16_t d = detail[c];
        out_even[c] = mulhrsI16(satAddI16(a, d), factor_q15);
        out_odd[c] = mulhrsI16(satSubI16(a, d), factor_q15);
    }
}

int
hardThresholdI16(int16_t *v, int count, int16_t threshold)
{
    const __m256i thr = _mm256_set1_epi16(threshold);
    int kept = 0;
    int i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        // AVX2 has no cmplt: below = thr > abs(x).
        const __m256i below =
            _mm256_cmpgt_epi16(thr, _mm256_abs_epi16(x));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(v + i),
                            _mm256_andnot_si256(below, x));
        kept += 16 - _mm_popcnt_u32(static_cast<unsigned>(
                         _mm256_movemask_epi8(below))) /
                         2;
    }
    for (; i < count; ++i) {
        const int16_t av =
            v[i] < 0 ? static_cast<int16_t>(-static_cast<int32_t>(v[i]))
                     : v[i];
        if (av < threshold)
            v[i] = 0;
        else
            ++kept;
    }
    return kept;
}

// ---- fused group-major denoise kernels (DESIGN §12) --------------
//
// 8 coefficient lanes per __m256 step (16 int16 lanes), replaying the
// exact scalar butterfly schedule down the stack rows; every operation
// is lane-vertical with the same per-element expressions as the scalar
// TU, so the results match the scalar fused kernels bitwise. Scalar
// lane tails repeat the reference loops verbatim.

/** Scalar-lane tail of haarShrinkFused (same body as the scalar TU). */
inline int
haarShrinkLaneTail(float *lane, int stack, int stride, float threshold)
{
    const float factor = 1.0f / std::sqrt(2.0f);
    float buf[16];
    float dom[16];
    for (int i = 0; i < stack; ++i)
        buf[i] = lane[static_cast<size_t>(i) * stride];
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const float e = buf[2 * i];
            const float o = buf[2 * i + 1];
            dom[half + i] = (e - o) * factor;
            buf[i] = (e + o) * factor;
        }
        len = half;
    }
    dom[0] = buf[0];
    int kept = 0;
    for (int i = 0; i < stack; ++i) {
        if (std::fabs(dom[i]) < threshold)
            dom[i] = 0.0f;
        else
            ++kept;
    }
    buf[0] = dom[0];
    len = 1;
    while (len < stack) {
        float tmp[16];
        for (int i = 0; i < len; ++i) {
            const float a = buf[i];
            const float d = dom[len + i];
            tmp[2 * i] = (a + d) * factor;
            tmp[2 * i + 1] = (a - d) * factor;
        }
        len *= 2;
        for (int i = 0; i < len; ++i)
            buf[i] = tmp[i];
    }
    for (int i = 0; i < stack; ++i)
        lane[static_cast<size_t>(i) * stride] = buf[i];
    return kept;
}

/** Forward Haar butterfly schedule on stack rows held in registers. */
inline void
haarForwardStack(__m256 *buf, __m256 *dom, int stack, __m256 f)
{
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const __m256 e = buf[2 * i];
            const __m256 o = buf[2 * i + 1];
            dom[half + i] = _mm256_mul_ps(_mm256_sub_ps(e, o), f);
            buf[i] = _mm256_mul_ps(_mm256_add_ps(e, o), f);
        }
        len = half;
    }
    dom[0] = buf[0];
}

/** Inverse Haar butterfly schedule; rebuilds rows into @p buf. */
inline void
haarInverseStack(__m256 *buf, const __m256 *dom, int stack, __m256 f)
{
    buf[0] = dom[0];
    int len = 1;
    while (len < stack) {
        __m256 tmp[16];
        for (int i = 0; i < len; ++i) {
            const __m256 a = buf[i];
            const __m256 d = dom[len + i];
            tmp[2 * i] = _mm256_mul_ps(_mm256_add_ps(a, d), f);
            tmp[2 * i + 1] = _mm256_mul_ps(_mm256_sub_ps(a, d), f);
        }
        len *= 2;
        for (int i = 0; i < len; ++i)
            buf[i] = tmp[i];
    }
}

int
haarShrinkFused(float *g, int stack, int width, float threshold)
{
    const __m256 f = _mm256_set1_ps(1.0f / std::sqrt(2.0f));
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 thr = _mm256_set1_ps(threshold);
    int kept = 0;
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        __m256 buf[16];
        __m256 dom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] =
                _mm256_loadu_ps(g + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i) {
            const __m256 below = _mm256_cmp_ps(
                _mm256_and_ps(dom[i], abs_mask), thr, _CMP_LT_OQ);
            dom[i] = _mm256_andnot_ps(below, dom[i]);
            kept += 8 - _mm_popcnt_u32(static_cast<unsigned>(
                            _mm256_movemask_ps(below)));
        }
        haarInverseStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            _mm256_storeu_ps(g + static_cast<size_t>(i) * width + c,
                             buf[i]);
    }
    for (; c < width; ++c)
        kept += haarShrinkLaneTail(g + c, stack, width, threshold);
    return kept;
}

/** Scalar-lane tail of wienerShrinkFused. */
inline int
wienerShrinkLaneTail(float *lane, float *blane, float *wlane, int stack,
                     int stride, float sigma2)
{
    const float factor = 1.0f / std::sqrt(2.0f);
    float buf[16];
    float dom[16];
    float bdom[16];
    for (int i = 0; i < stack; ++i)
        buf[i] = lane[static_cast<size_t>(i) * stride];
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const float e = buf[2 * i];
            const float o = buf[2 * i + 1];
            dom[half + i] = (e - o) * factor;
            buf[i] = (e + o) * factor;
        }
        len = half;
    }
    dom[0] = buf[0];
    for (int i = 0; i < stack; ++i)
        buf[i] = blane[static_cast<size_t>(i) * stride];
    len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const float e = buf[2 * i];
            const float o = buf[2 * i + 1];
            bdom[half + i] = (e - o) * factor;
            buf[i] = (e + o) * factor;
        }
        len = half;
    }
    bdom[0] = buf[0];
    int strong = 0;
    for (int i = 0; i < stack; ++i) {
        const float b2 = bdom[i] * bdom[i];
        const float wi = b2 / (b2 + sigma2);
        wlane[static_cast<size_t>(i) * stride] = wi;
        blane[static_cast<size_t>(i) * stride] = bdom[i];
        dom[i] *= wi;
        if (wi > 0.5f)
            ++strong;
    }
    buf[0] = dom[0];
    len = 1;
    while (len < stack) {
        float tmp[16];
        for (int i = 0; i < len; ++i) {
            const float a = buf[i];
            const float d = dom[len + i];
            tmp[2 * i] = (a + d) * factor;
            tmp[2 * i + 1] = (a - d) * factor;
        }
        len *= 2;
        for (int i = 0; i < len; ++i)
            buf[i] = tmp[i];
    }
    for (int i = 0; i < stack; ++i)
        lane[static_cast<size_t>(i) * stride] = buf[i];
    return strong;
}

int
wienerShrinkFused(float *g, float *bg, float *w, int stack, int width,
                  float sigma2)
{
    const __m256 f = _mm256_set1_ps(1.0f / std::sqrt(2.0f));
    const __m256 s2 = _mm256_set1_ps(sigma2);
    const __m256 half = _mm256_set1_ps(0.5f);
    int strong = 0;
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        __m256 buf[16];
        __m256 dom[16];
        __m256 bdom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] =
                _mm256_loadu_ps(g + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            buf[i] =
                _mm256_loadu_ps(bg + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, bdom, stack, f);
        for (int i = 0; i < stack; ++i) {
            const __m256 b2 = _mm256_mul_ps(bdom[i], bdom[i]);
            const __m256 wv = _mm256_div_ps(b2, _mm256_add_ps(b2, s2));
            _mm256_storeu_ps(w + static_cast<size_t>(i) * width + c, wv);
            _mm256_storeu_ps(bg + static_cast<size_t>(i) * width + c,
                             bdom[i]);
            dom[i] = _mm256_mul_ps(dom[i], wv);
            strong += _mm_popcnt_u32(
                static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_cmp_ps(wv, half, _CMP_GT_OQ))));
        }
        haarInverseStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            _mm256_storeu_ps(g + static_cast<size_t>(i) * width + c,
                             buf[i]);
    }
    for (; c < width; ++c)
        strong += wienerShrinkLaneTail(g + c, bg + c, w + c, stack, width,
                                       sigma2);
    return strong;
}

void
aggregateGroup(float *num, float *den, int plane_w, const float *coefs,
               const int *lx, const int *ly, int stack, float weight,
               const float *inv_even, const float *inv_odd)
{
    // Patch rows are 4 floats — 128-bit adds, same element expressions
    // as the scalar reference (and as aggregateAdd's vector body).
    const __m128 wv = _mm_set1_ps(weight);
    float px[16];
    for (int i = 0; i < stack; ++i) {
        dct4Inverse(coefs + 16 * i, px, inv_even, inv_odd);
        for (int r = 0; r < 4; ++r) {
            const size_t off =
                static_cast<size_t>(ly[i] + r) * plane_w + lx[i];
            const __m128 p = _mm_loadu_ps(px + 4 * r);
            _mm_storeu_ps(num + off,
                          _mm_add_ps(_mm_loadu_ps(num + off),
                                     _mm_mul_ps(wv, p)));
            _mm_storeu_ps(den + off,
                          _mm_add_ps(_mm_loadu_ps(den + off), wv));
        }
    }
}

/** Scalar-lane tail of haarShrinkFusedI16. */
inline int
haarShrinkLaneTailI16(int16_t *lane, int stack, int stride,
                      int16_t threshold, int16_t factor_q15)
{
    int16_t buf[16];
    int16_t dom[16];
    for (int i = 0; i < stack; ++i)
        buf[i] = lane[static_cast<size_t>(i) * stride];
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const int16_t e = buf[2 * i];
            const int16_t o = buf[2 * i + 1];
            dom[half + i] = mulhrsI16(satSubI16(e, o), factor_q15);
            buf[i] = mulhrsI16(satAddI16(e, o), factor_q15);
        }
        len = half;
    }
    dom[0] = buf[0];
    int kept = 0;
    for (int i = 0; i < stack; ++i) {
        const int16_t av =
            dom[i] < 0
                ? static_cast<int16_t>(-static_cast<int32_t>(dom[i]))
                : dom[i];
        if (av < threshold)
            dom[i] = 0;
        else
            ++kept;
    }
    buf[0] = dom[0];
    len = 1;
    while (len < stack) {
        int16_t tmp[16];
        for (int i = 0; i < len; ++i) {
            const int16_t a = buf[i];
            const int16_t d = dom[len + i];
            tmp[2 * i] = mulhrsI16(satAddI16(a, d), factor_q15);
            tmp[2 * i + 1] = mulhrsI16(satSubI16(a, d), factor_q15);
        }
        len *= 2;
        for (int i = 0; i < len; ++i)
            buf[i] = tmp[i];
    }
    for (int i = 0; i < stack; ++i)
        lane[static_cast<size_t>(i) * stride] = buf[i];
    return kept;
}

int
haarShrinkFusedI16(int16_t *g, int stack, int width, int16_t threshold,
                   int16_t factor_q15)
{
    const __m256i f = _mm256_set1_epi16(factor_q15);
    const __m256i thr = _mm256_set1_epi16(threshold);
    int kept = 0;
    int c = 0;
    for (; c + 16 <= width; c += 16) {
        __m256i buf[16];
        __m256i dom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                g + static_cast<size_t>(i) * width + c));
        int len = stack;
        while (len > 1) {
            const int half = len / 2;
            for (int i = 0; i < half; ++i) {
                const __m256i e = buf[2 * i];
                const __m256i o = buf[2 * i + 1];
                dom[half + i] =
                    _mm256_mulhrs_epi16(_mm256_subs_epi16(e, o), f);
                buf[i] =
                    _mm256_mulhrs_epi16(_mm256_adds_epi16(e, o), f);
            }
            len = half;
        }
        dom[0] = buf[0];
        for (int i = 0; i < stack; ++i) {
            // AVX2 has no cmplt: below = thr > abs(x).
            const __m256i below =
                _mm256_cmpgt_epi16(thr, _mm256_abs_epi16(dom[i]));
            dom[i] = _mm256_andnot_si256(below, dom[i]);
            kept += 16 - _mm_popcnt_u32(static_cast<unsigned>(
                             _mm256_movemask_epi8(below))) /
                             2;
        }
        buf[0] = dom[0];
        len = 1;
        while (len < stack) {
            __m256i tmp[16];
            for (int i = 0; i < len; ++i) {
                const __m256i a = buf[i];
                const __m256i d = dom[len + i];
                tmp[2 * i] =
                    _mm256_mulhrs_epi16(_mm256_adds_epi16(a, d), f);
                tmp[2 * i + 1] =
                    _mm256_mulhrs_epi16(_mm256_subs_epi16(a, d), f);
            }
            len *= 2;
            for (int i = 0; i < len; ++i)
                buf[i] = tmp[i];
        }
        for (int i = 0; i < stack; ++i)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(
                                    g + static_cast<size_t>(i) * width + c),
                                buf[i]);
    }
    for (; c < width; ++c)
        kept += haarShrinkLaneTailI16(g + c, stack, width, threshold,
                                      factor_q15);
    return kept;
}

/**
 * matchReplay with the list held in registers across a run, like the
 * BM engine's shift-register queue MQ (paper Fig. 6): per 8
 * candidates one compare against the cutoff yields the hit mask, and
 * each hit compares against all 16 slots at once and shifts in one
 * step. For a sorted list, inserting d after every slot <= d is
 *   slot[i] = max(slot[i - 1], min(d, slot[i]))
 * with slot[-1] = -inf: below the insert position the min keeps the slot,
 * at it both give d, above it the max takes the shifted slot. The
 * operand order makes ties keep the held value's bits (min_ps / max_ps
 * return their second operand on equality), as matchInsert does, and
 * the position lanes follow the same two compares. A list built by
 * this rule holds no NaN, which the compares rely on. Lanes at or past
 * the capacity may take shifted-out values inside the loop; no lane
 * below it ever reads them, and the store resets them to +inf / 0.
 */
void
matchReplay(const MatchRun *runs, int n, float tau)
{
    const __m256i lane_lo = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i lane_hi = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
    const __m256i up_one = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
    const __m256i top = _mm256_set1_epi32(7);
    const __m256 vtau = _mm256_set1_ps(tau);
    const __m256 neg_inf = _mm256_set1_ps(-INFINITY);
    for (int r = 0; r < n; ++r) {
        const MatchRun &run = runs[r];
        MatchSlots &list = *run.list;
        __m256 d0 = _mm256_loadu_ps(list.dist);
        __m256 d1 = _mm256_loadu_ps(list.dist + 8);
        __m256i p0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(list.pos));
        __m256i p1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(list.pos + 8));
        const int cap = list.capacity;
        const __m256i worst_lane = _mm256_set1_epi32((cap - 1) & 7);
        int size = list.size;
        float cut = *run.cut;
        int32_t pruned = *run.pruned;
        for (int j0 = 0; j0 < run.count; j0 += 8) {
            const int m = std::min(8, run.count - j0);
            const __m256 v =
                m == 8 ? _mm256_loadu_ps(run.dist + j0)
                       : _mm256_maskload_ps(
                             run.dist + j0,
                             _mm256_cmpgt_epi32(_mm256_set1_epi32(m),
                                                lane_lo));
            const unsigned valid = (1u << m) - 1u;
            unsigned hit = static_cast<unsigned>(_mm256_movemask_ps(
                               _mm256_cmp_ps(v, _mm256_set1_ps(cut),
                                             _CMP_LT_OQ))) &
                           valid;
            const unsigned below_tau =
                static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_cmp_ps(v, vtau, _CMP_LT_OQ))) &
                valid;
            // Lanes that miss the cutoff at the start of the group miss
            // every later (tighter) cutoff too.
            pruned += _mm_popcnt_u32(below_tau & ~hit);
            while (hit != 0) {
                const int k = __builtin_ctz(hit);
                hit &= hit - 1u;
                const float d = run.dist[j0 + k];
                if (!(d < cut)) {
                    pruned += d < tau ? 1 : 0;
                    continue;
                }
                const uint32_t pos =
                    run.pos != nullptr
                        ? run.pos[j0 + k]
                        : run.pos0 + static_cast<uint32_t>(j0 + k);
                const __m256 dv = _mm256_set1_ps(d);
                const __m256i vpos = _mm256_set1_epi32(static_cast<int>(pos));
                // Shifted lists: lane i holds slot i - 1 (slot -1 =
                // -inf; its position lane is never selected).
                const __m256 s0 = _mm256_blend_ps(
                    _mm256_permutevar8x32_ps(d0, up_one), neg_inf, 1);
                const __m256 s1 = _mm256_blend_ps(
                    _mm256_permutevar8x32_ps(d1, up_one),
                    _mm256_permutevar8x32_ps(d0, top), 1);
                const __m256i sp0 = _mm256_permutevar8x32_epi32(p0, up_one);
                const __m256i sp1 = _mm256_blend_epi32(
                    _mm256_permutevar8x32_epi32(p1, up_one),
                    _mm256_permutevar8x32_epi32(p0, top), 1);
                // at0/at1: slot > d (at or above the insert position);
                // up0/up1: slot - 1 > d (above it).
                const __m256 at0 = _mm256_cmp_ps(dv, d0, _CMP_LT_OQ);
                const __m256 at1 = _mm256_cmp_ps(dv, d1, _CMP_LT_OQ);
                const __m256 up0 = _mm256_cmp_ps(dv, s0, _CMP_LT_OQ);
                const __m256 up1 = _mm256_cmp_ps(dv, s1, _CMP_LT_OQ);
                d0 = _mm256_max_ps(s0, _mm256_min_ps(dv, d0));
                d1 = _mm256_max_ps(s1, _mm256_min_ps(dv, d1));
                p0 = _mm256_blendv_epi8(
                    _mm256_blendv_epi8(p0, vpos, _mm256_castps_si256(at0)),
                    sp0, _mm256_castps_si256(up0));
                p1 = _mm256_blendv_epi8(
                    _mm256_blendv_epi8(p1, vpos, _mm256_castps_si256(at1)),
                    sp1, _mm256_castps_si256(up1));
                size += size < cap ? 1 : 0;
                if (size == cap) {
                    const float worst = _mm256_cvtss_f32(
                        _mm256_permutevar8x32_ps(cap > 8 ? d1 : d0,
                                                 worst_lane));
                    cut = std::min(cut, worst);
                }
            }
        }
        if (cap < MatchSlots::kCapacity) {
            const __m256i vcap = _mm256_set1_epi32(cap);
            const __m256i in0 = _mm256_cmpgt_epi32(vcap, lane_lo);
            const __m256i in1 = _mm256_cmpgt_epi32(vcap, lane_hi);
            const __m256 inf = _mm256_set1_ps(INFINITY);
            d0 = _mm256_blendv_ps(inf, d0, _mm256_castsi256_ps(in0));
            d1 = _mm256_blendv_ps(inf, d1, _mm256_castsi256_ps(in1));
            p0 = _mm256_and_si256(p0, in0);
            p1 = _mm256_and_si256(p1, in1);
        }
        _mm256_storeu_ps(list.dist, d0);
        _mm256_storeu_ps(list.dist + 8, d1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(list.pos), p0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(list.pos + 8), p1);
        list.size = size;
        *run.cut = cut;
        *run.pruned = pruned;
    }
}

const KernelTable kAvx2TableStorage = {
    ssd,           ssdBounded,      ssdFull,       ssdBatch16,
    ssdSoa,        ssdSoaBatch,     dct4Forward,   dct4Inverse,
    haarForwardPair, haarInversePair, hardThreshold, wienerApply,
    aggregateAdd,  mergeAdd,
    ssdI16,        ssdBoundedI16,   ssdSoaI16,     ssdSoaBatchI16,
    ssdPairBatchI16,
    dct4ForwardI16, haarForwardPairI16, haarInversePairI16,
    hardThresholdI16,
    haarShrinkFused, wienerShrinkFused, aggregateGroup,
    haarShrinkFusedI16,
    bandSqDiff<Avx2Lanes>, bandColSum4<Avx2Lanes>,
    bandFoldSelect<Avx2Lanes>, bm1LaneScan<Avx2Lanes>,
    matchReplay,   Avx2Lanes::kWidth,
};

} // namespace

const KernelTable &kAvx2Table = kAvx2TableStorage;

} // namespace detail
} // namespace simd
} // namespace ideal

#else // !x86

namespace ideal {
namespace simd {
namespace detail {

const KernelTable &kAvx2Table = kScalarTable;

} // namespace detail
} // namespace simd
} // namespace ideal

#endif
