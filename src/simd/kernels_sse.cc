/**
 * @file
 * SSE4.2 kernels (128-bit). The 8 canonical SSD lanes live in two
 * __m128 accumulators; every vertical kernel processes 4 lanes per
 * step with scalar tails that repeat the reference order. Compiled
 * with -msse4.2 -ffp-contract=off; bitwise parity with the scalar
 * table is enforced by tests/test_simd.cc.
 */

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <nmmintrin.h>

#include <algorithm>
#include <array>
#include <cmath>

namespace ideal {
namespace simd {
namespace detail {

namespace {

/** Fold [t0..t3] as (t0+t2) + (t1+t3) — the canonical 128-bit fold. */
inline float
fold4(__m128 t)
{
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    const __m128 r = _mm_add_ss(
        u, _mm_shuffle_ps(u, u, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
}

/** Fold the two 4-lane halves of the canonical 8-lane tree. */
inline float
fold8(__m128 lo, __m128 hi)
{
    return fold4(_mm_add_ps(lo, hi));
}

inline void
ssdStep8(const float *a, const float *b, __m128 &lo, __m128 &hi)
{
    const __m128 d0 = _mm_sub_ps(_mm_loadu_ps(a), _mm_loadu_ps(b));
    const __m128 d1 = _mm_sub_ps(_mm_loadu_ps(a + 4), _mm_loadu_ps(b + 4));
    lo = _mm_add_ps(lo, _mm_mul_ps(d0, d0));
    hi = _mm_add_ps(hi, _mm_mul_ps(d1, d1));
}

inline float
ssdBlock16(const float *a, const float *b)
{
    const __m128 d0 = _mm_sub_ps(_mm_loadu_ps(a), _mm_loadu_ps(b));
    const __m128 d1 = _mm_sub_ps(_mm_loadu_ps(a + 4), _mm_loadu_ps(b + 4));
    const __m128 d2 = _mm_sub_ps(_mm_loadu_ps(a + 8), _mm_loadu_ps(b + 8));
    const __m128 d3 =
        _mm_sub_ps(_mm_loadu_ps(a + 12), _mm_loadu_ps(b + 12));
    const __m128 lo =
        _mm_add_ps(_mm_mul_ps(d0, d0), _mm_mul_ps(d2, d2));
    const __m128 hi =
        _mm_add_ps(_mm_mul_ps(d1, d1), _mm_mul_ps(d3, d3));
    return fold8(lo, hi);
}

float
ssd(const float *a, const float *b, int len)
{
    __m128 lo = _mm_setzero_ps();
    __m128 hi = _mm_setzero_ps();
    int i = 0;
    for (; i + 8 <= len; i += 8)
        ssdStep8(a + i, b + i, lo, hi);
    float r = fold8(lo, hi);
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
    const __m128 r0 = _mm_loadu_ps(ref);
    const __m128 r1 = _mm_loadu_ps(ref + 4);
    const __m128 r2 = _mm_loadu_ps(ref + 8);
    const __m128 r3 = _mm_loadu_ps(ref + 12);
    for (int i = 0; i < count; ++i) {
        const float *c = cands + 16 * i;
        const __m128 d0 = _mm_sub_ps(_mm_loadu_ps(c), r0);
        const __m128 d1 = _mm_sub_ps(_mm_loadu_ps(c + 4), r1);
        const __m128 d2 = _mm_sub_ps(_mm_loadu_ps(c + 8), r2);
        const __m128 d3 = _mm_sub_ps(_mm_loadu_ps(c + 12), r3);
        const __m128 lo =
            _mm_add_ps(_mm_mul_ps(d0, d0), _mm_mul_ps(d2, d2));
        const __m128 hi =
            _mm_add_ps(_mm_mul_ps(d1, d1), _mm_mul_ps(d3, d3));
        out[i] = fold8(lo, hi);
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
    // Four candidates per pass: the 8 canonical accumulator lanes of
    // each candidate live across 8 __m128 registers (candidate =
    // vector lane), so the block fold is purely vertical and the
    // per-lane operation sequence equals the scalar reference exactly.
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        const size_t o = off + static_cast<size_t>(i);
        __m128 acc = _mm_setzero_ps();
        int k = 0;
        for (; k + 16 <= len; k += 16) {
            __m128 s[8];
            for (int j = 0; j < 8; ++j) {
                const __m128 d =
                    _mm_sub_ps(_mm_set1_ps(ref[k + j]),
                               _mm_loadu_ps(planes[k + j] + o));
                s[j] = _mm_mul_ps(d, d);
            }
            for (int j = 0; j < 8; ++j) {
                const __m128 d =
                    _mm_sub_ps(_mm_set1_ps(ref[k + 8 + j]),
                               _mm_loadu_ps(planes[k + 8 + j] + o));
                s[j] = _mm_add_ps(s[j], _mm_mul_ps(d, d));
            }
            const __m128 u0 = _mm_add_ps(_mm_add_ps(s[0], s[4]),
                                         _mm_add_ps(s[2], s[6]));
            const __m128 u1 = _mm_add_ps(_mm_add_ps(s[1], s[5]),
                                         _mm_add_ps(s[3], s[7]));
            acc = _mm_add_ps(acc, _mm_add_ps(u0, u1));
        }
        for (; k < len; ++k) {
            const __m128 d = _mm_sub_ps(_mm_set1_ps(ref[k]),
                                        _mm_loadu_ps(planes[k] + o));
            acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
        }
        _mm_storeu_ps(out + i, acc);
    }
    for (; i < count; ++i)
        out[i] = ssdSoaOne(ref, planes, off + static_cast<size_t>(i), len);
}

inline void
dct4Pass(const float *in, float *out, const float *even, const float *odd)
{
    const __m128 r0 = _mm_loadu_ps(in);
    const __m128 r1 = _mm_loadu_ps(in + 4);
    const __m128 r2 = _mm_loadu_ps(in + 8);
    const __m128 r3 = _mm_loadu_ps(in + 12);
    const __m128 s0 = _mm_add_ps(r0, r3);
    const __m128 s1 = _mm_add_ps(r1, r2);
    const __m128 d0 = _mm_sub_ps(r0, r3);
    const __m128 d1 = _mm_sub_ps(r1, r2);
    _mm_storeu_ps(out,
                  _mm_add_ps(_mm_mul_ps(_mm_set1_ps(even[0]), s0),
                             _mm_mul_ps(_mm_set1_ps(even[1]), s1)));
    _mm_storeu_ps(out + 4,
                  _mm_add_ps(_mm_mul_ps(_mm_set1_ps(odd[0]), d0),
                             _mm_mul_ps(_mm_set1_ps(odd[1]), d1)));
    _mm_storeu_ps(out + 8,
                  _mm_add_ps(_mm_mul_ps(_mm_set1_ps(even[2]), s0),
                             _mm_mul_ps(_mm_set1_ps(even[3]), s1)));
    _mm_storeu_ps(out + 12,
                  _mm_add_ps(_mm_mul_ps(_mm_set1_ps(odd[2]), d0),
                             _mm_mul_ps(_mm_set1_ps(odd[3]), d1)));
}

inline void
dct4PassInv(const float *in, float *out, const float *even,
            const float *odd)
{
    const __m128 r0 = _mm_loadu_ps(in);
    const __m128 r1 = _mm_loadu_ps(in + 4);
    const __m128 r2 = _mm_loadu_ps(in + 8);
    const __m128 r3 = _mm_loadu_ps(in + 12);
    for (int i = 0; i < 2; ++i) {
        const __m128 e =
            _mm_add_ps(_mm_mul_ps(_mm_set1_ps(even[2 * i]), r0),
                       _mm_mul_ps(_mm_set1_ps(even[2 * i + 1]), r2));
        const __m128 o =
            _mm_add_ps(_mm_mul_ps(_mm_set1_ps(odd[2 * i]), r1),
                       _mm_mul_ps(_mm_set1_ps(odd[2 * i + 1]), r3));
        _mm_storeu_ps(out + 4 * i, _mm_add_ps(e, o));
        _mm_storeu_ps(out + 4 * (3 - i), _mm_sub_ps(e, o));
    }
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
    const __m128 f = _mm_set1_ps(factor);
    int c = 0;
    for (; c + 4 <= width; c += 4) {
        const __m128 e = _mm_loadu_ps(even + c);
        const __m128 o = _mm_loadu_ps(odd + c);
        _mm_storeu_ps(approx + c, _mm_mul_ps(_mm_add_ps(e, o), f));
        _mm_storeu_ps(detail + c, _mm_mul_ps(_mm_sub_ps(e, o), f));
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
    const __m128 f = _mm_set1_ps(factor);
    int c = 0;
    for (; c + 4 <= width; c += 4) {
        const __m128 a = _mm_loadu_ps(approx + c);
        const __m128 d = _mm_loadu_ps(detail + c);
        _mm_storeu_ps(out_even + c, _mm_mul_ps(_mm_add_ps(a, d), f));
        _mm_storeu_ps(out_odd + c, _mm_mul_ps(_mm_sub_ps(a, d), f));
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
    const __m128 abs_mask =
        _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    const __m128 thr = _mm_set1_ps(threshold);
    int kept = 0;
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m128 x = _mm_loadu_ps(v + i);
        // below = |x| < thr (NaN compares false, i.e. NaN is kept —
        // same as the scalar std::abs(x) < thr).
        const __m128 below = _mm_cmplt_ps(_mm_and_ps(x, abs_mask), thr);
        _mm_storeu_ps(v + i, _mm_andnot_ps(below, x));
        kept += 4 - _mm_popcnt_u32(
                        static_cast<unsigned>(_mm_movemask_ps(below)));
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
    const __m128 s2 = _mm_set1_ps(sigma2);
    const __m128 half = _mm_set1_ps(0.5f);
    int strong = 0;
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m128 bv = _mm_loadu_ps(b + i);
        const __m128 b2 = _mm_mul_ps(bv, bv);
        const __m128 wv = _mm_div_ps(b2, _mm_add_ps(b2, s2));
        _mm_storeu_ps(w + i, wv);
        _mm_storeu_ps(v + i, _mm_mul_ps(_mm_loadu_ps(v + i), wv));
        strong += _mm_popcnt_u32(static_cast<unsigned>(
            _mm_movemask_ps(_mm_cmpgt_ps(wv, half))));
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
    const __m128 wv = _mm_set1_ps(weight);
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m128 n = _mm_loadu_ps(num + i);
        const __m128 p = _mm_loadu_ps(pix + i);
        _mm_storeu_ps(num + i, _mm_add_ps(n, _mm_mul_ps(wv, p)));
        _mm_storeu_ps(den + i,
                      _mm_add_ps(_mm_loadu_ps(den + i), wv));
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
    for (; i + 4 <= count; i += 4) {
        _mm_storeu_ps(num + i, _mm_add_ps(_mm_loadu_ps(num + i),
                                          _mm_loadu_ps(onum + i)));
        _mm_storeu_ps(den + i, _mm_add_ps(_mm_loadu_ps(den + i),
                                          _mm_loadu_ps(oden + i)));
    }
    for (; i < count; ++i) {
        num[i] += onum[i];
        den[i] += oden[i];
    }
}

// ---- int16 kernels -----------------------------------------------
//
// Integer adds commute mod 2^32, so these are free to fold in any
// lane order; only the element-level semantics (wrapping diffs,
// mulhrs rounding, pack-point saturation) must match the scalar
// reference — and the intrinsics ARE that reference.

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

/** Wrapping horizontal sum of the 4 int32 lanes. */
inline uint32_t
hsumEpi32(__m128i v)
{
    __m128i t = _mm_add_epi32(v, _mm_srli_si128(v, 8));
    t = _mm_add_epi32(t, _mm_srli_si128(t, 4));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(t));
}

int32_t
ssdI16(const int16_t *a, const int16_t *b, int len)
{
    __m128i acc = _mm_setzero_si128();
    int i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m128i d = _mm_sub_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + i)),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + i)));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(d, d));
    }
    uint32_t r = hsumEpi32(acc);
    for (; i < len; ++i)
        r += sqI16(diffI16(a[i], b[i]));
    return static_cast<int32_t>(r);
}

inline uint32_t
ssdBlock16I16(const int16_t *a, const int16_t *b)
{
    const __m128i d0 = _mm_sub_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(a)),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(b)));
    const __m128i d1 = _mm_sub_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + 8)),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + 8)));
    return hsumEpi32(
        _mm_add_epi32(_mm_madd_epi16(d0, d0), _mm_madd_epi16(d1, d1)));
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

inline int32_t
ssdSoaOneI16(const int16_t *ref, const int16_t *const *planes, size_t off,
             int len)
{
    uint32_t acc = 0;
    for (int k = 0; k < len; ++k)
        acc += sqI16(diffI16(ref[k], planes[k][off]));
    return static_cast<int32_t>(acc);
}

void
ssdSoaBatchI16(const int16_t *ref, const int16_t *const *planes,
               size_t off, int len, int count, int32_t *out)
{
    // Eight candidates per pass. Coefficient pairs (k, k+1) are
    // interleaved with unpacklo/hi so one madd accumulates both
    // squares per candidate: accA holds candidates 0-3, accB 4-7.
    const auto block8 = [&](size_t o, int32_t *dst) {
        __m128i accA = _mm_setzero_si128();
        __m128i accB = _mm_setzero_si128();
        int k = 0;
        for (; k + 2 <= len; k += 2) {
            const __m128i dk = _mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k] + o)));
            const __m128i dk1 = _mm_sub_epi16(
                _mm_set1_epi16(ref[k + 1]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k + 1] + o)));
            const __m128i lo = _mm_unpacklo_epi16(dk, dk1);
            const __m128i hi = _mm_unpackhi_epi16(dk, dk1);
            accA = _mm_add_epi32(accA, _mm_madd_epi16(lo, lo));
            accB = _mm_add_epi32(accB, _mm_madd_epi16(hi, hi));
        }
        if (k < len) { // odd trailing coefficient: widen and square
            const __m128i d = _mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k] + o)));
            const __m128i wa = _mm_cvtepi16_epi32(d);
            const __m128i wb = _mm_cvtepi16_epi32(_mm_srli_si128(d, 8));
            accA = _mm_add_epi32(accA, _mm_mullo_epi32(wa, wa));
            accB = _mm_add_epi32(accB, _mm_mullo_epi32(wb, wb));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), accA);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 4), accB);
    };
    int i = 0;
    for (; i + 8 <= count; i += 8)
        block8(off + static_cast<size_t>(i), out + i);
    if (i < count) {
        if (count >= 8) {
            // Overlapped final pass: recompute the last full window of
            // 8 candidates instead of falling back to strided scalar
            // gathers. SSDs are pure per-candidate functions, so the
            // overlapping lanes just rewrite identical values.
            block8(off + static_cast<size_t>(count - 8),
                   out + (count - 8));
        } else {
            for (; i < count; ++i)
                out[i] = ssdSoaOneI16(ref, planes,
                                      off + static_cast<size_t>(i), len);
        }
    }
}

inline int32_t
ssdPairOneI16(const int16_t *ref, const int16_t *const *pair_planes,
              size_t o2, int len)
{
    uint32_t acc = 0;
    for (int p = 0; p + 2 <= len; p += 2) {
        const int16_t *plane = pair_planes[p / 2];
        acc += sqI16(diffI16(ref[p], plane[o2]));
        acc += sqI16(diffI16(ref[p + 1], plane[o2 + 1]));
    }
    return static_cast<int32_t>(acc);
}

void
ssdPairBatchI16(const int16_t *ref, const int16_t *const *pair_planes,
                size_t off, int len, int count, int32_t *out)
{
    // Pair-interleaved layout: one 128-bit load covers the (2p, 2p+1)
    // lanes of four adjacent candidates; madd against the broadcast
    // reference pair yields four already-linear int32 partial sums.
    // Eight candidates per pass, no shuffles.
    const int pairs = len / 2;
    __m128i rbc[32]; // ref pairs broadcast once; len <= 64 coefs
    for (int p = 0; p < pairs && p < 32; ++p) {
        const uint32_t packed =
            static_cast<uint16_t>(ref[2 * p]) |
            (static_cast<uint32_t>(static_cast<uint16_t>(ref[2 * p + 1]))
             << 16);
        rbc[p] = _mm_set1_epi32(static_cast<int32_t>(packed));
    }
    const auto block8 = [&](size_t o2, int32_t *dst) {
        __m128i acc0 = _mm_setzero_si128();
        __m128i acc1 = _mm_setzero_si128();
        for (int p = 0; p < pairs; ++p) {
            const int16_t *base = pair_planes[p] + o2;
            const __m128i d0 = _mm_sub_epi16(
                rbc[p], _mm_loadu_si128(
                            reinterpret_cast<const __m128i *>(base)));
            const __m128i d1 = _mm_sub_epi16(
                rbc[p], _mm_loadu_si128(
                            reinterpret_cast<const __m128i *>(base + 8)));
            acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(d0, d0));
            acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(d1, d1));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), acc0);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 4), acc1);
    };
    int i = 0;
    for (; i + 8 <= count; i += 8)
        block8(2 * (off + static_cast<size_t>(i)), out + i);
    if (i < count) {
        if (count >= 8) {
            // Overlapped final pass (see ssdSoaBatchI16).
            block8(2 * (off + static_cast<size_t>(count - 8)),
                   out + (count - 8));
        } else {
            for (; i < count; ++i)
                out[i] = ssdPairOneI16(
                    ref, pair_planes,
                    2 * (off + static_cast<size_t>(i)), len);
        }
    }
}

/**
 * Int16 DCT row pass: widen to int32, mirror fold, coefficient
 * products in int32, rounded shift, saturating pack (packs_epi32 is
 * the pack-point semantics of the contract).
 */
inline void
dct4PassI16(const int16_t *in, int16_t *out, const int16_t *even,
            const int16_t *odd, int shift)
{
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m128i rnd = _mm_set1_epi32(1 << (shift - 1));
    const __m128i r0 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in)));
    const __m128i r1 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 4)));
    const __m128i r2 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 8)));
    const __m128i r3 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 12)));
    const __m128i s0 = _mm_add_epi32(r0, r3);
    const __m128i s1 = _mm_add_epi32(r1, r2);
    const __m128i d0 = _mm_sub_epi32(r0, r3);
    const __m128i d1 = _mm_sub_epi32(r1, r2);
    const auto row = [&](int c0, int c1, __m128i x, __m128i y) {
        const __m128i v = _mm_add_epi32(
            _mm_mullo_epi32(_mm_set1_epi32(c0), x),
            _mm_mullo_epi32(_mm_set1_epi32(c1), y));
        return _mm_sra_epi32(_mm_add_epi32(v, rnd), cnt);
    };
    const __m128i o0 = row(even[0], even[1], s0, s1);
    const __m128i o1 = row(odd[0], odd[1], d0, d1);
    const __m128i o2 = row(even[2], even[3], s0, s1);
    const __m128i o3 = row(odd[2], odd[3], d0, d1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                     _mm_packs_epi32(o0, o1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 8),
                     _mm_packs_epi32(o2, o3));
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
    const __m128i f = _mm_set1_epi16(factor_q15);
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        const __m128i e = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(even + c));
        const __m128i o = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(odd + c));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(approx + c),
                         _mm_mulhrs_epi16(_mm_adds_epi16(e, o), f));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(detail + c),
                         _mm_mulhrs_epi16(_mm_subs_epi16(e, o), f));
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
    const __m128i f = _mm_set1_epi16(factor_q15);
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(approx + c));
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(detail + c));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out_even + c),
                         _mm_mulhrs_epi16(_mm_adds_epi16(a, d), f));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out_odd + c),
                         _mm_mulhrs_epi16(_mm_subs_epi16(a, d), f));
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
    const __m128i thr = _mm_set1_epi16(threshold);
    int kept = 0;
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        const __m128i below = _mm_cmplt_epi16(_mm_abs_epi16(x), thr);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(v + i),
                         _mm_andnot_si128(below, x));
        kept += 8 - _mm_popcnt_u32(static_cast<unsigned>(
                        _mm_movemask_epi8(below))) /
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
// 4 coefficient lanes per __m128 step, replaying the exact scalar
// butterfly schedule down the stack rows; every operation is lane-
// vertical with the same per-element expressions as the scalar TU,
// so the results match the scalar fused kernels bitwise. Scalar
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
haarForwardStack(__m128 *buf, __m128 *dom, int stack, __m128 f)
{
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i) {
            const __m128 e = buf[2 * i];
            const __m128 o = buf[2 * i + 1];
            dom[half + i] = _mm_mul_ps(_mm_sub_ps(e, o), f);
            buf[i] = _mm_mul_ps(_mm_add_ps(e, o), f);
        }
        len = half;
    }
    dom[0] = buf[0];
}

/** Inverse Haar butterfly schedule; rebuilds rows into @p buf. */
inline void
haarInverseStack(__m128 *buf, const __m128 *dom, int stack, __m128 f)
{
    buf[0] = dom[0];
    int len = 1;
    while (len < stack) {
        __m128 tmp[16];
        for (int i = 0; i < len; ++i) {
            const __m128 a = buf[i];
            const __m128 d = dom[len + i];
            tmp[2 * i] = _mm_mul_ps(_mm_add_ps(a, d), f);
            tmp[2 * i + 1] = _mm_mul_ps(_mm_sub_ps(a, d), f);
        }
        len *= 2;
        for (int i = 0; i < len; ++i)
            buf[i] = tmp[i];
    }
}

int
haarShrinkFused(float *g, int stack, int width, float threshold)
{
    const __m128 f = _mm_set1_ps(1.0f / std::sqrt(2.0f));
    const __m128 abs_mask =
        _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    const __m128 thr = _mm_set1_ps(threshold);
    int kept = 0;
    int c = 0;
    for (; c + 4 <= width; c += 4) {
        __m128 buf[16];
        __m128 dom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] = _mm_loadu_ps(g + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i) {
            const __m128 below =
                _mm_cmplt_ps(_mm_and_ps(dom[i], abs_mask), thr);
            dom[i] = _mm_andnot_ps(below, dom[i]);
            kept += 4 - _mm_popcnt_u32(static_cast<unsigned>(
                            _mm_movemask_ps(below)));
        }
        haarInverseStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            _mm_storeu_ps(g + static_cast<size_t>(i) * width + c, buf[i]);
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
    const __m128 f = _mm_set1_ps(1.0f / std::sqrt(2.0f));
    const __m128 s2 = _mm_set1_ps(sigma2);
    const __m128 half = _mm_set1_ps(0.5f);
    int strong = 0;
    int c = 0;
    for (; c + 4 <= width; c += 4) {
        __m128 buf[16];
        __m128 dom[16];
        __m128 bdom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] = _mm_loadu_ps(g + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            buf[i] = _mm_loadu_ps(bg + static_cast<size_t>(i) * width + c);
        haarForwardStack(buf, bdom, stack, f);
        for (int i = 0; i < stack; ++i) {
            const __m128 b2 = _mm_mul_ps(bdom[i], bdom[i]);
            const __m128 wv = _mm_div_ps(b2, _mm_add_ps(b2, s2));
            _mm_storeu_ps(w + static_cast<size_t>(i) * width + c, wv);
            _mm_storeu_ps(bg + static_cast<size_t>(i) * width + c,
                          bdom[i]);
            dom[i] = _mm_mul_ps(dom[i], wv);
            strong += _mm_popcnt_u32(static_cast<unsigned>(
                _mm_movemask_ps(_mm_cmpgt_ps(wv, half))));
        }
        haarInverseStack(buf, dom, stack, f);
        for (int i = 0; i < stack; ++i)
            _mm_storeu_ps(g + static_cast<size_t>(i) * width + c, buf[i]);
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
    const __m128i f = _mm_set1_epi16(factor_q15);
    const __m128i thr = _mm_set1_epi16(threshold);
    int kept = 0;
    int c = 0;
    for (; c + 8 <= width; c += 8) {
        __m128i buf[16];
        __m128i dom[16];
        for (int i = 0; i < stack; ++i)
            buf[i] = _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                g + static_cast<size_t>(i) * width + c));
        int len = stack;
        while (len > 1) {
            const int half = len / 2;
            for (int i = 0; i < half; ++i) {
                const __m128i e = buf[2 * i];
                const __m128i o = buf[2 * i + 1];
                dom[half + i] =
                    _mm_mulhrs_epi16(_mm_subs_epi16(e, o), f);
                buf[i] = _mm_mulhrs_epi16(_mm_adds_epi16(e, o), f);
            }
            len = half;
        }
        dom[0] = buf[0];
        for (int i = 0; i < stack; ++i) {
            const __m128i below =
                _mm_cmplt_epi16(_mm_abs_epi16(dom[i]), thr);
            dom[i] = _mm_andnot_si128(below, dom[i]);
            kept += 8 - _mm_popcnt_u32(static_cast<unsigned>(
                            _mm_movemask_epi8(below))) /
                            2;
        }
        buf[0] = dom[0];
        len = 1;
        while (len < stack) {
            __m128i tmp[16];
            for (int i = 0; i < len; ++i) {
                const __m128i a = buf[i];
                const __m128i d = dom[len + i];
                tmp[2 * i] = _mm_mulhrs_epi16(_mm_adds_epi16(a, d), f);
                tmp[2 * i + 1] =
                    _mm_mulhrs_epi16(_mm_subs_epi16(a, d), f);
            }
            len *= 2;
            for (int i = 0; i < len; ++i)
                buf[i] = tmp[i];
        }
        for (int i = 0; i < stack; ++i)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(
                                 g + static_cast<size_t>(i) * width + c),
                             buf[i]);
    }
    for (; c < width; ++c)
        kept += haarShrinkLaneTailI16(g + c, stack, width, threshold,
                                      factor_q15);
    return kept;
}

/**
 * kLeftPack4[m]: the pshufb control that packs the 32-bit lanes set in
 * the 4-lane mask m to the front.
 */
constexpr std::array<std::array<uint8_t, 16>, 16> kLeftPack4 = [] {
    std::array<std::array<uint8_t, 16>, 16> t{};
    for (unsigned m = 0; m < 16; ++m) {
        int k = 0;
        for (unsigned lane = 0; lane < 4; ++lane) {
            if (m & (1u << lane)) {
                for (unsigned b = 0; b < 4; ++b)
                    t[m][4 * k + b] = static_cast<uint8_t>(4 * lane + b);
                ++k;
            }
        }
    }
    return t;
}();

/** Scalar lane of bandFoldSelect (the scalar table's expression). */
inline void
bandSelectLane(const float *p, float scale, float tau, const float *cut,
               int32_t *pruned, size_t i, int32_t *hit_idx,
               float *hit_dist, int &hits)
{
    // Branch-free: the slot is always written and only kept on a hit
    // (hits are a few percent of lanes, in no predictable pattern).
    const float dist = ((p[0] + p[2]) + (p[1] + p[3])) * scale;
    const bool hit = dist < cut[i];
    hit_idx[hits] = static_cast<int32_t>(i);
    hit_dist[hits] = dist;
    hits += hit ? 1 : 0;
    pruned[i] += (!hit && dist < tau) ? 1 : 0;
}

void
bandSqDiff(const float *a, const float *b, size_t stride, int rows,
           int cols, float *d, size_t d_stride)
{
    for (int r = 0; r < rows; ++r) {
        const float *ar = a + static_cast<size_t>(r) * stride;
        const float *br = b + static_cast<size_t>(r) * stride;
        float *dr = d + static_cast<size_t>(r) * d_stride;
        int c = 0;
        for (; c + 4 <= cols; c += 4) {
            const __m128 t =
                _mm_sub_ps(_mm_loadu_ps(ar + c), _mm_loadu_ps(br + c));
            _mm_storeu_ps(dr + c, _mm_mul_ps(t, t));
        }
        for (; c < cols; ++c) {
            const float t = ar[c] - br[c];
            dr[c] = t * t;
        }
    }
}

void
bandColSum4(const float *d, size_t stride, int rows, int cols, float *v)
{
    for (int r = 0; r < rows; ++r) {
        const float *d0 = d + static_cast<size_t>(r) * stride;
        const float *d1 = d0 + stride;
        const float *d2 = d1 + stride;
        const float *d3 = d2 + stride;
        float *vr = v + static_cast<size_t>(r) * stride;
        int c = 0;
        for (; c + 4 <= cols; c += 4) {
            const __m128 s02 =
                _mm_add_ps(_mm_loadu_ps(d0 + c), _mm_loadu_ps(d2 + c));
            const __m128 s13 =
                _mm_add_ps(_mm_loadu_ps(d1 + c), _mm_loadu_ps(d3 + c));
            _mm_storeu_ps(vr + c, _mm_add_ps(s02, s13));
        }
        for (; c < cols; ++c)
            vr[c] = (d0[c] + d2[c]) + (d1[c] + d3[c]);
    }
}

int
bandFoldSelect(const float *v, size_t v_stride, int rows, int cols,
               float scale, float tau, const float *cut, int32_t *pruned,
               size_t ref_stride, int32_t *hit_idx, float *hit_dist)
{
    const __m128 vscale = _mm_set1_ps(scale);
    const __m128 vtau = _mm_set1_ps(tau);
    const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
    int hits = 0;
    for (int r = 0; r < rows; ++r) {
        const float *vr = v + static_cast<size_t>(r) * v_stride;
        const size_t base = static_cast<size_t>(r) * ref_stride;
        int c = 0;
        for (; c + 4 <= cols; c += 4) {
            const __m128 s02 = _mm_add_ps(_mm_loadu_ps(vr + c),
                                          _mm_loadu_ps(vr + c + 2));
            const __m128 s13 = _mm_add_ps(_mm_loadu_ps(vr + c + 1),
                                          _mm_loadu_ps(vr + c + 3));
            const __m128 dist = _mm_mul_ps(_mm_add_ps(s02, s13), vscale);
            const size_t i = base + c;
            const __m128 below = _mm_cmplt_ps(dist, _mm_loadu_ps(cut + i));
            // Pruned lanes (below tau, not below the cutoff) are -1:
            // subtracting the mask counts them in int32 lanes.
            const __m128i prune = _mm_castps_si128(
                _mm_andnot_ps(below, _mm_cmplt_ps(dist, vtau)));
            __m128i *pp = reinterpret_cast<__m128i *>(pruned + i);
            _mm_storeu_si128(pp,
                             _mm_sub_epi32(_mm_loadu_si128(pp), prune));
            // Left-pack the hit lanes (index and distance) with one
            // byte shuffle and advance by their count.
            const unsigned mask = static_cast<unsigned>(_mm_movemask_ps(below));
            const __m128i perm = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(kLeftPack4[mask].data()));
            const __m128i idx = _mm_add_epi32(
                _mm_set1_epi32(static_cast<int32_t>(i)), iota);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(hit_idx + hits),
                             _mm_shuffle_epi8(idx, perm));
            _mm_storeu_ps(hit_dist + hits,
                          _mm_castsi128_ps(_mm_shuffle_epi8(
                              _mm_castps_si128(dist), perm)));
            hits += _mm_popcnt_u32(mask);
        }
        for (; c < cols; ++c)
            bandSelectLane(vr + c, scale, tau, cut, pruned, base + c,
                           hit_idx, hit_dist, hits);
    }
    return hits;
}

/**
 * Scaled distances of one 4-lane half of a bm1LaneScan step: candidate
 * coefficient k of lane l at src[k][off + l], against the held
 * references r[k]. The per-lane sequence is ssdSoaBatch's len-16 tree.
 */
inline __m128
laneDistance(const __m128 *r, const float *const *src, size_t off,
             __m128 scale)
{
    __m128 s[8];
    for (int j = 0; j < 8; ++j) {
        const __m128 d = _mm_sub_ps(r[j], _mm_loadu_ps(src[j] + off));
        s[j] = _mm_mul_ps(d, d);
    }
    for (int j = 0; j < 8; ++j) {
        const __m128 d =
            _mm_sub_ps(r[8 + j], _mm_loadu_ps(src[8 + j] + off));
        s[j] = _mm_add_ps(s[j], _mm_mul_ps(d, d));
    }
    const __m128 u0 =
        _mm_add_ps(_mm_add_ps(s[0], s[4]), _mm_add_ps(s[2], s[6]));
    const __m128 u1 =
        _mm_add_ps(_mm_add_ps(s[1], s[5]), _mm_add_ps(s[3], s[7]));
    return _mm_mul_ps(_mm_add_ps(u0, u1), scale);
}

int
bm1LaneScan(const float *ref, int lanes, const float *const *planes,
            size_t row, int x0, int pos_x, int steps, int skip, float scale,
            float tau, const float *cut, int32_t *pruned, int32_t *hit_idx,
            float *hit_dist)
{
    // Two 4-lane halves per step, lanes 0-3 then 4-7, so hits come out
    // in the same (step, lane) order as the other levels.
    __m128 r[2][16];
    for (int h = 0; h < 2; ++h)
        for (int k = 0; k < 16; ++k)
            r[h][k] = _mm_loadu_ps(ref + 8 * k + 4 * h);
    alignas(16) float cut8[8] = {};
    for (int l = 0; l < lanes; ++l)
        cut8[l] = cut[l];
    const __m128 vscale = _mm_set1_ps(scale);
    const __m128 vtau = _mm_set1_ps(tau);
    const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
    // Partial halves (image edge, short group) gather their valid
    // lanes here, masked lanes reading 0: nothing outside the row is
    // loaded.
    alignas(16) float edge[16 * 4];
    const float *edge_planes[16];
    for (int k = 0; k < 16; ++k)
        edge_planes[k] = edge + 4 * k;
    __m128i count[2] = {_mm_setzero_si128(), _mm_setzero_si128()};
    int hits = 0;
    for (int s = 0; s < steps; ++s) {
        const int xs = x0 + s;
        if (s == skip)
            continue;
        for (int h = 0; h < 2; ++h) {
            const int xh = xs + 4 * h;
            const int lo = std::max(0, -xh);
            const int hi = std::min(lanes - 4 * h, pos_x - xh);
            if (lo >= hi)
                continue;
            __m128 dist;
            if (xh >= 0 && xh + 4 <= pos_x) {
                dist = laneDistance(r[h], planes,
                                    row + static_cast<size_t>(xh), vscale);
            } else {
                for (int k = 0; k < 16; ++k) {
                    const float *p = planes[k] + row;
                    for (int l = 0; l < 4; ++l)
                        edge[4 * k + l] =
                            l >= lo && l < hi ? p[xh + l] : 0.0f;
                }
                dist = laneDistance(r[h], edge_planes, 0, vscale);
            }
            const __m128 valid = _mm_castsi128_ps(_mm_andnot_si128(
                _mm_cmpgt_epi32(_mm_set1_epi32(lo), iota),
                _mm_cmpgt_epi32(_mm_set1_epi32(hi), iota)));
            const __m128 below = _mm_and_ps(
                valid, _mm_cmplt_ps(dist, _mm_load_ps(cut8 + 4 * h)));
            // Pruned lanes are -1: subtracting the mask counts them.
            const __m128 prune = _mm_andnot_ps(
                below, _mm_and_ps(valid, _mm_cmplt_ps(dist, vtau)));
            count[h] = _mm_sub_epi32(count[h], _mm_castps_si128(prune));
            const unsigned mask =
                static_cast<unsigned>(_mm_movemask_ps(below));
            const __m128i perm = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(kLeftPack4[mask].data()));
            const __m128i idx =
                _mm_add_epi32(_mm_set1_epi32(s * 8 + 4 * h), iota);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(hit_idx + hits),
                             _mm_shuffle_epi8(idx, perm));
            _mm_storeu_ps(hit_dist + hits,
                          _mm_castsi128_ps(_mm_shuffle_epi8(
                              _mm_castps_si128(dist), perm)));
            hits += _mm_popcnt_u32(mask);
        }
    }
    alignas(16) int32_t counted[8];
    _mm_store_si128(reinterpret_cast<__m128i *>(counted), count[0]);
    _mm_store_si128(reinterpret_cast<__m128i *>(counted + 4), count[1]);
    for (int l = 0; l < lanes; ++l)
        pruned[l] += counted[l];
    return hits;
}

const KernelTable kSseTableStorage = {
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
    bandSqDiff,    bandColSum4,     bandFoldSelect,
    bm1LaneScan,   matchReplayScalar,
};

} // namespace

const KernelTable &kSseTable = kSseTableStorage;

} // namespace detail
} // namespace simd
} // namespace ideal

#else // !x86

namespace ideal {
namespace simd {
namespace detail {

const KernelTable &kSseTable = kScalarTable;

} // namespace detail
} // namespace simd
} // namespace ideal

#endif
