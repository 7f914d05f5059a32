/**
 * @file
 * Scalar reference kernels — the canonical semantics every SIMD level
 * must reproduce bitwise (simd.h's reduction-order rule). Written in
 * the exact operation order the vector variants use: 8 accumulator
 * lanes for the SSD tree, per-lane vertical sequences everywhere
 * else, and never a fused multiply-add (this TU is compiled with
 * -ffp-contract=off and baseline ISA).
 */

#include "simd/kernels.h"

#include <algorithm>
#include <cmath>

namespace ideal {
namespace simd {
namespace detail {

namespace {

/**
 * The canonical horizontal fold of the 8 SSD lanes. Matches the
 * 128-bit reduction sequence: lo+hi vertical add, movehl add,
 * scalar lane add.
 */
inline float
fold8(const float s[8])
{
    const float t0 = s[0] + s[4];
    const float t1 = s[1] + s[5];
    const float t2 = s[2] + s[6];
    const float t3 = s[3] + s[7];
    const float u0 = t0 + t2;
    const float u1 = t1 + t3;
    return u0 + u1;
}

/** One 16-element block: lanes j += d_j^2 then d_{8+j}^2, fold. */
inline float
ssdBlock16(const float *a, const float *b)
{
    float s[8];
    for (int j = 0; j < 8; ++j) {
        const float d = a[j] - b[j];
        s[j] = d * d;
    }
    for (int j = 0; j < 8; ++j) {
        const float d = a[8 + j] - b[8 + j];
        s[j] += d * d;
    }
    return fold8(s);
}

float
ssd(const float *a, const float *b, int len)
{
    float s[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    int i = 0;
    for (; i + 8 <= len; i += 8) {
        for (int j = 0; j < 8; ++j) {
            const float d = a[i + j] - b[i + j];
            s[j] += d * d;
        }
    }
    float r = fold8(s);
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
    for (int i = 0; i < count; ++i)
        out[i] = ssdBlock16(ref, cands + 16 * i);
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
        acc += fold8(s);
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

/**
 * One candidate of the SoA batch; shared by every partial-vector tail.
 * Identical operation sequence to ssdSoa (the bound checks there do
 * not change any arithmetic), so batch results equal single-pair
 * results bitwise.
 */
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
        acc += fold8(s);
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
    for (int i = 0; i < count; ++i)
        out[i] = ssdSoaOne(ref, planes, off + static_cast<size_t>(i), len);
}

/**
 * Folded 4x4 DCT row pass (both halves of the 2-D transform use it):
 * fold rows into mirror sums/differences, then two half-size
 * products with all 4 columns riding along as lanes.
 */
inline void
dct4Pass(const float *in, float *out, const float *even, const float *odd)
{
    float s0[4], s1[4], d0[4], d1[4];
    for (int c = 0; c < 4; ++c) {
        s0[c] = in[c] + in[12 + c];
        s1[c] = in[4 + c] + in[8 + c];
        d0[c] = in[c] - in[12 + c];
        d1[c] = in[4 + c] - in[8 + c];
    }
    for (int c = 0; c < 4; ++c)
        out[c] = even[0] * s0[c] + even[1] * s1[c];
    for (int c = 0; c < 4; ++c)
        out[4 + c] = odd[0] * d0[c] + odd[1] * d1[c];
    for (int c = 0; c < 4; ++c)
        out[8 + c] = even[2] * s0[c] + even[3] * s1[c];
    for (int c = 0; c < 4; ++c)
        out[12 + c] = odd[2] * d0[c] + odd[3] * d1[c];
}

/** Inverse row pass: reconstruct the mirror pair from even/odd rows. */
inline void
dct4PassInv(const float *in, float *out, const float *even,
            const float *odd)
{
    for (int i = 0; i < 2; ++i) {
        float *lo = out + 4 * i;
        float *hi = out + 4 * (3 - i);
        for (int c = 0; c < 4; ++c) {
            const float e = even[2 * i] * in[c] +
                            even[2 * i + 1] * in[8 + c];
            const float o = odd[2 * i] * in[4 + c] +
                            odd[2 * i + 1] * in[12 + c];
            lo[c] = e + o;
            hi[c] = e - o;
        }
    }
}

inline void
transpose4(const float *in, float *out)
{
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            out[c * 4 + r] = in[r * 4 + c];
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
    for (int c = 0; c < width; ++c) {
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
    for (int c = 0; c < width; ++c) {
        const float a = approx[c];
        const float d = detail[c];
        out_even[c] = (a + d) * factor;
        out_odd[c] = (a - d) * factor;
    }
}

int
hardThreshold(float *v, int count, float threshold)
{
    int kept = 0;
    for (int i = 0; i < count; ++i) {
        if (std::abs(v[i]) < threshold)
            v[i] = 0.0f;
        else
            ++kept;
    }
    return kept;
}

int
wienerApply(float *v, const float *b, float *w, int count, float sigma2)
{
    int strong = 0;
    for (int i = 0; i < count; ++i) {
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
    for (int i = 0; i < count; ++i) {
        num[i] += weight * pix[i];
        den[i] += weight;
    }
}

void
mergeAdd(float *num, float *den, const float *onum, const float *oden,
         int count)
{
    for (int i = 0; i < count; ++i) {
        num[i] += onum[i];
        den[i] += oden[i];
    }
}

// ---- int16 kernels (simd.h "Int16 kernels" contract) -------------
//
// Element-level semantics are the spec here: wrapping int16
// difference, square accumulated mod 2^32, round-to-nearest right
// shift, saturation only at pack points. Integer addition commutes,
// so the vector variants may fold in any order and still match these
// loops bitwise.

/** Wrapping int16 difference (sub_epi16 semantics). */
inline int16_t
diffI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(static_cast<uint16_t>(a) -
                                static_cast<uint16_t>(b));
}

/** Square of a wrapped difference as a mod-2^32 term. */
inline uint32_t
sqI16(int16_t d)
{
    return static_cast<uint32_t>(static_cast<int32_t>(d) * d);
}

/** Saturating int16 add/sub (adds/subs_epi16 semantics). */
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

/**
 * Q15 rounded high multiply (_mm_mulhrs_epi16 semantics, including
 * the wrapping -32768 * -32768 edge).
 */
inline int16_t
mulhrsI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(
        (static_cast<int32_t>(a) * b + 0x4000) >> 15);
}

/** Round-to-nearest arithmetic right shift (shift >= 1). */
inline int32_t
rshiftRound(int32_t v, int shift)
{
    return (v + (int32_t{1} << (shift - 1))) >> shift;
}

/** Saturating int32 -> int16 pack (packs_epi32 semantics). */
inline int16_t
packSat32(int32_t v)
{
    return static_cast<int16_t>(v > 32767 ? 32767 : (v < -32768 ? -32768 : v));
}

int32_t
ssdI16(const int16_t *a, const int16_t *b, int len)
{
    uint32_t acc = 0;
    for (int i = 0; i < len; ++i)
        acc += sqI16(diffI16(a[i], b[i]));
    return static_cast<int32_t>(acc);
}

/** One 16-element block of the bounded int16 SSD. */
inline uint32_t
ssdBlock16I16(const int16_t *a, const int16_t *b)
{
    uint32_t acc = 0;
    for (int j = 0; j < 16; ++j)
        acc += sqI16(diffI16(a[j], b[j]));
    return acc;
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
    for (int i = 0; i < count; ++i) {
        const size_t o = off + static_cast<size_t>(i);
        uint32_t acc = 0;
        for (int k = 0; k < len; ++k)
            acc += sqI16(diffI16(ref[k], planes[k][o]));
        out[i] = static_cast<int32_t>(acc);
    }
}

void
ssdPairBatchI16(const int16_t *ref, const int16_t *const *pair_planes,
                size_t off, int len, int count, int32_t *out)
{
    for (int i = 0; i < count; ++i) {
        const size_t o = 2 * (off + static_cast<size_t>(i));
        uint32_t acc = 0;
        for (int p = 0; p + 2 <= len; p += 2) {
            const int16_t *plane = pair_planes[p / 2];
            acc += sqI16(diffI16(ref[p], plane[o]));
            acc += sqI16(diffI16(ref[p + 1], plane[o + 1]));
        }
        out[i] = static_cast<int32_t>(acc);
    }
}

/**
 * Int16 folded 4x4 DCT row pass: mirror fold and half-matrix products
 * in int32 (|coef| <= 5352 Q13 raws times |sum| <= 65534 stays far
 * below 2^31), then rounded shift and saturating pack per element.
 */
inline void
dct4PassI16(const int16_t *in, int16_t *out, const int16_t *even,
            const int16_t *odd, int shift)
{
    for (int c = 0; c < 4; ++c) {
        const int32_t s0 = static_cast<int32_t>(in[c]) + in[12 + c];
        const int32_t s1 = static_cast<int32_t>(in[4 + c]) + in[8 + c];
        const int32_t d0 = static_cast<int32_t>(in[c]) - in[12 + c];
        const int32_t d1 = static_cast<int32_t>(in[4 + c]) - in[8 + c];
        out[c] = packSat32(rshiftRound(even[0] * s0 + even[1] * s1, shift));
        out[4 + c] =
            packSat32(rshiftRound(odd[0] * d0 + odd[1] * d1, shift));
        out[8 + c] =
            packSat32(rshiftRound(even[2] * s0 + even[3] * s1, shift));
        out[12 + c] =
            packSat32(rshiftRound(odd[2] * d0 + odd[3] * d1, shift));
    }
}

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
    for (int c = 0; c < width; ++c) {
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
    for (int c = 0; c < width; ++c) {
        const int16_t a = approx[c];
        const int16_t d = detail[c];
        out_even[c] = mulhrsI16(satAddI16(a, d), factor_q15);
        out_odd[c] = mulhrsI16(satSubI16(a, d), factor_q15);
    }
}

int
hardThresholdI16(int16_t *v, int count, int16_t threshold)
{
    int kept = 0;
    for (int i = 0; i < count; ++i) {
        // abs_epi16 semantics: abs(-32768) stays -32768 and signed-
        // compares below any positive threshold (always zeroed).
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
// One coefficient lane at a time, replaying the Haar1D forwardRows /
// inverseRows butterfly schedule down the stack rows with the shrink
// applied in between — the per-element expressions of the discrete
// kernels above, just without the per-row dispatches and spills. The
// vector variants run 4/8 lanes per step with the same expressions,
// so every level matches these loops bitwise.

/** One lane of haarShrinkFused; @p stride is the tile row stride. */
inline int
haarShrinkLane(float *lane, int stack, int stride, float threshold)
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
        if (std::abs(dom[i]) < threshold)
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

int
haarShrinkFused(float *g, int stack, int width, float threshold)
{
    int kept = 0;
    for (int c = 0; c < width; ++c)
        kept += haarShrinkLane(g + c, stack, width, threshold);
    return kept;
}

/** One lane of wienerShrinkFused. */
inline int
wienerShrinkLane(float *lane, float *blane, float *wlane, int stack,
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
    int strong = 0;
    for (int c = 0; c < width; ++c)
        strong += wienerShrinkLane(g + c, bg + c, w + c, stack, width,
                                   sigma2);
    return strong;
}

void
aggregateGroup(float *num, float *den, int plane_w, const float *coefs,
               const int *lx, const int *ly, int stack, float weight,
               const float *inv_even, const float *inv_odd)
{
    float px[16];
    for (int i = 0; i < stack; ++i) {
        dct4Inverse(coefs + 16 * i, px, inv_even, inv_odd);
        for (int r = 0; r < 4; ++r) {
            const size_t off =
                static_cast<size_t>(ly[i] + r) * plane_w + lx[i];
            float *nrow = num + off;
            float *drow = den + off;
            const float *p = px + 4 * r;
            for (int c = 0; c < 4; ++c) {
                nrow[c] += weight * p[c];
                drow[c] += weight;
            }
        }
    }
}

/** One lane of haarShrinkFusedI16. */
inline int
haarShrinkLaneI16(int16_t *lane, int stack, int stride, int16_t threshold,
                  int16_t factor_q15)
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
    int kept = 0;
    for (int c = 0; c < width; ++c)
        kept += haarShrinkLaneI16(g + c, stack, width, threshold,
                                  factor_q15);
    return kept;
}

void
bandSqDiff(const float *a, const float *b, size_t stride, int rows,
           int cols, float *d, size_t d_stride)
{
    for (int r = 0; r < rows; ++r) {
        const float *ar = a + static_cast<size_t>(r) * stride;
        const float *br = b + static_cast<size_t>(r) * stride;
        float *dr = d + static_cast<size_t>(r) * d_stride;
        for (int c = 0; c < cols; ++c) {
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
        for (int c = 0; c < cols; ++c)
            vr[c] = (d0[c] + d2[c]) + (d1[c] + d3[c]);
    }
}

int
bandFoldSelect(const float *v, size_t v_stride, int rows, int cols,
               float scale, float tau, const float *cut, int32_t *pruned,
               size_t ref_stride, int32_t *hit_idx, float *hit_dist)
{
    int hits = 0;
    for (int r = 0; r < rows; ++r) {
        const float *vr = v + static_cast<size_t>(r) * v_stride;
        const size_t base = static_cast<size_t>(r) * ref_stride;
        for (int c = 0; c < cols; ++c) {
            const float dist =
                ((vr[c] + vr[c + 2]) + (vr[c + 1] + vr[c + 3])) * scale;
            const size_t i = base + c;
            // Branch-free: the slot is always written and only kept on
            // a hit (hits are a few percent of lanes, unpredictably).
            const bool hit = dist < cut[i];
            hit_idx[hits] = static_cast<int32_t>(i);
            hit_dist[hits] = dist;
            hits += hit ? 1 : 0;
            pruned[i] += (!hit && dist < tau) ? 1 : 0;
        }
    }
    return hits;
}

int
bm1LaneScan(const float *ref, int lanes, const float *const *planes,
            size_t row, int x0, int pos_x, int steps, int skip, float scale,
            float tau, const float *cut, int32_t *pruned, int32_t *hit_idx,
            float *hit_dist)
{
    int hits = 0;
    for (int s = 0; s < steps; ++s) {
        if (s == skip)
            continue;
        const int xs = x0 + s;
        const int hi = std::min(lanes, pos_x - xs);
        for (int l = std::max(0, -xs); l < hi; ++l) {
            const size_t off = row + static_cast<size_t>(xs + l);
            float sj[8];
            for (int j = 0; j < 8; ++j) {
                const float d = ref[j * 8 + l] - planes[j][off];
                sj[j] = d * d;
            }
            for (int j = 0; j < 8; ++j) {
                const float d = ref[(8 + j) * 8 + l] - planes[8 + j][off];
                sj[j] += d * d;
            }
            // ssdSoaOne's leading 0 + is the identity on this sum of
            // squares (never -0), so it is left out.
            const float dist = fold8(sj) * scale;
            const bool hit = dist < cut[l];
            hit_idx[hits] = s * 8 + l;
            hit_dist[hits] = dist;
            hits += hit ? 1 : 0;
            pruned[l] += (!hit && dist < tau) ? 1 : 0;
        }
    }
    return hits;
}

} // namespace

void
matchReplayScalar(const MatchRun *runs, int n, float tau)
{
    for (int r = 0; r < n; ++r) {
        const MatchRun &run = runs[r];
        MatchSlots &list = *run.list;
        const int last = list.capacity - 1;
        float cut = *run.cut;
        int32_t pruned = *run.pruned;
        for (int j = 0; j < run.count; ++j) {
            const float d = run.dist[j];
            if (d < cut) {
                matchInsert(list, d,
                            run.pos != nullptr
                                ? run.pos[j]
                                : run.pos0 + static_cast<uint32_t>(j));
                if (list.size == list.capacity)
                    cut = std::min(cut, list.dist[last]);
            } else if (d < tau) {
                ++pruned;
            }
        }
        *run.cut = cut;
        *run.pruned = pruned;
    }
}

const KernelTable kScalarTable = {
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
    8, // bm1Lanes
};

} // namespace detail
} // namespace simd
} // namespace ideal
