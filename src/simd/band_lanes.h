#ifndef IDEAL_SIMD_BAND_LANES_H_
#define IDEAL_SIMD_BAND_LANES_H_

/**
 * @file
 * Internal: the band-scan rows (bandSqDiff, bandColSum4,
 * bandFoldSelect, bm1LaneScan; DESIGN §16) written once over a
 * lane-width wrapper, plus the wrappers themselves. Include only from
 * an ISA translation unit: kernels_avx2.cc instantiates the rows with
 * Avx2Lanes (8 float lanes), kernels_avx512.cc with Avx512Lanes (16).
 *
 * Everything here sits in an anonymous namespace, so each ISA TU gets
 * its own internal copy: no instantiation compiled for one ISA can be
 * the copy the linker hands to code compiled for another
 * (scripts/check_isa_symbols.sh checks the objects for weak and COMDAT
 * symbols).
 *
 * A wrapper V provides, over V::kWidth float lanes:
 *  - F (float vector), I (int32 vector) and M (lane mask) types;
 *  - load/store of whole vectors, loadN/storeN of lanes [0, n) (the
 *    others read 0 and are neither loaded nor stored), loadMasked of
 *    the lanes of a mask (nothing else is loaded);
 *  - add/sub/mul/set1, lt (ordered <, so NaN lanes are false),
 *    andM/andNotM/range masks;
 *  - countIn (count += mask, int32 lanes), addMaskN (p[l] += mask[l]
 *    for l < n) and compress (left-pack the masked lanes of an index
 *    vector and a distance vector to memory, writing kWidth entries of
 *    each, returning the count);
 *  - kBlock, the bm1LaneScan steps scored per reference load.
 * Every lane runs the scalar table's per-element expression, so the
 * rows are bitwise equal to it at every width.
 */

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace ideal {
namespace simd {
namespace detail {
namespace {

#if defined(__AVX2__)

/**
 * kLeftPack8[m]: byte k holds the lane index of the k-th set bit of
 * the 8-lane mask m — the permutation that packs the set lanes to the
 * front.
 */
constexpr std::array<uint64_t, 256> kLeftPack8 = [] {
    std::array<uint64_t, 256> t{};
    for (unsigned m = 0; m < 256; ++m) {
        int k = 0;
        for (unsigned lane = 0; lane < 8; ++lane)
            if (m & (1u << lane))
                t[m] |= static_cast<uint64_t>(lane) << (8 * k++);
    }
    return t;
}();

/** 8 lanes in one __m256; masks are all-ones / all-zero lanes. */
struct Avx2Lanes
{
    static constexpr int kWidth = 8;
    // One reference load serves four candidate loads, the most that
    // stays (nearly) within the 16 registers.
    static constexpr int kBlock = 4;

    using F = __m256;
    using I = __m256i;
    using M = __m256;

    static I iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }
    static I firstI(int n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), iota());
    }

    static F load(const float *p) { return _mm256_loadu_ps(p); }
    static F loadN(const float *p, int n)
    {
        return _mm256_maskload_ps(p, firstI(n));
    }
    static F loadMasked(const float *p, M m)
    {
        return _mm256_maskload_ps(p, _mm256_castps_si256(m));
    }
    static void store(float *p, F v) { _mm256_storeu_ps(p, v); }
    static void storeN(float *p, F v, int n)
    {
        _mm256_maskstore_ps(p, firstI(n), v);
    }

    static F set1(float v) { return _mm256_set1_ps(v); }
    static F add(F a, F b) { return _mm256_add_ps(a, b); }
    static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F mul(F a, F b) { return _mm256_mul_ps(a, b); }

    static M lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
    static M andM(M a, M b) { return _mm256_and_ps(a, b); }
    /** ~a & b. */
    static M andNotM(M a, M b) { return _mm256_andnot_ps(a, b); }
    /** Lanes l with lo <= l < hi. */
    static M range(int lo, int hi)
    {
        return _mm256_castsi256_ps(_mm256_andnot_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(lo), iota()), firstI(hi)));
    }

    static I zeroI() { return _mm256_setzero_si256(); }
    /** Mask lanes are -1: subtracting them counts. */
    static I countIn(I c, M m)
    {
        return _mm256_sub_epi32(c, _mm256_castps_si256(m));
    }
    static void storeI(int32_t *p, I v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static void addMaskN(int32_t *p, M m, int n)
    {
        const I inc = _mm256_castps_si256(m);
        if (n == kWidth) {
            __m256i *pp = reinterpret_cast<__m256i *>(p);
            _mm256_storeu_si256(pp,
                                _mm256_sub_epi32(_mm256_loadu_si256(pp), inc));
        } else {
            const I in = firstI(n);
            _mm256_maskstore_epi32(
                p, in, _mm256_sub_epi32(_mm256_maskload_epi32(p, in), inc));
        }
    }
    /** One permute per vector from the left-pack table: no branch per lane. */
    static int compress(int32_t *idx, float *dist, int32_t idx0, F d, M m)
    {
        const unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(m));
        const __m256i perm = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
            static_cast<long long>(kLeftPack8[bits])));
        const __m256i iv = _mm256_add_epi32(_mm256_set1_epi32(idx0), iota());
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(idx),
                            _mm256_permutevar8x32_epi32(iv, perm));
        _mm256_storeu_ps(dist, _mm256_permutevar8x32_ps(d, perm));
        return _mm_popcnt_u32(bits);
    }
};

#endif // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

/** 16 lanes in one __m512; masks are __mmask16 bits. */
struct Avx512Lanes
{
    static constexpr int kWidth = 16;
    // 3, 6 and 8 steps per block were measured no faster than 4: the
    // block is bound by its 48 float ops per step, not by the loads.
    static constexpr int kBlock = 4;

    using F = __m512;
    using I = __m512i;
    using M = __mmask16;

    static M firstN(int n)
    {
        return static_cast<M>((1u << n) - 1u);
    }

    static F load(const float *p) { return _mm512_loadu_ps(p); }
    static F loadN(const float *p, int n)
    {
        return _mm512_maskz_loadu_ps(firstN(n), p);
    }
    static F loadMasked(const float *p, M m)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void store(float *p, F v) { _mm512_storeu_ps(p, v); }
    static void storeN(float *p, F v, int n)
    {
        _mm512_mask_storeu_ps(p, firstN(n), v);
    }

    static F set1(float v) { return _mm512_set1_ps(v); }
    static F add(F a, F b) { return _mm512_add_ps(a, b); }
    static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
    static F mul(F a, F b) { return _mm512_mul_ps(a, b); }

    static M lt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
    static M andM(M a, M b) { return static_cast<M>(a & b); }
    /** ~a & b. */
    static M andNotM(M a, M b) { return static_cast<M>(~a & b); }
    /** Lanes l with lo <= l < hi. */
    static M range(int lo, int hi)
    {
        return static_cast<M>(firstN(hi) & ~firstN(lo));
    }

    static I zeroI() { return _mm512_setzero_si512(); }
    static I countIn(I c, M m)
    {
        return _mm512_mask_add_epi32(c, m, c, _mm512_set1_epi32(1));
    }
    static void storeI(int32_t *p, I v) { _mm512_storeu_si512(p, v); }
    static void addMaskN(int32_t *p, M m, int n)
    {
        const M in = firstN(n);
        const I v = _mm512_maskz_loadu_epi32(in, p);
        _mm512_mask_storeu_epi32(
            p, in, _mm512_mask_add_epi32(v, m, v, _mm512_set1_epi32(1)));
    }
    /**
     * vpcompressd into a register, then a whole-vector store (a
     * compress straight to memory is slow on Intel cores).
     */
    static int compress(int32_t *idx, float *dist, int32_t idx0, F d, M m)
    {
        const I iv = _mm512_add_epi32(
            _mm512_set1_epi32(idx0),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                              14, 15));
        _mm512_storeu_si512(idx, _mm512_maskz_compress_epi32(m, iv));
        _mm512_storeu_ps(dist, _mm512_maskz_compress_ps(m, d));
        return _mm_popcnt_u32(m);
    }
};

#endif // AVX-512 F + BW + VL

// ---- displacement-major BM2 band scan ------------------------------

template <class V>
void
bandSqDiff(const float *a, const float *b, size_t stride, int rows,
           int cols, float *d, size_t d_stride)
{
    constexpr int W = V::kWidth;
    for (int r = 0; r < rows; ++r) {
        const float *ar = a + static_cast<size_t>(r) * stride;
        const float *br = b + static_cast<size_t>(r) * stride;
        float *dr = d + static_cast<size_t>(r) * d_stride;
        int c = 0;
        for (; c + W <= cols; c += W) {
            const typename V::F t = V::sub(V::load(ar + c), V::load(br + c));
            V::store(dr + c, V::mul(t, t));
        }
        if (c < cols) {
            const int n = cols - c;
            const typename V::F t =
                V::sub(V::loadN(ar + c, n), V::loadN(br + c, n));
            V::storeN(dr + c, V::mul(t, t), n);
        }
    }
}

template <class V>
void
bandColSum4(const float *d, size_t stride, int rows, int cols, float *v)
{
    constexpr int W = V::kWidth;
    for (int r = 0; r < rows; ++r) {
        const float *d0 = d + static_cast<size_t>(r) * stride;
        const float *d1 = d0 + stride;
        const float *d2 = d1 + stride;
        const float *d3 = d2 + stride;
        float *vr = v + static_cast<size_t>(r) * stride;
        int c = 0;
        for (; c + W <= cols; c += W)
            V::store(vr + c,
                     V::add(V::add(V::load(d0 + c), V::load(d2 + c)),
                            V::add(V::load(d1 + c), V::load(d3 + c))));
        if (c < cols) {
            const int n = cols - c;
            V::storeN(vr + c,
                      V::add(V::add(V::loadN(d0 + c, n), V::loadN(d2 + c, n)),
                             V::add(V::loadN(d1 + c, n),
                                    V::loadN(d3 + c, n))),
                      n);
        }
    }
}

/**
 * One vector of bandFoldSelect: the references i .. i + n - 1 (n ==
 * W on the full-vector path, which loads whole vectors). On a partial
 * vector the lanes past n load 0 for both the distance and the cutoff,
 * so they never hit, and addMaskN stores only the first n counts.
 */
template <class V, bool kFull>
inline void
foldSelectVector(const float *p, int n, typename V::F scale,
                 typename V::F tau, const float *cut, int32_t *pruned,
                 size_t i, int32_t *hit_idx, float *hit_dist, int &hits)
{
    auto ld = [n](const float *q) {
        if constexpr (kFull)
            return V::load(q);
        else
            return V::loadN(q, n);
    };
    const typename V::F dist = V::mul(
        V::add(V::add(ld(p), ld(p + 2)), V::add(ld(p + 1), ld(p + 3))),
        scale);
    const typename V::M below = V::lt(dist, ld(cut + i));
    V::addMaskN(pruned + i, V::andNotM(below, V::lt(dist, tau)), n);
    hits += V::compress(hit_idx + hits, hit_dist + hits,
                        static_cast<int32_t>(i), dist, below);
}

template <class V>
int
bandFoldSelect(const float *v, size_t v_stride, int rows, int cols,
               float scale, float tau, const float *cut, int32_t *pruned,
               size_t ref_stride, int32_t *hit_idx, float *hit_dist)
{
    constexpr int W = V::kWidth;
    const typename V::F vscale = V::set1(scale);
    const typename V::F vtau = V::set1(tau);
    int hits = 0;
    for (int r = 0; r < rows; ++r) {
        const float *vr = v + static_cast<size_t>(r) * v_stride;
        const size_t base = static_cast<size_t>(r) * ref_stride;
        int c = 0;
        for (; c + W <= cols; c += W)
            foldSelectVector<V, true>(vr + c, W, vscale, vtau, cut, pruned,
                                      base + c, hit_idx, hit_dist, hits);
        if (c < cols)
            foldSelectVector<V, false>(vr + c, cols - c, vscale, vtau, cut,
                                       pruned, base + c, hit_idx, hit_dist,
                                       hits);
    }
    return hits;
}

// ---- reference-lane BM1 window-row scan ----------------------------

/**
 * Scaled distances of N adjacent bm1LaneScan steps: candidate
 * coefficient k of lane l at step n is src[k][off + n + l], scored
 * against the held references ref[W * k + l]. Per lane this is
 * ssdSoaBatch's len-16 tree; the sums are formed in tree order
 * (s0+s4, s2+s6, then s1+s5, s3+s7) so few partials stay live, and one
 * reference load serves all N steps. kMasked loads only the lanes of
 * @p valid (the others read 0); off may then point before a plane.
 */
template <class V, int N, bool kMasked>
inline void
laneDistances(const float *ref, const float *const *src, ptrdiff_t off,
              typename V::F scale, typename V::M valid, typename V::F *dist)
{
    using F = typename V::F;
    constexpr int W = V::kWidth;
    // s_j = (ref_j - c_j)^2 + (ref_{8+j} - c_{8+j})^2 for each step.
    auto pairSum = [&](int j, F *out) {
        const F ra = V::load(ref + W * j);
        const F rb = V::load(ref + W * (8 + j));
        const float *pa = src[j] + off;
        const float *pb = src[8 + j] + off;
        for (int n = 0; n < N; ++n) {
            F ca, cb;
            if constexpr (kMasked) {
                ca = V::loadMasked(pa + n, valid);
                cb = V::loadMasked(pb + n, valid);
            } else {
                ca = V::load(pa + n);
                cb = V::load(pb + n);
            }
            const F da = V::sub(ra, ca);
            const F db = V::sub(rb, cb);
            out[n] = V::add(V::mul(da, da), V::mul(db, db));
        }
    };
    F a[N], b[N], u0[N];
    pairSum(0, a);
    pairSum(4, b);
    for (int n = 0; n < N; ++n)
        u0[n] = V::add(a[n], b[n]);
    pairSum(2, a);
    pairSum(6, b);
    for (int n = 0; n < N; ++n)
        u0[n] = V::add(u0[n], V::add(a[n], b[n]));
    F u1[N];
    pairSum(1, a);
    pairSum(5, b);
    for (int n = 0; n < N; ++n)
        u1[n] = V::add(a[n], b[n]);
    pairSum(3, a);
    pairSum(7, b);
    for (int n = 0; n < N; ++n) {
        u1[n] = V::add(u1[n], V::add(a[n], b[n]));
        dist[n] = V::mul(V::add(u0[n], u1[n]), scale);
    }
}

template <class V>
int
bm1LaneScan(const float *ref, int lanes, const float *const *planes,
            size_t row, int x0, int pos_x, int steps, int skip, float scale,
            float tau, const float *cut, int32_t *pruned, int32_t *hit_idx,
            float *hit_dist)
{
    using F = typename V::F;
    using M = typename V::M;
    constexpr int W = V::kWidth;
    constexpr int kBlock = V::kBlock;
    const F vcut = V::loadN(cut, lanes);
    const F vscale = V::set1(scale);
    const F vtau = V::set1(tau);
    const M group = V::range(0, lanes);
    const ptrdiff_t prow = static_cast<ptrdiff_t>(row);
    typename V::I count = V::zeroI();
    int hits = 0;
    // Select and left-pack the @p valid lanes of step s.
    auto select = [&](int s, F dist, M valid) {
        const M below = V::andM(valid, V::lt(dist, vcut));
        const M prune = V::andNotM(below, V::andM(valid, V::lt(dist, vtau)));
        count = V::countIn(count, prune);
        hits += V::compress(hit_idx + hits, hit_dist + hits, s * W, dist,
                            below);
    };
    for (int s = 0; s < steps;) {
        const int xs = x0 + s;
        if (xs >= 0 && xs + kBlock + W - 1 <= pos_x && s + kBlock <= steps &&
            (skip < s || skip >= s + kBlock)) {
            F dist[kBlock];
            laneDistances<V, kBlock, false>(ref, planes, prow + xs, vscale,
                                            group, dist);
            for (int n = 0; n < kBlock; ++n)
                select(s + n, dist[n], group);
            s += kBlock;
            continue;
        }
        const int lo = std::max(0, -xs);
        const int hi = std::min(lanes, pos_x - xs);
        if (s != skip && lo < hi) {
            // Partial steps (image edge, short group) load only their
            // valid lanes: nothing outside the row is read.
            const M valid = V::range(lo, hi);
            F dist;
            if (xs >= 0 && xs + W <= pos_x)
                laneDistances<V, 1, false>(ref, planes, prow + xs, vscale,
                                           valid, &dist);
            else
                laneDistances<V, 1, true>(ref, planes, prow + xs, vscale,
                                          valid, &dist);
            select(s, dist, valid);
        }
        ++s;
    }
    alignas(64) int32_t counted[W];
    V::storeI(counted, count);
    for (int l = 0; l < lanes; ++l)
        pruned[l] += counted[l];
    return hits;
}

} // namespace
} // namespace detail
} // namespace simd
} // namespace ideal

#endif // IDEAL_SIMD_BAND_LANES_H_
