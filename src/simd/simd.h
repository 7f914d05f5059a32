#ifndef IDEAL_SIMD_SIMD_H_
#define IDEAL_SIMD_SIMD_H_

/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the BM3D hot path.
 *
 * One implementation of every hot kernel exists per instruction-set
 * level (scalar / SSE4.2 / AVX2 / AVX-512); the best level the CPU
 * supports is selected once at startup via CPUID and can be
 * overridden with IDEAL_SIMD=scalar|sse|avx2|avx512 (requests above
 * what the CPU supports clamp down with a warning). Library code
 * calls through the active KernelTable, so a single baseline-ISA
 * build adapts to the machine it lands on.
 *
 * A level's table need not give every row its own function: the SSE
 * table points matchReplay at the scalar one, and the AVX-512 table
 * widens only the four band-scan rows (written once over a lane-width
 * wrapper in band_lanes.h, instantiated at 8 lanes for AVX2 and 16
 * for AVX-512) and points every other row at the AVX2 function.
 *
 * ## The reduction-order rule
 *
 * Every kernel is bitwise-deterministic across dispatch levels: for
 * the same inputs, the scalar, SSE, AVX2 and AVX-512 variants return
 * identical bits. Two mechanisms make that possible:
 *
 * 1. *Vertical* operations (the DCT passes, Haar butterflies,
 *    shrinkage, aggregation) touch each lane independently, so any
 *    vector width computes the exact scalar sequence per element.
 *    The only rule is that no variant may fuse a multiply-add (the
 *    kernel translation units are compiled with -ffp-contract=off
 *    and without -mfma).
 *
 * 2. *Horizontal* reductions (the SSD distance) fix one canonical
 *    adder tree: 8 accumulator lanes, element k accumulating into
 *    lane k%8 in element order, folded as
 *        ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
 *    The scalar variant keeps 8 scalar accumulators, SSE emulates the
 *    8 lanes with two __m128, and AVX2 holds them in one __m256 whose
 *    standard extract/add/movehl fold produces exactly that tree.
 *    The band-scan rows put one candidate per lane instead and apply
 *    the same tree per lane (vertical adds of the 8 partial sums), so
 *    their lane width (8 or 16) changes only which candidates share
 *    a vector.
 *    Trailing elements (len % 8) are always added sequentially after
 *    the fold, in every variant.
 *
 * Because the tree is fixed per kernel *and* per length, output is
 * also invariant under thread count (kernels are pure functions),
 * preserving the tiled runner's determinism guarantee.
 *
 * ## Int16 kernels
 *
 * The *I16 rows operate on pre-quantized int16 raws (see
 * fixed/int16plan.h). Their determinism needs no canonical tree:
 * integer addition mod 2^32 is associative and commutative, so any
 * lane count and any fold order produce identical bits. The contract
 * is instead fixed at the element level — wrapping int16 differences,
 * mod-2^32 accumulation, round-to-nearest right shifts, and
 * saturation only at documented pack points — which every ISA variant
 * reproduces exactly, including out-of-range edge cases (the
 * all-(-32768) _mm256_madd_epi16 wrap, abs(-32768) == -32768).
 */

#include <cstddef>
#include <cstdint>

namespace ideal {
namespace simd {

/** Instruction-set level of a kernel table, in increasing order. */
enum class Level {
    Scalar = 0, ///< portable C++, no intrinsics
    Sse = 1,    ///< SSE4.2 (128-bit)
    Avx2 = 2,   ///< AVX2 (256-bit)
    Avx512 = 3, ///< AVX-512 F + BW + VL (512-bit band-scan rows)
};

/** Lower-case level name ("scalar", "sse", "avx2", "avx512"). */
const char *toString(Level level);

/**
 * Storage of one bounded best-match list, the state matchReplay
 * works on (bm3d::MatchList keeps exactly this, DESIGN §16.4). Struct
 * of arrays so a 16-slot list is four 256-bit registers: distances
 * ascending and +inf from index size on, positions packed
 * x | y << 16 and 0 from index size on.
 */
struct MatchSlots
{
    static constexpr int kCapacity = 16;

    float dist[kCapacity];
    uint32_t pos[kCapacity];
    int32_t size;
    int32_t capacity; ///< in [1, kCapacity]
};

/**
 * Insert (d, pos) after every held slot with distance <= d; a full
 * list drops its last slot, or keeps d out when d >= that slot.
 * Returns true if kept. This is the one definition of the list's
 * insertion rule (MatchList::insert and the scalar matchReplay).
 */
inline bool
matchInsert(MatchSlots &s, float d, uint32_t pos)
{
    const int cap = s.capacity;
    if (s.size == cap && d >= s.dist[cap - 1])
        return false;
    int i = s.size < cap ? s.size : cap - 1;
    while (i > 0 && s.dist[i - 1] > d) {
        s.dist[i] = s.dist[i - 1];
        s.pos[i] = s.pos[i - 1];
        --i;
    }
    s.dist[i] = d;
    s.pos[i] = pos;
    if (s.size < cap)
        ++s.size;
    return true;
}

/** The widest KernelTable::bm1Lanes of any level (hit-buffer slack). */
constexpr int kMaxLanes = 16;

/** One run of scored candidates for matchReplay, all into one list. */
struct MatchRun
{
    MatchSlots *list;
    float *cut;          ///< running acceptance cutoff (in/out)
    int32_t *pruned;     ///< pruned-insert count (in/out)
    const float *dist;   ///< @p count distances, in scan order
    const uint32_t *pos; ///< their packed positions; null: pos0 + j
    uint32_t pos0;
    int count;
};

/**
 * The set of hot kernels. All pointers are always non-null; the
 * scalar table is the reference semantics every other level must
 * reproduce bitwise.
 */
struct KernelTable
{
    /**
     * Squared L2 distance over @p len elements with the canonical
     * 8-lane tree applied once over the whole array (single fold,
     * sequential tail).
     */
    float (*ssd)(const float *a, const float *b, int len);

    /**
     * Squared L2 distance accumulated per 16-element block (one
     * 8-lane tree fold per block, blocks summed sequentially),
     * early-returning a partial sum once it exceeds @p bound. Partial
     * results are only guaranteed to compare > @p bound.
     */
    float (*ssdBounded)(const float *a, const float *b, int len,
                        float bound);

    /**
     * Same block-wise accumulation order as ssdBounded but with no
     * early exit: the exact full distance. For len == 16 this equals
     * both ssd and ssdBounded(bound=inf) bitwise.
     */
    float (*ssdFull)(const float *a, const float *b, int len);

    /**
     * Batched 16-element SSD: out[i] = ssdFull(ref, cands + 16*i, 16)
     * for i in [0, count). @p cands is a contiguous array of @p count
     * 16-float patch descriptors (the patch-field layout). count <= 8.
     */
    void (*ssdBatch16)(const float *ref, const float *cands, int count,
                       float *out);

    /**
     * Squared L2 distance between two patches stored coefficient-major
     * (SoA): coefficient k of patch a is pa[k][off_a], of patch b
     * pb[k][off_b]. Accumulated per 16-coefficient block in the
     * canonical 8-lane tree (lane k%8, fold, blocks summed
     * sequentially, sequential tail) — the exact ssdBounded order —
     * with early exit once the partial sum exceeds @p bound (pass
     * +inf for the exact ssdFull-ordered distance). The two pointer
     * arrays may differ, so cross-field distances (video matching)
     * use the same kernel.
     */
    float (*ssdSoa)(const float *const *pa, size_t off_a,
                    const float *const *pb, size_t off_b, int len,
                    float bound);

    /**
     * Batched SoA SSD: out[i] = exact distance between the gathered
     * reference descriptor @p ref (len contiguous floats) and the
     * candidate at planes[k][off + i], for i in [0, count); @p count
     * is arbitrary (callers pass whole window-row runs — one dispatch
     * per run). Candidates are processed in groups of 8 from i = 0
     * with the partial last group handled per candidate, so results
     * are independent of how a caller chunks a run as long as chunks
     * are multiples of 8. Candidates i are adjacent in every
     * coefficient plane, so each coefficient is one contiguous vector
     * load. Per candidate the accumulation order is exactly ssdSoa
     * with bound = +inf, so batch and single-pair results agree
     * bitwise at every dispatch level.
     */
    void (*ssdSoaBatch)(const float *ref, const float *const *planes,
                        size_t off, int len, int count, float *out);

    /**
     * Full 2-D folded 4x4 DCT forward: row pass, transpose, row pass.
     * @p fwd_even / @p fwd_odd are the 2x2 half matrices packed
     * row-major (Dct2D's fwdEven_/fwdOdd_ for n == 4).
     */
    void (*dct4Forward)(const float *in, float *out,
                        const float *fwd_even, const float *fwd_odd);

    /** Full 2-D folded 4x4 DCT inverse (invEven_/invOdd_ layout). */
    void (*dct4Inverse)(const float *in, float *out,
                        const float *inv_even, const float *inv_odd);

    /**
     * One Haar butterfly over @p width lanes:
     * approx[c] = (even[c] + odd[c]) * factor,
     * detail[c] = (even[c] - odd[c]) * factor.
     * approx may alias even (each lane is read before it is written).
     */
    void (*haarForwardPair)(const float *even, const float *odd,
                            float *approx, float *detail, float factor,
                            int width);

    /**
     * One inverse Haar butterfly over @p width lanes:
     * out_even[c] = (approx[c] + detail[c]) * factor,
     * out_odd[c]  = (approx[c] - detail[c]) * factor.
     * Outputs must not alias the inputs.
     */
    void (*haarInversePair)(const float *approx, const float *detail,
                            float *out_even, float *out_odd, float factor,
                            int width);

    /**
     * Hard threshold in place: v[i] with |v[i]| < threshold becomes
     * +0.0f. Returns the number of surviving (non-zeroed) elements.
     */
    int (*hardThreshold)(float *v, int count, float threshold);

    /**
     * Wiener shrinkage: w[i] = b[i]^2 / (b[i]^2 + sigma2),
     * v[i] *= w[i]; the weights are stored to @p w so the caller can
     * accumulate sum(w^2) in double precision in its own fixed order.
     * Returns the count of w[i] > 0.5 (the hardware-countable
     * "non-zero" analogue).
     */
    int (*wienerApply)(float *v, const float *b, float *w, int count,
                       float sigma2);

    /**
     * Weighted aggregation row: num[i] += weight * pix[i],
     * den[i] += weight.
     */
    void (*aggregateAdd)(float *num, float *den, const float *pix,
                         float weight, int count);

    /**
     * Aggregator tile-merge row: num[i] += onum[i], den[i] += oden[i].
     * Purely vertical, so any vector width reproduces the scalar
     * per-element sequence.
     */
    void (*mergeAdd)(float *num, float *den, const float *onum,
                     const float *oden, int count);

    /**
     * Int16 squared L2 distance: differences wrap in int16, squares
     * accumulate mod 2^32. Exact whenever |a[i]-b[i]| raws fit the
     * fixed::ssdSafeMagnitudeBits bound; otherwise deterministically
     * wrapped, identically at every dispatch level.
     */
    int32_t (*ssdI16)(const int16_t *a, const int16_t *b, int len);

    /**
     * ssdI16 accumulated per 16-element block with early exit once the
     * partial sum exceeds @p bound (same exit points as the scalar
     * reference, so partial results are bitwise identical too).
     * Partial results are only guaranteed to compare > @p bound.
     */
    int32_t (*ssdBoundedI16)(const int16_t *a, const int16_t *b, int len,
                             int32_t bound);

    /**
     * SoA int16 SSD (coefficient-major planes, same layout contract
     * as ssdSoa) with per-16-block early exit. Strided gathers keep
     * this scalar at every level; the batch kernel below carries the
     * vector win.
     */
    int32_t (*ssdSoaI16)(const int16_t *const *pa, size_t off_a,
                         const int16_t *const *pb, size_t off_b, int len,
                         int32_t bound);

    /**
     * Batched SoA int16 SSD: out[i] = ssdI16 of @p ref against the
     * candidate at planes[k][off + i], for i in [0, count); arbitrary
     * @p count. _mm256_madd_epi16 processes 16 candidates per
     * accumulate — the kernel that doubles matching throughput over
     * the float path.
     */
    void (*ssdSoaBatchI16)(const int16_t *ref,
                           const int16_t *const *planes, size_t off,
                           int len, int count, int32_t *out);

    /**
     * Batched pair-interleaved int16 SSD — the block-matching window
     * scan kernel. Pair plane p stores coefficients (2p, 2p+1) of
     * position x adjacent at indices (2x, 2x+1), so eight candidates'
     * pair lanes are one contiguous 256-bit load and one madd against
     * the broadcast reference pair produces eight already-linearized
     * int32 partial sums: no unpack, no cross-lane permute. @p ref is
     * the gathered descriptor in natural coefficient order (pairs
     * adjacent), @p len the coefficient count (must be even), out[i]
     * the SSD of candidate off + i. Same wrap/exactness contract as
     * ssdI16.
     */
    void (*ssdPairBatchI16)(const int16_t *ref,
                            const int16_t *const *pair_planes, size_t off,
                            int len, int count, int32_t *out);

    /**
     * Int16 folded 4x4 DCT forward. @p even_q / @p odd_q are the 2x2
     * half matrices quantized to Q(coefFracBits) raws. Each 1-D pass
     * computes in int32, renormalizes with a round-to-nearest right
     * shift (@p shift1 after pass 1, @p shift2 after pass 2) and
     * saturates to int16 at the two pack points (packs_epi32
     * semantics). See fixed::Int16DctPlan for the shift schedule.
     */
    void (*dct4ForwardI16)(const int16_t *in, int16_t *out,
                           const int16_t *even_q, const int16_t *odd_q,
                           int shift1, int shift2);

    /**
     * Int16 Haar butterfly: saturating add/sub (adds/subs_epi16
     * semantics) followed by a Q15 rounded multiply by
     * @p factor_q15 (_mm_mulhrs_epi16 semantics, including the
     * -32768 * -32768 wrap). approx may alias even.
     */
    void (*haarForwardPairI16)(const int16_t *even, const int16_t *odd,
                               int16_t *approx, int16_t *detail,
                               int16_t factor_q15, int width);

    /** Inverse int16 Haar butterfly; outputs must not alias inputs. */
    void (*haarInversePairI16)(const int16_t *approx,
                               const int16_t *detail, int16_t *out_even,
                               int16_t *out_odd, int16_t factor_q15,
                               int width);

    /**
     * Int16 hard threshold in place: v[i] with abs_epi16(v[i]) <
     * threshold becomes 0. abs(-32768) stays -32768 and compares below
     * any positive threshold, so INT16_MIN is always zeroed — every
     * variant, scalar included, reproduces that. Returns the count of
     * surviving elements.
     */
    int (*hardThresholdI16)(int16_t *v, int count, int16_t threshold);

    // ---- fused group-major denoise kernels (DESIGN §12) ----------
    //
    // All three operate on a contiguous group tile g of
    // stack * width floats, row i holding patch i's coefficients:
    // the patch position is the SIMD lane, the Haar butterflies walk
    // rows. Every operation is lane-vertical with the exact
    // per-element expressions of the discrete kernels above (Haar1D
    // forwardRows/inverseRows schedule, hardThreshold / wienerApply
    // element semantics, dct4Inverse + aggregateAdd arithmetic), so
    // fused output is bitwise equal to the discrete composition at
    // every dispatch level. stack must be a power of two <= 16.

    /**
     * Fused DE1 spectrum pipeline over one group tile: full forward
     * Haar across the stack rows (factor = 1/sqrt(2) butterflies in
     * the forwardRows schedule), hard threshold of every transform-
     * domain element against @p threshold, full inverse Haar — one
     * call, no intermediate spill. Returns the surviving-coefficient
     * count (the aggregation weight's M).
     */
    int (*haarShrinkFused)(float *g, int stack, int width,
                           float threshold);

    /**
     * Fused DE2 spectrum pipeline: forward-Haar both the noisy tile
     * @p g and the basic tile @p bg, apply the empirical Wiener
     * weights w = b^2 / (b^2 + sigma2) to g (storing them to the
     * stack * width tile @p w so the caller can accumulate sum(w^2)
     * in double precision in its fixed i-major order), inverse-Haar
     * g. @p bg is clobbered (left in the transform domain). Returns
     * the count of weights > 0.5.
     */
    int (*wienerShrinkFused)(float *g, float *bg, float *w, int stack,
                             int width, float sigma2);

    /**
     * Fused inverse-DCT + weighted scanline aggregation of one group:
     * for each patch i in [0, stack), inverse-transform the 16
     * coefficients at coefs + 16*i (dct4Inverse arithmetic with the
     * invEven_/invOdd_ half matrices) and accumulate the restored 4x4
     * patch into the num/den planes (row stride @p plane_w) at offset
     * (lx[i], ly[i]) with aggregateAdd element arithmetic, rows
     * blocked 4 wide. Patches are accumulated in ascending i, so
     * overlapping pixels see the same addition order as per-patch
     * aggregateAdd calls.
     */
    void (*aggregateGroup)(float *num, float *den, int plane_w,
                           const float *coefs, const int *lx,
                           const int *ly, int stack, float weight,
                           const float *inv_even, const float *inv_odd);

    /**
     * Int16 fused DE1 spectrum pipeline, same tile contract as
     * haarShrinkFused on Q11.1 raws: saturating-add/mulhrs Haar
     * butterflies (haarForwardPairI16 / haarInversePairI16 element
     * semantics with @p factor_q15), hardThresholdI16 shrinkage.
     * Integer lane arithmetic, so bitwise identical across levels by
     * construction. Returns the surviving-coefficient count.
     */
    int (*haarShrinkFusedI16)(int16_t *g, int stack, int width,
                              int16_t threshold, int16_t factor_q15);

    // ---- displacement-major BM2 band scan (DESIGN §16) -----------
    //
    // For one displacement d, the color-domain distances of a whole
    // band of 4x4 references factor into three lane-vertical passes
    // whose adds replay ssdSoaBatch's canonical tree at len 16:
    // squared differences D, patch-column sums V = (D0+D2)+(D1+D3)
    // (the tree's first two levels), and the column fold
    // (V0+V2)+(V1+V3) (its last two). Every variant computes the same
    // per-element expressions, so results are bitwise equal across
    // levels and to the per-candidate ssdSoaBatch distances.

    /**
     * Squared-difference rows: d[r * d_stride + c] =
     * (a[r * stride + c] - b[r * stride + c])^2 for r in [0, rows),
     * c in [0, cols). @p d must not alias the inputs.
     */
    void (*bandSqDiff)(const float *a, const float *b, size_t stride,
                       int rows, int cols, float *d, size_t d_stride);

    /**
     * 4-row patch-column sums: v[r * stride + c] =
     * (d[r][c] + d[r+2][c]) + (d[r+1][c] + d[r+3][c]) for r in
     * [0, rows), reading rows + 3 rows of @p d (row pitch @p stride,
     * shared by @p v). @p v must not alias @p d.
     */
    void (*bandColSum4)(const float *d, size_t stride, int rows, int cols,
                        float *v);

    /**
     * Column fold and match selection of a band of references. For
     * r in [0, rows), c in [0, cols), with p = v + r * v_stride + c
     * and i = r * ref_stride + c:
     *   dist = ((p[0] + p[2]) + (p[1] + p[3])) * scale;
     *   dist <  cut[i]        -> hit: append i to @p hit_idx and dist
     *                            to @p hit_dist (ascending i);
     *   else if dist < tau    -> ++pruned[i] (int32 lanes).
     * NaN distances are neither. Returns the hit count; the caller
     * inserts the hits and tightens cut[]. Row r of @p v must hold
     * cols + 3 values; @p hit_idx and @p hit_dist need room for
     * rows * cols + kMaxLanes entries (variants store whole vectors
     * past the last hit).
     */
    int (*bandFoldSelect)(const float *v, size_t v_stride, int rows,
                          int cols, float scale, float tau,
                          const float *cut, int32_t *pruned,
                          size_t ref_stride, int32_t *hit_idx,
                          float *hit_dist);

    // ---- reference-lane BM1 window-row scan (DESIGN §16) ---------
    //
    // Up to bm1Lanes (8, or 16 at AVX-512) horizontally adjacent
    // references sit in the lanes with their 16 thresholded-DCT
    // coefficients held; every displacement
    // of one window row loads the 16 candidate planes at +d
    // contiguously and folds them with ssdSoaBatch's canonical len-16
    // tree, so each lane's distance is bitwise that candidate's
    // ssdSoaBatch distance.

    /**
     * Score one reference group against one window row of a 16-plane
     * field. With W = bm1Lanes, lane l in [0, @p lanes) (lanes <= W)
     * holds the reference descriptor ref[k * W + l], k in [0, 16) (@p
     * ref holds 16 * W floats). At step s in
     * [0, @p steps) its candidate is position x = x0 + s + l of the
     * field row at plane offset @p row (coefficient k at
     * planes[k][row + x]). The lane is masked — no load, no hit, no
     * prune — when l >= lanes, x lies outside [0, pos_x), or s ==
     * @p skip (pass -1 for none). For every other lane, with dist =
     * ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) scaled by @p scale, where
     * s_j = (ref_j - c_j)^2 + (ref_{8+j} - c_{8+j})^2:
     *   dist <  cut[l]        -> hit: append s * W + l to @p hit_idx
     *                            and dist to @p hit_dist, ascending in
     *                            (s, l);
     *   else if dist < tau    -> ++pruned[l] (int32 lanes).
     * @p cut is read once, so hits are relative to the cutoffs at the
     * start of the row. NaN distances are neither. Only entries
     * [0, lanes) of @p cut and @p pruned are accessed. Returns the hit
     * count; @p hit_idx and @p hit_dist need room for steps * W + W
     * entries (variants store whole vectors past the last hit).
     */
    int (*bm1LaneScan)(const float *ref, int lanes,
                       const float *const *planes, size_t row, int x0,
                       int pos_x, int steps, int skip, float scale,
                       float tau, const float *cut, int32_t *pruned,
                       int32_t *hit_idx, float *hit_dist);

    // ---- match selection (DESIGN §16.4) ----------------------------

    /**
     * Replay runs[0, n) in order into their lists with
     * BlockMatcher::considerRun's rule. For candidate j of a run, with
     * d = dist[j]:
     *   d <  *cut  -> matchInsert(d, pos[j]); then, if the list is
     *                 full, *cut = min(*cut, dist[capacity - 1])
     *                 (std::min's operand order);
     *   else if d < tau -> ++*pruned.
     * NaN distances are neither. The replay only compares and moves
     * values, so lists (tie order included), cutoffs and pruned counts
     * are bitwise equal at every level. There is no SSE variant: the
     * SSE table points at the scalar one.
     */
    void (*matchReplay)(const MatchRun *runs, int n, float tau);

    /**
     * bm1LaneScan's group width W, a power of two: 8 for scalar, SSE
     * and AVX2, 16 for AVX-512. Callers lay references out and decode
     * hit indices with it; per reference the results do not depend on
     * it.
     */
    int bm1Lanes;
};

/** Best level this CPU supports (probed once). */
Level bestSupported();

/**
 * The active dispatch level. Resolved on first use: bestSupported(),
 * lowered by IDEAL_SIMD if set.
 */
Level activeLevel();

/**
 * Test hook: force the active level (clamped to bestSupported();
 * tests that name a level check bestSupported() first and skip).
 * Not thread-safe against kernels in flight — call only from tests
 * and benchmarks between runs.
 */
void setLevel(Level level);

/** The kernel table of the active level. */
const KernelTable &kernels();

/**
 * The kernel table of @p level, clamped to bestSupported(). Lets
 * parity tests and microbenchmarks address a specific level without
 * changing the active dispatch.
 */
const KernelTable &kernelsFor(Level level);

} // namespace simd
} // namespace ideal

#endif // IDEAL_SIMD_SIMD_H_
