#ifndef IDEAL_BM3D_PATCHFIELD_H_
#define IDEAL_BM3D_PATCHFIELD_H_

/**
 * @file
 * Precomputed per-position DCT patch fields — the software analogue of
 * the DCT1 step ("computing the DCT transformation of all possible
 * patches") plus the hard-threshold applied before matching distances
 * in BM1 (paper Fig. 1b, Path A), and the per-tile transform-once
 * cache that extends the same idea to the Wiener stage and the color
 * channels.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bm3d/profile.h"
#include "fixed/format.h"
#include "fixed/int16plan.h"
#include "image/image.h"
#include "transforms/dct.h"

namespace ideal {
namespace runtime {
class BufferArena;
} // namespace runtime

namespace bm3d {

/**
 * DCT coefficients of every patch position of a single plane.
 *
 * Position (x, y) is a patch top-left corner; valid positions are
 * 0 <= x <= width - patchSize (same for y). Two coefficient sets are
 * kept in two layouts:
 *
 *  - the raw DCT, position-major (AoS: the 16 coefficients of one
 *    patch are contiguous), consumed patch-at-a-time by the denoising
 *    engine (Path C);
 *  - the hard-thresholded matching copy, coefficient-major (SoA: one
 *    posX x posY plane per coefficient), so the block matcher's
 *    8-candidate SSD batch loads one contiguous 8-float lane per
 *    coefficient instead of eight strided descriptors.
 */
class DctPatchField
{
  public:
    /**
     * Compute the field.
     *
     * @param plane       image whose channel 0 is transformed
     * @param dct         transform for the configured patch size
     * @param threshold   Tht; coefficients with |c| < Tht are zeroed in
     *                    the matching copy. 0 disables thresholding (the
     *                    matching copy then equals the raw coefficients).
     * @param fixed_point when set, the DCT uses the fixed-point datapath
     * @param ops         optional operation counters to accumulate into
     */
    DctPatchField(const image::ImageF &plane, const transforms::Dct2D &dct,
                  float threshold,
                  const std::optional<fixed::PipelineFormats> &fixed_point,
                  OpCounters *ops);

    /** Empty field; prepare() + fillRows() or build() before use. */
    DctPatchField() = default;

    DctPatchField(const DctPatchField &) = delete;
    DctPatchField &operator=(const DctPatchField &) = delete;

    /** Releases the coefficient storage back to the arena, if any. */
    ~DctPatchField();

    /**
     * Size the field for a plane_width x plane_height plane (patch
     * size taken from @p dct) without computing coefficients. When
     * @p arena is given, the coefficient storage is drawn from it —
     * and returned to it on destruction or the next prepare() — so a
     * persistent field re-prepared every frame allocates only once.
     *
     * @p ring_rows selects the banded/ring storage mode (DESIGN §15):
     * when positive and smaller than the position-row count, only
     * ring_rows position rows are resident at once and row y lives in
     * slot y % ring_rows, so storage is O(posX * ring_rows * coefs)
     * instead of O(posX * posY * coefs). fillRows() then overwrites
     * the slot of row y - ring_rows; the caller (the band scheduler)
     * must only read rows within the trailing ring_rows-row window of
     * its fill cursor. 0 (the default) keeps every row resident.
     * Whole-image preparations report their footprint to the
     * `mem.peakFieldBytes` Max gauge, ring preparations to
     * `mem.peakBandBytes` — two gauges, so a process that runs both
     * schedules still records the banded working set.
     */
    void prepare(int plane_width, int plane_height,
                 const transforms::Dct2D &dct,
                 runtime::BufferArena *arena = nullptr,
                 int ring_rows = 0);

    /**
     * Compute the coefficients of position rows [y0, y1) of a prepared
     * field from channel 0 of @p plane (other channels are ignored, so
     * a color frame needs no plane copy). Disjoint row bands are
     * independent, so callers may fill
     * them from parallel tasks; the result is bitwise identical to any
     * other banding (each position's values depend only on the plane).
     * @return the number of patches transformed (for op accounting)
     */
    uint64_t fillRows(const image::ImageF &plane,
                      const transforms::Dct2D &dct, float threshold,
                      const std::optional<fixed::PipelineFormats> &fixed_point,
                      int y0, int y1);

    /** prepare() + fillRows() over every row: the ctor, reusable. */
    void build(const image::ImageF &plane, const transforms::Dct2D &dct,
               float threshold,
               const std::optional<fixed::PipelineFormats> &fixed_point,
               OpCounters *ops, runtime::BufferArena *arena = nullptr);

    /** Accumulate the op cost of @p patches forward DCTs + scatter. */
    static void countOps(uint64_t patches, int patch_size,
                         bool thresholded, OpCounters *ops);

    int positionsX() const { return posX_; }
    int positionsY() const { return posY_; }
    int patchSize() const { return patchSize_; }
    int coefs() const { return coefs_; }

    /** Resident position rows (== positionsY() unless ring mode). */
    int ringRows() const { return ringRows_; }

    /** True when prepared in banded/ring storage mode. */
    bool banded() const { return ringRows_ < posY_; }

    /**
     * Current coefficient-storage footprint in bytes (raw + matching
     * planes, float and int16), i.e. what a whole-image preparation
     * spends versus a ring preparation — the number behind the
     * mem.peakFieldBytes / mem.peakBandBytes gauges.
     */
    size_t footprintBytes() const;

    /** Raw DCT coefficients of the patch at top-left (x, y) (AoS). */
    const float *
    patch(int x, int y) const
    {
        return raw_.data() + index(x, y);
    }

    /**
     * The pp hard-thresholded coefficient planes used for matching:
     * matchPlanes()[k][matchOffset(x, y)] is coefficient k of the
     * patch at (x, y). All planes share one offset scheme, so a run of
     * adjacent candidates is contiguous in every plane.
     */
    const float *const *matchPlanes() const { return matchPlanes_.data(); }

    /** Offset of position (x, y) inside every matching plane. */
    size_t
    matchOffset(int x, int y) const
    {
        return static_cast<size_t>(rowSlot(y)) * posX_ + x;
    }

    /**
     * Gather the thresholded descriptor of (x, y) into @p out
     * (coefs() floats, AoS) — for batched matching references and for
     * parity tests against the plane layout.
     */
    void
    gatherMatchPatch(int x, int y, float *out) const
    {
        const size_t off = matchOffset(x, y);
        for (int k = 0; k < coefs_; ++k)
            out[k] = matchPlanes_[k][off];
    }

    /**
     * Size the quantized int16 matching planes (Config::precision ==
     * Int16). Call after prepare(); storage is plain vectors (the
     * arena is float-only) whose capacity persists across frames, so
     * steady-state re-preparation allocates nothing. Requires a 4x4
     * patch (the int16 DCT is the folded 4x4 kernel).
     */
    void prepareI16();

    /**
     * Quantized twin of fillRows() over position rows [y0, y1) of
     * channel 0 of @p plane: pixel
     * rows are quantized to the plan's Q8.6 and transformed with the
     * int16 folded DCT + saturating hard threshold, scattered into
     * int16 SoA planes. Runs in addition to fillRows() (the float
     * raw_ coefficients still feed the denoising engine). Disjoint
     * row bands compose bitwise-identically, like fillRows().
     * @return the number of patches transformed
     */
    uint64_t fillRowsI16(const image::ImageF &plane,
                         const transforms::Dct2D &dct, float threshold,
                         int y0, int y1);

    /** True once prepareI16()/fillRowsI16() built the int16 planes. */
    bool hasInt16() const { return !matchPlanesI16_.empty(); }

    /** Int16 twin of matchPlanes(); same offset scheme. */
    const int16_t *const *
    matchPlanesI16() const
    {
        return matchPlanesI16_.data();
    }

    /**
     * Pair-interleaved int16 planes for the window-scan batch kernel
     * (simd ssdPairBatchI16): plane p holds coefficients (2p, 2p+1)
     * of position idx at indices (2 idx, 2 idx + 1). Built alongside
     * the plain planes by fillRowsI16().
     */
    const int16_t *const *
    matchPairPlanesI16() const
    {
        return matchPairPlanesI16_.data();
    }

    /** Int16 twin of gatherMatchPatch(). */
    void
    gatherMatchPatchI16(int x, int y, int16_t *out) const
    {
        const size_t off = matchOffset(x, y);
        for (int k = 0; k < coefs_; ++k)
            out[k] = matchPlanesI16_[k][off];
    }

    /** Q-format plan of the int16 planes. */
    const fixed::Int16DctPlan &int16Plan() const { return planI16_; }

  private:
    /**
     * Resident slot of position row @p y. Whole-image mode is the
     * identity; ring mode wraps modulo ringRows_. Rows within one
     * resident window keep their relative order, so x-runs stay
     * contiguous and the blocked SoA scatter is layout-identical.
     */
    int
    rowSlot(int y) const
    {
        return y < ringRows_ ? y : y % ringRows_;
    }

    size_t
    index(int x, int y) const
    {
        return (static_cast<size_t>(rowSlot(y)) * posX_ + x) * coefs_;
    }

    /// Report footprintBytes() to the mode's mem.peak* gauge and the
    /// resident-bytes ledger (plain-vector storage only; arena-backed
    /// buffers are charged by the arena itself).
    void publishFootprint();

    int patchSize_ = 0;
    int coefs_ = 0;
    int posX_ = 0;
    int posY_ = 0;
    int ringRows_ = 0;       ///< resident rows (== posY_ outside ring mode)
    size_t planeStride_ = 0; ///< floats per matching plane
    int64_t chargedBytes_ = 0; ///< plain-vector bytes in the obs ledger
    std::vector<float> raw_;
    std::vector<float> match_;               ///< SoA coefficient planes
    std::vector<const float *> matchPlanes_; ///< plane base pointers
    runtime::BufferArena *arena_ = nullptr;  ///< owns raw_/match_ storage

    // Int16 matching path (built on demand; plain vectors — the arena
    // only pools float buffers — reusing capacity across frames).
    fixed::Int16DctPlan planI16_;
    std::vector<int16_t> matchI16_; ///< int16 SoA coefficient planes
    std::vector<const int16_t *> matchPlanesI16_;
    std::vector<int16_t> matchPairsI16_; ///< pair-interleaved planes
    std::vector<const int16_t *> matchPairPlanesI16_;
};

/**
 * Caller-owned state of ring-resident stage-1 runs (StageOptions::ring,
 * DESIGN §15): the persistent ring field and the schedule's cumulative
 * waits, in nanoseconds summed over workers. Wait times depend on
 * thread timing, never on the output.
 */
struct RingField
{
    DctPatchField field;
    /// Tiles waiting for rows another worker is filling.
    uint64_t fillWaitNs = 0;
    /// Fills waiting for the tiles that read their ring slots to merge.
    uint64_t stallNs = 0;
};

/**
 * Tile-local raw-DCT coefficient cache (AoS), the stage-2 /
 * color-channel "transform once" path: a worker rebuilds it per tile
 * over the halo-extended position range its matches can reach, and
 * the denoising engine then copies cached coefficients instead of
 * re-running a forward DCT for every stack membership (each position
 * participates in up to (window/step)^2 stacks). The backing storage
 * is an arena — build() reuses the previous tile's capacity, so
 * steady-state tiles allocate nothing.
 */
class TileDctField
{
  public:
    TileDctField() = default;
    TileDctField(const TileDctField &) = delete;
    TileDctField &operator=(const TileDctField &) = delete;
    TileDctField(TileDctField &&other) noexcept;
    TileDctField &operator=(TileDctField &&other) noexcept;

    /** Releases the cache storage back to the arena, if any. */
    ~TileDctField();

    /**
     * (Re)build the cache for channel @p c of @p src over the
     * inclusive position range [x0, x1] x [y0, y1]. When @p arena is
     * given, storage is drawn from (and on destruction returned to)
     * it, so a streaming run recycles worker caches across frames.
     * @return the number of forward DCTs executed (for op accounting)
     */
    uint64_t build(const image::ImageF &src, int c,
                   const transforms::Dct2D &dct,
                   const std::optional<fixed::PipelineFormats> &fixed_point,
                   int x0, int y0, int x1, int y1,
                   runtime::BufferArena *arena = nullptr);

    /** True when (x, y) lies inside the built range. */
    bool
    covers(int x, int y) const
    {
        return x >= x0_ && x < x0_ + width_ && y >= y0_ &&
               y < y0_ + height_;
    }

    /** Cached raw DCT coefficients of the patch at (x, y) (AoS). */
    const float *
    patch(int x, int y) const
    {
        return store_.data() +
               (static_cast<size_t>(y - y0_) * width_ + (x - x0_)) *
                   coefs_;
    }

  private:
    int x0_ = 0;
    int y0_ = 0;
    int width_ = 0;
    int height_ = 0;
    int coefs_ = 0;
    std::vector<float> store_;
    runtime::BufferArena *arena_ = nullptr; ///< owns store_'s storage
};

/** Copy the patch at top-left (x, y) of @p plane into @p out (row-major). */
void extractPatch(const image::ImageF &plane, int x, int y, int patch_size,
                  float *out);

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_PATCHFIELD_H_
