#include "bm3d/patchfield.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "runtime/arena.h"
#include "simd/simd.h"

namespace ideal {
namespace bm3d {

void
extractPatch(const image::ImageF &plane, int x, int y, int patch_size,
             float *out)
{
    const float *base = plane.plane(0);
    const int w = plane.width();
    for (int r = 0; r < patch_size; ++r) {
        const float *row = base + static_cast<size_t>(y + r) * w + x;
        for (int c = 0; c < patch_size; ++c)
            out[r * patch_size + c] = row[c];
    }
}

DctPatchField::DctPatchField(
    const image::ImageF &plane, const transforms::Dct2D &dct,
    float threshold,
    const std::optional<fixed::PipelineFormats> &fixed_point,
    OpCounters *ops)
{
    build(plane, dct, threshold, fixed_point, ops, nullptr);
}

DctPatchField::~DctPatchField()
{
    if (arena_ != nullptr) {
        arena_->release(std::move(raw_));
        arena_->release(std::move(match_));
    }
    if (chargedBytes_ > 0)
        obs::chargeResidentBytes(-chargedBytes_);
}

size_t
DctPatchField::footprintBytes() const
{
    return (raw_.size() + match_.size()) * sizeof(float) +
           (matchI16_.size() + matchPairsI16_.size()) * sizeof(int16_t);
}

void
DctPatchField::publishFootprint()
{
    obs::MetricsRegistry::global().setMax(
        banded() ? "mem.peakBandBytes" : "mem.peakFieldBytes",
        static_cast<double>(footprintBytes()));
    // Ledger charge for the plain-vector storage this field owns (the
    // int16 planes always; raw_/match_ only when not arena-backed —
    // the arena charges its own fresh allocations).
    int64_t owned = static_cast<int64_t>(
        (matchI16_.capacity() + matchPairsI16_.capacity()) *
        sizeof(int16_t));
    if (arena_ == nullptr)
        owned += static_cast<int64_t>(
            (raw_.capacity() + match_.capacity()) * sizeof(float));
    if (owned != chargedBytes_) {
        obs::chargeResidentBytes(owned - chargedBytes_);
        chargedBytes_ = owned;
    }
}

void
DctPatchField::prepare(int plane_width, int plane_height,
                       const transforms::Dct2D &dct,
                       runtime::BufferArena *arena, int ring_rows)
{
    patchSize_ = dct.size();
    coefs_ = patchSize_ * patchSize_;
    posX_ = plane_width - patchSize_ + 1;
    posY_ = plane_height - patchSize_ + 1;
    if (posX_ <= 0 || posY_ <= 0)
        throw std::invalid_argument("DctPatchField: image < patch size");
    ringRows_ = (ring_rows > 0 && ring_rows < posY_) ? ring_rows : posY_;

    if (arena_ != nullptr && arena != arena_) {
        // Rebinding to a different arena: surrender the old storage to
        // the previous owner first.
        arena_->release(std::move(raw_));
        arena_->release(std::move(match_));
    }
    arena_ = arena;

    planeStride_ = static_cast<size_t>(posX_) * ringRows_;
    const size_t n = planeStride_ * coefs_;
    if (arena_ != nullptr) {
        arena_->ensure(raw_, n);
        arena_->ensure(match_, n);
    } else {
        raw_.resize(n);
        match_.resize(n);
    }
    matchPlanes_.resize(coefs_);
    for (int k = 0; k < coefs_; ++k)
        matchPlanes_[k] = match_.data() + static_cast<size_t>(k) *
                                              planeStride_;
    // Stale int16 planes from a previous geometry would misreport the
    // footprint; prepareI16() rebuilds them against the new stride.
    // resize(0) keeps the capacity, so steady-state re-preparation
    // still allocates nothing.
    matchI16_.resize(0);
    matchPairsI16_.resize(0);
    matchPlanesI16_.clear();
    matchPairPlanesI16_.clear();
    publishFootprint();
}

uint64_t
DctPatchField::fillRows(
    const image::ImageF &plane, const transforms::Dct2D &dct,
    float threshold,
    const std::optional<fixed::PipelineFormats> &fixed_point, int y0,
    int y1)
{
    if (plane.width() - patchSize_ + 1 != posX_ ||
        plane.height() - patchSize_ + 1 != posY_) {
        throw std::invalid_argument("DctPatchField: plane/prepare mismatch");
    }
    y0 = std::max(y0, 0);
    y1 = std::min(y1, posY_);
    if (y0 >= y1)
        return 0;

    // The SoA scatter is blocked over x: transform up to kBlock
    // consecutive positions first, then write each coefficient plane's
    // kBlock values as one contiguous run. A per-position scatter
    // touches coefs_ distinct cache lines (the planes sit ~posX*posY
    // floats apart); blocking turns that into coefs_ short sequential
    // bursts, which the store buffer handles far better. The values
    // are identical either way, so the field is bitwise unchanged.
    constexpr int kBlock = 8;
    float pixels[64];
    float tbuf[64][kBlock];
    for (int y = y0; y < y1; ++y) {
        for (int x0 = 0; x0 < posX_; x0 += kBlock) {
            const int nb = std::min(kBlock, posX_ - x0);
            for (int j = 0; j < nb; ++j) {
                const int x = x0 + j;
                extractPatch(plane, x, y, patchSize_, pixels);
                float *dst = raw_.data() + index(x, y);
                if (fixed_point)
                    dct.forwardFixed(pixels, dst, *fixed_point);
                else
                    dct.forward(pixels, dst);
                for (int k = 0; k < coefs_; ++k) {
                    const float c = dst[k];
                    tbuf[k][j] =
                        (threshold > 0.0f && std::abs(c) < threshold)
                            ? 0.0f
                            : c;
                }
            }
            const size_t off = matchOffset(x0, y);
            for (int k = 0; k < coefs_; ++k) {
                float *out =
                    match_.data() + static_cast<size_t>(k) * planeStride_ +
                    off;
                for (int j = 0; j < nb; ++j)
                    out[j] = tbuf[k][j];
            }
        }
    }
    return static_cast<uint64_t>(y1 - y0) * posX_;
}

void
DctPatchField::prepareI16()
{
    if (patchSize_ != 4)
        throw std::invalid_argument(
            "DctPatchField: int16 planes require a 4x4 patch");
    matchI16_.resize(planeStride_ * coefs_);
    matchPlanesI16_.resize(coefs_);
    for (int k = 0; k < coefs_; ++k)
        matchPlanesI16_[k] =
            matchI16_.data() + static_cast<size_t>(k) * planeStride_;
    // Pair-interleaved twin for the window-scan batch kernel: coefs/2
    // planes of 2 * planeStride_ raws each (same total footprint).
    matchPairsI16_.resize(planeStride_ * coefs_);
    matchPairPlanesI16_.resize(coefs_ / 2);
    for (int p = 0; p < coefs_ / 2; ++p)
        matchPairPlanesI16_[p] =
            matchPairsI16_.data() +
            static_cast<size_t>(p) * 2 * planeStride_;
    publishFootprint();
}

uint64_t
DctPatchField::fillRowsI16(const image::ImageF &plane,
                           const transforms::Dct2D &dct, float threshold,
                           int y0, int y1)
{
    if (plane.width() - patchSize_ + 1 != posX_ ||
        plane.height() - patchSize_ + 1 != posY_)
        throw std::invalid_argument("DctPatchField: plane/prepare mismatch");
    if (matchPlanesI16_.empty())
        throw std::logic_error("DctPatchField: prepareI16() not called");
    y0 = std::max(y0, 0);
    y1 = std::min(y1, posY_);
    if (y0 >= y1)
        return 0;

    // The folded half matrices in Q13 raws: even[m*2+i] = C[2m][i],
    // odd[m*2+i] = C[2m+1][i] (the float kernels' fwdEven_/fwdOdd_
    // layout). Locals, recomputed per band: quantization is pure, so
    // bands stay freely parallel with no shared mutable state.
    const float even_f[4] = {dct.coefficient(0, 0), dct.coefficient(0, 1),
                             dct.coefficient(2, 0), dct.coefficient(2, 1)};
    const float odd_f[4] = {dct.coefficient(1, 0), dct.coefficient(1, 1),
                            dct.coefficient(3, 0), dct.coefficient(3, 1)};
    int16_t evenQ[4], oddQ[4];
    fixed::quantizeBasisQ(even_f, 4, planI16_.coefFracBits, evenQ);
    fixed::quantizeBasisQ(odd_f, 4, planI16_.coefFracBits, oddQ);

    const int16_t thr_raw = static_cast<int16_t>(
        planI16_.match.quantize(static_cast<double>(threshold)));

    const simd::KernelTable &k = simd::kernels();

    // Same blocked SoA scatter as fillRows(); the per-patch pipeline
    // is quantize pixels -> int16 folded DCT -> saturating hard
    // threshold, all in pure integer ops, so any banding and any
    // dispatch level produce identical planes.
    constexpr int kBlock = 8;
    float pixels[16];
    int16_t pixq[16], coefq[16];
    int16_t tbuf[16][kBlock];
    for (int y = y0; y < y1; ++y) {
        for (int x0 = 0; x0 < posX_; x0 += kBlock) {
            const int nb = std::min(kBlock, posX_ - x0);
            for (int j = 0; j < nb; ++j) {
                const int x = x0 + j;
                extractPatch(plane, x, y, patchSize_, pixels);
                fixed::quantizeToI16(pixels, 16, planI16_.pixel, pixq);
                k.dct4ForwardI16(pixq, coefq, evenQ, oddQ,
                                 planI16_.shift1, planI16_.shift2);
                if (threshold > 0.0f)
                    k.hardThresholdI16(coefq, coefs_, thr_raw);
                for (int c = 0; c < coefs_; ++c)
                    tbuf[c][j] = coefq[c];
            }
            const size_t off = matchOffset(x0, y);
            for (int c = 0; c < coefs_; ++c) {
                int16_t *out = matchI16_.data() +
                               static_cast<size_t>(c) * planeStride_ + off;
                for (int j = 0; j < nb; ++j)
                    out[j] = tbuf[c][j];
                // Pair-interleaved scatter: coefficient c lands at
                // slot (c & 1) of pair plane c / 2.
                int16_t *pout = matchPairsI16_.data() +
                                static_cast<size_t>(c / 2) * 2 *
                                    planeStride_ +
                                2 * off + (c & 1);
                for (int j = 0; j < nb; ++j)
                    pout[2 * j] = tbuf[c][j];
            }
        }
    }
    return static_cast<uint64_t>(y1 - y0) * posX_;
}

void
DctPatchField::build(const image::ImageF &plane,
                     const transforms::Dct2D &dct, float threshold,
                     const std::optional<fixed::PipelineFormats> &fixed_point,
                     OpCounters *ops, runtime::BufferArena *arena)
{
    prepare(plane.width(), plane.height(), dct, arena);
    const uint64_t patches =
        fillRows(plane, dct, threshold, fixed_point, 0, posY_);
    if (ops)
        countOps(patches, patchSize_, threshold > 0.0f, ops);
}

void
DctPatchField::countOps(uint64_t patches, int patch_size, bool thresholded,
                        OpCounters *ops)
{
    // Each 2-D DCT is two n x n matrix products: 2 * n^3 multiplies
    // and adds (paper Sec. 2.1: 64 + 64 for n = 4 per 1-D pass).
    const uint64_t n = static_cast<uint64_t>(patch_size);
    ops->multiplies += patches * 2 * n * n * n;
    ops->additions += patches * 2 * n * n * (n - 1);
    ops->memoryReads += patches * n * n;
    // Raw store plus the matching-plane scatter.
    ops->memoryWrites += patches * n * n * 2;
    if (thresholded)
        ops->comparisons += patches * n * n;
}

TileDctField::TileDctField(TileDctField &&other) noexcept
    : x0_(other.x0_), y0_(other.y0_), width_(other.width_),
      height_(other.height_), coefs_(other.coefs_),
      store_(std::move(other.store_)), arena_(other.arena_)
{
    other.arena_ = nullptr;
}

TileDctField &
TileDctField::operator=(TileDctField &&other) noexcept
{
    if (this == &other)
        return *this;
    if (arena_ != nullptr)
        arena_->release(std::move(store_));
    x0_ = other.x0_;
    y0_ = other.y0_;
    width_ = other.width_;
    height_ = other.height_;
    coefs_ = other.coefs_;
    store_ = std::move(other.store_);
    arena_ = other.arena_;
    other.arena_ = nullptr;
    return *this;
}

TileDctField::~TileDctField()
{
    if (arena_ != nullptr)
        arena_->release(std::move(store_));
}

uint64_t
TileDctField::build(const image::ImageF &src, int c,
                    const transforms::Dct2D &dct,
                    const std::optional<fixed::PipelineFormats> &fixed_point,
                    int x0, int y0, int x1, int y1,
                    runtime::BufferArena *arena)
{
    const int p = dct.size();
    coefs_ = p * p;
    x0_ = x0;
    y0_ = y0;
    width_ = x1 - x0 + 1;
    height_ = y1 - y0 + 1;
    if (width_ <= 0 || height_ <= 0)
        throw std::invalid_argument("TileDctField: empty range");
    if (arena_ != nullptr && arena != arena_)
        arena_->release(std::move(store_));
    arena_ = arena;
    const size_t n = static_cast<size_t>(width_) * height_ * coefs_;
    if (arena_ != nullptr)
        arena_->ensure(store_, n);
    else
        store_.resize(n);

    const float *base = src.plane(c);
    const int w = src.width();
    float pixels[64];
    for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
            for (int r = 0; r < p; ++r) {
                const float *row =
                    base + static_cast<size_t>(y + r) * w + x;
                for (int cc = 0; cc < p; ++cc)
                    pixels[r * p + cc] = row[cc];
            }
            float *dst = store_.data() +
                         (static_cast<size_t>(y - y0_) * width_ +
                          (x - x0_)) *
                             coefs_;
            if (fixed_point)
                dct.forwardFixed(pixels, dst, *fixed_point);
            else
                dct.forward(pixels, dst);
        }
    }
    return static_cast<uint64_t>(width_) * height_;
}

} // namespace bm3d
} // namespace ideal
