#include "bm3d/bandscan.h"

#include <algorithm>
#include <stdexcept>

#include "simd/simd.h"

namespace ideal {
namespace bm3d {

bool
bm2BandScanEligible(const Bm3dConfig &cfg)
{
    return cfg.patchSize == 4 && cfg.searchStride == 1 &&
           cfg.refStride == 1 && !cfg.mr.enabled &&
           !cfg.variant.adaptiveBound && !cfg.variant.coarseToFine;
}

void
Bm2BandScan::run(const ColorMatchDomain &domain, int window, float tau,
                 int max_matches, int x0, int nx, int y0, int ny)
{
    constexpr int kPatch = 4;
    if (domain.patchSize() != kPatch)
        throw std::invalid_argument("Bm2BandScan: 4x4 patches only");
    half_ = (window - 1) / 2;
    posX_ = domain.positionsX();
    posY_ = domain.positionsY();
    x0_ = x0;
    nx_ = nx;
    y0_ = y0;
    const size_t refs = static_cast<size_t>(nx) * ny;
    // D and V rows share one pitch: a reference row plus the patch's
    // extra 3 columns.
    const size_t pitch = static_cast<size_t>(nx) + kPatch - 1;
    lists_.resize(refs);
    cut_.assign(refs, tau);
    pruned_.assign(refs, 0);
    diff_.resize(pitch * (ny + kPatch - 1));
    colSum_.resize(pitch * ny);
    hitIdx_.resize(refs + 8); // + bandFoldSelect's vector overrun
    hitDist_.resize(refs + 8);
    for (int i = 0; i < nx * ny; ++i) {
        lists_[i] = MatchList(max_matches);
        lists_[i].insert(Match{x0 + i % nx, y0 + i / nx, 0.0f});
    }

    const simd::KernelTable &k = simd::kernels();
    const float *img = domain.pixels();
    const size_t stride = domain.rowStride();
    const float norm = 1.0f / static_cast<float>(kPatch * kPatch);
    for (int dy = -half_; dy <= half_; ++dy) {
        // References whose candidate row y + dy is a valid position.
        const int ry_lo = std::max(y0, -dy);
        const int ry_hi = std::min(y0 + ny - 1, posY_ - 1 - dy);
        if (ry_lo > ry_hi)
            continue;
        const int rows = ry_hi - ry_lo + 1;
        for (int dx = -half_; dx <= half_; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            const int rx_lo = std::max(x0, -dx);
            const int rx_hi = std::min(x0 + nx - 1, posX_ - 1 - dx);
            if (rx_lo > rx_hi)
                continue;
            const int cols = rx_hi - rx_lo + 1;
            const float *a =
                img + static_cast<size_t>(ry_lo) * stride + rx_lo;
            const float *b = a + static_cast<ptrdiff_t>(dy) *
                                     static_cast<ptrdiff_t>(stride) +
                             dx;
            k.bandSqDiff(a, b, stride, rows + kPatch - 1,
                         cols + kPatch - 1, diff_.data(), pitch);
            k.bandColSum4(diff_.data(), pitch, rows, cols + kPatch - 1,
                          colSum_.data());
            const size_t base = static_cast<size_t>(ry_lo - y0) * nx +
                                static_cast<size_t>(rx_lo - x0);
            const int hits = k.bandFoldSelect(
                colSum_.data(), pitch, rows, cols, norm, tau,
                cut_.data() + base, pruned_.data() + base, nx,
                hitIdx_.data(), hitDist_.data());
            // Below-cutoff lanes (a few percent): the same insert and
            // cutoff update BlockMatcher::considerRun performs.
            for (int h = 0; h < hits; ++h) {
                const int i = static_cast<int>(base) + hitIdx_[h];
                MatchList &l = lists_[i];
                l.insert(Match{x0 + i % nx + dx, y0 + i / nx + dy,
                               hitDist_[h]});
                cut_[i] = std::min(cut_[i], l.worstDistance());
            }
        }
    }
}

uint64_t
Bm2BandScan::evaluated(int i) const
{
    const int x = x0_ + i % nx_;
    const int y = y0_ + i / nx_;
    const int w = std::min(posX_ - 1, x + half_) - std::max(0, x - half_) + 1;
    const int h = std::min(posY_ - 1, y + half_) - std::max(0, y - half_) + 1;
    return static_cast<uint64_t>(w) * static_cast<uint64_t>(h) - 1;
}

} // namespace bm3d
} // namespace ideal
