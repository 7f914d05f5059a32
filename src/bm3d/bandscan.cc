#include "bm3d/bandscan.h"

#include <bit>
#include <stdexcept>

#include "simd/simd.h"

namespace ideal {
namespace bm3d {

namespace {

constexpr int kPatch = 4;
constexpr int kCoefs = kPatch * kPatch;

} // namespace

bool
bandScanEligible(const Bm3dConfig &cfg)
{
    return cfg.patchSize == kPatch && cfg.searchStride == 1 &&
           cfg.refStride == 1 && !cfg.mr.enabled &&
           !cfg.variant.adaptiveBound && !cfg.variant.coarseToFine;
}

void
BandScan::begin(int pos_x, int pos_y, int window, float tau,
                int max_matches, int x0, int nx, int y0, int ny)
{
    half_ = (window - 1) / 2;
    posX_ = pos_x;
    posY_ = pos_y;
    x0_ = x0;
    nx_ = nx;
    y0_ = y0;
    const size_t refs = static_cast<size_t>(nx) * ny;
    lists_.resize(refs);
    cut_.assign(refs, tau);
    pruned_.assign(refs, 0);
    for (int i = 0; i < nx * ny; ++i) {
        lists_[i] = MatchList(max_matches);
        lists_[i].insert(Match{x0 + i % nx, y0 + i / nx, 0.0f});
    }
}

void
BandScan::run(const ColorMatchDomain &domain, int window, float tau,
              int max_matches, int x0, int nx, int y0, int ny)
{
    if (domain.patchSize() != kPatch)
        throw std::invalid_argument("BandScan: 4x4 patches only");
    begin(domain.positionsX(), domain.positionsY(), window, tau,
          max_matches, x0, nx, y0, ny);
    const size_t refs = static_cast<size_t>(nx) * ny;
    // D and V rows share one pitch: a reference row plus the patch's
    // extra 3 columns.
    const size_t pitch = static_cast<size_t>(nx) + kPatch - 1;
    diff_.resize(pitch * (ny + kPatch - 1));
    colSum_.resize(pitch * ny);
    hitIdx_.resize(refs + simd::kMaxLanes); // + the vector overrun
    hitDist_.resize(refs + simd::kMaxLanes);
    runs_.resize(refs);

    const simd::KernelTable &k = simd::kernels();
    const float *img = domain.pixels();
    const size_t stride = domain.rowStride();
    const float norm = 1.0f / static_cast<float>(kCoefs);
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
            // At one displacement each reference has at most one hit:
            // one single-candidate run per hit reference.
            for (int h = 0; h < hits; ++h) {
                const int i = static_cast<int>(base) + hitIdx_[h];
                runs_[h] = runOf(i, &hitDist_[h], nullptr,
                                 MatchList::pack(x0 + i % nx + dx,
                                                 y0 + i / nx + dy),
                                 1);
            }
            k.matchReplay(runs_.data(), hits, tau);
        }
    }
}

void
BandScan::run(const DctMatchDomain &domain, int window, float tau,
              int max_matches, int x0, int nx, int y0, int ny)
{
    const DctPatchField &field = domain.field();
    if (field.coefs() != kCoefs)
        throw std::invalid_argument("BandScan: 4x4 patches only");
    begin(domain.positionsX(), domain.positionsY(), window, tau,
          max_matches, x0, nx, y0, ny);
    const simd::KernelTable &k = simd::kernels();
    // References per lane group: the table's lane width, a power of
    // two, so hit indices s * width + l decode with a shift and a mask.
    const int width = k.bm1Lanes;
    const int width_log2 = std::countr_zero(static_cast<unsigned>(width));
    hitIdx_.resize(static_cast<size_t>(window) * width + width);
    hitDist_.resize(hitIdx_.size());
    laneDist_.resize(hitIdx_.size());
    lanePos_.resize(hitIdx_.size());
    runs_.resize(width);

    const float *const *planes = field.matchPlanes();
    const float norm = 1.0f / static_cast<float>(kCoefs);
    float ref[kCoefs * simd::kMaxLanes];
    for (int r = 0; r < ny; ++r) {
        const int ry = y0 + r;
        const int cy_lo = std::max(0, ry - half_);
        const int cy_hi = std::min(posY_ - 1, ry + half_);
        for (int g = 0; g < nx; g += width) {
            // One group: up to `width` adjacent references, descriptors
            // held lane-major, scored against each window row in turn.
            const int lanes = std::min(width, nx - g);
            const int rx0 = x0 + g;
            const int i0 = r * nx + g;
            const size_t ref_off = field.matchOffset(rx0, ry);
            for (int c = 0; c < kCoefs; ++c)
                for (int l = 0; l < width; ++l)
                    ref[c * width + l] =
                        l < lanes ? planes[c][ref_off + l] : 0.0f;
            for (int cy = cy_lo; cy <= cy_hi; ++cy) {
                const int hits = k.bm1LaneScan(
                    ref, lanes, planes, field.matchOffset(0, cy),
                    rx0 - half_, posX_, window, cy == ry ? half_ : -1, norm,
                    tau, cut_.data() + i0, pruned_.data() + i0,
                    hitIdx_.data(), hitDist_.data());
                if (hits == 0)
                    continue;
                // Group the (s, l)-ordered hits by lane, keeping each
                // lane's scan order: one run per reference, in a bucket
                // of `window` slots (a lane hits at most once a step).
                int count[simd::kMaxLanes] = {};
                for (int h = 0; h < hits; ++h) {
                    const int l = hitIdx_[h] & (width - 1);
                    const int s = hitIdx_[h] >> width_log2;
                    const size_t at =
                        static_cast<size_t>(l) * window + count[l]++;
                    laneDist_[at] = hitDist_[h];
                    lanePos_[at] = MatchList::pack(rx0 - half_ + s + l, cy);
                }
                int runs = 0;
                for (int l = 0; l < lanes; ++l) {
                    const size_t at = static_cast<size_t>(l) * window;
                    if (count[l] > 0)
                        runs_[runs++] = runOf(i0 + l, &laneDist_[at],
                                              &lanePos_[at], 0, count[l]);
                }
                k.matchReplay(runs_.data(), runs, tau);
            }
        }
    }
}

uint64_t
BandScan::evaluated(int i) const
{
    const int x = x0_ + i % nx_;
    const int y = y0_ + i / nx_;
    const int w = std::min(posX_ - 1, x + half_) - std::max(0, x - half_) + 1;
    const int h = std::min(posY_ - 1, y + half_) - std::max(0, y - half_) + 1;
    return static_cast<uint64_t>(w) * static_cast<uint64_t>(h) - 1;
}

} // namespace bm3d
} // namespace ideal
