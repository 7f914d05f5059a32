#ifndef IDEAL_BM3D_BANDSCAN_H_
#define IDEAL_BM3D_BANDSCAN_H_

/**
 * @file
 * Displacement-major BM2 window scan (DESIGN §16).
 *
 * BlockMatcher::search scores each reference's window on its own:
 * 16 subtract-multiply-adds per candidate. In BM2's color domain two
 * references that are neighbours at the same displacement d share 3
 * of their 4 pixel columns and 3 of their 4 pixel rows, so for a band
 * of references the scan below turns the loop inside out. For each d,
 * visited in the row-major (dy, dx) order every reference's own scan
 * uses, it computes once for the band
 *   D[p] = (I[p] - I[p + d])^2,
 *   V    = (D[r] + D[r+2]) + (D[r+1] + D[r+3])   (4-row column sums),
 * and each reference's distance ((V[c]+V[c+2]) + (V[c+1]+V[c+3])) / 16.
 * Those two sums are exactly the canonical 8-lane fold ssdSoaBatch
 * applies at len 16, so every distance, match list (tie order
 * included), evaluated count and pruned count is bitwise equal to
 * BlockMatcher<ColorMatchDomain>::search at infinite initial bound.
 */

#include <cstdint>
#include <vector>

#include "bm3d/blockmatch.h"
#include "bm3d/config.h"
#include "bm3d/matchlist.h"

namespace ideal {
namespace bm3d {

/**
 * Whether the stage-2 search of @p cfg may run displacement-major:
 * 4x4 patches, search and reference strides of 1, no Matches Reuse, no
 * adaptive bound and no coarse-to-fine grid (those chain state across
 * consecutive references, or skip them). Temporal seeding never
 * applies to BM2. Every other configuration keeps
 * BlockMatcher::search.
 */
bool bm2BandScanEligible(const Bm3dConfig &cfg);

/**
 * Band-of-references BM2 scan with reusable scratch (one per worker;
 * steady-state runs allocate nothing).
 */
class Bm2BandScan
{
  public:
    /**
     * Search every reference of the position rectangle
     * [x0, x0 + nx) x [y0, y0 + ny) over its Ns x Ns window
     * (@p window odd), accepting distances below @p tau into lists of
     * capacity @p max_matches, each seeded with the reference itself.
     * @p domain must use 4x4 patches.
     */
    void run(const ColorMatchDomain &domain, int window, float tau,
             int max_matches, int x0, int nx, int y0, int ny);

    /** Match list of reference i (row-major in the last rectangle). */
    const MatchList &matches(int i) const { return lists_[i]; }

    /** Candidate distances evaluated for reference i. */
    uint64_t evaluated(int i) const;

    /** Candidates below tau the running cutoff rejected (reference i). */
    uint64_t
    pruned(int i) const
    {
        return static_cast<uint64_t>(pruned_[i]);
    }

  private:
    int half_ = 0;
    int posX_ = 0;
    int posY_ = 0;
    int x0_ = 0;
    int nx_ = 0;
    int y0_ = 0;
    std::vector<MatchList> lists_;
    std::vector<float> cut_;      ///< per-reference acceptance cutoff
    std::vector<int32_t> pruned_; ///< per-reference pruned count
    std::vector<float> diff_;     ///< D rows of one displacement
    std::vector<float> colSum_;   ///< V rows of one displacement
    std::vector<int32_t> hitIdx_;
    std::vector<float> hitDist_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_BANDSCAN_H_
