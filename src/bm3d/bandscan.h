#ifndef IDEAL_BM3D_BANDSCAN_H_
#define IDEAL_BM3D_BANDSCAN_H_

/**
 * @file
 * Band scans: the BM1 and BM2 window scans of a band of references at
 * once (DESIGN §16).
 *
 * BlockMatcher::search scores each reference's window on its own:
 * one reference, every candidate of its window, 16 subtract-multiply-
 * adds per candidate. The scans below visit each reference's
 * candidates in the same row-major (dy, dx) order but organise the
 * work across references, with one run per matching domain:
 *
 *  - BM2 (color domain), displacement-major: two references that are
 *    neighbours at the same displacement d share 3 of their 4 pixel
 *    columns and rows, so for each d the band computes once
 *      D[p] = (I[p] - I[p + d])^2,
 *      V    = (D[r] + D[r+2]) + (D[r+1] + D[r+3])   (4-row column sums)
 *    and each reference's distance ((V[c]+V[c+2]) + (V[c+1]+V[c+3])) / 16.
 *  - BM1 (thresholded-DCT domain), reference-lane: 8 adjacent
 *    references (16 at the AVX-512 level, KernelTable::bm1Lanes) sit
 *    in the vector lanes with their descriptors held
 *    while every displacement of a window row streams the candidates
 *    at +d past them, contiguously in each coefficient plane. This is
 *    IDEALB's organisation: lock-step engines each hold one reference
 *    while the patch buffer broadcasts one candidate stream to all of
 *    them (paper §4). The gain is the loop shape: no scalar tail per
 *    window row, no separate normalisation pass, and one vector
 *    compare per 8 candidates instead of a branch per candidate.
 *
 * Both evaluate exactly the canonical 8-lane fold ssdSoaBatch applies
 * at len 16 and replay below-cutoff candidates through the same
 * matchReplay kernel as BlockMatcher::considerRun (DESIGN §16.4), each
 * reference's candidates in its own scan order, so every distance,
 * match list (tie order included), evaluated count and pruned count is
 * bitwise equal to BlockMatcher<Domain>::search at infinite initial
 * bound.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bm3d/blockmatch.h"
#include "bm3d/config.h"
#include "bm3d/matchlist.h"
#include "simd/simd.h"

namespace ideal {
namespace bm3d {

/**
 * Whether the window scans of @p cfg may run as band scans: 4x4
 * patches, search and reference strides of 1, no Matches Reuse, no
 * adaptive bound and no coarse-to-fine grid (those chain state across
 * consecutive references, or skip them). The float matching domains
 * only; BM1 additionally needs a run without temporal seeding (the
 * seeded scan visits a different candidate set). Every other
 * configuration keeps BlockMatcher::search.
 */
bool bandScanEligible(const Bm3dConfig &cfg);

/**
 * Band-of-references window scan with reusable scratch (one per
 * worker; steady-state runs allocate nothing).
 */
class BandScan
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

    /** The same search over BM1's thresholded-DCT field. */
    void run(const DctMatchDomain &domain, int window, float tau,
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
    /** Size the per-reference state and seed every list. */
    void begin(int pos_x, int pos_y, int window, float tau,
               int max_matches, int x0, int nx, int y0, int ny);

    /** The matchReplay run of reference i's candidates. */
    simd::MatchRun
    runOf(int i, const float *dist, const uint32_t *pos, uint32_t pos0,
          int count)
    {
        return simd::MatchRun{&lists_[i].slots(), &cut_[i], &pruned_[i],
                              dist, pos, pos0, count};
    }

    int half_ = 0;
    int posX_ = 0;
    int posY_ = 0;
    int x0_ = 0;
    int nx_ = 0;
    int y0_ = 0;
    std::vector<MatchList> lists_;
    std::vector<float> cut_;      ///< per-reference acceptance cutoff
    std::vector<int32_t> pruned_; ///< per-reference pruned count
    std::vector<float> diff_;     ///< BM2: D rows of one displacement
    std::vector<float> colSum_;   ///< BM2: V rows of one displacement
    std::vector<int32_t> hitIdx_;
    std::vector<float> hitDist_;
    std::vector<simd::MatchRun> runs_; ///< one replay batch
    std::vector<float> laneDist_;      ///< BM1: hits grouped by lane
    std::vector<uint32_t> lanePos_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_BANDSCAN_H_
