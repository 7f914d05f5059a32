/**
 * @file
 * Per-kernel microbenchmark of the src/simd dispatch layer: times
 * every hot kernel at every dispatch level the CPU supports and
 * writes BENCH_micro_kernels.json, the regression baseline that
 * scripts/bench_diff.py compares across commits. `--quick` shrinks
 * the iteration counts for use as a ctest smoke test (`-L bench`).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "bench/common.h"
#include "bm3d/bandscan.h"
#include "bm3d/blockmatch.h"
#include "bm3d/patchfield.h"
#include "fixed/int16plan.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "simd/simd.h"
#include "transforms/dct.h"

using namespace ideal;

namespace {

/** Deterministic input generator (xorshift64*; no time seeds). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    float
    uniform(float lo, float hi)
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        const uint64_t r = state_ * 0x2545f4914f6cdd1dull;
        const double u =
            static_cast<double>(r >> 11) / 9007199254740992.0;
        return lo + static_cast<float>(u * (hi - lo));
    }

  private:
    uint64_t state_;
};

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Keeps results observable so the timed loops cannot be elided. */
float g_sink = 0.0f;

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    bench::printHeader("micro-kernels",
                       "SIMD kernel timings per dispatch level");

    // One pool of 16-float patch descriptors reused by every kernel;
    // large enough to defeat L1 residency games between levels.
    // Quick keeps the pool small but the iteration count high enough
    // that every timed section spans >= a few ms: sub-millisecond
    // sections jitter past bench_diff.py's 10% threshold on a busy
    // host from timer noise alone.
    const int patches = quick ? 1024 : 8192;
    const int iters = quick ? 600 : 400;
    Rng rng(12345);
    std::vector<float> pool(static_cast<size_t>(patches) * 16);
    for (float &v : pool)
        v = rng.uniform(-64.0f, 64.0f);
    std::vector<float> scratch(pool.size());
    std::vector<float> den(pool.size());
    std::vector<float> wbuf(16);
    float dctm[4] = {0.5f, 0.5f, 0.653281482f, 0.270598054f};

    bench::BenchRecord rec;
    rec.name = "micro_kernels";
    rec.requestedThreads = 1;
    rec.metrics["patches"] = patches;
    rec.metrics["iterations"] = iters;
    rec.metrics["quick"] = quick ? 1.0 : 0.0;

    const auto t_total = std::chrono::steady_clock::now();
    std::vector<int> widths = {10, 12, 12, 12};
    std::vector<std::string> header = {"kernel"};
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l)
        header.push_back(simd::toString(static_cast<simd::Level>(l)));
    bench::printRow(header, widths);

    struct Timing
    {
        std::string kernel;
        std::vector<double> ms;
    };
    std::vector<Timing> rows = {
        {"ssd", {}},        {"ssd_batch", {}},  {"ssd_soa_batch", {}},
        {"dct4_fwd", {}},   {"dct4_inv", {}},   {"haar_pair", {}},
        {"hard_thr", {}},   {"wiener", {}},     {"aggregate", {}},
        {"merge_add", {}},  {"ssd_int16", {}},  {"ssd_soa_batch_int16", {}},
        {"ssd_pair_batch_int16", {}},           {"ssd_pair_batch_int16_w13", {}},
        {"dct4_fwd_int16", {}},
        {"haar_shrink_fused", {}},              {"wiener_shrink_fused", {}},
        {"aggregate_group", {}},    {"haar_shrink_fused_int16", {}},
        {"ssd_scan", {}},           {"bm2_scan_ref", {}},
        {"bm2_scan_band", {}},      {"bm1_scan_ref", {}},
        {"bm1_scan_lane", {}},      {"bm1_scan_ref_edge", {}},
        {"bm1_scan_lane_edge", {}},  {"bm1_lane_kernel", {}},
        {"match_replay_w13", {}},    {"match_replay_w49", {}},
    };

    // Coefficient-major view of the pool for the SoA kernels: plane k
    // holds coefficient k of every "candidate position".
    std::vector<const float *> soa_planes(16);
    for (int k = 0; k < 16; ++k)
        soa_planes[k] = pool.data() + static_cast<size_t>(k) * patches;

    // Int16 twins: the same pool quantized to the plan's pixel format
    // (the [-64, 64] values fit Q8.6 comfortably), plus the quantized
    // DCT basis and int32 distance outputs.
    const fixed::Int16DctPlan plan;
    std::vector<int16_t> pool_i16(pool.size());
    fixed::quantizeToI16(pool.data(), pool.size(), plan.pixel,
                         pool_i16.data());
    std::vector<int16_t> scratch_i16(pool.size());
    std::vector<const int16_t *> soa_planes_i16(16);
    for (int k = 0; k < 16; ++k)
        soa_planes_i16[k] =
            pool_i16.data() + static_cast<size_t>(k) * patches;
    int16_t dctmQ[4];
    fixed::quantizeBasisQ(dctm, 4, plan.coefFracBits, dctmQ);

    // Pair-interleaved twin of the SoA planes (BM1's layout): pair
    // plane p holds coefficients 2p and 2p+1 of position x at indices
    // 2x and 2x+1, so one vector load spans several candidates' pairs.
    std::vector<int16_t> pairs_i16(static_cast<size_t>(16) * patches);
    std::vector<const int16_t *> pair_planes_i16(8);
    for (int p = 0; p < 8; ++p) {
        int16_t *dst =
            pairs_i16.data() + static_cast<size_t>(p) * 2 * patches;
        for (int x = 0; x < patches; ++x) {
            dst[2 * x] = soa_planes_i16[2 * p][x];
            dst[2 * x + 1] = soa_planes_i16[2 * p + 1][x];
        }
        pair_planes_i16[p] = dst;
    }

    // Group tiles for the fused denoise kernels (DESIGN §12): the
    // pool viewed as 16-deep x 16-wide stacks, one fused call per
    // group, plus a 64x64 aggregation plane with overlapping corners.
    const int groups = patches / 16;
    std::vector<float> basic_tiles(pool.size());
    std::vector<float> wtile(256);
    std::vector<float> plane_num(64 * 64, 0.0f);
    std::vector<float> plane_den(64 * 64, 0.0f);
    int glx[16], gly[16];
    for (int i = 0; i < 16; ++i) {
        glx[i] = (i * 7) % 60;
        gly[i] = (i * 11) % 60;
    }

    // BM2 window scan of one 64x8 reference band at the paper's
    // stage-2 window (39) over a lightly noisy street scene: the
    // per-reference BlockMatcher::search versus the displacement-major
    // band scan (DESIGN §16). Both produce the same lists bit for bit;
    // their ratio is the kernel-layer prediction of the BM2 speedup.
    const image::ImageF bm2_plane = image::addGaussianNoise(
        image::makeScene(image::SceneKind::Street, 128, 64, 1, 7), 5.0f,
        8);
    const bm3d::ColorMatchDomain bm2_domain(bm2_plane, 4);
    const bm3d::BlockMatcher<bm3d::ColorMatchDomain> bm2_matcher(
        bm2_domain, 39, 1, 1, 400.0f, 16);
    bm3d::BandScan band_scan; // scratch shared by the BM2 and BM1 rows
    const int bm2_iters = quick ? 4 : 10;
    const int bm2_x0 = 32, bm2_y0 = 24; // window stays inside the image

    // BM1 window scan of one 64-reference row at the paper's stage-1
    // window (49) over the thresholded-DCT field of a sigma-25 street
    // scene: the per-reference BlockMatcher::search versus the
    // reference-lane band scan (DESIGN §16), bitwise the same lists.
    // The interior row keeps every window inside the image; the edge
    // row starts at the top-left corner, so windows clip and the
    // first groups mask their out-of-image lanes.
    const image::ImageF bm1_plane = image::addGaussianNoise(
        image::makeScene(image::SceneKind::Street, 128, 64, 1, 9), 25.0f,
        10);
    const transforms::Dct2D bm1_dct(4);
    const bm3d::DctPatchField bm1_field(bm1_plane, bm1_dct, 2.0f * 25.0f,
                                        std::nullopt, nullptr);
    const bm3d::DctMatchDomain bm1_domain(bm1_field);
    const bm3d::BlockMatcher<bm3d::DctMatchDomain> bm1_matcher(
        bm1_domain, 49, 1, 1, 3000.0f, 16);
    const int bm1_iters = quick ? 4 : 20;
    struct Bm1Row
    {
        int x0, y0;
    };
    const Bm1Row bm1_rows[] = {{32, 30}, {0, 0}}; // interior, edge

    // Match selection (DESIGN §16.4) of the interior BM1 row's 64
    // references: each reference's window-row distances are recorded
    // once, at window 13 (video_hd's BM1) and 49 (the paper's), then
    // replayed run by run into a fresh list exactly as
    // BlockMatcher::search feeds matchReplay. Scalar versus dispatched
    // is the per-insert win. (One reference replayed over and over
    // would flatter the scalar loop: its branches learn the pattern.)
    struct ReplayRef
    {
        int x, y;
        std::vector<std::vector<float>> dist;
        std::vector<uint32_t> pos0;
    };
    auto recordRefs = [&](int window) {
        std::vector<ReplayRef> refs;
        const int half = (window - 1) / 2;
        const Bm1Row &br = bm1_rows[0];
        for (int x = br.x0; x < br.x0 + 64; ++x) {
            ReplayRef ref{x, br.y0, {}, {}};
            float desc[16];
            bm1_domain.gatherRef(x, br.y0, desc);
            auto add = [&](int x0, int x1, int y) {
                if (x0 > x1)
                    return;
                std::vector<float> d(static_cast<size_t>(x1 - x0 + 1));
                bm1_domain.distanceBatch(desc, x0, y, x1 - x0 + 1,
                                         d.data());
                ref.dist.push_back(d);
                ref.pos0.push_back(bm3d::MatchList::pack(x0, y));
            };
            for (int y = br.y0 - half; y <= br.y0 + half; ++y) {
                if (y == br.y0) {
                    add(x - half, x - 1, y);
                    add(x + 1, x + half, y);
                } else {
                    add(x - half, x + half, y);
                }
            }
            refs.push_back(ref);
        }
        return refs;
    };
    const std::vector<ReplayRef> replay_refs[] = {recordRefs(13),
                                                  recordRefs(49)};
    const int replay_iters[] = {quick ? 100 : 200, quick ? 20 : 40};

    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        const auto level = static_cast<simd::Level>(l);
        const simd::KernelTable &k = simd::kernelsFor(level);
        const std::string suffix = std::string("_") + simd::toString(level);
        int row = 0;
        // Best-of-5: the minimum over repetitions is far more stable
        // than a single pass on a shared/noisy host, which matters
        // because bench_diff.py flags >10% deltas.
        auto record = [&](auto &&body) {
            double best = 1e300;
            for (int rep = 0; rep < 5; ++rep) {
                const auto t = std::chrono::steady_clock::now();
                body();
                best = std::min(best, msSince(t));
            }
            rows[row].ms.push_back(best);
            rec.kernelTimesMs[rows[row].kernel + suffix] = best;
            ++row;
        };

        // Bounded SSD of every patch against patch 0 (the block-match
        // inner loop shape).
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 1; i < patches; ++i)
                    g_sink += k.ssdBounded(pool.data(),
                                           pool.data() + 16 * i, 16,
                                           1e9f);
        });

        // Batched SSD, 8 candidates per call.
        record([&] {
            float out[8];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 8 <= patches; i += 8) {
                    k.ssdBatch16(pool.data(), pool.data() + 16 * i, 8,
                                 out);
                    g_sink += out[0] + out[7];
                }
        });

        // Batched SoA SSD over window-row-sized runs of candidates
        // (the coefficient-major block-matching hot path: one dispatch
        // per run).
        record([&] {
            float out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatch(pool.data(), soa_planes.data(),
                                  static_cast<size_t>(i), 16, 64, out);
                    g_sink += out[0] + out[63];
                }
        });

        // Forward / inverse 4x4 DCT per patch.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4Forward(pool.data() + 16 * i,
                                  scratch.data() + 16 * i, dctm, dctm);
        });
        g_sink += scratch[0];

        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4Inverse(scratch.data() + 16 * i,
                                  scratch.data() + 16 * i, dctm, dctm);
        });
        g_sink += scratch[1];

        // One Haar butterfly over adjacent 16-lane rows.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 2 <= patches; i += 2)
                    k.haarForwardPair(pool.data() + 16 * i,
                                      pool.data() + 16 * (i + 1),
                                      scratch.data() + 16 * i,
                                      scratch.data() + 16 * (i + 1),
                                      0.70710678f, 16);
        });
        g_sink += scratch[2];

        // Shrinkage + aggregation over the pool.
        std::copy(pool.begin(), pool.end(), scratch.begin());
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    g_sink += static_cast<float>(k.hardThreshold(
                        scratch.data() + 16 * i, 16, 8.0f));
        });

        // wienerApply shrinks its input in place (w < 1), so feeding
        // it its own output drives the values denormal within a few
        // dozen iterations and the microcoded denormal handling, not
        // the kernel, dominates (and jitters). Refresh the input each
        // iteration; the uniform 64 KB copy is noise at this scale.
        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool.begin(), pool.end(), scratch.begin());
                for (int i = 0; i < patches; ++i)
                    g_sink += static_cast<float>(
                        k.wienerApply(scratch.data() + 16 * i,
                                      pool.data() + 16 * i, wbuf.data(),
                                      16, 625.0f));
            }
        });

        std::fill(den.begin(), den.end(), 0.0f);
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.aggregateAdd(scratch.data() + 16 * i,
                                   den.data() + 16 * i,
                                   pool.data() + 16 * i, 0.25f, 16);
        });
        g_sink += den[0];

        // Fused accumulator merge over full pool-sized rows (the
        // tile-into-image aggregation merge).
        record([&] {
            for (int it = 0; it < iters; ++it)
                k.mergeAdd(scratch.data(), den.data(), pool.data(),
                           pool.data(), patches * 16);
        });
        g_sink += den[1];

        // Int16 bounded SSD in the same shape as the float row above:
        // the head-to-head that motivates the quantized path
        // (_mm256_madd_epi16 accumulates 16 lanes vs 8 float lanes).
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 1; i < patches; ++i)
                    g_sink += static_cast<float>(k.ssdBoundedI16(
                        pool_i16.data(), pool_i16.data() + 16 * i, 16,
                        INT32_MAX));
        });

        // Batched int16 SoA SSD, window-row-sized runs.
        record([&] {
            int32_t out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatchI16(pool_i16.data(),
                                     soa_planes_i16.data(),
                                     static_cast<size_t>(i), 16, 64, out);
                    g_sink += static_cast<float>(out[0] + out[63]);
                }
        });

        // Pair-interleaved int16 batch SSD: the BM1 inner loop, where
        // madd against a broadcast reference pair yields per-candidate
        // sums with no unpack/permute.
        record([&] {
            int32_t out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdPairBatchI16(pool_i16.data(),
                                      pair_planes_i16.data(),
                                      static_cast<size_t>(i), 16, 64,
                                      out);
                    g_sink += static_cast<float>(out[0] + out[63]);
                }
        });

        // The same kernel at window 13 (video_hd's BM1 rows): 13-wide
        // runs, the 8-wide overlapped pass, over the same candidates.
        record([&] {
            int32_t out[13];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 13 <= patches; i += 13) {
                    k.ssdPairBatchI16(pool_i16.data(),
                                      pair_planes_i16.data(),
                                      static_cast<size_t>(i), 16, 13,
                                      out);
                    g_sink += static_cast<float>(out[0] + out[12]);
                }
        });

        // Int16 folded forward DCT per patch.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4ForwardI16(pool_i16.data() + 16 * i,
                                     scratch_i16.data() + 16 * i, dctmQ,
                                     dctmQ, plan.shift1, plan.shift2);
        });
        g_sink += static_cast<float>(scratch_i16[0]);

        // Fused group-major denoise kernels (DESIGN §12), one call per
        // 16-deep group tile. The inputs are refreshed per iteration
        // for the same reason as the wiener row: the shrinkage mutates
        // its tile in place.
        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool.begin(), pool.end(), scratch.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.haarShrinkFused(
                        scratch.data() + 256 * g, 16, 16, 8.0f));
            }
        });

        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool.begin(), pool.end(), scratch.begin());
                std::copy(pool.begin(), pool.end(),
                          basic_tiles.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.wienerShrinkFused(
                        scratch.data() + 256 * g,
                        basic_tiles.data() + 256 * g, wtile.data(), 16,
                        16, 625.0f));
            }
        });

        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int g = 0; g < groups; ++g)
                    k.aggregateGroup(plane_num.data(), plane_den.data(),
                                     64, pool.data() + 256 * g, glx, gly,
                                     16, 0.25f, dctm, dctm);
        });
        g_sink += plane_num[0] + plane_den[0];

        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool_i16.begin(), pool_i16.end(),
                          scratch_i16.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.haarShrinkFusedI16(
                        scratch_i16.data() + 256 * g, 16, 16, 135,
                        23170));
            }
        });

        // SoA SSD window scan: whole 64-candidate runs, the shape
        // BlockMatcher::search dispatches per window row.
        record([&] {
            float out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatch(pool.data(), soa_planes.data(),
                                  static_cast<size_t>(i), 16, 64, out);
                    g_sink += out[0] + out[63];
                }
        });

        // The matcher and the band scan dispatch through the active
        // table, so these two rows switch the process-wide level.
        simd::setLevel(level);
        record([&] {
            bm3d::MatchList list;
            for (int it = 0; it < bm2_iters; ++it)
                for (int y = bm2_y0; y < bm2_y0 + 8; ++y)
                    for (int x = bm2_x0; x < bm2_x0 + 64; ++x) {
                        bm2_matcher.search(x, y, list);
                        g_sink += static_cast<float>(list.size());
                    }
        });
        record([&] {
            for (int it = 0; it < bm2_iters; ++it) {
                band_scan.run(bm2_domain, 39, 400.0f, 16, bm2_x0, 64,
                              bm2_y0, 8);
                g_sink +=
                    static_cast<float>(band_scan.matches(0).size());
            }
        });
        for (const Bm1Row &br : bm1_rows) {
            record([&] {
                bm3d::MatchList list;
                for (int it = 0; it < bm1_iters; ++it)
                    for (int x = br.x0; x < br.x0 + 64; ++x) {
                        bm1_matcher.search(x, br.y0, list);
                        g_sink += static_cast<float>(list.size());
                    }
            });
            record([&] {
                for (int it = 0; it < bm1_iters; ++it) {
                    band_scan.run(bm1_domain, 49, 3000.0f, 16, br.x0,
                                  64, br.y0, 1);
                    g_sink +=
                        static_cast<float>(band_scan.matches(0).size());
                }
            });
        }
        // The bare bm1LaneScan calls of the interior row (8 groups x 49
        // window rows) against zero cutoffs: scoring and selection with
        // no hit to replay. bm1_scan_lane minus this row is the
        // match-list insertion the lane scan leaves to the caller.
        record([&] {
            const float *const *planes = bm1_field.matchPlanes();
            const Bm1Row &br = bm1_rows[0];
            float ref[16 * 8];
            const float cut[8] = {};
            int32_t pruned[8] = {};
            std::vector<int32_t> idx(49 * 8 + 8);
            std::vector<float> dist(idx.size());
            for (int it = 0; it < bm1_iters; ++it)
                for (int g = 0; g < 64; g += 8) {
                    const size_t off =
                        bm1_field.matchOffset(br.x0 + g, br.y0);
                    for (int c = 0; c < 16; ++c)
                        for (int l = 0; l < 8; ++l)
                            ref[c * 8 + l] = planes[c][off + l];
                    for (int cy = br.y0 - 24; cy <= br.y0 + 24; ++cy)
                        g_sink += static_cast<float>(k.bm1LaneScan(
                            ref, 8, planes, bm1_field.matchOffset(0, cy),
                            br.x0 + g - 24, bm1_field.positionsX(), 49,
                            cy == br.y0 ? 24 : -1, 1.0f / 16.0f, 3000.0f,
                            cut, pruned, idx.data(), dist.data()));
                }
            g_sink += static_cast<float>(pruned[0]);
        });
        for (int w = 0; w < 2; ++w) {
            record([&] {
                for (int it = 0; it < replay_iters[w]; ++it)
                    for (const ReplayRef &ref : replay_refs[w]) {
                        bm3d::MatchList list;
                        list.insert(bm3d::Match{ref.x, ref.y, 0.0f});
                        float cut = 3000.0f;
                        int32_t pruned = 0;
                        for (size_t r = 0; r < ref.dist.size(); ++r) {
                            const simd::MatchRun run{
                                &list.slots(), &cut, &pruned,
                                ref.dist[r].data(), nullptr, ref.pos0[r],
                                static_cast<int>(ref.dist[r].size())};
                            k.matchReplay(&run, 1, 3000.0f);
                        }
                        g_sink += cut + static_cast<float>(pruned);
                    }
            });
        }
        simd::setLevel(simd::bestSupported());
    }

    for (const Timing &r : rows) {
        std::vector<std::string> cells = {r.kernel};
        for (double ms : r.ms)
            cells.push_back(bench::fmt(ms, 2));
        bench::printRow(cells, widths);
    }
    std::printf("(total ms per kernel for %d x %d calls; sink=%g)\n",
                iters, patches, static_cast<double>(g_sink));
    std::printf("(bm2_scan_*: total ms for %d scans of one 64x8 reference "
                "band at window 39)\n",
                bm2_iters);
    std::printf("(bm1_scan_*: total ms for %d scans of one 64-reference "
                "row at window 49; bm1_lane_kernel: their %d bare "
                "bm1LaneScan calls)\n",
                bm1_iters, bm1_iters * 8 * 49);
    std::printf("(match_replay_w13/_w49: total ms for %d / %d replays of "
                "64 references' window rows into fresh lists)\n",
                replay_iters[0], replay_iters[1]);

    rec.wallTimeS = msSince(t_total) / 1e3;
    rec.write();
    return 0;
}
