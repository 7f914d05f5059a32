/**
 * @file
 * Unit and integration tests for the BM3D denoiser: configuration
 * validation, denoising quality, Matches Reuse behaviour, fixed-point
 * mode, multithreading determinism, and the sharpening extension.
 *
 * Test images are small (the full-parameter algorithm is O(Ns^2) per
 * pixel by design); search windows are reduced where the full 49x49
 * window would dominate runtime without adding coverage.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bm3d/bandscan.h"
#include "bm3d/blockmatch.h"
#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "transforms/dct.h"

using namespace ideal;
using bm3d::Bm3d;
using bm3d::Bm3dConfig;
using bm3d::Stage;
using bm3d::Step;

namespace {

Bm3dConfig
smallConfig(float sigma = 25.0f)
{
    Bm3dConfig cfg;
    cfg.sigma = sigma;
    cfg.searchWindow1 = 13;
    cfg.searchWindow2 = 11;
    return cfg;
}

struct TestScene
{
    image::ImageF clean;
    image::ImageF noisy;
};

TestScene
makeTestScene(image::SceneKind kind, int size, float sigma, uint64_t seed,
              int channels = 1)
{
    TestScene s;
    s.clean = image::makeScene(kind, size, size, channels, seed);
    s.noisy = image::addGaussianNoise(s.clean, sigma, seed + 1);
    return s;
}

} // namespace

TEST(Bm3dConfig, DefaultsAreValid)
{
    EXPECT_NO_THROW(Bm3dConfig{}.validate());
}

TEST(Bm3dConfig, RejectsBadParameters)
{
    auto check = [](auto mutate) {
        Bm3dConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    check([](Bm3dConfig &c) { c.patchSize = 1; });
    check([](Bm3dConfig &c) { c.patchSize = 9; });
    check([](Bm3dConfig &c) { c.refStride = 0; });
    check([](Bm3dConfig &c) { c.searchWindow1 = 48; }); // even
    check([](Bm3dConfig &c) { c.searchWindow2 = 2; });  // < patch
    check([](Bm3dConfig &c) { c.maxMatches = 12; });    // not pow2
    check([](Bm3dConfig &c) { c.sigma = 0.0f; });
    check([](Bm3dConfig &c) { c.mr.enabled = true; c.mr.k = 0.0; });
    check([](Bm3dConfig &c) { c.mr.enabled = true; c.mr.k = 1.5; });
    check([](Bm3dConfig &c) { c.sharpenAlpha = 0.5f; });
    check([](Bm3dConfig &c) { c.tileGrain = 0; });
}

TEST(Bm3dConfig, NonPositiveThreadsMeansAuto)
{
    // 0 and negative thread counts select the hardware thread count
    // via the shared clamped helper instead of being rejected.
    Bm3dConfig cfg;
    cfg.numThreads = 0;
    EXPECT_NO_THROW(cfg.validate());
    cfg.numThreads = -3;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Bm3d, RejectsTooSmallImage)
{
    Bm3d denoiser(smallConfig());
    image::ImageF tiny(3, 3, 1);
    bm3d::Profile p;
    EXPECT_THROW(denoiser.runStage(Stage::HardThreshold, tiny, nullptr, p),
                 std::invalid_argument);
}

TEST(Bm3d, RejectsNonFiniteInput)
{
    // One bad pixel would spread into every stack and aggregation
    // window that touches it; every entry point rejects the frame and
    // names the first bad sample.
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
    auto scene = makeTestScene(image::SceneKind::Nature, 24, 25.0f, 31, 3);
    for (float v : bad) {
        image::ImageF frame = scene.noisy;
        frame.plane(1)[5 * 24 + 9] = v; // x=9, y=5, channel 1
        frame.plane(2)[20 * 24 + 3] = v;
        for (bool banded : {false, true}) {
            Bm3dConfig cfg = smallConfig();
            cfg.band.enabled = banded;
            try {
                Bm3d(cfg).denoise(frame);
                ADD_FAILURE() << "accepted " << v << " banded=" << banded;
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "x=9, y=5, channel 1"),
                          std::string::npos)
                    << e.what();
            }
        }
        const Bm3d denoiser(smallConfig());
        bm3d::Profile p;
        EXPECT_THROW(denoiser.runStage(Stage::HardThreshold, frame, nullptr,
                                       p),
                     std::invalid_argument);
        EXPECT_THROW(denoiser.runStage(Stage::Wiener, scene.noisy, &frame,
                                       p),
                     std::invalid_argument);
    }
}

// Match positions are packed into 16 bits per axis (MatchList, seed
// slots): a wider or taller frame is rejected up front rather than
// denoised with wrapped positions.
TEST(Bm3d, RejectsFramesBeyondMatchPositionRange)
{
    const image::ImageF wide(65537, 8, 1);
    for (bool banded : {false, true}) {
        Bm3dConfig cfg = smallConfig();
        cfg.band.enabled = banded;
        try {
            Bm3d(cfg).denoise(wide);
            ADD_FAILURE() << "accepted 65537x8, banded=" << banded;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("65537x8"),
                      std::string::npos)
                << e.what();
        }
    }
    const Bm3d denoiser(smallConfig());
    bm3d::Profile p;
    EXPECT_THROW(denoiser.runStage(Stage::HardThreshold, wide, nullptr, p),
                 std::invalid_argument);
    EXPECT_THROW(denoiser.runStage(Stage::Wiener, wide, &wide, p),
                 std::invalid_argument);
}

TEST(Bm3d, WienerStageRequiresBasic)
{
    Bm3d denoiser(smallConfig());
    image::ImageF im(16, 16, 1);
    bm3d::Profile p;
    EXPECT_THROW(denoiser.runStage(Stage::Wiener, im, nullptr, p),
                 std::invalid_argument);
}

TEST(Bm3d, ImprovesPsnrOnNoisyNature)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 10);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    double noisy_psnr = image::psnrDb(scene.clean, scene.noisy);
    double basic_psnr = image::psnrDb(scene.clean, result.basic);
    double final_psnr = image::psnrDb(scene.clean, result.output);
    EXPECT_GT(basic_psnr, noisy_psnr + 3.0);
    EXPECT_GT(final_psnr, noisy_psnr + 3.0);
}

TEST(Bm3d, WienerStageRefinesBasicEstimate)
{
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 11);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    // The Wiener stage should stay within a small margin of the basic
    // estimate (on large images it typically improves it).
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, result.basic) - 0.5);
}

TEST(Bm3d, UniformImageDenoisesAlmostPerfectly)
{
    auto scene = makeTestScene(image::SceneKind::Uniform, 40, 25.0f, 12);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    // All patches match; the stack averaging should crush the noise.
    EXPECT_GT(image::psnrDb(scene.clean, result.output), 33.0);
}

TEST(Bm3d, ThreeChannelDenoising)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 13, 3);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_EQ(result.output.channels(), 3);
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, scene.noisy) + 2.0);
}

TEST(Bm3d, ProfileCoversAllSteps)
{
    auto scene = makeTestScene(image::SceneKind::Texture, 32, 25.0f, 14);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.seconds(Step::Dct1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::Bm1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::De1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::Bm2), 0.0);
    EXPECT_GT(result.profile.seconds(Step::De2), 0.0);
    EXPECT_GT(result.profile.totalOps().multiplies, 0u);
    EXPECT_EQ(result.profile.mr().bm1Hits, 0u); // MR disabled
    EXPECT_GT(result.profile.mr().bm1Refs, 0u);
}

TEST(Bm3d, BlockMatchingDominatesOps)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 15);
    Bm3dConfig cfg; // full 49x49 windows: the paper's configuration
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    uint64_t bm_ops = result.profile.ops(Step::Bm1).total() +
                      result.profile.ops(Step::Bm2).total();
    EXPECT_GT(bm_ops, result.profile.totalOps().total() / 2)
        << "block matching should dominate computation (paper Fig. 4)";
}

TEST(Bm3dMr, HitRateHighOnSmoothContent)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 16);
    Bm3dConfig cfg = smallConfig(10.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.mr().hitRate1(), 0.5);
}

TEST(Bm3dMr, ReducesSearchEffort)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 17);
    Bm3dConfig base = smallConfig(10.0f);
    Bm3d plain(base);
    auto r_plain = plain.denoise(scene.noisy);

    Bm3dConfig mr_cfg = base;
    mr_cfg.mr.enabled = true;
    mr_cfg.mr.k = 0.5;
    Bm3d with_mr(mr_cfg);
    auto r_mr = with_mr.denoise(scene.noisy);

    EXPECT_LT(r_mr.profile.mr().bm1Candidates,
              r_plain.profile.mr().bm1Candidates / 2);
}

TEST(Bm3dMr, QualityCloseToFullSearch)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 18);
    Bm3dConfig base = smallConfig();
    Bm3d plain(base);
    double psnr_plain =
        image::psnrDb(scene.clean, plain.denoise(scene.noisy).output);

    Bm3dConfig mr_cfg = base;
    mr_cfg.mr.enabled = true;
    mr_cfg.mr.k = 0.25;
    Bm3d with_mr(mr_cfg);
    double psnr_mr =
        image::psnrDb(scene.clean, with_mr.denoise(scene.noisy).output);

    // Paper Sec. 5.2: MR quality is within a few percent of BM3D and
    // sometimes better.
    EXPECT_GT(psnr_mr, psnr_plain - 1.0);
}

TEST(Bm3dMr, UniformImageAlwaysHits)
{
    auto scene = makeTestScene(image::SceneKind::Uniform, 32, 5.0f, 19);
    Bm3dConfig cfg = smallConfig(5.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.mr().hitRate1(), 0.9);
}

TEST(Bm3d, MultithreadedMatchesSingleThread)
{
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 20);
    Bm3dConfig cfg = smallConfig();
    Bm3d single(cfg);
    auto r1 = single.denoise(scene.noisy);

    cfg.numThreads = 4;
    Bm3d multi(cfg);
    auto r4 = multi.denoise(scene.noisy);

    // The tiled runner merges per-tile partial sums in tile order, so
    // the floating-point addition tree does not depend on the thread
    // count: outputs are bitwise identical, not merely close.
    EXPECT_EQ(image::maxAbsDiff(r1.basic, r4.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
}

TEST(Bm3d, FixedPointCloseToFloat)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 21);
    Bm3dConfig cfg = smallConfig();
    Bm3d fp(cfg);
    auto r_float = fp.denoise(scene.noisy);

    cfg.fixedPoint = fixed::PipelineFormats::forFraction(12);
    Bm3d fx(cfg);
    auto r_fixed = fx.denoise(scene.noisy);

    double snr_float = image::snrDb(scene.clean, r_float.output);
    double snr_fixed = image::snrDb(scene.clean, r_fixed.output);
    // Paper Fig. 9: relative SNR >= 98.9% even at 10 fractional bits.
    EXPECT_GT(snr_fixed / snr_float, 0.97);
}

TEST(Bm3d, FixedPointPrecisionMonotonicTrend)
{
    auto scene = makeTestScene(image::SceneKind::Texture, 32, 25.0f, 22);
    Bm3dConfig cfg = smallConfig();
    auto run = [&](int frac) {
        Bm3dConfig c = cfg;
        c.fixedPoint = fixed::PipelineFormats::forFraction(frac);
        return image::snrDb(scene.clean, Bm3d(c).denoise(scene.noisy).output);
    };
    // 12-bit should be no worse than a severely truncated 4-bit path.
    EXPECT_GT(run(12), run(4) - 0.1);
}

TEST(Bm3d, SharpeningIncreasesHighFrequencyEnergy)
{
    auto scene = makeTestScene(image::SceneKind::Street, 40, 10.0f, 23);
    Bm3dConfig cfg = smallConfig(10.0f);
    Bm3d plain(cfg);
    auto r_plain = plain.denoise(scene.noisy);

    cfg.sharpenAlpha = 1.5f;
    Bm3d sharp(cfg);
    auto r_sharp = sharp.denoise(scene.noisy);

    // Laplacian energy as a sharpness proxy.
    auto sharpness = [](const image::ImageF &im) {
        double acc = 0;
        for (int y = 1; y < im.height() - 1; ++y)
            for (int x = 1; x < im.width() - 1; ++x) {
                float lap = 4.0f * im.at(x, y) - im.at(x - 1, y) -
                            im.at(x + 1, y) - im.at(x, y - 1) -
                            im.at(x, y + 1);
                acc += static_cast<double>(lap) * lap;
            }
        return acc;
    };
    EXPECT_GT(sharpness(r_sharp.output), sharpness(r_plain.output) * 1.02);
}

TEST(Bm3d, DisableWienerSkipsStageTwo)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 32, 25.0f, 24);
    Bm3dConfig cfg = smallConfig();
    cfg.enableWiener = false;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_EQ(result.profile.seconds(Step::Bm2), 0.0);
    EXPECT_LT(image::maxAbsDiff(result.output, result.basic), 1e-6);
}

TEST(Bm3d, RefPositionsCoverEdges)
{
    auto xs = bm3d::makeRefPositions(10, 3);
    EXPECT_EQ(xs.front(), 0);
    EXPECT_EQ(xs.back(), 10);
    auto xs2 = bm3d::makeRefPositions(9, 3);
    EXPECT_EQ(xs2.back(), 9);
    auto xs1 = bm3d::makeRefPositions(5, 1);
    EXPECT_EQ(xs1.size(), 6u);
}

TEST(Bm3d, StrideTwoStillCoversImage)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 25);
    Bm3dConfig cfg = smallConfig();
    cfg.refStride = 2;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, scene.noisy) + 2.0);
}

TEST(Bm3dMr, AcrossRowsIncreasesHits)
{
    // The Sec. 5.3 future-work extension: when the left-neighbor check
    // misses, the reference above may still be similar (e.g. vertical
    // structure).
    auto scene = makeTestScene(image::SceneKind::Street, 48, 15.0f, 26);
    Bm3dConfig cfg = smallConfig(15.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.3;

    Bm3d horiz(cfg);
    auto r_h = horiz.denoise(scene.noisy);

    cfg.mr.acrossRows = true;
    Bm3d both(cfg);
    auto r_b = both.denoise(scene.noisy);

    EXPECT_GE(r_b.profile.mr().bm1Hits, r_h.profile.mr().bm1Hits);
    EXPECT_GT(r_b.profile.mr().bm1VertHits, 0u);
    EXPECT_LE(r_b.profile.mr().bm1Candidates,
              r_h.profile.mr().bm1Candidates);
}

TEST(Bm3dMr, AcrossRowsQualityComparable)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 27);
    Bm3dConfig cfg = smallConfig();
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    double base = image::psnrDb(scene.clean,
                                Bm3d(cfg).denoise(scene.noisy).output);
    cfg.mr.acrossRows = true;
    double ext = image::psnrDb(scene.clean,
                               Bm3d(cfg).denoise(scene.noisy).output);
    EXPECT_GT(ext, base - 1.0);
}

TEST(Bm3dMr, AcrossRowsDisabledHasNoVertHits)
{
    auto scene = makeTestScene(image::SceneKind::Street, 32, 25.0f, 28);
    Bm3dConfig cfg = smallConfig();
    cfg.mr.enabled = true;
    Bm3d denoiser(cfg);
    auto r = denoiser.denoise(scene.noisy);
    EXPECT_EQ(r.profile.mr().bm1VertHits, 0u);
    EXPECT_EQ(r.profile.mr().bm2VertHits, 0u);
}

TEST(Bm3d, TransformOnceBitwiseIdenticalToOnTheFly)
{
    // The tile DCT caches hold the very same dct.forward outputs the
    // on-the-fly gathers would compute, so enabling them must not
    // change a single bit of either stage's output.
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 24);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8; // several tiles, so halos and edges are hit
    Bm3d cached(cfg);
    auto r_cached = cached.denoise(scene.noisy);

    cfg.transformOnce = false;
    Bm3d direct(cfg);
    auto r_direct = direct.denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(r_cached.basic, r_direct.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(r_cached.output, r_direct.output), 0.0);
}

TEST(Bm3d, TransformOnceBitwiseIdenticalColorMrMultithreaded)
{
    // Same contract under the full feature mix: three channels (the
    // stage-1 color-channel caches are exercised), Matches Reuse with
    // the across-rows extension, and a multi-threaded tiled run.
    auto scene =
        makeTestScene(image::SceneKind::Nature, 40, 25.0f, 25, 3);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.numThreads = 4;
    cfg.mr.enabled = true;
    cfg.mr.acrossRows = true;
    Bm3d cached(cfg);
    auto r_cached = cached.denoise(scene.noisy);

    cfg.transformOnce = false;
    Bm3d direct(cfg);
    auto r_direct = direct.denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(r_cached.basic, r_direct.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(r_cached.output, r_direct.output), 0.0);
}

TEST(Bm3d, TransformOnceDoesNotInflateDctOpCount)
{
    // Satellite check on the op accounting: with the caches on, the
    // forward-DCT ops charged per stack must drop (each position is
    // transformed once per tile instead of once per stack
    // membership), never rise.
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 26);
    Bm3dConfig cfg = smallConfig();
    Bm3d cached(cfg);
    auto r_cached = cached.denoise(scene.noisy);

    cfg.transformOnce = false;
    Bm3d direct(cfg);
    auto r_direct = direct.denoise(scene.noisy);

    const uint64_t ops_cached = r_cached.profile.ops(Step::Dct2).total();
    const uint64_t ops_direct = r_direct.profile.ops(Step::Dct2).total();
    EXPECT_LT(ops_cached, ops_direct);
}

// ---------------------------------------------------------------------
// Config::variant — the adaptive matching layer (DESIGN §11).
// ---------------------------------------------------------------------

TEST(Bm3dConfig, RejectsBadVariantKnobs)
{
    auto check = [](auto mutate) {
        Bm3dConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    check([](Bm3dConfig &c) {
        c.variant.adaptiveBound = true;
        c.variant.boundMargin = 0.5f; // must be >= 1
    });
    check([](Bm3dConfig &c) {
        c.variant.adaptiveBound = true;
        c.variant.boundMargin = std::numeric_limits<float>::quiet_NaN();
    });
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.variant.coarseStride = 1; // stride 1 = dense, use the flag off
    });
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.variant.coarseStride = 5;
    });
    // MR chains reuse state across consecutive references, which a
    // subsampled reference grid breaks; the combination is rejected
    // rather than silently degraded.
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.mr.enabled = true;
    });
}

TEST(Bm3dVariant, InfiniteMarginIsBitwiseDense)
{
    // The adaptive bound only ever *tightens* the running cutoff; with
    // an infinite margin the propagated bound is +inf and every scan
    // path must accept exactly the candidates the dense scan keeps —
    // bitwise, in both matching precisions.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 40);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        Bm3dConfig cfg = smallConfig();
        cfg.precision = precision;
        auto dense = Bm3d(cfg).denoise(scene.noisy);

        cfg.variant.adaptiveBound = true;
        cfg.variant.boundMargin = std::numeric_limits<float>::infinity();
        auto adaptive = Bm3d(cfg).denoise(scene.noisy);

        EXPECT_EQ(image::maxAbsDiff(dense.basic, adaptive.basic), 0.0)
            << "precision=" << static_cast<int>(precision);
        EXPECT_EQ(image::maxAbsDiff(dense.output, adaptive.output), 0.0)
            << "precision=" << static_cast<int>(precision);
    }
}

TEST(Bm3dVariant, AdaptiveBoundPrunesWithBoundedQualityLoss)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 41);
    Bm3dConfig cfg = smallConfig();
    double psnr_dense =
        image::psnrDb(scene.clean, Bm3d(cfg).denoise(scene.noisy).output);

    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    auto r = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(r.profile.adaptive().prunedInserts, 0u);
    EXPECT_GT(image::psnrDb(scene.clean, r.output), psnr_dense - 0.3);
}

TEST(Bm3dVariant, CoarseDensifyAlwaysIsBitwiseDense)
{
    // densifyThreshold <= 0 forces every tile through the fine pass;
    // the two-pass replay aggregates in the same row-major order the
    // dense scan uses, so the output must be bit-identical, and no
    // reference may be skipped.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 42);
    Bm3dConfig cfg = smallConfig();
    auto dense = Bm3d(cfg).denoise(scene.noisy);

    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.0f;
    auto coarse = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(dense.basic, coarse.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(dense.output, coarse.output), 0.0);
    // Every tile densified, none stayed coarse, no reference skipped.
    EXPECT_GT(coarse.profile.adaptive().tilesDensified, 0u);
    EXPECT_EQ(coarse.profile.adaptive().tilesCoarse, 0u);
    EXPECT_EQ(coarse.profile.adaptive().refsSkipped, 0u);
}

TEST(Bm3dVariant, CoarseSkipsRefsAndHoldsQuality)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 43);
    Bm3dConfig cfg = smallConfig();
    double psnr_dense =
        image::psnrDb(scene.clean, Bm3d(cfg).denoise(scene.noisy).output);
    const uint64_t dense_cand = Bm3d(cfg)
                                    .denoise(scene.noisy)
                                    .profile.mr()
                                    .bm1Candidates;

    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.9f; // low-residual tiles stay coarse
    auto r = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(r.profile.adaptive().tilesCoarse, 0u);
    EXPECT_GT(r.profile.adaptive().refsSkipped, 0u);
    EXPECT_LT(r.profile.mr().bm1Candidates, dense_cand);
    EXPECT_GT(image::psnrDb(scene.clean, r.output), psnr_dense - 0.5);
}

TEST(Bm3dVariant, CountersAreThreadCountInvariant)
{
    // The tiled runner makes the outputs bitwise thread-invariant; the
    // pruning decisions depend only on tile-local scan order, so the
    // variant counters must agree exactly too — this is what lets CI
    // gate them with --ops-tolerance 0.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 44);
    Bm3dConfig cfg = smallConfig();
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.5f;

    auto r1 = Bm3d(cfg).denoise(scene.noisy);
    cfg.numThreads = 4;
    auto r4 = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
    EXPECT_EQ(r1.profile.adaptive().prunedInserts,
              r4.profile.adaptive().prunedInserts);
    EXPECT_EQ(r1.profile.adaptive().tilesCoarse,
              r4.profile.adaptive().tilesCoarse);
    EXPECT_EQ(r1.profile.adaptive().tilesDensified,
              r4.profile.adaptive().tilesDensified);
    EXPECT_EQ(r1.profile.adaptive().refsSkipped,
              r4.profile.adaptive().refsSkipped);
}

// Regression for the fig02 bench record showing bm3d.mr.bm1Hits == 0:
// the bench probe simply never enabled MR (hits are *defined* as 0 with
// the feature off — see Bm3d.ProfileCoversAllSteps above). This pins
// the positive half: with MR on, both the profile and the process-wide
// metrics registry must report nonzero hits.
TEST(Bm3dMr, RegistryReportsNonzeroHitsWhenEnabled)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 45);
    Bm3dConfig cfg = smallConfig(10.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    auto result = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(result.profile.mr().bm1Hits, 0u);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_GT(snap.value("bm3d.mr.bm1Hits"), 0.0);
    EXPECT_GT(snap.value("bm3d.mr.bm2Hits"), 0.0);
    reg.reset();
}

// ---------------------------------------------------------------------
// Fused group-major denoise datapath (DESIGN §12).
// ---------------------------------------------------------------------

TEST(Bm3dFused, BitwiseIdenticalToDiscretePath)
{
    // The fused kernels replay the discrete path's exact float
    // expressions, so flipping the knob must not change a single bit —
    // under the full feature mix (color, Matches Reuse, transform-once
    // tiles, multithreaded tiled run).
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 50, 3);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.numThreads = 4;
    cfg.mr.enabled = true;
    auto r_fused = Bm3d(cfg).denoise(scene.noisy);

    cfg.fusedDenoise = false;
    auto r_discrete = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(r_fused.basic, r_discrete.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(r_fused.output, r_discrete.output), 0.0);
}

TEST(Bm3dFused, BitwiseMatrixAcrossLevelsThreadsPrecisions)
{
    // The PR's acceptance matrix: for each matching precision, the
    // fused pipeline's output is one bit pattern across every SIMD
    // dispatch level and thread count. (Float32 vs Int16 differ — the
    // int16 DE1 spectrum is tolerance-gated, not bit-matched.)
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 51);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        simd::setLevel(simd::Level::Scalar);
        Bm3dConfig cfg = smallConfig();
        cfg.precision = precision;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 8}) {
                cfg.numThreads = threads;
                auto r = Bm3d(cfg).denoise(scene.noisy);
                SCOPED_TRACE(testing::Message()
                             << "precision="
                             << static_cast<int>(precision) << " level="
                             << simd::toString(
                                    static_cast<simd::Level>(l))
                             << " threads=" << threads);
                EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
                EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
            }
        }
        simd::setLevel(simd::bestSupported());
    }
}

TEST(Bm3dFused, GroupCountersReportFusedTraffic)
{
    // With the fused path on (default), every stack goes group-major
    // and the registry says so; with it off, the same stacks are
    // charged to the legacy counter. Totals are thread-count invariant
    // by the same argument as the variant counters above.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 52);
    Bm3dConfig cfg = smallConfig();

    reg.reset();
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot fused = reg.snapshot();
    EXPECT_GT(fused.value("bm3d.group.fusedStacks"), 0.0);
    EXPECT_GT(fused.value("bm3d.group.fusedPatches"), 0.0);
    EXPECT_EQ(fused.value("bm3d.group.legacyStacks"), 0.0);

    reg.reset();
    cfg.numThreads = 4;
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot fused_mt = reg.snapshot();
    EXPECT_EQ(fused.value("bm3d.group.fusedStacks"),
              fused_mt.value("bm3d.group.fusedStacks"));
    EXPECT_EQ(fused.value("bm3d.group.fusedPatches"),
              fused_mt.value("bm3d.group.fusedPatches"));

    reg.reset();
    cfg.numThreads = 0;
    cfg.fusedDenoise = false;
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot legacy = reg.snapshot();
    EXPECT_EQ(legacy.value("bm3d.group.fusedStacks"), 0.0);
    EXPECT_GT(legacy.value("bm3d.group.legacyStacks"), 0.0);
    EXPECT_EQ(legacy.value("bm3d.group.legacyStacks"),
              fused.value("bm3d.group.fusedStacks"));
    reg.reset();
}

TEST(Bm3dFused, OpChargesIdenticalAcrossFusedKnob)
{
    // chargeStackOps is shared by both paths, so every per-step op
    // counter must agree exactly — the invariant CI's
    // --ops-tolerance 0 gate rests on.
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 53);
    Bm3dConfig cfg = smallConfig();
    auto r_fused = Bm3d(cfg).denoise(scene.noisy);
    cfg.fusedDenoise = false;
    auto r_discrete = Bm3d(cfg).denoise(scene.noisy);

    for (Step step : {Step::Dct2, Step::De1, Step::De2}) {
        SCOPED_TRACE(static_cast<int>(step));
        EXPECT_EQ(r_fused.profile.ops(step).total(),
                  r_discrete.profile.ops(step).total());
    }
}

// ---------------------------------------------------------------------
// Row-band streaming schedule (DESIGN §15).
// ---------------------------------------------------------------------

namespace {

/** smallConfig with a multi-band grid: small tiles + small bands so a
    48x48 scene splits into several row bands with real halo overlap. */
Bm3dConfig
bandConfig(float sigma = 25.0f)
{
    Bm3dConfig cfg = smallConfig(sigma);
    cfg.tileGrain = 8;
    cfg.band.enabled = true;
    cfg.band.rows = 8;
    return cfg;
}

} // namespace

TEST(Bm3dConfig, RejectsBadBandRows)
{
    Bm3dConfig cfg;
    cfg.band.enabled = true;
    cfg.band.rows = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.band.enabled = false; // knob only checked when the schedule is on
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Bm3dBand, BitwiseMatrixAcrossLevelsThreadsPrecisions)
{
    // The PR's acceptance matrix: band scheduling reorders work, never
    // arithmetic — for each matching precision the banded pipeline's
    // output equals the stage-major reference bit for bit, at every
    // SIMD dispatch level and thread count.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 60);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        simd::setLevel(simd::Level::Scalar);
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 8;
        cfg.precision = precision;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        Bm3dConfig banded = bandConfig();
        banded.precision = precision;
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 8}) {
                banded.numThreads = threads;
                auto r = Bm3d(banded).denoise(scene.noisy);
                SCOPED_TRACE(testing::Message()
                             << "precision=" << static_cast<int>(precision)
                             << " level="
                             << simd::toString(static_cast<simd::Level>(l))
                             << " threads=" << threads);
                EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
                EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
            }
        }
        simd::setLevel(simd::bestSupported());
    }
}

TEST(Bm3dBand, BitwiseUnderFeatureMix)
{
    // Banding must compose with the rest of the matching/denoise
    // feature set without changing a bit: color channels, Matches
    // Reuse with the across-rows extension, the fused-DE knob both
    // ways, and a multithreaded run.
    auto scene =
        makeTestScene(image::SceneKind::Nature, 48, 25.0f, 61, 3);
    for (bool fused : {true, false}) {
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 8;
        cfg.numThreads = 4;
        cfg.mr.enabled = true;
        cfg.mr.acrossRows = true;
        cfg.fusedDenoise = fused;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        cfg.band.enabled = true;
        cfg.band.rows = 8;
        auto r = Bm3d(cfg).denoise(scene.noisy);
        SCOPED_TRACE(testing::Message() << "fused=" << fused);
        EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
        EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    }
}

TEST(Bm3dBand, BitwiseUnderAdaptiveVariants)
{
    // The adaptive early-termination bound and the coarse-to-fine grid
    // keep their per-tile scan state, which banding leaves intact
    // (bands are whole tile rows).
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 62);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.5f;
    auto ref = Bm3d(cfg).denoise(scene.noisy);

    cfg.band.enabled = true;
    cfg.band.rows = 8;
    auto r = Bm3d(cfg).denoise(scene.noisy);
    EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    EXPECT_EQ(ref.profile.adaptive().prunedInserts,
              r.profile.adaptive().prunedInserts);
    EXPECT_EQ(ref.profile.adaptive().refsSkipped,
              r.profile.adaptive().refsSkipped);
}

TEST(Bm3dBand, EdgeGeometries)
{
    // Degenerate band geometries must still be bitwise clean:
    //  - an image shorter than one band plus its halo (single band,
    //    ring degenerates to whole-image mode),
    //  - bands smaller than the BM2 window (several stage-1 bands must
    //    complete before the first stage-2 band releases),
    //  - an odd-sized trailing band.
    struct Case
    {
        int w, h, rows;
    };
    const Case cases[] = {
        {16, 16, 8}, // shorter than band + halo
        {48, 44, 4}, // band rows < searchWindow2 = 11
        {40, 23, 8}, // odd trailing band (23 - 4 + 1 = 20 ref rows)
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.w << "x" << c.h
                                        << " rows=" << c.rows);
        image::ImageF clean = image::makeScene(image::SceneKind::Street,
                                               c.w, c.h, 1, 63);
        image::ImageF noisy = image::addGaussianNoise(clean, 25.0f, 64);
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 4;
        auto ref = Bm3d(cfg).denoise(noisy);
        cfg.band.enabled = true;
        cfg.band.rows = c.rows;
        auto r = Bm3d(cfg).denoise(noisy);
        EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
        EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    }
}

TEST(Bm3dBand, WienerDisabledStillBands)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 65);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.enableWiener = false;
    auto ref = Bm3d(cfg).denoise(scene.noisy);
    cfg.band.enabled = true;
    cfg.band.rows = 8;
    auto r = Bm3d(cfg).denoise(scene.noisy);
    EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
}

TEST(Bm3dBand, CountersAndFootprintGauges)
{
    // The deterministic band counters CI gates with --ops-tolerance 0,
    // and the working-set gauge: a banded run must report its bands,
    // fill every field position row exactly once, and record a ring
    // footprint strictly below the whole-image field footprint.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    auto scene = makeTestScene(image::SceneKind::Street, 96, 25.0f, 67);
    Bm3dConfig cfg = bandConfig();
    auto r1 = Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot snap1 = reg.snapshot();

    const int pos = 96 - cfg.patchSize + 1; // 93 position rows
    // Two stages' bands: ceil(93/8 tile rows) per stage.
    EXPECT_GT(snap1.value("bm3d.band.bands"), 0.0);
    EXPECT_EQ(snap1.value("bm3d.band.rowsFilled"),
              static_cast<double>(pos));
    const double band_bytes = snap1.value("mem.peakBandBytes");
    EXPECT_GT(band_bytes, 0.0);
    // Whole-image field: raw + match SoA planes, coefs floats each.
    const double whole_bytes = static_cast<double>(pos) * pos * 16 * 2 *
                               sizeof(float);
    EXPECT_LT(band_bytes, whole_bytes);

    // Band counters are schedule-deterministic: an identical second
    // run adds exactly the same counts (thread count does not matter).
    reg.reset();
    cfg.numThreads = 4;
    auto r4 = Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot snap4 = reg.snapshot();
    EXPECT_EQ(snap1.value("bm3d.band.bands"),
              snap4.value("bm3d.band.bands"));
    EXPECT_EQ(snap1.value("bm3d.band.rowsFilled"),
              snap4.value("bm3d.band.rowsFilled"));
    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
    reg.reset();
}

TEST(Bm3dBand, RingFootprintAt1080pBelowWholeField)
{
    // The acceptance bound at HD geometry, on the storage layer alone
    // (no denoise run): a ring-prepared field at 1920x1080 with the
    // default band height must stay far below the whole-image field.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    const int w = 1920, h = 1080;
    transforms::Dct2D dct(4);
    Bm3dConfig cfg; // defaults: searchWindow1 = 49, band.rows = 64
    const int half1 = (cfg.searchWindow1 - 1) / 2;
    const int ring = cfg.band.rows - 1 + 2 * half1 + 1; // 112 rows

    bm3d::DctPatchField field;
    field.prepare(w, h, dct, nullptr, ring);
    EXPECT_TRUE(field.banded());
    EXPECT_EQ(field.ringRows(), ring);

    const size_t posx = static_cast<size_t>(w - 3);
    const size_t posy = static_cast<size_t>(h - 3);
    const size_t whole_bytes = posx * posy * 16 * 2 * sizeof(float);
    EXPECT_LT(field.footprintBytes(), whole_bytes / 5);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("mem.peakBandBytes"),
              static_cast<double>(field.footprintBytes()));
    EXPECT_EQ(snap.value("mem.peakFieldBytes"), 0.0);
    reg.reset();
}

TEST(Bm3dFused, Int16SpectrumStaysWithinSnrEnvelope)
{
    // DE1's int16 Haar+shrink is the one tolerance-gated divergence:
    // the fused int16 pipeline must stay within 0.1 dB of the float
    // fused pipeline end to end.
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 54);
    Bm3dConfig cfg = smallConfig();
    auto r_float = Bm3d(cfg).denoise(scene.noisy);
    cfg.precision = bm3d::Precision::Int16;
    auto r_i16 = Bm3d(cfg).denoise(scene.noisy);

    const double psnr_float =
        image::psnrDb(scene.clean, r_float.output);
    const double psnr_i16 = image::psnrDb(scene.clean, r_i16.output);
    EXPECT_GT(psnr_i16, psnr_float - 0.1);
}

// ---------------------------------------------------------------------
// Golden output pins: Bm3d::denoise hashes recorded from the code
// before the displacement-major BM2 scan (DESIGN §16) existed. Every
// SIMD level, thread count and schedule must reproduce them, so new
// matching paths are checked against the old arithmetic rather than
// against themselves.
// ---------------------------------------------------------------------

namespace {

/** FNV-1a over the float bit patterns: bitwise output equality. */
uint64_t
hashImage(const image::ImageF &img)
{
    uint64_t h = 1469598103934665603ull;
    for (float v : img.raw()) {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

} // namespace

TEST(Bm3dGolden, PinnedHashesAcrossLevelsThreadsSchedules)
{
    struct Pin
    {
        image::SceneKind kind;
        uint64_t basic;
        uint64_t output;
    };
    const Pin pins[] = {
        {image::SceneKind::Street, 0x31ca9c8edf3532ffull,
         0xad47617371594debull},
        {image::SceneKind::Texture, 0x511903253e1238c0ull,
         0x89824cb49948036dull},
    };
    for (const Pin &pin : pins) {
        auto scene = makeTestScene(pin.kind, 128, 25.0f, 90);
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 4}) {
                for (bool banded : {false, true}) {
                    Bm3dConfig cfg; // paper defaults: windows 49 / 39
                    cfg.numThreads = threads;
                    cfg.band.enabled = banded;
                    auto r = Bm3d(cfg).denoise(scene.noisy);
                    SCOPED_TRACE(testing::Message()
                                 << image::toString(pin.kind) << " level="
                                 << simd::toString(
                                        static_cast<simd::Level>(l))
                                 << " threads=" << threads
                                 << " banded=" << banded);
                    EXPECT_EQ(hashImage(r.basic), pin.basic)
                        << std::hex << "basic 0x" << hashImage(r.basic);
                    EXPECT_EQ(hashImage(r.output), pin.output)
                        << std::hex << "output 0x" << hashImage(r.output);
                }
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

// Golden pins of the per-reference scans at refStride 2 (neither band
// scan applies, so BM1 and BM2 both run BlockMatcher::search), recorded
// from the code before the match-list replay kernel (DESIGN §16.4)
// existed. Float32 and Int16 matching, every level and thread count.
TEST(Bm3dGolden, PinnedHashesRefStrideTwoPerReference)
{
    struct Pin
    {
        bm3d::Precision precision;
        uint64_t basic;
        uint64_t output;
    };
    const Pin pins[] = {
        {bm3d::Precision::Float32, 0x2e3dc2a8d1ea48b1ull,
         0x351df9b87d528822ull},
        {bm3d::Precision::Int16, 0xea31fa893d2c75d1ull,
         0x228967c276f2ac4eull},
    };
    auto scene = makeTestScene(image::SceneKind::Texture, 96, 25.0f, 91);
    for (const Pin &pin : pins) {
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 4}) {
                Bm3dConfig cfg;
                cfg.refStride = 2;
                cfg.searchWindow1 = 25;
                cfg.searchWindow2 = 19;
                cfg.precision = pin.precision;
                cfg.numThreads = threads;
                auto r = Bm3d(cfg).denoise(scene.noisy);
                SCOPED_TRACE(testing::Message()
                             << "precision="
                             << static_cast<int>(pin.precision)
                             << " level="
                             << simd::toString(static_cast<simd::Level>(l))
                             << " threads=" << threads);
                EXPECT_EQ(hashImage(r.basic), pin.basic)
                    << std::hex << "basic 0x" << hashImage(r.basic);
                EXPECT_EQ(hashImage(r.output), pin.output)
                    << std::hex << "output 0x" << hashImage(r.output);
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

// ---------------------------------------------------------------------
// Band scans (DESIGN §16): differential tests against the
// per-reference window scan they replace, BM2 displacement-major and
// BM1 reference-lane.
// ---------------------------------------------------------------------

namespace {

uint32_t
floatBits(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * Run the band scan over [x0, x0+nx) x [y0, y0+ny) and compare every
 * reference with BlockMatcher<Domain>::search: list length, each
 * match's position and distance bits (so tie order too), the
 * evaluated count and the pruned count. Returns a description of the
 * first difference, or an empty string.
 */
template <typename Domain>
std::string
bandScanDiff(bm3d::BandScan &scan, const Domain &domain, int window,
             int max_matches, float tau, int x0, int nx, int y0, int ny)
{
    const bm3d::BlockMatcher<Domain> matcher(domain, window, 1, 1, tau,
                                             max_matches);
    scan.run(domain, window, tau, max_matches, x0, nx, y0, ny);
    for (int yi = 0; yi < ny; ++yi) {
        for (int xi = 0; xi < nx; ++xi) {
            const int i = yi * nx + xi;
            const int x = x0 + xi;
            const int y = y0 + yi;
            bm3d::MatchList want;
            uint64_t want_pruned = 0;
            const uint64_t want_evaluated = matcher.search(
                x, y, want, std::numeric_limits<float>::infinity(),
                &want_pruned);
            const bm3d::MatchList &got = scan.matches(i);
            std::ostringstream where;
            where << "ref (" << x << ", " << y << "): ";
            if (got.size() != want.size())
                return where.str() + "list size " +
                       std::to_string(got.size()) + " vs " +
                       std::to_string(want.size());
            for (int k = 0; k < got.size(); ++k) {
                if (got[k].x != want[k].x || got[k].y != want[k].y ||
                    floatBits(got[k].distance) !=
                        floatBits(want[k].distance)) {
                    where << "match " << k << " (" << got[k].x << ", "
                          << got[k].y << ", " << got[k].distance
                          << ") vs (" << want[k].x << ", " << want[k].y
                          << ", " << want[k].distance << ")";
                    return where.str();
                }
            }
            if (scan.evaluated(i) != want_evaluated)
                return where.str() + "evaluated " +
                       std::to_string(scan.evaluated(i)) + " vs " +
                       std::to_string(want_evaluated);
            if (scan.pruned(i) != want_pruned)
                return where.str() + "pruned " +
                       std::to_string(scan.pruned(i)) + " vs " +
                       std::to_string(want_pruned);
        }
    }
    return "";
}

struct ScanRect
{
    int x0, nx, y0, ny;
};

/** Tile-shaped rectangles covering a whole position grid. */
std::vector<ScanRect>
coverGrid(int pos_x, int pos_y, int tile_w, int band_rows)
{
    std::vector<ScanRect> rects;
    for (int y = 0; y < pos_y; y += band_rows)
        for (int x = 0; x < pos_x; x += tile_w)
            rects.push_back({x, std::min(tile_w, pos_x - x), y,
                             std::min(band_rows, pos_y - y)});
    return rects;
}

/** A scan frame: a single-channel plane and the rectangles to scan. */
struct ScanFrame
{
    std::string name;
    image::ImageF plane;
    std::vector<ScanRect> rects;
};

/**
 * The shared frame set of both band-scan differentials: a 512^2
 * street frame (509 positions, 64-wide tiles with the last 61 wide,
 * 8-row bands with the last 5 rows: image corners, interior tile
 * edges and both partial shapes), odd and smaller-than-window sizes,
 * one rectangle spanning a whole 34-position-wide grid (all four
 * image edges at once; 34 is no multiple of 8 or 16 lanes), and
 * frames with one non-finite pixel. @p sigma sets the noise.
 */
std::vector<ScanFrame>
scanFrames(float sigma)
{
    std::vector<ScanFrame> frames;
    {
        auto s = makeTestScene(image::SceneKind::Street, 512, sigma, 95);
        frames.push_back({"street512", s.noisy,
                          {{0, 64, 0, 8},
                           {448, 61, 0, 8},
                           {0, 64, 504, 5},
                           {448, 61, 504, 5},
                           {64, 64, 56, 8},
                           {192, 64, 64, 8}}});
    }
    {
        auto s = image::addGaussianNoise(
            image::makeScene(image::SceneKind::Nature, 37, 29, 1, 96), sigma,
            97);
        std::vector<ScanRect> rects = coverGrid(34, 26, 16, 8);
        rects.push_back({0, 34, 0, 26});
        frames.push_back({"37x29", s, rects});
    }
    {
        // Smaller than every window: each reference's window clips on
        // all four sides, and rows hold fewer than 8 references.
        auto s = makeTestScene(image::SceneKind::Texture, 12, sigma, 98);
        frames.push_back({"12x12", s.noisy, coverGrid(9, 9, 4, 3)});
    }
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity()};
    for (float v : bad) {
        auto s = image::addGaussianNoise(
            image::makeScene(image::SceneKind::Street, 40, 36, 1, 99), sigma,
            100);
        s.plane(0)[11 * 40 + 17] = v;
        frames.push_back({std::isnan(v) ? "nan40x36" : "inf40x36", s,
                          coverGrid(37, 33, 16, 8)});
    }
    return frames;
}

} // namespace

TEST(Bm2BandScan, MatchesPerReferenceSearchBitwise)
{
    const std::vector<ScanFrame> frames = scanFrames(10.0f);
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        simd::setLevel(static_cast<simd::Level>(l));
        bm3d::BandScan scan; // reused: scratch resizes across shapes
        for (const ScanFrame &f : frames) {
            const bm3d::ColorMatchDomain domain(f.plane, 4);
            for (int window : {5, 39}) {
                for (int max_matches : {1, 16}) {
                    for (float tau : {400.0f, 1e30f}) {
                        for (const ScanRect &r : f.rects) {
                            SCOPED_TRACE(
                                testing::Message()
                                << f.name << " level="
                                << simd::toString(
                                       static_cast<simd::Level>(l))
                                << " window=" << window
                                << " maxMatches=" << max_matches
                                << " tau=" << tau << " rect=(" << r.x0
                                << ", " << r.y0 << ", " << r.nx << "x"
                                << r.ny << ")");
                            EXPECT_EQ(bandScanDiff(scan, domain, window,
                                                   max_matches, tau,
                                                   r.x0, r.nx, r.y0,
                                                   r.ny),
                                      "");
                        }
                    }
                }
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

TEST(Bm1BandScan, MatchesPerReferenceSearchBitwise)
{
    // The scan frames plus a constant frame, where every distance ties
    // at 0 and only scan order decides the lists.
    std::vector<ScanFrame> frames = scanFrames(25.0f);
    image::ImageF flat(24, 20, 1);
    std::fill(flat.plane(0), flat.plane(0) + 24 * 20, 128.0f);
    frames.push_back({"const24x20", flat, coverGrid(21, 17, 16, 8)});
    const transforms::Dct2D dct(4);
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        simd::setLevel(static_cast<simd::Level>(l));
        bm3d::BandScan scan; // reused: scratch resizes across shapes
        for (const ScanFrame &f : frames) {
            const bm3d::DctPatchField field(f.plane, dct, 50.0f,
                                            std::nullopt, nullptr);
            const bm3d::DctMatchDomain domain(field);
            for (int window : {5, 49}) {
                for (int max_matches : {1, 16}) {
                    for (float tau : {3000.0f, 1e30f}) {
                        for (const ScanRect &r : f.rects) {
                            SCOPED_TRACE(
                                testing::Message()
                                << f.name << " level="
                                << simd::toString(
                                       static_cast<simd::Level>(l))
                                << " window=" << window
                                << " maxMatches=" << max_matches
                                << " tau=" << tau << " rect=(" << r.x0
                                << ", " << r.y0 << ", " << r.nx << "x"
                                << r.ny << ")");
                            EXPECT_EQ(bandScanDiff(scan, domain, window,
                                                   max_matches, tau,
                                                   r.x0, r.nx, r.y0,
                                                   r.ny),
                                      "");
                        }
                    }
                }
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

TEST(Bm1BandScan, RingFieldMatchesPerReferenceSearchBitwise)
{
    // The banded schedule's field (DESIGN §15): ring storage, filled
    // band by band, rows wrapping modulo the ring. Each 8-row band is
    // scanned once its rows plus the window halo are resident, as the
    // band pipeline does.
    const image::ImageF plane = image::addGaussianNoise(
        image::makeScene(image::SceneKind::Street, 40, 80, 1, 101), 25.0f,
        102);
    const transforms::Dct2D dct(4);
    const int pos_x = 40 - 3;
    const int pos_y = 80 - 3;
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        simd::setLevel(static_cast<simd::Level>(l));
        bm3d::BandScan scan;
        for (int window : {5, 49}) {
            const int half = (window - 1) / 2;
            bm3d::DctPatchField field;
            field.prepare(40, 80, dct, nullptr, 8 + 2 * half + 1);
            ASSERT_TRUE(field.banded());
            const bm3d::DctMatchDomain domain(field);
            int filled = 0;
            for (int y0 = 0; y0 < pos_y; y0 += 8) {
                const int ny = std::min(8, pos_y - y0);
                const int need = std::min(pos_y, y0 + ny + half);
                field.fillRows(plane, dct, 50.0f, std::nullopt, filled,
                               need);
                filled = need;
                for (int max_matches : {1, 16}) {
                    for (float tau : {3000.0f, 1e30f}) {
                        SCOPED_TRACE(testing::Message()
                                     << "level="
                                     << simd::toString(
                                            static_cast<simd::Level>(l))
                                     << " window=" << window
                                     << " maxMatches=" << max_matches
                                     << " tau=" << tau << " band y0="
                                     << y0);
                        EXPECT_EQ(bandScanDiff(scan, domain, window,
                                               max_matches, tau, 0, pos_x,
                                               y0, ny),
                                  "");
                    }
                }
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

TEST(Bm2BandScan, EligibilityFollowsConfig)
{
    Bm3dConfig cfg;
    EXPECT_TRUE(bm3d::bandScanEligible(cfg)); // paper stages 1 and 2
    auto ineligible = [](auto mutate) {
        Bm3dConfig c;
        mutate(c);
        return !bm3d::bandScanEligible(c);
    };
    EXPECT_TRUE(ineligible([](Bm3dConfig &c) { c.patchSize = 8; }));
    EXPECT_TRUE(ineligible([](Bm3dConfig &c) { c.searchStride = 2; }));
    EXPECT_TRUE(ineligible([](Bm3dConfig &c) { c.refStride = 2; }));
    EXPECT_TRUE(ineligible([](Bm3dConfig &c) { c.mr.enabled = true; }));
    EXPECT_TRUE(ineligible(
        [](Bm3dConfig &c) { c.variant.adaptiveBound = true; }));
    EXPECT_TRUE(ineligible(
        [](Bm3dConfig &c) { c.variant.coarseToFine = true; }));
}
