/**
 * @file
 * Tests for the streaming frame-pipeline runtime (src/runtime):
 * stream-vs-batch bitwise equality across SIMD levels and thread
 * counts, concurrent submit/collect under the sanitizers, temporal
 * seeding quality and work reduction, arena steady-state accounting,
 * lifecycle errors, the stage-1 ring field (golden pins, footprint,
 * schedule stress), and the video DCT1 prepass banding determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "bm3d/video.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "runtime/stream.h"
#include "simd/simd.h"
#include "transforms/dct.h"

using namespace ideal;
using runtime::StreamConfig;
using runtime::StreamDenoiser;
using runtime::StreamStats;

namespace {

/** A static scene observed over several frames with fresh noise. */
std::vector<image::ImageF>
staticClip(int frames, int w, int h, float sigma, uint64_t seed,
           image::ImageF *clean_out = nullptr)
{
    image::ImageF clean =
        image::makeScene(image::SceneKind::Nature, w, h, 1, seed);
    if (clean_out)
        *clean_out = clean;
    std::vector<image::ImageF> clip;
    for (int f = 0; f < frames; ++f)
        clip.push_back(image::addGaussianNoise(clean, sigma, seed + 7 + f));
    return clip;
}

StreamConfig
smallStreamConfig(int threads = 1, bool wiener = false)
{
    StreamConfig cfg;
    cfg.frame.sigma = 25.0f;
    cfg.frame.searchWindow1 = 13;
    cfg.frame.searchWindow2 = 13;
    cfg.frame.refStride = 2;
    cfg.frame.enableWiener = wiener;
    cfg.frame.numThreads = threads;
    return cfg;
}

/** Per-frame batch outputs via the plain Bm3d engine. */
std::vector<image::ImageF>
batchOutputs(const bm3d::Bm3dConfig &cfg,
             const std::vector<image::ImageF> &clip)
{
    bm3d::Bm3d engine(cfg);
    std::vector<image::ImageF> outs;
    for (const image::ImageF &frame : clip)
        outs.push_back(engine.denoise(frame).output);
    return outs;
}

/** Streamed outputs for the same clip (copies; clip stays intact). */
std::vector<image::ImageF>
streamOutputs(const StreamConfig &cfg,
              const std::vector<image::ImageF> &clip,
              StreamStats *stats_out = nullptr)
{
    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    std::vector<image::ImageF> outs;
    for (size_t f = 0; f < clip.size(); ++f)
        outs.push_back(stream.collect());
    if (stats_out)
        *stats_out = stream.stats();
    return outs;
}

class RuntimeTest : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

} // namespace

// With seeding off, a streamed clip must be bitwise identical to the
// per-frame batch path — for every SIMD dispatch level and thread
// count (the per-frame pipeline is unchanged; the arena only moves
// where buffers live).
TEST_F(RuntimeTest, StreamMatchesBatchBitwiseAcrossLevelsAndThreads)
{
    const auto clip = staticClip(3, 64, 48, 25.0f, 41);
    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Sse,
                                  simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        // Int16 matching is bitwise deterministic across *levels* too
        // (integer accumulation has no reassociation sensitivity), so
        // its first combination's output doubles as the cross-matrix
        // reference. Float only promises equality within a level.
        std::vector<image::ImageF> int16_ref;
        for (simd::Level level : levels) {
            simd::setLevel(level); // clamped to bestSupported()
            for (int threads : {1, 8}) {
                StreamConfig cfg = smallStreamConfig(threads);
                cfg.frame.precision = precision;
                const auto batch = batchOutputs(cfg.frame, clip);
                const auto streamed = streamOutputs(cfg, clip);
                ASSERT_EQ(batch.size(), streamed.size());
                for (size_t f = 0; f < batch.size(); ++f)
                    EXPECT_TRUE(batch[f].raw() == streamed[f].raw())
                        << "precision=" << static_cast<int>(precision)
                        << " level="
                        << static_cast<int>(simd::activeLevel())
                        << " threads=" << threads << " frame=" << f;
                if (precision != bm3d::Precision::Int16)
                    continue;
                if (int16_ref.empty()) {
                    int16_ref = streamed;
                    continue;
                }
                for (size_t f = 0; f < streamed.size(); ++f)
                    EXPECT_TRUE(int16_ref[f].raw() == streamed[f].raw())
                        << "int16 output differs at level="
                        << static_cast<int>(simd::activeLevel())
                        << " threads=" << threads << " frame=" << f;
            }
        }
    }
}

// The Wiener stage runs through the same arena-backed plumbing.
TEST_F(RuntimeTest, StreamMatchesBatchWithWienerStage)
{
    const auto clip = staticClip(3, 48, 48, 25.0f, 43);
    StreamConfig cfg = smallStreamConfig(4, /*wiener=*/true);
    const auto batch = batchOutputs(cfg.frame, clip);
    const auto streamed = streamOutputs(cfg, clip);
    for (size_t f = 0; f < batch.size(); ++f)
        EXPECT_TRUE(batch[f].raw() == streamed[f].raw()) << "frame " << f;
}

// The row-band streaming schedule (DESIGN §15) composes with the
// frame pipeline: a banded streamed clip must be bitwise identical
// both to the banded batch path and to the stage-major stream.
TEST_F(RuntimeTest, BandScheduleComposesWithStreamBitwise)
{
    const auto clip = staticClip(3, 48, 48, 25.0f, 47);
    StreamConfig cfg = smallStreamConfig(4, /*wiener=*/true);
    cfg.frame.tileGrain = 8;
    const auto plain_stream = streamOutputs(cfg, clip);
    cfg.frame.band.enabled = true;
    cfg.frame.band.rows = 8;
    const auto banded_batch = batchOutputs(cfg.frame, clip);
    const auto banded_stream = streamOutputs(cfg, clip);
    ASSERT_EQ(plain_stream.size(), banded_stream.size());
    for (size_t f = 0; f < banded_stream.size(); ++f) {
        EXPECT_TRUE(plain_stream[f].raw() == banded_stream[f].raw())
            << "band vs stage-major stream, frame " << f;
        EXPECT_TRUE(banded_batch[f].raw() == banded_stream[f].raw())
            << "banded stream vs banded batch, frame " << f;
    }
}

// Outputs arrive in submit order even when a producer thread races
// the collector. Runs under TSan via the sanitize label.
TEST_F(RuntimeTest, ConcurrentSubmitCollectIsOrderedAndRaceFree)
{
    const int frames = 12;
    const auto clip = staticClip(frames, 32, 32, 25.0f, 47);
    StreamConfig cfg = smallStreamConfig(2);
    cfg.queueDepth = 2; // force backpressure on the producer

    const auto batch = batchOutputs(cfg.frame, clip);
    StreamDenoiser stream(cfg);
    std::thread producer([&] {
        for (const image::ImageF &frame : clip)
            stream.submit(image::ImageF(frame));
        stream.finish();
    });
    for (int f = 0; f < frames; ++f) {
        image::ImageF out = stream.collect();
        EXPECT_TRUE(out.raw() == batch[static_cast<size_t>(f)].raw())
            << "frame " << f;
        (void)stream.stats(); // exercise the stats lock concurrently
        stream.recycle(std::move(out));
    }
    producer.join();
    EXPECT_EQ(stream.stats().frames, static_cast<uint64_t>(frames));
}

// Temporal seeding trades exact equality for less matching work; on
// static content the quality cost must stay within 0.05 dB and the
// seeded search must actually engage and cut BM1 distance
// computations.
TEST_F(RuntimeTest, TemporalSeedingKeepsQualityAndCutsWork)
{
    image::ImageF clean;
    const auto clip = staticClip(4, 64, 64, 25.0f, 53, &clean);
    StreamConfig cfg = smallStreamConfig(1);

    StreamStats plain_stats;
    const auto plain = streamOutputs(cfg, clip, &plain_stats);

    cfg.temporalSeed = true;
    StreamStats seeded_stats;
    const auto seeded = streamOutputs(cfg, clip, &seeded_stats);

    double plain_snr = 0.0, seeded_snr = 0.0;
    for (size_t f = 0; f < clip.size(); ++f) {
        plain_snr += image::snrDb(clean, plain[f]);
        seeded_snr += image::snrDb(clean, seeded[f]);
    }
    const double delta =
        std::fabs(seeded_snr - plain_snr) / static_cast<double>(clip.size());
    EXPECT_LE(delta, 0.05);

    EXPECT_GT(seeded_stats.seedRefs, 0u);
    EXPECT_GT(seeded_stats.seedHits, 0u);
    EXPECT_LT(seeded_stats.profile.mr().bm1Candidates,
              plain_stats.profile.mr().bm1Candidates);
}

// The seeding decision (descriptor SSD in the thresholded-DCT domain)
// and the seeded search itself use exact arithmetic, so the seeded
// output is also identical across SIMD levels.
TEST_F(RuntimeTest, SeededStreamIsBitwiseIdenticalAcrossSimdLevels)
{
    const auto clip = staticClip(3, 64, 48, 25.0f, 59);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;

    simd::setLevel(simd::Level::Scalar);
    const auto scalar = streamOutputs(cfg, clip);
    simd::setLevel(simd::bestSupported());
    const auto best = streamOutputs(cfg, clip);
    for (size_t f = 0; f < clip.size(); ++f)
        EXPECT_TRUE(scalar[f].raw() == best[f].raw()) << "frame " << f;
}

// The arena recycles every per-frame buffer: from the third frame on
// no fresh heap bytes may be drawn through it.
TEST_F(RuntimeTest, ArenaIsMallocFreeInSteadyState)
{
    const int frames = 6;
    const auto clip = staticClip(frames, 48, 48, 25.0f, 61);
    StreamConfig cfg = smallStreamConfig(2);

    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    for (int f = 0; f < frames; ++f)
        stream.recycle(stream.collect());

    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.frames, static_cast<uint64_t>(frames));
    EXPECT_EQ(stats.arenaBytesNewSteady, 0u);
    EXPECT_GT(stats.arenaHits, 0u);
    EXPECT_GT(stats.arenaBytesNew, 0u); // warm-up did allocate
    EXPECT_EQ(stats.latenciesMs.size(), static_cast<size_t>(frames));
    EXPECT_GT(stats.wallSeconds, 0.0);
}

// A caller that recycles every output while submitting fresh frames
// hands the stream two buffers per frame (the donated input and the
// recycled output) but the pipeline draws back only one output per
// frame. The free list must stay bounded instead of growing by a frame
// per frame, and capping it must not cost a steady-state allocation.
TEST_F(RuntimeTest, RecycledOutputsAndFreshInputsKeepFreeListBounded)
{
    const int frames = 40;
    const auto clip = staticClip(4, 32, 32, 25.0f, 71);
    StreamConfig cfg = smallStreamConfig(2);

    StreamDenoiser stream(cfg);
    std::vector<uint64_t> free_buffers;
    for (int f = 0; f < frames; ++f) {
        stream.submit(image::ImageF(clip[f % clip.size()]));
        stream.recycle(stream.collect());
        free_buffers.push_back(stream.arena().stats().freeBuffers);
    }
    stream.finish();

    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.frames, static_cast<uint64_t>(frames));
    EXPECT_EQ(stats.arenaBytesNewSteady, 0u);
    EXPECT_GT(stream.arena().stats().dropped, 0u);
    // Bounded: the second half of the run holds no more free buffers
    // than the first half's high-water mark.
    const uint64_t first_half =
        *std::max_element(free_buffers.begin(),
                          free_buffers.begin() + frames / 2);
    const uint64_t second_half = *std::max_element(
        free_buffers.begin() + frames / 2, free_buffers.end());
    EXPECT_LE(second_half, first_half);
    EXPECT_LT(free_buffers.back(), static_cast<uint64_t>(frames / 2));
}

TEST_F(RuntimeTest, LifecycleErrors)
{
    const auto clip = staticClip(1, 32, 32, 25.0f, 67);
    StreamConfig cfg = smallStreamConfig(1);

    StreamDenoiser stream(cfg);
    stream.submit(image::ImageF(clip[0]));
    // Shape must match the first frame.
    EXPECT_THROW(stream.submit(image::ImageF(16, 32, 1)),
                 std::invalid_argument);
    // Frames smaller than a patch can never be processed.
    EXPECT_THROW(stream.submit(image::ImageF(2, 2, 1)),
                 std::invalid_argument);
    stream.finish();
    EXPECT_THROW(stream.submit(image::ImageF(clip[0])), std::logic_error);
    (void)stream.collect();
    EXPECT_THROW(stream.collect(), std::logic_error);
}

TEST_F(RuntimeTest, RejectsNonFiniteFrames)
{
    // A rejected frame never enters the pipeline: the stream goes on
    // with the next good frame, bitwise as if it had never been sent.
    const auto clip = staticClip(2, 32, 32, 25.0f, 69);
    StreamConfig cfg = smallStreamConfig(1);
    StreamDenoiser stream(cfg);
    stream.submit(image::ImageF(clip[0]));
    for (float v : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
        image::ImageF frame = clip[1];
        frame.plane(0)[7 * 32 + 30] = v;
        try {
            stream.submit(std::move(frame));
            ADD_FAILURE() << "accepted " << v;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("x=30, y=7, channel 0"),
                      std::string::npos)
                << e.what();
        }
    }
    stream.submit(image::ImageF(clip[1]));
    stream.finish();
    const image::ImageF first = stream.collect();
    const image::ImageF second = stream.collect();

    StreamDenoiser clean(cfg);
    clean.submit(image::ImageF(clip[0]));
    clean.submit(image::ImageF(clip[1]));
    clean.finish();
    EXPECT_TRUE(first.raw() == clean.collect().raw());
    EXPECT_TRUE(second.raw() == clean.collect().raw());
}

TEST_F(RuntimeTest, RejectsFramesBeyondMatchPositionRange)
{
    StreamDenoiser stream(smallStreamConfig(1));
    try {
        stream.submit(image::ImageF(65537, 8, 1));
        ADD_FAILURE() << "accepted a 65537x8 frame";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("65537x8"), std::string::npos)
            << e.what();
    }
    // The rejected frame did not fix the stream's shape.
    const auto clip = staticClip(1, 32, 32, 25.0f, 73);
    stream.submit(image::ImageF(clip[0]));
    stream.finish();
    EXPECT_EQ(stream.collect().width(), 32);
}

TEST_F(RuntimeTest, ConfigValidation)
{
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = 0;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedK = 0.0;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedWindow = 8; // must be odd
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedWindow = cfg.frame.searchWindow1 + 2;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);
}

// Satellite of the same PR: the video denoiser's DCT1 prepass now
// decomposes into frame x row-band tasks, so its output must stay
// independent of the worker count.
TEST_F(RuntimeTest, VideoDct1BandingIsThreadCountInvariant)
{
    const auto seq = staticClip(3, 48, 48, 25.0f, 71);
    bm3d::VideoConfig vcfg;
    vcfg.frame.sigma = 25.0f;
    vcfg.frame.searchWindow1 = 13;
    vcfg.temporalRadius = 1;
    vcfg.predictiveWindow = 7;

    vcfg.frame.numThreads = 1;
    const auto serial = bm3d::VideoBm3d(vcfg).denoise(seq);
    vcfg.frame.numThreads = 4;
    const auto parallel = bm3d::VideoBm3d(vcfg).denoise(seq);
    ASSERT_EQ(serial.frames.size(), parallel.frames.size());
    for (size_t f = 0; f < serial.frames.size(); ++f)
        EXPECT_TRUE(serial.frames[f].raw() == parallel.frames[f].raw())
            << "frame " << f;
}

// The adaptive matching variants must compose with temporal seeding:
// the seeded search takes the same running cutoff, and the coarse
// grid's skipped references poison their seed slots so the next frame
// cannot false-hit on stale descriptors. Quality must hold and both
// reductions must be active at once.
TEST_F(RuntimeTest, VariantComposesWithTemporalSeeding)
{
    image::ImageF clean;
    const auto clip = staticClip(4, 64, 64, 25.0f, 83, &clean);
    StreamConfig cfg = smallStreamConfig(1);

    StreamStats plain_stats;
    const auto plain = streamOutputs(cfg, clip, &plain_stats);

    cfg.temporalSeed = true;
    cfg.frame.variant.adaptiveBound = true;
    cfg.frame.variant.boundMargin = 2.0f;
    cfg.frame.variant.coarseToFine = true;
    cfg.frame.variant.coarseStride = 2;
    cfg.frame.variant.densifyThreshold = 0.35f;
    StreamStats variant_stats;
    const auto variant = streamOutputs(cfg, clip, &variant_stats);

    double plain_snr = 0.0, variant_snr = 0.0;
    for (size_t f = 0; f < clip.size(); ++f) {
        plain_snr += image::snrDb(clean, plain[f]);
        variant_snr += image::snrDb(clean, variant[f]);
    }
    // On a 64x64 frame the skipped references are a much larger
    // fraction of the image than at bench scale, so the envelope here
    // is wider than the fig02 |dSNR| <= 0.1 dB gate; the point is that
    // composition degrades gracefully rather than corrupting state.
    const double delta = (plain_snr - variant_snr) /
                         static_cast<double>(clip.size());
    EXPECT_LE(delta, 0.75) << "variant SNR drifted too far from dense";

    EXPECT_GT(variant_stats.seedRefs, 0u);
    EXPECT_GT(variant_stats.seedHits, 0u);
    EXPECT_GT(variant_stats.profile.adaptive().refsSkipped, 0u);
    EXPECT_LT(variant_stats.profile.mr().bm1Candidates,
              plain_stats.profile.mr().bm1Candidates);
}

// PR satellite: the fused group-major denoise path (DESIGN §12)
// composes with the streaming runtime — temporal seeding decides the
// same matches, the group tiles recycle through the frame arena (no
// steady-state heap growth), and the streamed fused output stays
// bitwise equal to the discrete per-group path frame for frame.
TEST_F(RuntimeTest, FusedDenoiseComposesWithSeededStream)
{
    const int frames = 6;
    const auto clip = staticClip(frames, 48, 48, 25.0f, 89);
    StreamConfig cfg = smallStreamConfig(2, /*wiener=*/true);
    cfg.temporalSeed = true;

    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    std::vector<image::ImageF> fused;
    for (int f = 0; f < frames; ++f) {
        fused.push_back(stream.collect());
        stream.recycle(image::ImageF(fused.back()));
    }
    const StreamStats fused_stats = stream.stats();
    EXPECT_EQ(fused_stats.arenaBytesNewSteady, 0u)
        << "fused group tiles must recycle through the arena";
    EXPECT_GT(fused_stats.seedHits, 0u);

    cfg.frame.fusedDenoise = false;
    StreamStats discrete_stats;
    const auto discrete = streamOutputs(cfg, clip, &discrete_stats);
    ASSERT_EQ(fused.size(), discrete.size());
    for (size_t f = 0; f < fused.size(); ++f)
        EXPECT_TRUE(fused[f].raw() == discrete[f].raw()) << "frame " << f;
}

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

// Golden pins of a temporally seeded stream, recorded from the code
// before the match-list replay kernel (DESIGN §16.4) existed: a
// 3-frame 96x64 pan (1 px per frame) at window 13, refStride 2, both
// stages, Float32 and Int16 matching (seeding applies to the float
// BM1 domain; Int16 runs its per-reference scans). Every level and
// thread count must reproduce them, so seeded and per-reference scans
// are checked against the old arithmetic rather than against
// themselves.
TEST_F(RuntimeTest, SeededStreamGoldenPins)
{
    struct Pin
    {
        bm3d::Precision precision;
        uint64_t frames[3];
    };
    const Pin pins[] = {
        {bm3d::Precision::Float32,
         {0x6187d87963bfd1adull, 0x1fd137e0e04e0937ull,
          0xf29c33c2010aab79ull}},
        {bm3d::Precision::Int16,
         {0x53a885755272dcc6ull, 0xe5a2be85b8356c94ull,
          0x38fa54ce5ac55eacull}},
    };
    const image::ImageF scene =
        image::makeScene(image::SceneKind::Street, 98, 64, 1, 113);
    std::vector<image::ImageF> clip;
    for (int f = 0; f < 3; ++f)
        clip.push_back(image::addGaussianNoise(scene.crop(f, 0, 96, 64),
                                               25.0f, 114 + f));
    for (const Pin &pin : pins) {
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 4}) {
                StreamConfig cfg = smallStreamConfig(threads, true);
                cfg.frame.precision = pin.precision;
                cfg.temporalSeed = true;
                StreamStats stats;
                const auto out = streamOutputs(cfg, clip, &stats);
                SCOPED_TRACE(testing::Message()
                             << "precision="
                             << static_cast<int>(pin.precision)
                             << " level="
                             << simd::toString(static_cast<simd::Level>(l))
                             << " threads=" << threads);
                // Temporal seeding serves the float BM1 domain only.
                if (pin.precision == bm3d::Precision::Float32) {
                    EXPECT_GT(stats.seedHits, 0u);
                }
                for (int f = 0; f < 3; ++f)
                    EXPECT_EQ(hashImage(out[f]), pin.frames[f])
                        << std::hex << "frame " << f << " 0x"
                        << hashImage(out[f]);
            }
        }
    }
}

// Golden hashes of a seeded two-stage stream whose frames span seven
// tile-row bands (tileGrain 8, band.rows 8 on a 96x112 pan), so a
// stage-1 ring field sized to a band plus lookahead wraps more than
// twice per frame. Recorded with whole-frame DCT1 fields; every
// precision, level and thread count must reproduce them, which pins
// the ring's on-demand fills and releases against the old schedule.
TEST_F(RuntimeTest, RingStreamGoldenPins)
{
    struct Pin
    {
        bm3d::Precision precision;
        uint64_t frames[3];
    };
    const Pin pins[] = {
        {bm3d::Precision::Float32,
         {0x72dfca42e52f8af2ull, 0x95a65ef9f8cc2df6ull,
          0x860121a1a1795abcull}},
        {bm3d::Precision::Int16,
         {0x7e7bef1fb5810e5cull, 0x94b6e138ba0b5ad4ull,
          0x8f50914aba28b470ull}},
    };
    const image::ImageF scene =
        image::makeScene(image::SceneKind::Street, 100, 112, 1, 127);
    std::vector<image::ImageF> clip;
    for (int f = 0; f < 3; ++f)
        clip.push_back(image::addGaussianNoise(scene.crop(2 * f, 0, 96, 112),
                                               25.0f, 128 + f));
    for (const Pin &pin : pins) {
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 4}) {
                StreamConfig cfg = smallStreamConfig(threads, true);
                cfg.frame.precision = pin.precision;
                cfg.frame.tileGrain = 8;
                cfg.frame.band.rows = 8;
                cfg.temporalSeed = true;
                const auto out = streamOutputs(cfg, clip);
                SCOPED_TRACE(testing::Message()
                             << "precision="
                             << static_cast<int>(pin.precision)
                             << " level="
                             << simd::toString(static_cast<simd::Level>(l))
                             << " threads=" << threads);
                for (int f = 0; f < 3; ++f)
                    EXPECT_EQ(hashImage(out[f]), pin.frames[f])
                        << std::hex << "frame " << f << " 0x"
                        << hashImage(out[f]);
            }
        }
    }
}

// The ring is the stream's only coefficient field: a frame of seven
// bands keeps fewer resident bytes than one whole-frame field, and no
// whole-frame field is built at all. Guards the stream's memory win.
TEST_F(RuntimeTest, RingStreamKeepsBandBytesBelowWholeField)
{
    obs::MetricsRegistry::global().reset();
    const auto clip = staticClip(3, 96, 112, 25.0f, 131);
    StreamConfig cfg = smallStreamConfig(4, true);
    cfg.frame.tileGrain = 8;
    cfg.frame.band.rows = 8;
    cfg.temporalSeed = true;
    StreamStats stats;
    streamOutputs(cfg, clip, &stats);
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_FALSE(snap.has("mem.peakFieldBytes"))
        << "the stream built a whole-frame field";

    bm3d::DctPatchField whole;
    whole.prepare(96, 112, transforms::Dct2D(cfg.frame.patchSize));
    const double band = snap.value("mem.peakBandBytes");
    EXPECT_GT(band, 0.0);
    EXPECT_LT(band, static_cast<double>(whole.footprintBytes()));
    // The schedule's waits are published as gauges, outside the
    // deterministic counter set.
    EXPECT_EQ(snap.kind("stream.fill.waitNs"), obs::MetricKind::Gauge);
    EXPECT_EQ(snap.kind("stream.ring.stallNs"), obs::MetricKind::Gauge);
    EXPECT_EQ(snap.value("stream.fill.waitNs"),
              static_cast<double>(stats.fillWaitNs));
    EXPECT_EQ(snap.value("stream.ring.stallNs"),
              static_cast<double>(stats.ringStallNs));
    EXPECT_GT(stats.profile.seconds(bm3d::Step::Dct1), 0.0);
}

// Stresses the ring schedule's fill and release waits: one tile row
// per band on a fine tile grid (17 bands of 2x2-reference tiles), so
// fills run right behind the merge cursor; 1, 2 and 8 workers; a
// producer thread racing the collector; both stages. A 4-row frame
// (one position row) clamps the ring to the whole grid. Outputs must
// equal the stage-major batch path. Runs under TSan via the sanitize
// label: a fill overwriting rows a running tile reads is a race.
TEST_F(RuntimeTest, RingScheduleStressIsOrderedAndRaceFree)
{
    struct Shape
    {
        int w, h, frames;
    };
    for (const Shape shape : {Shape{40, 36, 5}, Shape{40, 4, 3}}) {
        const auto clip =
            staticClip(shape.frames, shape.w, shape.h, 25.0f, 137);
        for (int threads : {1, 2, 8}) {
            StreamConfig cfg = smallStreamConfig(threads, true);
            cfg.frame.refStride = 1;
            cfg.frame.tileGrain = 2;
            cfg.frame.band.rows = 2;
            cfg.queueDepth = 2;
            const auto batch = batchOutputs(cfg.frame, clip);
            StreamDenoiser stream(cfg);
            std::thread producer([&] {
                for (const image::ImageF &frame : clip)
                    stream.submit(image::ImageF(frame));
                stream.finish();
            });
            for (size_t f = 0; f < clip.size(); ++f) {
                image::ImageF out = stream.collect();
                EXPECT_TRUE(out.raw() == batch[f].raw())
                    << shape.w << "x" << shape.h << " threads " << threads
                    << " frame " << f;
                (void)stream.stats();
                stream.recycle(std::move(out));
            }
            producer.join();
            EXPECT_EQ(stream.stats().frames, clip.size());
        }
    }
}
