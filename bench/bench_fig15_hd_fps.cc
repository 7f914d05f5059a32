/**
 * @file
 * Fig. 15: HD (1920x1080) frames per second for IDEALMR
 * configurations IDEAL_K_Ps, over HD scenes of different content
 * (min/avg/max FPS).
 *
 * PR 5 extends the figure with a *software* streaming section: the
 * same HD clip pushed through runtime::StreamDenoiser, reporting
 * sustained fps and per-frame latency percentiles for (a) per-frame
 * batch calls, (b) the streamed pipeline with temporal seeding off
 * (bitwise identical to batch — asserted via frame hashes), and
 * (c) the streamed pipeline with temporal seeding on (the headline
 * BENCH_fig15_hd_fps.json record). Default scale uses a small clip so
 * the bench stays CI-sized; IDEAL_BENCH_SCALE=full runs the 1080p
 * 16-frame clip of the acceptance criteria.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "bm3d/bm3d.h"
#include "runtime/stream.h"

using namespace ideal;
using bench::fmt;

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

/** Nearest-rank percentile (same rule as bench/common.cc). */
double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    if (rank < 1)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    return samples[rank - 1];
}

/** One streamed pass over the clip (seeded or not). */
struct StreamRun
{
    std::vector<uint64_t> hashes;
    double snrSum = 0.0;
    runtime::StreamStats stats;
};

StreamRun
runStream(const runtime::StreamConfig &scfg,
          const std::vector<image::ImageF> &clip,
          const image::ImageF &clean)
{
    runtime::StreamDenoiser stream(scfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame)); // stream consumes storage
    stream.finish();

    StreamRun run;
    for (size_t f = 0; f < clip.size(); ++f) {
        image::ImageF out = stream.collect();
        run.hashes.push_back(hashImage(out));
        run.snrSum += image::snrDb(clean, out);
        stream.recycle(std::move(out)); // close the arena loop
    }
    run.stats = stream.stats();
    return run;
}

} // namespace

int
main()
{
    bench::printHeader("Fig. 15", "HD frames per second per config");

    const int w = 1920, h = 1080;
    struct Cfg
    {
        double k;
        int ps;
    };
    const Cfg cfgs[] = {{0.25, 1}, {0.5, 1}, {1.0, 1},
                        {0.5, 2}, {1.0, 2}, {1.0, 3}};

    const image::SceneKind kinds[] = {image::SceneKind::Nature,
                                      image::SceneKind::Street,
                                      image::SceneKind::Texture};

    std::vector<int> widths = {16, 10, 10, 10};
    bench::printRow({"config", "min", "avg", "max"}, widths);
    for (const Cfg &c : cfgs) {
        double mn = 1e9, mx = 0, sum = 0;
        for (image::SceneKind kind : kinds) {
            auto cfg = core::AcceleratorConfig::idealMr(c.k, c.ps);
            auto clean = image::makeScene(kind, w, h, 3, 777);
            auto noisy = image::addGaussianNoise(clean, 25.0f, 778);
            auto r = core::simulateImage(cfg, noisy);
            double fps = 1.0 / r.seconds();
            mn = std::min(mn, fps);
            mx = std::max(mx, fps);
            sum += fps;
        }
        char label[32];
        std::snprintf(label, sizeof(label), "IDEAL_%g_%d", c.k, c.ps);
        bench::printRow({label, fmt(mn, 1), fmt(sum / 3.0, 1),
                         fmt(mx, 1)},
                        widths);
    }

    std::printf("\npaper: every config averages >= 30 FPS except\n"
                "IDEAL_0.25_1; IDEAL_1_3 reaches 90 FPS average and\n"
                "never drops below 22 FPS.\n");

    // ---- Software streaming runtime (src/runtime, DESIGN §9) ----
    const bool full = bench::fullScale();
    // A quarter of 1080p at default scale: 8 tiles per band and 5
    // bands, so even at 8 threads the stream's ring field holds about
    // half the grid and stays below the batch path's whole field
    // (mem.peakBandBytes < mem.peakFieldBytes, gated in CI).
    const int sw = full ? 1920 : 960;
    const int sh = full ? 1080 : 540;
    const int frames = full ? 16 : 8;

    bm3d::Bm3dConfig fcfg;
    fcfg.searchWindow1 = 13; // video-rate profile: local search window
    fcfg.refStride = 2;
    fcfg.enableWiener = false; // stage 1 only, as IDEAL's video mode
    fcfg.numThreads = 8;
    fcfg.sigma = 25.0f;

    // Static scene with per-frame independent noise — the favourable
    // (and typical video) case for temporal match seeding. Scene kind
    // is overridable (IDEAL_BENCH_SCENE=nature|street|texture|detail|
    // uniform) to probe content dependence.
    const char *scene_env = std::getenv("IDEAL_BENCH_SCENE");
    const image::SceneKind scene_kind =
        image::sceneKindFromString(scene_env != nullptr ? scene_env
                                                        : "detail");
    std::printf("\nStreaming software runtime: %dx%d, %d frames, "
                "%s scene, grayscale, stage 1 only\n",
                sw, sh, frames, image::toString(scene_kind));

    const image::ImageF clean =
        image::makeScene(scene_kind, sw, sh, 1, 777);
    std::vector<image::ImageF> clip;
    clip.reserve(static_cast<size_t>(frames));
    for (int f = 0; f < frames; ++f)
        clip.push_back(image::addGaussianNoise(
            clean, fcfg.sigma, 900 + static_cast<uint64_t>(f)));

    // (a) Per-frame batch calls: the pre-runtime way to do video.
    bm3d::Bm3d batch(fcfg);
    std::vector<uint64_t> batch_hashes;
    std::vector<double> batch_lat_ms;
    double batch_snr = 0.0, batch_wall_s = 0.0;
    for (const image::ImageF &frame : clip) {
        const auto t0 = std::chrono::steady_clock::now();
        bm3d::Bm3dResult r = batch.denoise(frame);
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        batch_wall_s += s;
        batch_lat_ms.push_back(s * 1e3);
        batch_hashes.push_back(hashImage(r.output));
        batch_snr += image::snrDb(clean, r.output);
    }

    // (b) Streamed, seeding off: must be bitwise identical to (a).
    runtime::StreamConfig scfg;
    scfg.frame = fcfg;
    scfg.temporalSeed = false;
    const StreamRun plain = runStream(scfg, clip, clean);
    const bool hash_match = plain.hashes == batch_hashes;

    // (c) Streamed, seeding on: the headline streaming record.
    scfg.temporalSeed = true;
    scfg.seedK = 0.60;
    scfg.seedWindow = 9;
    const StreamRun seeded = runStream(scfg, clip, clean);

    const double batch_fps = frames / batch_wall_s;
    const double plain_fps = frames / plain.stats.wallSeconds;
    const double stream_fps = frames / seeded.stats.wallSeconds;
    const double seed_hit_rate =
        seeded.stats.seedRefs > 0
            ? static_cast<double>(seeded.stats.seedHits) /
                  static_cast<double>(seeded.stats.seedRefs)
            : 0.0;
    const double snr_delta_db =
        std::fabs(seeded.snrSum - batch_snr) / frames;

    std::vector<int> swidths = {22, 10, 12, 12, 12};
    bench::printRow({"mode", "fps", "p50 ms", "p95 ms", "p99 ms"},
                    swidths);
    bench::printRow({"batch per-frame", fmt(batch_fps, 2),
                     fmt(percentile(batch_lat_ms, 50), 1),
                     fmt(percentile(batch_lat_ms, 95), 1),
                     fmt(percentile(batch_lat_ms, 99), 1)},
                    swidths);
    bench::printRow({"stream", fmt(plain_fps, 2),
                     fmt(percentile(plain.stats.latenciesMs, 50), 1),
                     fmt(percentile(plain.stats.latenciesMs, 95), 1),
                     fmt(percentile(plain.stats.latenciesMs, 99), 1)},
                    swidths);
    bench::printRow({"stream + seeding", fmt(stream_fps, 2),
                     fmt(percentile(seeded.stats.latenciesMs, 50), 1),
                     fmt(percentile(seeded.stats.latenciesMs, 95), 1),
                     fmt(percentile(seeded.stats.latenciesMs, 99), 1)},
                    swidths);
    std::printf("stream vs batch: %.2fx  |  hashes %s  |  "
                "seed hit rate %.1f%%  |  |dSNR| %.4f dB\n",
                stream_fps / batch_fps,
                hash_match ? "identical" : "MISMATCH",
                100.0 * seed_hit_rate, snr_delta_db);
    std::printf("arena: %llu hits / %llu misses, %llu fresh bytes "
                "(steady state: %llu)\n",
                static_cast<unsigned long long>(seeded.stats.arenaHits),
                static_cast<unsigned long long>(seeded.stats.arenaMisses),
                static_cast<unsigned long long>(seeded.stats.arenaBytesNew),
                static_cast<unsigned long long>(
                    seeded.stats.arenaBytesNewSteady));

    bench::BenchRecord record;
    record.name = "fig15_hd_fps";
    record.requestedThreads = fcfg.numThreads;
    record.wallTimeS = seeded.stats.wallSeconds;
    record.frameLatenciesMs = seeded.stats.latenciesMs;
    record.addProfile(seeded.stats.profile);
    record.metrics["frames"] = frames;
    record.metrics["batch_fps"] = batch_fps;
    record.metrics["stream_fps"] = stream_fps;
    record.metrics["stream_speedup"] = stream_fps / batch_fps;
    record.metrics["stream_hash_match"] = hash_match ? 1.0 : 0.0;
    record.metrics["snr_batch_db"] = batch_snr / frames;
    record.metrics["snr_seeded_db"] = seeded.snrSum / frames;
    record.metrics["snr_delta_seeded_db"] = snr_delta_db;
    record.metrics["seed_hit_rate"] = seed_hit_rate;
    record.write();

    if (!hash_match) {
        std::fprintf(stderr,
                     "FAIL: streamed output (seeding off) is not "
                     "bitwise identical to the batch path\n");
        return 1;
    }
    return 0;
}
