#include "baseline/baseline.h"

#include <algorithm>
#include <chrono>

#include "image/noise.h"
#include "image/synthetic.h"
#include "parallel/pool.h"

namespace ideal {
namespace baseline {

const char *
toString(Platform platform)
{
    switch (platform) {
      case Platform::CpuBasic: return "CPU-Basic";
      case Platform::CpuVect: return "CPU-Vect";
      case Platform::CpuThreads: return "Threads";
      case Platform::CpuMr025: return "MR (0.25)";
      case Platform::CpuMr05: return "MR (0.5)";
      case Platform::ArmVect: return "ARM-Vect";
      case Platform::Gpu: return "GPU";
    }
    return "?";
}

BaselineSuite::BaselineSuite(int probe_size, float sigma)
    : probeSize_(probe_size), sigma_(sigma)
{
    image::ImageF clean = image::makeScene(image::SceneKind::Nature,
                                           probe_size, probe_size, 3, 99);
    probeNoisy_ = image::addGaussianNoise(clean, sigma, 100);
}

bm3d::Bm3dConfig
BaselineSuite::configFor(Platform platform) const
{
    bm3d::Bm3dConfig cfg;
    cfg.sigma = sigma_;
    switch (platform) {
      case Platform::CpuBasic:
        cfg.boundedDistance = false;
        break;
      case Platform::CpuVect:
      case Platform::ArmVect:
      case Platform::Gpu:
        break;
      case Platform::CpuThreads:
        // Shared clamped helper: handles hardware_concurrency() == 0
        // and caps runaway values; at least two threads so the
        // platform exercises the multi-threaded path everywhere.
        cfg.numThreads = std::max(2, parallel::hardwareThreads());
        break;
      case Platform::CpuMr025:
        cfg.mr.enabled = true;
        cfg.mr.k = 0.25;
        break;
      case Platform::CpuMr05:
        cfg.mr.enabled = true;
        cfg.mr.k = 0.5;
        break;
    }
    return cfg;
}

Rate
BaselineSuite::measureCpu(const bm3d::Bm3dConfig &cfg)
{
    bm3d::Bm3d denoiser(cfg);
    // Wall-clock time: the profile aggregates per-thread CPU time, so
    // it cannot be used as the runtime of multi-threaded runs. The
    // probe is ~0.1 s, so one run on a shared host is mostly noise:
    // keep the fastest of three (same output each time).
    constexpr int kRuns = 3;
    double best = 0.0;
    bm3d::Bm3dResult result;
    for (int run = 0; run < kRuns; ++run) {
        const auto t0 = std::chrono::steady_clock::now();
        result = denoiser.denoise(probeNoisy_);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        best = run == 0 ? s : std::min(best, s);
    }
    const double mp =
        static_cast<double>(probeSize_) * probeSize_ / 1e6;
    Rate rate;
    rate.secondsPerMp = best / mp;
    const double total = result.profile.totalSeconds();
    for (int i = 0; i < bm3d::kNumSteps; ++i)
        rate.stepFraction[i] =
            total > 0
                ? result.profile.seconds(static_cast<bm3d::Step>(i)) / total
                : 0.0;
    return rate;
}

const Rate &
BaselineSuite::rate(Platform platform)
{
    auto it = cache_.find(platform);
    if (it != cache_.end())
        return it->second;

    Rate rate;
    switch (platform) {
      case Platform::CpuBasic:
      case Platform::CpuVect:
      case Platform::CpuThreads:
      case Platform::CpuMr025:
      case Platform::CpuMr05:
        rate = measureCpu(configFor(platform));
        break;
      case Platform::ArmVect: {
        // Paper Sec. 3.1: the Cortex-A15 implementation is 5.2x
        // slower than the vectorized Xeon on average.
        const Rate &vect = this->rate(Platform::CpuVect);
        rate = vect;
        rate.secondsPerMp = vect.secondsPerMp * paper::kArmSlowdown;
        rate.modelled = true;
        break;
      }
      case Platform::Gpu: {
        // Paper Sec. 3.2/6.2: the GTX 980 CUDA implementation is 19x
        // faster than the single-thread CPU, with block matching at
        // 87% of runtime (Fig. 4).
        const Rate &vect = this->rate(Platform::CpuVect);
        rate.secondsPerMp = vect.secondsPerMp / paper::kSpeedupGpu;
        rate.modelled = true;
        const double bm = paper::kGpuBmFraction;
        // Split the BM share between BM1/BM2 in the CPU's measured
        // ratio; the remainder covers the DCT and DE steps.
        const auto &f = vect.stepFraction;
        double cpu_bm = f[static_cast<int>(bm3d::Step::Bm1)] +
                        f[static_cast<int>(bm3d::Step::Bm2)];
        double cpu_rest = 1.0 - cpu_bm;
        for (int i = 0; i < bm3d::kNumSteps; ++i) {
            auto step = static_cast<bm3d::Step>(i);
            if (step == bm3d::Step::Bm1 || step == bm3d::Step::Bm2) {
                rate.stepFraction[i] =
                    cpu_bm > 0 ? bm * f[i] / cpu_bm : bm / 2.0;
            } else {
                rate.stepFraction[i] =
                    cpu_rest > 0 ? (1.0 - bm) * f[i] / cpu_rest : 0.0;
            }
        }
        break;
      }
    }
    return cache_.emplace(platform, rate).first->second;
}

double
BaselineSuite::seconds(Platform platform, double megapixels)
{
    return rate(platform).secondsPerMp * megapixels;
}

} // namespace baseline
} // namespace ideal
