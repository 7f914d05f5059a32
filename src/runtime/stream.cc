#include "runtime/stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ideal {
namespace runtime {

namespace {

/** Number of reference positions makeRefPositions() yields. */
int
refCount(int last_valid, int stride)
{
    int n = last_valid / stride + 1;
    if (last_valid % stride != 0)
        ++n;
    return n;
}

} // namespace

void
StreamConfig::validate() const
{
    frame.validate();
    if (queueDepth < 1)
        throw std::invalid_argument("StreamConfig: queueDepth must be >= 1");
    if (temporalSeed) {
        if (seedK <= 0.0 || seedK > 1.0)
            throw std::invalid_argument(
                "StreamConfig: seedK must be in (0, 1]");
        if (seedWindow < 1 || seedWindow % 2 == 0)
            throw std::invalid_argument(
                "StreamConfig: seedWindow must be odd and >= 1");
        if (seedWindow > frame.searchWindow1)
            throw std::invalid_argument(
                "StreamConfig: seedWindow exceeds searchWindow1");
    }
}

StreamDenoiser::StreamDenoiser(StreamConfig config)
    : config_(std::move(config)), bm3d_(config_.frame)
{
    config_.validate();
    driver_ = std::thread(&StreamDenoiser::driverMain, this);
}

StreamDenoiser::~StreamDenoiser()
{
    try {
        finish();
    } catch (...) {
        // Errors already surfaced through submit()/collect(); the
        // destructor only has to reap the threads.
    }
}

void
StreamDenoiser::submit(image::ImageF frame)
{
    if (frame.width() < config_.frame.patchSize ||
        frame.height() < config_.frame.patchSize) {
        throw std::invalid_argument(
            "StreamDenoiser: frame smaller than patch");
    }
    bm3d::requireValidFrame(frame, "StreamDenoiser");
    std::unique_lock<std::mutex> lock(mutex_);
    if (error_)
        std::rethrow_exception(error_);
    if (inputClosed_)
        throw std::logic_error("StreamDenoiser: submit after finish");
    if (width_ == 0) {
        width_ = frame.width();
        height_ = frame.height();
        channels_ = frame.channels();
    } else if (frame.width() != width_ || frame.height() != height_ ||
               frame.channels() != channels_) {
        throw std::invalid_argument("StreamDenoiser: frame shape mismatch");
    }
    if (!haveT0_) {
        haveT0_ = true;
        t0_ = std::chrono::steady_clock::now();
    }
    cv_.wait(lock, [&] {
        return error_ ||
               inputQueue_.size() <
                   static_cast<size_t>(config_.queueDepth);
    });
    if (error_)
        std::rethrow_exception(error_);
    inputQueue_.push_back(
        InputItem{std::move(frame), std::chrono::steady_clock::now()});
    cv_.notify_all();
}

image::ImageF
StreamDenoiser::collect()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
        return !outputQueue_.empty() || error_ || outputClosed_;
    });
    if (!outputQueue_.empty()) {
        image::ImageF out = std::move(outputQueue_.front());
        outputQueue_.pop_front();
        return out;
    }
    if (error_)
        std::rethrow_exception(error_);
    throw std::logic_error("StreamDenoiser: collect on drained stream");
}

void
StreamDenoiser::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inputClosed_ = true;
        cv_.notify_all();
    }
    if (!joined_) {
        joined_ = true;
        if (driver_.joinable())
            driver_.join();
    }
}

StreamStats
StreamDenoiser::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StreamStats s;
    s.frames = framesDone_;
    s.latenciesMs = latenciesMs_;
    if (haveT0_ && framesDone_ > 0)
        s.wallSeconds =
            std::chrono::duration<double>(lastDone_ - t0_).count();
    const BufferArena::Stats a = arena_.stats();
    s.arenaHits = a.hits;
    s.arenaMisses = a.misses;
    s.arenaBytesNew = a.bytesNew;
    s.arenaBytesNewSteady =
        framesDone_ >= 2 ? a.bytesNew - steadyBaseline_ : 0;
    s.seedRefs = seedRefs_;
    s.seedHits = seedHits_;
    s.fillWaitNs = fillWaitNs_;
    s.ringStallNs = ringStallNs_;
    s.profile = profile_;
    return s;
}

void
StreamDenoiser::fail(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_)
        error_ = error;
    cv_.notify_all();
}

void
StreamDenoiser::driverMain()
{
    try {
        while (true) {
            InputItem item;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return error_ || !inputQueue_.empty() || inputClosed_;
                });
                if (error_)
                    break;
                if (inputQueue_.empty())
                    break; // input closed and drained
                item = std::move(inputQueue_.front());
                inputQueue_.pop_front();
                cv_.notify_all(); // free a submit() slot
            }
            processFrame(std::move(item));
        }
    } catch (...) {
        fail(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    outputClosed_ = true;
    cv_.notify_all();
    // Stream-scope counters for bench records / bench_diff.py gates.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.add("stream.frames", static_cast<double>(framesDone_));
    const uint64_t steady = framesDone_ >= 2
                                ? arena_.stats().bytesNew - steadyBaseline_
                                : 0;
    reg.add("arena.bytesNewSteady", static_cast<double>(steady));
}

void
StreamDenoiser::processFrame(InputItem item)
{
    obs::Span frame_span("stream.frame", "stream", "index",
                         static_cast<double>(frameIndex_));
    bm3d::Profile frame_profile;

    // Stage 1 fills the persistent ring field on demand inside its
    // tile batch (DESIGN §15): no whole-frame field, no prepass.
    bm3d::StageOptions s1;
    s1.ring = &ring_;
    s1.arena = &arena_;
    bm3d::TemporalSeed seed;
    if (config_.temporalSeed) {
        const int ps = config_.frame.patchSize;
        const int coefs = ps * ps;
        const int nx = refCount(item.frame.width() - ps,
                                config_.frame.refStride);
        const int ny = refCount(item.frame.height() - ps,
                                config_.frame.refStride);
        bm3d::SeedStore &cur = seedStores_[frameIndex_ % 2];
        bm3d::SeedStore &prev = seedStores_[(frameIndex_ + 1) % 2];
        cur.reset(nx, ny, coefs, config_.frame.maxMatches);
        seed.current = &cur;
        seed.previous = (frameIndex_ > 0 &&
                         prev.matches(nx, ny, coefs,
                                      config_.frame.maxMatches))
                            ? &prev
                            : nullptr;
        seed.reuseBound = static_cast<float>(config_.seedK) *
                          config_.frame.tauMatch1;
        seed.window =
            std::min(config_.seedWindow, config_.frame.searchWindow1);
        s1.seed = &seed;
    }

    image::ImageF basic = bm3d_.runStage(
        bm3d::Stage::HardThreshold, item.frame, nullptr, frame_profile,
        s1);

    image::ImageF output;
    if (config_.frame.enableWiener) {
        bm3d::StageOptions s2;
        s2.arena = &arena_;
        output = bm3d_.runStage(bm3d::Stage::Wiener, item.frame, &basic,
                                frame_profile, s2);
        arena_.release(basic.takeStorage());
    } else {
        output = std::move(basic);
    }
    // The input's storage feeds the next frame's output acquire — the
    // heart of the recycling loop.
    arena_.release(item.frame.takeStorage());

    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        profile_ += frame_profile;
        latenciesMs_.push_back(
            std::chrono::duration<double, std::milli>(now - item.enqueued)
                .count());
        if (config_.temporalSeed) {
            seedRefs_ += seed.refs.load(std::memory_order_relaxed);
            seedHits_ += seed.hits.load(std::memory_order_relaxed);
        }
        fillWaitNs_ = ring_.fillWaitNs;
        ringStallNs_ = ring_.stallNs;
        // The schedule's stalls, live for operators; timing-dependent,
        // so gauges rather than gated counters.
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        reg.set("stream.fill.waitNs", static_cast<double>(fillWaitNs_));
        reg.set("stream.ring.stallNs", static_cast<double>(ringStallNs_));
        ++framesDone_;
        // From here on the arena must not allocate: remember the
        // baseline the steady-state counter is measured against.
        if (framesDone_ == 2)
            steadyBaseline_ = arena_.stats().bytesNew;
        lastDone_ = now;
        outputQueue_.push_back(std::move(output));
        cv_.notify_all();
    }
    ++frameIndex_;
}

} // namespace runtime
} // namespace ideal
