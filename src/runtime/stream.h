#ifndef IDEAL_RUNTIME_STREAM_H_
#define IDEAL_RUNTIME_STREAM_H_

/**
 * @file
 * Streaming frame-pipeline runtime (DESIGN §9): a StreamDenoiser owns
 * the use of the global thread pool and pipelines consecutive video
 * frames through BM3D with
 *
 *  - a bounded, in-order submit()/collect() frame queue (submit blocks
 *    when queueDepth frames are waiting: backpressure toward the
 *    producer);
 *  - a ring-resident DCT1 field (DESIGN §15): stage 1 of every frame
 *    runs as one ordered pool batch whose workers fill the ring's
 *    patch rows on demand, a band ahead of the tiles that read them,
 *    so no whole-frame coefficient field is ever resident (the ring
 *    is ~4x smaller at 1080p);
 *  - one BufferArena recycling every large per-frame buffer, so the
 *    steady state performs no heap allocation (proven by the
 *    arena.bytesNew counter staying flat from frame 3 on);
 *  - optional temporal match seeding (StreamConfig::temporalSeed):
 *    frame t's BM1 reuses frame t-1's per-cell match lists behind an
 *    MR-style descriptor check, scanning a small re-verification
 *    window instead of the full Ns x Ns search.
 *
 * With temporalSeed off, a streamed clip is bitwise identical to
 * running Bm3d::denoise() per frame — for every SIMD level and thread
 * count (the per-frame pipeline underneath is unchanged; the arena
 * only changes where buffers live).
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "bm3d/profile.h"
#include "bm3d/seeding.h"
#include "image/image.h"
#include "runtime/arena.h"

namespace ideal {
namespace runtime {

/** Configuration of a streaming run. */
struct StreamConfig
{
    /// Per-frame BM3D configuration (threads, stages, MR, ...).
    bm3d::Bm3dConfig frame;

    /// Maximum frames waiting in the input queue before submit()
    /// blocks. (One more frame is in process on top of this.)
    int queueDepth = 3;

    /// Seed frame t's BM1 with frame t-1's match lists. Changes which
    /// candidates BM1 scores (quality-neutral within ~0.05 dB on
    /// static content); off keeps streamed output bitwise equal to
    /// the per-frame batch path.
    bool temporalSeed = false;

    /// Strictness of the temporal reuse check, as a fraction of
    /// tauMatch1 (the MR K factor applied across time).
    double seedK = 0.25;

    /// Odd re-verification window (<= searchWindow1) scanned around
    /// each seeded reference.
    int seedWindow = 9;

    /** Validate invariants; throws std::invalid_argument on error. */
    void validate() const;
};

/** Aggregate statistics of a finished (or running) stream. */
struct StreamStats
{
    uint64_t frames = 0;    ///< frames fully processed
    double wallSeconds = 0; ///< first submit() to last frame done

    /// Per-frame latency (submit() to output ready), in frame order.
    std::vector<double> latenciesMs;

    uint64_t arenaHits = 0;     ///< arena requests served by recycling
    uint64_t arenaMisses = 0;   ///< arena requests that allocated
    uint64_t arenaBytesNew = 0; ///< total fresh heap bytes via arena
    /// Fresh heap bytes allocated via the arena after the 2nd frame
    /// completed — 0 in the malloc-free steady state.
    uint64_t arenaBytesNewSteady = 0;

    uint64_t seedRefs = 0; ///< references where seeding was attempted
    uint64_t seedHits = 0; ///< references served by the seeded search

    /// Stage-1 tiles waiting for ring rows another worker is filling,
    /// summed over workers (also the `stream.fill.waitNs` gauge).
    uint64_t fillWaitNs = 0;
    /// Ring fills waiting for the tiles that read their slots to merge,
    /// summed over workers (also the `stream.ring.stallNs` gauge).
    uint64_t ringStallNs = 0;

    /// Per-step accounting, frames merged in order. Dct1 is the ring
    /// fills' thread-summed time inside the stage-1 batches.
    bm3d::Profile profile;
};

/**
 * Pipelined video denoiser over the per-frame Bm3d engine.
 *
 * Threading model: submit()/collect() are called by the user (from one
 * or more threads); internally one stage thread runs the BM3D stages
 * of each frame in turn (it is the only thread that dispatches to the
 * global ThreadPool, so nested-run restrictions never trigger). Frames
 * come out of collect() in submit order.
 *
 * Lifecycle: submit each frame, call finish(), collect every output
 * (collect may also be called concurrently with submission — the
 * output queue is unbounded, so a submit-all-then-collect-all pattern
 * cannot deadlock). A further collect() after the last output throws
 * std::logic_error; submit() after finish() throws std::logic_error.
 * Errors raised inside the pipeline re-throw from submit()/collect().
 */
class StreamDenoiser
{
  public:
    /** @throws std::invalid_argument when the config is inconsistent */
    explicit StreamDenoiser(StreamConfig config);

    /** Implies finish(); uncollected outputs are discarded. */
    ~StreamDenoiser();

    StreamDenoiser(const StreamDenoiser &) = delete;
    StreamDenoiser &operator=(const StreamDenoiser &) = delete;

    /**
     * Enqueue a frame (blocks while queueDepth frames are waiting).
     * Every frame must share the first frame's shape.
     * @throws std::invalid_argument on a shape mismatch, a frame
     *         side above bm3d::kMaxFrameDim or a non-finite sample
     *         (see bm3d::requireValidFrame)
     */
    void submit(image::ImageF frame);

    /** Dequeue the next output, in submit order (blocks until ready). */
    image::ImageF collect();

    /** Close the input and wait for in-flight frames; idempotent. */
    void finish();

    /**
     * Donate a collected output's storage back to the arena, closing
     * the recycling loop (the next output draws from it).
     */
    void
    recycle(image::ImageF &&frame)
    {
        arena_.release(frame.takeStorage());
    }

    const StreamConfig &config() const { return config_; }
    BufferArena &arena() { return arena_; }

    /** Snapshot of the stream statistics (complete after finish()). */
    StreamStats stats() const;

  private:
    /// A submitted frame plus its enqueue time (latency starts here).
    struct InputItem
    {
        image::ImageF frame;
        std::chrono::steady_clock::time_point enqueued;
    };

    void driverMain();
    void processFrame(InputItem item);
    void fail(std::exception_ptr error);

    StreamConfig config_;
    bm3d::Bm3d bm3d_;
    BufferArena arena_;

    /// One mutex + one cv guard every queue and flag below: state
    /// changes are per-frame, so contention is negligible, and a
    /// single notify_all after each transition keeps the protocol
    /// obviously deadlock-free (every waiter re-checks its predicate).
    mutable std::mutex mutex_;
    std::condition_variable cv_;

    std::deque<InputItem> inputQueue_;       ///< bounded by queueDepth
    std::deque<image::ImageF> outputQueue_;  ///< unbounded, see class doc
    bool inputClosed_ = false;
    bool outputClosed_ = false;
    std::exception_ptr error_;

    // Stream-lifetime state below is written by the driver (and
    // submit() for shape/t0) under mutex_.
    int width_ = 0, height_ = 0, channels_ = 0; ///< 0 until first frame
    bool haveT0_ = false;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point lastDone_;
    uint64_t framesDone_ = 0;
    uint64_t steadyBaseline_ = 0; ///< arena bytesNew after 2nd frame
    std::vector<double> latenciesMs_;
    uint64_t seedRefs_ = 0;
    uint64_t seedHits_ = 0;
    uint64_t fillWaitNs_ = 0;
    uint64_t ringStallNs_ = 0;
    bm3d::Profile profile_;

    // Stage-thread-only state (no locking needed): the stage-1 ring
    // field, allocated once through arena_, and the seed ping-pong.
    bm3d::RingField ring_;
    bm3d::SeedStore seedStores_[2]; ///< ping-pong: read t-1, write t
    uint64_t frameIndex_ = 0;

    std::thread driver_;
    bool joined_ = false;
};

} // namespace runtime
} // namespace ideal

#endif // IDEAL_RUNTIME_STREAM_H_
