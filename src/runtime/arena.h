#ifndef IDEAL_RUNTIME_ARENA_H_
#define IDEAL_RUNTIME_ARENA_H_

/**
 * @file
 * Pooled float-buffer arena for the streaming runtime: every large
 * per-frame allocation of the denoising pipeline (output planes,
 * DctPatchField coefficient planes, TileDctField worker caches, the
 * full-frame aggregator) is routed through one BufferArena so that
 * processing frame t+1 reuses the storage frame t just released and
 * the steady state performs no heap allocation at all.
 *
 * The arena publishes its traffic to obs::MetricsRegistry
 * ("arena.hit" / "arena.miss" / "arena.bytesNew"), which is what lets
 * a bench record — and bench_diff.py --ops-tolerance — *prove* the
 * malloc-free steady state instead of asserting it in prose.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace ideal {
namespace runtime {

/**
 * A mutex-protected recycling pool of float vectors.
 *
 * Two usage patterns, both counted:
 *
 *  - ensure(buf, n): persistent buffers (a component keeps its vector
 *    across frames). When the capacity already fits, the call is a pure
 *    hit and never touches the free list — the deterministic fast path
 *    of every warm stream. Otherwise the old storage is surrendered to
 *    the free list and a recycled (hit) or fresh (miss) buffer replaces
 *    it.
 *  - release(buf) / acquire(n): transient buffers whose owner dies
 *    between frames (output images, the total aggregator). release
 *    donates capacity; acquire takes the smallest free buffer with
 *    capacity in [n, kSlackFactor * n] — the slack cap keeps size
 *    classes segregated, so a small request can never starve a huge
 *    patch-field class — or allocates on miss.
 *
 * The free list keeps at most kMaxFreePerClass buffers of any one
 * capacity; a donation beyond that is freed on the spot (and credited
 * to the resident-bytes ledger). Donors may therefore hand over more
 * buffers than the pipeline ever draws back — a stream donates every
 * input frame while its caller also recycles the outputs — without
 * the free list growing by a frame per frame.
 *
 * Thread-safe; the service runtime calls it from its prepass and
 * dispatcher threads concurrently (their buffer size classes are
 * disjoint, which keeps the hit/miss totals deterministic — see
 * DESIGN §9 and §13).
 */
class BufferArena
{
  public:
    BufferArena() = default;
    BufferArena(const BufferArena &) = delete;
    BufferArena &operator=(const BufferArena &) = delete;

    /** Cumulative traffic counters (monotonic). */
    struct Stats
    {
        uint64_t hits = 0;     ///< requests served without allocating
        uint64_t misses = 0;   ///< requests that had to allocate
        uint64_t bytesNew = 0; ///< bytes of fresh heap allocation
        uint64_t freeBuffers = 0; ///< buffers currently in the free list
        uint64_t dropped = 0; ///< donations freed: their class was full
    };

    /**
     * Make @p buf hold exactly @p count elements, recycling capacity:
     * existing capacity > free-list buffer > fresh allocation (miss).
     * Contents are unspecified after the call.
     */
    void ensure(std::vector<float> &buf, size_t count);

    /** A recycled-or-fresh buffer of exactly @p count elements. */
    std::vector<float>
    acquire(size_t count)
    {
        std::vector<float> buf;
        ensure(buf, count);
        return buf;
    }

    /** Donate @p buf's storage to the free list (no-op if empty). */
    void release(std::vector<float> &&buf);

    Stats stats() const;

    /** Drop all free buffers (tests; steady streams never need it). */
    void trim();

  private:
    /// Free buffers larger than kSlackFactor * request are not reused
    /// for it: bounded internal fragmentation, segregated size classes.
    static constexpr size_t kSlackFactor = 4;

    /// Free buffers kept per exact capacity. A stream's steady state
    /// draws at most a handful of same-shape buffers per frame (output,
    /// total aggregator planes, stage-2 plane copy); the rest of what
    /// it is handed is surplus.
    static constexpr size_t kMaxFreePerClass = 8;

    /// Take a free buffer with capacity in [count, kSlackFactor*count];
    /// returns false when none qualifies. Caller holds mutex_.
    bool takeFreeLocked(size_t count, std::vector<float> *out);

    /// Add @p buf to the free list, or move it to @p dropped when its
    /// capacity class is full. Caller holds mutex_ and frees
    /// @p dropped after unlocking.
    void keepLocked(std::vector<float> &&buf, std::vector<float> *dropped);

    /// Free a buffer keepLocked() turned away and credit the ledger.
    static void drop(std::vector<float> &&buf);

    mutable std::mutex mutex_;
    std::multimap<size_t, std::vector<float>> free_; ///< by capacity
    Stats stats_;
};

} // namespace runtime
} // namespace ideal

#endif // IDEAL_RUNTIME_ARENA_H_
