#ifndef IDEAL_PARALLEL_POOL_H_
#define IDEAL_PARALLEL_POOL_H_

/**
 * @file
 * Work-stealing thread pool shared by the CPU reference paths and the
 * benchmark harness. One pool is created per process (global()) so
 * repeated denoising runs and back-to-back benchmark figures reuse the
 * same worker threads instead of spawning fresh std::threads per call
 * (the seed implementation's per-stage thread churn).
 *
 * Scheduling model: a blocking fork-join batch. run(count, parallelism,
 * fn) splits [0, count) into contiguous blocks, one per participating
 * executor, each held in that executor's own deque. An executor pops
 * work from the back of its deque (LIFO, cache-warm) and, when empty,
 * steals from the front of a victim's deque (FIFO, coarse-grained).
 * The caller participates as executor 0, so a pool is usable even on
 * single-core hosts and a parallelism of 1 runs fully inline.
 *
 * Claim::Ordered replaces the deques with one shared counter: every
 * executor claims the lowest unclaimed index, so tasks start in
 * ascending index order. Callers whose tasks wait on work owned by
 * lower-indexed tasks (the ring-field stage of DESIGN §15) rely on
 * it: every task such a wait depends on has already been claimed.
 *
 * Determinism contract: *which* executor runs a task is not
 * deterministic, but the task set and each task's index are, so
 * callers that keep per-task (not per-executor) results and combine
 * them in task order get bit-identical output for any parallelism.
 * This is how the BM3D tiled runner achieves thread-count-invariant
 * images (see src/bm3d/bm3d.cc and DESIGN.md).
 */

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ideal {
namespace parallel {

/// Upper bound on executors per batch and on pool worker threads;
/// a safety clamp, far above any sensible oversubscription.
constexpr int kMaxThreads = 256;

/**
 * Worker threads the hardware supports. Always >= 1, including on
 * platforms where std::thread::hardware_concurrency() reports 0
 * (the standard allows "not computable"); the seed had two ad-hoc
 * expressions for this, neither of which handled 0.
 */
int hardwareThreads();

/**
 * Clamp a requested thread count to [1, kMaxThreads]. A request of
 * 0 or less selects hardwareThreads().
 */
int clampThreads(int requested);

/** How a batch's executors claim task indices. */
enum class Claim {
    Stealing, ///< contiguous per-executor blocks plus work stealing
    Ordered,  ///< one shared counter: indices start in ascending order
};

class ThreadPool
{
  public:
    /**
     * Create a pool. Worker threads are spawned lazily, on demand of
     * each run() call's parallelism, and are kept until destruction.
     */
    ThreadPool();
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The process-wide shared pool. */
    static ThreadPool &global();

    /** Worker threads currently alive (excludes calling threads). */
    int workerCount() const;

    /**
     * Execute fn(index, slot) for every index in [0, count), using up
     * to @p parallelism concurrent executors. Blocks until every task
     * finished. @p slot identifies the executor in [0, parallelism)
     * so callers can maintain per-executor scratch state.
     *
     * Tasks must not call run() (on any pool): nested submission is
     * rejected with std::logic_error. If a task throws, the remaining
     * tasks are skipped and the first exception is rethrown here.
     */
    void run(int count, int parallelism,
             const std::function<void(int index, int slot)> &fn,
             Claim claim = Claim::Stealing);

    /** True when the calling thread is inside a pool task. */
    static bool insideTask();

  private:
    struct Batch;

    void ensureWorkers(int needed);
    void workerMain();
    static void workLoop(Batch &batch, int slot);
    static void executeTask(Batch &batch, int index, int slot);

    mutable std::mutex mutex_;            ///< guards workers_ + batch publication
    std::condition_variable wakeCv_;      ///< workers wait here for batches
    std::vector<std::thread> workers_;
    std::shared_ptr<Batch> current_;      ///< batch being recruited for
    uint64_t generation_ = 0;             ///< bumped per published batch
    bool stop_ = false;
};

} // namespace parallel
} // namespace ideal

#endif // IDEAL_PARALLEL_POOL_H_
