#include "parallel/pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/trace.h"

namespace ideal {
namespace parallel {

namespace {

/// Set while the current thread executes a pool task (any pool).
thread_local bool t_inside_task = false;

} // namespace

int
hardwareThreads()
{
    const unsigned hc = std::thread::hardware_concurrency();
    if (hc == 0)
        return 1;
    return std::min<int>(static_cast<int>(hc), kMaxThreads);
}

int
clampThreads(int requested)
{
    if (requested <= 0)
        return hardwareThreads();
    return std::min(requested, kMaxThreads);
}

/**
 * One fork-join batch. Held by shared_ptr: the publishing run() call
 * and every worker that was recruited for the batch keep a reference,
 * so a worker that wakes up late can never dereference a dead batch.
 */
struct ThreadPool::Batch
{
    /// Per-executor work queue. A mutex per deque keeps the stealing
    /// protocol simple and ThreadSanitizer-clean; contention is one
    /// lock per task at tile granularity, which is noise next to the
    /// milliseconds each BM3D tile costs.
    struct WorkDeque
    {
        std::mutex mutex;
        std::deque<int> items;
    };

    Batch(int count, int executors, std::function<void(int, int)> body,
          Claim how)
        : fn(std::move(body)), parallelism(executors), claim(how),
          taskCount(count), remaining(count)
    {
        deques = std::make_unique<WorkDeque[]>(parallelism);
        if (claim == Claim::Ordered)
            return; // the shared counter replaces the deques
        // Contiguous blocks per executor: task order within a block is
        // preserved, which keeps block matching cache-warm.
        for (int s = 0; s < parallelism; ++s) {
            const int begin = static_cast<int>(
                static_cast<long long>(count) * s / parallelism);
            const int end = static_cast<int>(
                static_cast<long long>(count) * (s + 1) / parallelism);
            for (int i = begin; i < end; ++i)
                deques[s].items.push_back(i);
        }
    }

    const std::function<void(int, int)> fn;
    const int parallelism;
    const Claim claim;
    const int taskCount;
    std::unique_ptr<WorkDeque[]> deques;
    std::atomic<int> nextIndex{0}; ///< Claim::Ordered's shared counter

    std::atomic<int> nextSlot{1}; ///< slot 0 is the calling thread
    std::atomic<int> active{0};   ///< executors currently in workLoop
    std::atomic<int> remaining;   ///< tasks not yet completed
    std::atomic<bool> abort{false};

    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::exception_ptr error; ///< first exception, guarded by doneMutex

    /// Claim the next task: the shared counter in ordered mode, else
    /// the executor's own deque, then a victim's.
    bool
    take(int slot, int *index)
    {
        if (claim == Claim::Ordered) {
            *index = nextIndex.fetch_add(1, std::memory_order_relaxed);
            return *index < taskCount;
        }
        return popLocal(slot, index) || steal(slot, index);
    }

    /// Pop from the back of the executor's own deque.
    bool
    popLocal(int slot, int *index)
    {
        WorkDeque &d = deques[slot];
        std::lock_guard<std::mutex> lock(d.mutex);
        if (d.items.empty())
            return false;
        *index = d.items.back();
        d.items.pop_back();
        return true;
    }

    /// Steal from the front of another executor's deque.
    bool
    steal(int slot, int *index)
    {
        for (int k = 1; k < parallelism; ++k) {
            WorkDeque &d = deques[(slot + k) % parallelism];
            std::lock_guard<std::mutex> lock(d.mutex);
            if (d.items.empty())
                continue;
            *index = d.items.front();
            d.items.pop_front();
            return true;
        }
        return false;
    }

    void
    taskDone()
    {
        if (remaining.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(doneMutex);
            doneCv.notify_all();
        }
    }

    void
    leave()
    {
        if (active.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(doneMutex);
            doneCv.notify_all();
        }
    }
};

ThreadPool::ThreadPool() = default;

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

int
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size());
}

bool
ThreadPool::insideTask()
{
    return t_inside_task;
}

void
ThreadPool::ensureWorkers(int needed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < needed)
        workers_.emplace_back([this] { workerMain(); });
}

void
ThreadPool::executeTask(Batch &batch, int index, int slot)
{
    if (!batch.abort.load(std::memory_order_relaxed)) {
        t_inside_task = true;
        try {
            // One span per task = per tile for the BM3D runner; the
            // index arg lets a Perfetto query join spans back to the
            // deterministic tile grid.
            obs::Span span("pool.task", "pool", "index", index);
            batch.fn(index, slot);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(batch.doneMutex);
                if (!batch.error)
                    batch.error = std::current_exception();
            }
            batch.abort.store(true, std::memory_order_relaxed);
        }
        t_inside_task = false;
    }
    batch.taskDone();
}

void
ThreadPool::workLoop(Batch &batch, int slot)
{
    int index;
    for (;;) {
        if (batch.take(slot, &index))
            executeTask(batch, index, slot);
        else
            break; // tasks cannot spawn tasks: empty deques are final
    }
}

void
ThreadPool::workerMain()
{
    uint64_t seen_generation = 0;
    for (;;) {
        std::shared_ptr<Batch> batch;
        int slot = -1;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeCv_.wait(lock, [&] {
                return stop_ ||
                       (current_ != nullptr && generation_ != seen_generation);
            });
            if (stop_)
                return;
            seen_generation = generation_;
            batch = current_;
            slot = batch->nextSlot.fetch_add(1);
            if (slot >= batch->parallelism)
                continue; // batch already fully staffed
            batch->active.fetch_add(1);
        }
        workLoop(*batch, slot);
        batch->leave();
    }
}

void
ThreadPool::run(int count, int parallelism,
                const std::function<void(int, int)> &fn, Claim claim)
{
    if (insideTask())
        throw std::logic_error(
            "ThreadPool::run: nested parallel submission is not supported");
    if (count <= 0)
        return;
    const int p = std::max(1, std::min({clampThreads(parallelism), count}));

    auto batch = std::make_shared<Batch>(count, p, fn, claim);
    if (p > 1) {
        ensureWorkers(p - 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            current_ = batch;
            ++generation_;
        }
        wakeCv_.notify_all();
    }

    workLoop(*batch, 0);

    {
        std::unique_lock<std::mutex> lock(batch->doneMutex);
        batch->doneCv.wait(lock, [&] {
            return batch->remaining.load() == 0 && batch->active.load() == 0;
        });
    }
    if (p > 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (current_ == batch)
            current_ = nullptr;
    }
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace parallel
} // namespace ideal
