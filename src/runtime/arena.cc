#include "runtime/arena.h"

#include "obs/metrics.h"

namespace ideal {
namespace runtime {

bool
BufferArena::takeFreeLocked(size_t count, std::vector<float> *out)
{
    auto it = free_.lower_bound(count);
    if (it == free_.end() || it->first > count * kSlackFactor)
        return false;
    *out = std::move(it->second);
    free_.erase(it);
    return true;
}

void
BufferArena::keepLocked(std::vector<float> &&buf,
                        std::vector<float> *dropped)
{
    const size_t cap = buf.capacity();
    if (free_.count(cap) >= kMaxFreePerClass) {
        ++stats_.dropped;
        *dropped = std::move(buf);
        return;
    }
    free_.emplace(cap, std::move(buf));
}

void
BufferArena::drop(std::vector<float> &&buf)
{
    const int64_t bytes = static_cast<int64_t>(buf.capacity()) *
                          static_cast<int64_t>(sizeof(float));
    if (bytes == 0)
        return;
    std::vector<float>().swap(buf);
    obs::chargeResidentBytes(-bytes);
}

void
BufferArena::ensure(std::vector<float> &buf, size_t count)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    if (buf.capacity() >= count) {
        // Warm path: the component's own storage already fits. resize
        // within capacity never reallocates.
        buf.resize(count);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.hits;
        }
        reg.add("arena.hit", 1.0);
        return;
    }

    std::vector<float> recycled;
    std::vector<float> dropped;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hit = takeFreeLocked(count, &recycled);
        if (hit)
            ++stats_.hits;
        else {
            ++stats_.misses;
            stats_.bytesNew += count * sizeof(float);
        }
        if (buf.capacity() > 0) {
            keepLocked(std::move(buf), &dropped);
            buf = std::vector<float>();
        }
    }
    drop(std::move(dropped));
    if (hit) {
        recycled.resize(count);
        buf = std::move(recycled);
        reg.add("arena.hit", 1.0);
        return;
    }
    buf.assign(count, 0.0f);
    reg.add("arena.miss", 1.0);
    reg.add("arena.bytesNew",
            static_cast<double>(count * sizeof(float)));
    // Fresh heap bytes enter the process-wide resident-footprint
    // ledger; recycled buffers were charged when first allocated and
    // stay resident while they sit in the free list, so hits and
    // releases are ledger-neutral.
    obs::chargeResidentBytes(
        static_cast<int64_t>(count * sizeof(float)));
}

void
BufferArena::release(std::vector<float> &&buf)
{
    if (buf.capacity() == 0)
        return;
    std::vector<float> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        keepLocked(std::move(buf), &dropped);
    }
    drop(std::move(dropped));
}

BufferArena::Stats
BufferArena::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.freeBuffers = free_.size();
    return s;
}

void
BufferArena::trim()
{
    int64_t freed = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[cap, buf] : free_)
            freed += static_cast<int64_t>(buf.capacity()) *
                     static_cast<int64_t>(sizeof(float));
        free_.clear();
    }
    if (freed > 0)
        obs::chargeResidentBytes(-freed);
}

} // namespace runtime
} // namespace ideal
