#ifndef IDEAL_BM3D_MATCHLIST_H_
#define IDEAL_BM3D_MATCHLIST_H_

/**
 * @file
 * The bounded, distance-sorted list of best matches kept per reference
 * patch — the software analogue of the BM engine's priority queue MQ
 * (paper Fig. 6). Capacity is the 16-best-matches limit.
 */

#include <cassert>
#include <cstdint>
#include <limits>

#include "simd/simd.h"

namespace ideal {
namespace bm3d {

/** One candidate match: patch top-left coordinates and distance. */
struct Match
{
    int32_t x = 0;
    int32_t y = 0;
    float distance = 0.0f;

    bool operator==(const Match &other) const = default;
};

/**
 * Fixed-capacity insertion-sorted match list (ascending distance).
 * Insertion is O(capacity), mirroring the hardware shift-register
 * priority queue.
 *
 * Storage is the simd::MatchSlots layout the matchReplay kernel works
 * on (DESIGN §16.4): distances and packed positions in separate
 * arrays, so window scans replay their candidates straight into the
 * list. Positions are packed x | y << 16, which bounds coordinates to
 * [0, kMaxCoord]; frames are checked against it on entry
 * (requireValidFrame in bm3d.h).
 */
class MatchList
{
  public:
    static constexpr int kCapacity = simd::MatchSlots::kCapacity;

    /** Largest coordinate a packed position holds. */
    static constexpr int kMaxCoord = 0xffff;

    explicit MatchList(int capacity = kCapacity)
    {
        assert(capacity >= 1 && capacity <= kCapacity);
        // Clamping (rather than just asserting) keeps the compiler's
        // value-range analysis aware that the capacity is in [1, 16],
        // so dist[capacity - 1] in inlined callers is provably in
        // bounds.
        s_.capacity = capacity < 1          ? 1
                      : capacity > kCapacity ? kCapacity
                                             : capacity;
        clear();
    }

    int capacity() const { return s_.capacity; }
    int size() const { return s_.size; }
    bool empty() const { return s_.size == 0; }

    int x(int i) const { return static_cast<int>(s_.pos[i] & 0xffffu); }
    int y(int i) const { return static_cast<int>(s_.pos[i] >> 16); }
    float distance(int i) const { return s_.dist[i]; }

    Match
    operator[](int i) const
    {
        assert(i >= 0 && i < s_.size);
        return Match{x(i), y(i), s_.dist[i]};
    }

    /** Largest (worst) distance currently held, or +inf when not full. */
    float
    worstDistance() const
    {
        if (s_.size < s_.capacity)
            return std::numeric_limits<float>::infinity();
        return s_.dist[s_.size - 1];
    }

    /**
     * Insert a candidate, keeping the list sorted and bounded. Returns
     * true if the candidate was kept.
     */
    bool
    insert(const Match &candidate)
    {
        return simd::matchInsert(s_, candidate.distance,
                                 pack(candidate.x, candidate.y));
    }

    void
    clear()
    {
        s_.size = 0;
        for (int i = 0; i < kCapacity; ++i) {
            s_.dist[i] = std::numeric_limits<float>::infinity();
            s_.pos[i] = 0;
        }
    }

    /**
     * Largest power of two <= size(): the stack depth actually used by
     * the 3-D transform (the Haar length must be a power of two).
     */
    int
    stackSize() const
    {
        int s = 1;
        while (2 * s <= s_.size)
            s *= 2;
        return s_.size == 0 ? 0 : s;
    }

    /** Packed position of (x, y), both in [0, kMaxCoord]. */
    static uint32_t
    pack(int x, int y)
    {
        assert(x >= 0 && x <= kMaxCoord && y >= 0 && y <= kMaxCoord);
        return static_cast<uint32_t>(x) | static_cast<uint32_t>(y) << 16;
    }

    /** The storage the matchReplay kernel reads and writes. */
    simd::MatchSlots &slots() { return s_; }
    const simd::MatchSlots &slots() const { return s_; }

    /** Forward iteration over the held matches, by value. */
    class Iterator
    {
      public:
        Iterator(const MatchList &list, int i) : list_(&list), i_(i) {}
        Match operator*() const { return (*list_)[i_]; }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iterator &other) const = default;

      private:
        const MatchList *list_;
        int i_;
    };

    Iterator begin() const { return Iterator(*this, 0); }
    Iterator end() const { return Iterator(*this, s_.size); }

  private:
    simd::MatchSlots s_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_MATCHLIST_H_
