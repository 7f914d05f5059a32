#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * The benchmark's own arithmetic, kept free of library dependencies so
 * the self-test binary can check it in isolation:
 *
 *  - nearest-rank percentiles and the tail rule ("the highest
 *    percentile with at least 10 samples beyond it");
 *  - the seeded Poisson send schedule of the open-loop generator;
 *  - lateness accounting, where a request's latency runs from its
 *    scheduled send time, not from when the generator got round to it.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** SplitMix64: the benchmark's seeded input source. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1), 53 random bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    uint64_t state_;
};

/** Derive an independent stream seed from a run seed and a label. */
inline uint64_t
mixSeed(uint64_t seed, uint64_t label)
{
    Rng r(seed ^ (label * 0xd1b54a32d192ed03ULL));
    return r.next();
}

/**
 * Nearest-rank percentile of @p sorted (ascending, non-empty): the
 * sample at rank ceil(p/100 * n), clamped to [1, n].
 */
inline double
nearestRank(const std::vector<double> &sorted, double p)
{
    const size_t n = sorted.size();
    // The epsilon keeps an exact rank (p = 100 * r / n) from rounding
    // up to r + 1 through floating-point error.
    double exact = p / 100.0 * static_cast<double>(n);
    size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/** Nearest-rank median of unsorted samples; 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return nearestRank(v, 50.0);
}

/** A tail latency with the percentile it sits at and its support. */
struct Tail
{
    double value = 0.0;      ///< the sample at that percentile
    double percentile = 0.0; ///< nearest-rank percentile, in (0, 100]
    size_t beyond = 0;       ///< samples strictly above its rank
    size_t n = 0;            ///< sample count
};

/**
 * The tail rule: the highest nearest-rank percentile that leaves at
 * least @p min_beyond samples beyond it. For n > min_beyond that is
 * rank n - min_beyond, i.e. percentile 100 * (n - min_beyond) / n.
 * A percentile below the median is no tail, so with fewer than
 * 2 * min_beyond samples none qualifies; the maximum is reported
 * instead with beyond = 0, so the caller can flag it.
 */
inline Tail
tailRule(std::vector<double> v, size_t min_beyond = 10)
{
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    if (t.n < 2 * min_beyond) {
        t.value = v.back();
        t.percentile = 100.0;
        t.beyond = 0;
        return t;
    }
    const size_t rank = t.n - min_beyond;
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(t.n);
    t.value = nearestRank(v, t.percentile);
    t.beyond = t.n - rank;
    return t;
}

/**
 * Seeded Poisson arrival schedule at @p rate_hz over [0, @p horizon_s),
 * conditioned on its counts: the horizon is cut into strata of
 * @p per_stratum expected arrivals each, and each stratum receives
 * exactly that many arrivals at independent uniform times (the last,
 * partial stratum its rounded share). Given its count in an interval,
 * a Poisson process's arrival times there are exactly such uniforms,
 * so bursts and gaps inside a stratum stay Poisson, while the offered
 * load over any stratum no longer varies from seed to seed — the
 * long-range load swings that would otherwise dominate run-to-run
 * latency spread. Same seed, same send times.
 */
inline std::vector<double>
poissonSchedule(uint64_t seed, double rate_hz, double horizon_s,
                int per_stratum = 4)
{
    std::vector<double> sends;
    if (rate_hz <= 0.0 || horizon_s <= 0.0 || per_stratum < 1)
        return sends;
    const double width = per_stratum / rate_hz;
    Rng rng(seed);
    for (double t0 = 0.0; t0 < horizon_s; t0 += width) {
        const double w = std::min(width, horizon_s - t0);
        const long n = std::lround(w * rate_hz);
        const size_t first = sends.size();
        for (long i = 0; i < n; ++i)
            sends.push_back(t0 + rng.uniform() * w);
        std::sort(sends.begin() + first, sends.end());
    }
    return sends;
}

/**
 * Class of each of @p n requests: class i gets round(n * w_i / sum w)
 * of them (the last class takes the remainder), in an order shuffled
 * by @p seed, so the mix is exact in every run.
 */
inline std::vector<size_t>
classSequence(uint64_t seed, const std::vector<double> &weights, size_t n)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    std::vector<size_t> seq;
    for (size_t i = 0; i < weights.size(); ++i) {
        size_t count = i + 1 == weights.size()
                           ? n - seq.size()
                           : static_cast<size_t>(
                                 std::llround(n * weights[i] / total));
        count = std::min(count, n - seq.size());
        seq.insert(seq.end(), count, i);
    }
    Rng rng(seed);
    for (size_t i = seq.size(); i > 1; --i)
        std::swap(seq[i - 1], seq[rng.next() % i]);
    return seq;
}

/**
 * Open-loop timing of one request, all in seconds on one clock: when
 * it was due, when the generator actually sent it, and when its
 * result was collected.
 */
struct OpenLoopTiming
{
    double scheduled = 0.0;
    double sent = 0.0;
    double collected = 0.0;

    /// How late the generator sent (never negative: it sleeps until due).
    double lag() const { return std::max(0.0, sent - scheduled); }

    /// Latency as the user sees it: from the due time, so a generator
    /// stall is charged to every request it delayed.
    double latency() const { return collected - scheduled; }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
