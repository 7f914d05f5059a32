// Self-tests for the benchmark's own logic (stats.h): the percentile
// and tail rules, the seeded Poisson schedule and open-loop lateness
// accounting. Exits non-zero on the first failed check.
//
//   perfbench_selftest        (built by perfbench/CMakeLists.txt)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

void
testNearestRank()
{
    const std::vector<double> v = iota(10);
    check(perfbench::nearestRank(v, 50) == 5, "p50 of 1..10 is 5");
    check(perfbench::nearestRank(v, 90) == 9, "p90 of 1..10 is 9");
    check(perfbench::nearestRank(v, 91) == 10, "p91 of 1..10 rounds up");
    check(perfbench::nearestRank(v, 100) == 10, "p100 is the max");
    check(perfbench::nearestRank(v, 0) == 1, "p0 clamps to the min");
    check(perfbench::median({3, 1, 2}) == 2, "median of unsorted input");
    check(perfbench::median({4, 1, 3, 2}) == 2,
          "even-count median is the lower middle (nearest rank)");
    // An exact rank must not round up through floating-point error.
    const std::vector<double> w = iota(30);
    check(perfbench::nearestRank(w, 100.0 * 20 / 30) == 20,
          "exact rank 20/30 stays at 20");
}

void
testTailRule()
{
    perfbench::Tail t = perfbench::tailRule(iota(100));
    check(t.value == 90 && t.beyond == 10 && t.n == 100 &&
              std::fabs(t.percentile - 90.0) < 1e-12,
          "tail of 1..100 is p90 = 90 with 10 beyond");

    t = perfbench::tailRule(iota(1000));
    check(t.value == 990 && t.beyond == 10 &&
              std::fabs(t.percentile - 99.0) < 1e-12,
          "tail of 1..1000 is p99 = 990 with 10 beyond");

    t = perfbench::tailRule(iota(37));
    check(t.value == 27 && t.beyond == 10,
          "tail of 1..37 leaves exactly 10 beyond");
    check(perfbench::nearestRank(iota(37), t.percentile) == t.value,
          "the printed percentile reproduces the tail value");

    t = perfbench::tailRule(iota(20));
    check(t.value == 10 && t.beyond == 10 && t.percentile == 50.0,
          "20 samples: the median is the highest qualifying percentile");

    t = perfbench::tailRule(iota(19));
    check(t.value == 19 && t.beyond == 0 && t.percentile == 100.0,
          "19 samples: only percentiles below the median qualify, so the "
          "max is flagged beyond=0");

    t = perfbench::tailRule(iota(3));
    check(t.value == 3 && t.beyond == 0, "3 samples: the max, flagged");

    std::vector<double> shuffled = iota(25);
    std::reverse(shuffled.begin(), shuffled.end());
    std::swap(shuffled[3], shuffled[17]);
    t = perfbench::tailRule(shuffled);
    check(t.value == 15 && t.beyond == 10, "tail rule sorts its input");

    check(perfbench::tailRule({}).n == 0, "empty input gives n = 0");
}

void
testPoissonSchedule()
{
    const auto a = perfbench::poissonSchedule(42, 8.0, 60.0);
    const auto b = perfbench::poissonSchedule(42, 8.0, 60.0);
    const auto c = perfbench::poissonSchedule(43, 8.0, 60.0);
    check(a == b, "same seed gives identical send times");
    check(a != c, "another seed gives another schedule");
    check(a.size() == 480 && c.size() == 480,
          "the arrival count is rate x horizon for every seed");

    bool increasing = true;
    for (size_t i = 1; i < a.size(); ++i)
        increasing = increasing && a[i] >= a[i - 1];
    check(increasing && a.front() >= 0.0 && a.back() < 60.0,
          "send times are sorted inside the horizon");

    // Gaps keep Poisson-like spread inside each stratum (a fixed-rate
    // schedule would give a coefficient of variation of 0).
    double sum = 0.0, sq = 0.0;
    for (size_t i = 1; i < a.size(); ++i) {
        const double g = a[i] - a[i - 1];
        sum += g;
        sq += g * g;
    }
    const double n = static_cast<double>(a.size() - 1);
    const double mean = sum / n;
    const double cv = std::sqrt(sq / n - mean * mean) / mean;
    check(std::fabs(mean - 0.125) < 0.02 && cv > 0.5 && cv < 1.2,
          "gaps have the rate's mean and a Poisson-like spread");

    bool strata = true;
    for (int s = 0; s < 120; ++s) {
        int count = 0;
        for (double t : a)
            count += t >= s * 0.5 && t < (s + 1) * 0.5;
        strata = strata && count == 4;
    }
    check(strata, "every 4-arrival stratum holds exactly 4 arrivals");

    const auto one = perfbench::poissonSchedule(42, 8.0, 60.0, 1);
    check(one.size() == 480 && one != a,
          "the stratum size is a parameter of the schedule");

    check(perfbench::poissonSchedule(1, 0.0, 10.0).empty(),
          "zero rate sends nothing");

    const std::vector<double> w = {0.45, 0.35, 0.2};
    const auto seq = perfbench::classSequence(5, w, 100);
    const auto same = perfbench::classSequence(5, w, 100);
    size_t counts[3] = {0, 0, 0};
    for (size_t k : seq)
        ++counts[k];
    check(seq == same && seq.size() == 100 && counts[0] == 45 &&
              counts[1] == 35 && counts[2] == 20,
          "class sequence has the exact mix, same for the same seed");
    check(perfbench::classSequence(6, w, 100) != seq,
          "another seed shuffles the classes differently");
    const auto odd = perfbench::classSequence(5, w, 7);
    check(odd.size() == 7, "rounding never drops or adds a request");
}

void
testLateness()
{
    // A request due at t=1.0 that the generator only sent at 1.25 and
    // that came back at 1.5 waited 0.5 s from the user's point of view.
    perfbench::OpenLoopTiming late{1.0, 1.25, 1.5};
    check(std::fabs(late.latency() - 0.5) < 1e-12,
          "latency is measured from the scheduled send time");
    check(std::fabs(late.lag() - 0.25) < 1e-12,
          "lag is the send time minus the due time");

    perfbench::OpenLoopTiming onTime{2.0, 2.0, 2.1};
    check(onTime.lag() == 0.0 && std::fabs(onTime.latency() - 0.1) < 1e-12,
          "an on-time send has zero lag");

    // Clock jitter can put the send a hair before the due time; lag
    // never goes negative, latency still counts from the due time.
    perfbench::OpenLoopTiming early{3.0, 2.999, 3.2};
    check(early.lag() == 0.0 && std::fabs(early.latency() - 0.2) < 1e-12,
          "lag is clamped at zero");
}

} // namespace

int
main()
{
    testNearestRank();
    testTailRule();
    testPoissonSchedule();
    testLateness();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
