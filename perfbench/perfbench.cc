// perfbench: the repository benchmark's measuring program.
//
// Drives the library only through its public API (bm3d::Bm3d,
// runtime::StreamDenoiser, service::DenoiseService, plus the simd,
// parallel and obs read-outs for the traced run) on three workloads:
//
//   photo_dense  closed loop, 1 caller, Bm3d::denoise on 512^2 frames
//   video_hd     closed loop, submitter + collector over StreamDenoiser
//   service_mix  open loop, Poisson generator + one collector per tenant
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--param key=value ...] [--trace-out FILE] [--setup-only 1]
//
// Prints a human-readable report and, as its last line,
// "PERFBENCH_RESULT {json}" for perfbench/run.py. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is split
// into an untraced and a traced half, spans are kept in memory around
// every call into a layer, and the per-layer metrics are reported
// with a reconciliation of layer self-times against frame wall time.
// With --setup-only 1 it sets the workload up, prints
// "PERFBENCH_SETUP <seconds from process start>" and exits.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bm3d/bm3d.h"
#include "image/image.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "parallel/pool.h"
#include "parallel/tiles.h"
#include "runtime/stream.h"
#include "service/service.h"
#include "simd/simd.h"
#include "stats.h"
#include "transforms/dct.h"

namespace {

using namespace ideal;
using Clock = std::chrono::steady_clock;
namespace pb = perfbench;

const Clock::time_point gProcessStart = Clock::now();

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
ms(Clock::time_point a, Clock::time_point b)
{
    return seconds(a, b) * 1e3;
}

// ---------------------------------------------------------------------
// Arguments

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false; ///< set up, print PERFBENCH_SETUP, exit
    std::string traceOut;
    std::map<std::string, double> params;

    double
    param(const std::string &key) const
    {
        auto it = params.find(key);
        if (it == params.end())
            throw std::invalid_argument("missing --param " + key);
        return it->second;
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + k);
        std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--setup-only") {
            a.setupOnly = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else if (k == "--param") {
            auto eq = v.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument("--param wants key=value");
            a.params[v.substr(0, eq)] = std::stod(v.substr(eq + 1));
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------------
// In-memory tracing: one span per public call, written out at the end.

struct SpanRec
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = top level
    uint64_t request = 0;
    Clock::time_point t0, t1;
    int thread = 0;
};

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1);
    return index;
}

class Tracer
{
  public:
    uint64_t newId() { return nextId_.fetch_add(1) + 1; }

    void
    record(SpanRec rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(rec));
    }

    std::vector<SpanRec>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    std::atomic<uint64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::vector<SpanRec> spans_;
};

/// Null while tracing is off: spans then cost one pointer test.
Tracer *gTracer = nullptr;

/** A span whose id is taken at open and which is recorded at close. */
class OpenSpan
{
  public:
    OpenSpan() = default;

    OpenSpan(const char *name, uint64_t parent, uint64_t request)
    {
        if (gTracer == nullptr)
            return;
        rec_.name = name;
        rec_.id = gTracer->newId();
        rec_.parent = parent;
        rec_.request = request;
        rec_.t0 = Clock::now();
    }

    uint64_t id() const { return rec_.id; }

    /// Backdate the start, e.g. to an open-loop request's due time.
    void startAt(Clock::time_point t0) { rec_.t0 = t0; }

    void
    close()
    {
        if (gTracer == nullptr || rec_.id == 0)
            return;
        rec_.t1 = Clock::now();
        rec_.thread = threadIndex();
        gTracer->record(std::move(rec_));
        rec_.id = 0;
    }

  private:
    SpanRec rec_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, uint64_t parent, uint64_t request)
        : span_(name, parent, request)
    {
    }
    ~ScopedSpan() { span_.close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    uint64_t id() const { return span_.id(); }

  private:
    OpenSpan span_;
};

/** Covered length of the union of [a, b) intervals, in seconds. */
double
unionSeconds(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur0 = 0.0, cur1 = -1.0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (!open || a > cur1) {
            if (open)
                total += cur1 - cur0;
            cur0 = a;
            cur1 = b;
            open = true;
        } else {
            cur1 = std::max(cur1, b);
        }
    }
    if (open)
        total += cur1 - cur0;
    return total;
}

struct SelfTimes
{
    /// name -> (self seconds, span count), for spans under bench.frame
    std::map<std::string, std::pair<double, int>> inFrames;
    double frameWall = 0.0; ///< summed bench.frame durations
    int frames = 0;
    /// name -> span durations, for every span
    std::map<std::string, std::vector<double>> durations;
};

/**
 * Self time of a span = its duration minus the part of its interval
 * its children cover. Aggregated by name over every span that has a
 * bench.frame ancestor (the frame itself included, whose self time is
 * the frame's unattributed residual).
 */
SelfTimes
analyze(const std::vector<SpanRec> &spans)
{
    SelfTimes out;
    std::map<uint64_t, const SpanRec *> byId;
    std::map<uint64_t, std::vector<const SpanRec *>> children;
    for (const auto &s : spans) {
        byId[s.id] = &s;
        children[s.parent].push_back(&s);
        out.durations[s.name].push_back(seconds(s.t0, s.t1));
    }
    auto inFrame = [&](const SpanRec *s) {
        for (int depth = 0; s != nullptr && depth < 64; ++depth) {
            if (s->name == "bench.frame")
                return true;
            auto it = byId.find(s->parent);
            s = it == byId.end() ? nullptr : it->second;
        }
        return false;
    };
    for (const auto &s : spans) {
        if (!inFrame(&s))
            continue;
        const double dur = seconds(s.t0, s.t1);
        std::vector<std::pair<double, double>> iv;
        for (const SpanRec *c : children[s.id]) {
            double a = std::max(0.0, seconds(s.t0, c->t0));
            double b = std::min(dur, seconds(s.t0, c->t1));
            if (b > a)
                iv.emplace_back(a, b);
        }
        auto &slot = out.inFrames[s.name];
        slot.first += dur - unionSeconds(std::move(iv));
        slot.second += 1;
        if (s.name == "bench.frame") {
            out.frameWall += dur;
            out.frames += 1;
        }
    }
    return out;
}

void
writeChromeTrace(const std::vector<SpanRec> &spans, const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace " + path);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &s : spans) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << seconds(gProcessStart, s.t0) * 1e6
           << ",\"dur\":" << seconds(s.t0, s.t1) * 1e6
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
        first = false;
    }
    os << "\n]}\n";
}

// ---------------------------------------------------------------------
// Results and output checks

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit});
        std::printf("  %-34s %14.6g %-8s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    /** A frame whose checks ran; counts toward attempted. */
    void attempt() { ++attempted_; }

    /** A frame that failed (rejected, undelivered, or bad output). */
    void
    fail(const std::string &check, const std::string &what)
    {
        ++failed_;
        ++failedBy_[check];
        if (failedBy_[check] <= 5)
            std::printf("CHECK FAILED [%s] %s\n", check.c_str(),
                        what.c_str());
    }

    /** A frame not delivered (admission reject): failed, output fine. */
    void
    notDelivered()
    {
        ++attempted_;
        ++failed_;
        ++undelivered_;
    }

    void pass(const std::string &check) { ++passedBy_[check]; }

    void
    hash(const std::string &key, uint64_t h)
    {
        hashes_[key] = h;
    }

    bool correct() const { return failed_ == undelivered_; }

    void
    printChecks() const
    {
        std::set<std::string> names;
        for (const auto &[k, v] : passedBy_)
            names.insert(k);
        for (const auto &[k, v] : failedBy_)
            names.insert(k);
        std::printf("output checks:\n");
        for (const auto &k : names) {
            auto p = passedBy_.find(k);
            auto f = failedBy_.find(k);
            std::printf("  %-28s passed %6llu  failed %6llu\n", k.c_str(),
                        (unsigned long long)(p == passedBy_.end() ? 0
                                                                  : p->second),
                        (unsigned long long)(f == failedBy_.end() ? 0
                                                                  : f->second));
        }
        std::printf("  %-28s %llu of %llu attempted\n", "not delivered",
                    (unsigned long long)undelivered_,
                    (unsigned long long)attempted_);
        std::printf("  failed_frac %.6f (%llu of %llu)  verdict: %s\n",
                    attempted_ ? double(failed_) / attempted_ : 0.0,
                    (unsigned long long)failed_,
                    (unsigned long long)attempted_,
                    correct() ? "outputs correct" : "OUTPUTS WRONG");
    }

    void
    printResult(const std::string &workload) const
    {
        std::printf("PERFBENCH_RESULT {\"workload\":\"%s\",\"correct\":%s,"
                    "\"attempted\":%llu,\"failed\":%llu,\"simd\":\"%s\","
                    "\"threads\":%d,\"metrics\":{",
                    workload.c_str(), correct() ? "true" : "false",
                    (unsigned long long)attempted_,
                    (unsigned long long)failed_,
                    simd::toString(simd::activeLevel()),
                    parallel::hardwareThreads());
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                        i ? "," : "", metrics_[i].name.c_str(),
                        std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                          : 0.0,
                        metrics_[i].unit.c_str());
        std::printf("},\"hashes\":{");
        bool first = true;
        for (const auto &[k, h] : hashes_) {
            std::printf("%s\"%s\":\"%016llx\"", first ? "" : ",", k.c_str(),
                        (unsigned long long)h);
            first = false;
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t undelivered_ = 0;
    std::map<std::string, uint64_t> failedBy_, passedBy_;
    std::map<std::string, uint64_t> hashes_;
};

uint64_t
hashImage(const image::ImageF &img)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&](uint32_t v) {
        for (int b = 0; b < 4; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix(img.width());
    mix(img.height());
    mix(img.channels());
    for (float f : img.raw()) {
        uint32_t bits;
        std::memcpy(&bits, &f, sizeof bits);
        mix(bits);
    }
    return h;
}

bool
allFinite(const image::ImageF &img)
{
    for (float f : img.raw())
        if (!std::isfinite(f))
            return false;
    return true;
}

bool
bitwiseEqual(const image::ImageF &a, const image::ImageF &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.raw().data(), b.raw().data(),
                       a.raw().size() * sizeof(float)) == 0;
}

/**
 * Per-output checks shared by every workload: finite pixels, PSNR at
 * or above the recorded floor, and — for an output whose input was
 * seen before in this run — the same hash as last time. Returns the
 * PSNR (0 when the output is not finite).
 */
class OutputChecker
{
  public:
    explicit OutputChecker(Report &report) : report_(report) {}

    /**
     * @p keep_hash: record the output hash for the cross-run
     * comparison; false for outputs whose history depends on timing.
     */
    double
    check(const std::string &key, const image::ImageF &out,
          const image::ImageF &clean, double psnr_floor,
          bool keep_hash = true)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        report_.attempt();
        if (!allFinite(out)) {
            report_.fail("finite", key + " has non-finite pixels");
            return 0.0;
        }
        report_.pass("finite");
        const double psnr = image::psnrDb(clean, out);
        bool ok = true;
        if (!(psnr >= psnr_floor)) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s psnr %.3f dB < floor %.3f",
                          key.c_str(), psnr, psnr_floor);
            report_.fail("psnr_floor", buf);
            ok = false;
        } else {
            report_.pass("psnr_floor");
        }
        const uint64_t h = hashImage(out);
        auto [it, fresh] = hashes_.emplace(key, h);
        if (!fresh) {
            if (it->second != h && ok) {
                report_.fail("same_input_same_hash",
                             key + " output changed on a repeated input");
                ok = false;
            } else if (it->second == h) {
                report_.pass("same_input_same_hash");
            }
        }
        if (keep_hash)
            report_.hash(key, h);
        psnrSum_ += psnr;
        ++psnrCount_;
        return psnr;
    }

    void
    notDelivered()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        report_.notDelivered();
    }

    double
    meanPsnr() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return psnrCount_ ? psnrSum_ / psnrCount_ : 0.0;
    }

  private:
    Report &report_;
    mutable std::mutex mutex_;
    std::map<std::string, uint64_t> hashes_;
    double psnrSum_ = 0.0;
    uint64_t psnrCount_ = 0;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Run @p build once and return the seconds from process start to its
 * end: the cold set-up a user of the library sees. run.py takes the
 * median over this run and its extra --setup-only processes, each
 * timed the same way.
 */
double
timeSetup(const std::function<void()> &build)
{
    build();
    const double t = seconds(gProcessStart, Clock::now());
    std::printf("setup: %.4f s from process start\n", t);
    return t;
}

/** The line run.py reads from a --setup-only process. */
int
printSetupOnly(double setup)
{
    std::printf("PERFBENCH_SETUP %.6f\n", setup);
    return 0;
}

/** End-to-end metrics common to every workload. */
struct EndToEnd
{
    double setup = 0.0;
    double mpix = 0.0;          ///< output megapixels in the timed phase
    double wall = 0.0;          ///< timed phase wall, seconds
    std::vector<double> latMs;  ///< every delivered frame
    std::vector<double> highMs; ///< highest-priority class only
    uint64_t sloSent = 0, sloMet = 0;
    double psnr = 0.0;
    double rssMb = 0.0;

    void
    report(Report &r) const
    {
        std::printf("end-to-end metrics:\n");
        r.add("setup_s", setup, "s", "from process start");
        r.add("throughput_mpix_s", wall > 0 ? mpix / wall : 0.0, "Mpix/s");
        r.add("latency_p50_ms", pb::median(latMs), "ms");
        const pb::Tail all = pb::tailRule(latMs);
        const pb::Tail hi = pb::tailRule(highMs);
        char note[96];
        std::snprintf(note, sizeof note, "p%.2f, %zu of %zu beyond%s",
                      all.percentile, all.beyond, all.n,
                      all.beyond ? "" : " (max)");
        r.add("latency_tail_ms", all.value, "ms", note);
        std::snprintf(note, sizeof note, "p%.2f, %zu of %zu beyond%s",
                      hi.percentile, hi.beyond, hi.n,
                      hi.beyond ? "" : " (max)");
        r.add("high_prio_latency_tail_ms", hi.value, "ms", note);
        r.add("slo_met_frac",
              sloSent ? double(sloMet) / double(sloSent) : 0.0, "frac");
        r.add("psnr_db", psnr, "dB");
        r.add("peak_rss_mb", rssMb, "MB");
    }
};

// ---------------------------------------------------------------------
// Per-layer probes shared by the traced runs

/** Median ns per call of @p call, over several timed repetitions. */
template <typename F>
double
timeCallNs(const char *span_name, F &&call)
{
    // Calibrate to ~2 ms per repetition.
    int iters = 64;
    for (;;) {
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i)
            call();
        if (seconds(t0, Clock::now()) > 2e-3 || iters > (1 << 24))
            break;
        iters *= 2;
    }
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
        ScopedSpan span(span_name, 0, 0);
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i)
            call();
        reps.push_back(seconds(t0, Clock::now()) * 1e9 / iters);
    }
    return pb::median(reps);
}

volatile float gSinkF;
volatile int32_t gSinkI;

/**
 * Per-call cost of the kernel-table rows the engine uses, at its call
 * shapes: a window row of @p window candidates for the SSD scans, a
 * full 16-patch stack of 4x4 coefficients for the fused DE rows.
 */
void
reportSimd(Report &r, int window)
{
    const simd::KernelTable &k = simd::kernels();
    constexpr int kLen = 16, kStack = 16;
    pb::Rng rng(7);

    // Float SoA batch scan: 16 coefficient planes, one window row.
    const size_t plane = static_cast<size_t>(window) + 64;
    std::vector<float> planes(kLen * plane);
    for (float &f : planes)
        f = static_cast<float>(rng.uniform() * 200.0 - 100.0);
    std::vector<const float *> pp(kLen);
    for (int c = 0; c < kLen; ++c)
        pp[c] = planes.data() + c * plane;
    std::vector<float> ref(kLen), outF(window + 8);
    for (float &f : ref)
        f = static_cast<float>(rng.uniform() * 200.0 - 100.0);
    const double soa = timeCallNs("simd.ssd_soa_batch", [&] {
        k.ssdSoaBatch(ref.data(), pp.data(), 3, kLen, window, outF.data());
        gSinkF = outF[0];
    });

    // Int16 pair-interleaved scan: 8 pair planes, one window row.
    std::vector<int16_t> pairs(kLen / 2 * 2 * plane);
    for (auto &v : pairs)
        v = static_cast<int16_t>(rng.next() % 2048) - 1024;
    std::vector<const int16_t *> pq(kLen / 2);
    for (int p = 0; p < kLen / 2; ++p)
        pq[p] = pairs.data() + p * 2 * plane;
    std::vector<int16_t> refI(kLen);
    for (auto &v : refI)
        v = static_cast<int16_t>(rng.next() % 2048) - 1024;
    std::vector<int32_t> outI(window + 16);
    const double pair = timeCallNs("simd.ssd_pair_batch_i16", [&] {
        k.ssdPairBatchI16(refI.data(), pq.data(), 3, kLen, window,
                          outI.data());
        gSinkI = outI[0];
    });

    // Fused DE rows over one [stack][16] group tile. Both rows work in
    // place, so every call starts from a pristine copy (the Wiener row
    // would otherwise shrink its tile toward denormals); the copy's own
    // cost is timed separately and subtracted.
    const int tile = kStack * kLen;
    std::vector<float> g0(tile), b0(tile), g(tile), bg(tile), w(tile);
    for (int i = 0; i < tile; ++i) {
        g0[i] = static_cast<float>(rng.uniform() * 400.0 - 200.0);
        b0[i] = g0[i] + static_cast<float>(rng.uniform() * 50.0 - 25.0);
    }
    const double refill = timeCallNs("simd.refill_baseline", [&] {
        std::copy(g0.begin(), g0.end(), g.begin());
        std::copy(b0.begin(), b0.end(), bg.begin());
        gSinkF = g[5] + bg[7];
    });
    const double haar = timeCallNs("simd.haar_shrink_fused", [&] {
        std::copy(g0.begin(), g0.end(), g.begin());
        std::copy(b0.begin(), b0.end(), bg.begin());
        gSinkI = k.haarShrinkFused(g.data(), kStack, kLen, 67.5f);
    });
    const double wiener = timeCallNs("simd.wiener_shrink_fused", [&] {
        std::copy(g0.begin(), g0.end(), g.begin());
        std::copy(b0.begin(), b0.end(), bg.begin());
        gSinkI = k.wienerShrinkFused(g.data(), bg.data(), w.data(), kStack,
                                     kLen, 625.0f);
    });

    // Fused inverse DCT + aggregation of one stack into 64-wide planes.
    transforms::Dct2D dct(4);
    const int pw = 64;
    std::vector<float> num(pw * pw), den(pw * pw);
    std::vector<int> lx(kStack), ly(kStack);
    for (int i = 0; i < kStack; ++i) {
        lx[i] = static_cast<int>(rng.next() % (pw - 4));
        ly[i] = static_cast<int>(rng.next() % (pw - 4));
    }
    const double agg = timeCallNs("simd.aggregate_group", [&] {
        k.aggregateGroup(num.data(), den.data(), pw, g0.data(), lx.data(),
                         ly.data(), kStack, 1e-6f, dct.invEvenHalf(),
                         dct.invOddHalf());
    });

    // 4x4 forward DCT with the even/odd half matrices of Dct2D(4).
    float fe[4], fo[4];
    for (int m = 0; m < 2; ++m)
        for (int i = 0; i < 2; ++i) {
            fe[m * 2 + i] = dct.coefficient(2 * m, i);
            fo[m * 2 + i] = dct.coefficient(2 * m + 1, i);
        }
    float in4[16], out4[16];
    for (float &f : in4)
        f = static_cast<float>(rng.uniform() * 255.0);
    const double dct4 = timeCallNs("simd.dct4_forward", [&] {
        k.dct4Forward(in4, out4, fe, fo);
        gSinkF = out4[1];
    });

    std::printf("simd layer (dispatched level %s, window %d):\n",
                simd::toString(simd::activeLevel()), window);
    r.add("simd.ssd_soa_batch_ns", soa, "ns", "per window row");
    r.add("simd.ssd_pair_batch_i16_ns", pair, "ns", "per window row");
    r.add("simd.haar_shrink_fused_ns", std::max(0.0, haar - refill), "ns",
          "per 16x16 group, tile refill subtracted");
    r.add("simd.wiener_shrink_fused_ns", std::max(0.0, wiener - refill),
          "ns", "per 16x16 group, tile refill subtracted");
    r.add("simd.aggregate_group_ns", agg, "ns", "per 16-patch stack");
    r.add("simd.dct4_forward_ns", dct4, "ns", "per 4x4 patch");
}

/** Reference-grid tile count of a frame under @p cfg. */
int
tilesPerFrame(const bm3d::Bm3dConfig &cfg, int width, int height)
{
    const int nx = static_cast<int>(
        bm3d::makeRefPositions(width - cfg.patchSize, cfg.refStride).size());
    const int ny = static_cast<int>(
        bm3d::makeRefPositions(height - cfg.patchSize, cfg.refStride)
            .size());
    return static_cast<int>(parallel::makeTiles(nx, ny, cfg.tileGrain).size());
}

/** One empty fork-join batch of @p tiles tasks on the global pool. */
double
poolOverheadUs(int tiles)
{
    const int threads = parallel::hardwareThreads();
    std::vector<double> us;
    for (int i = 0; i < 300; ++i) {
        ScopedSpan span("parallel.run", 0, 0);
        auto t0 = Clock::now();
        parallel::ThreadPool::global().run(tiles, threads,
                                           [](int, int) {});
        us.push_back(seconds(t0, Clock::now()) * 1e6);
    }
    return pb::median(us);
}

/** Accumulated per-step accounting of one layer's calls. */
struct Bm3dLayer
{
    bm3d::Profile profile;
    double mpix = 0.0;        ///< pixels behind profile
    std::vector<double> ht;   ///< runStage(HardThreshold) wall, s
    std::vector<double> wien; ///< runStage(Wiener) wall, s
    bm3d::Profile stageProfile; ///< profiles of the runStage calls only
    double stageWall = 0.0;     ///< summed runStage wall, s
    double wienerMpix = 0.0;    ///< pixels behind the runStage(Wiener) calls

    /** Time runStage(HT), then optionally runStage(Wiener), on @p noisy. */
    void
    probeStages(const bm3d::Bm3d &engine, const image::ImageF &noisy,
                bool wiener, uint64_t request)
    {
        bm3d::Profile p;
        auto s0 = Clock::now();
        image::ImageF basic;
        {
            ScopedSpan s("bm3d.runStage.ht", 0, request);
            basic = engine.runStage(bm3d::Stage::HardThreshold, noisy,
                                    nullptr, p);
        }
        auto s1 = Clock::now();
        ht.push_back(seconds(s0, s1));
        if (wiener) {
            ScopedSpan s("bm3d.runStage.wiener", 0, request);
            engine.runStage(bm3d::Stage::Wiener, noisy, &basic, p);
        }
        auto s2 = Clock::now();
        if (wiener) {
            wien.push_back(seconds(s1, s2));
            wienerMpix += noisy.width() * noisy.height() / 1e6;
        }
        stageWall += seconds(s0, s2);
        stageProfile += p;
    }

    void
    report(Report &r) const
    {
        const int threads = parallel::hardwareThreads();
        const auto sec = [&](bm3d::Step s) { return profile.seconds(s); };
        const double perMpix = mpix > 0 ? 1.0 / mpix : 0.0;
        const bm3d::MrStats &mr = profile.mr();
        // A workload profile without stage 2 (the video profile) takes
        // its BM2 figures from the runStage(Wiener) probe.
        const bool bm2Probe = mr.bm2Refs == 0 && wienerMpix > 0;
        const bm3d::MrStats &mr2 = bm2Probe ? stageProfile.mr() : mr;
        std::printf("bm3d layer (thread-summed Profile seconds):\n");
        r.add("bm3d.bm1_s_per_mpix", sec(bm3d::Step::Bm1) * perMpix,
              "s/Mpix");
        r.add("bm3d.bm2_s_per_mpix",
              bm2Probe ? stageProfile.seconds(bm3d::Step::Bm2) / wienerMpix
                       : sec(bm3d::Step::Bm2) * perMpix,
              "s/Mpix", bm2Probe ? "runStage(Wiener) probe" : "");
        r.add("bm3d.de_s_per_mpix",
              (sec(bm3d::Step::De1) + sec(bm3d::Step::De2)) * perMpix,
              "s/Mpix");
        r.add("bm3d.dct_s_per_mpix",
              (sec(bm3d::Step::Dct1) + sec(bm3d::Step::Dct2)) * perMpix,
              "s/Mpix");
        r.add("bm3d.stage1_wall_ms", pb::median(ht) * 1e3, "ms",
              "runStage(HardThreshold), median");
        r.add("bm3d.stage2_wall_ms", pb::median(wien) * 1e3, "ms",
              bm2Probe ? "runStage(Wiener) probe at this frame config"
                       : "runStage(Wiener), median");
        r.add("bm3d.parallel_eff",
              stageWall > 0 ? stageProfile.totalSeconds() /
                                  (stageWall * threads)
                            : 0.0,
              "frac", "step seconds / (stage wall x threads)");
        r.add("bm3d.bm1_cands_per_ref",
              mr.bm1Refs ? double(mr.bm1Candidates) / mr.bm1Refs : 0.0,
              "count");
        r.add("bm3d.bm2_cands_per_ref",
              mr2.bm2Refs ? double(mr2.bm2Candidates) / mr2.bm2Refs : 0.0,
              "count");
        r.add("bm3d.ops_per_pixel",
              mpix > 0 ? double(profile.totalOps().total()) / (mpix * 1e6)
                       : 0.0,
              "count");
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        r.add("bm3d.field_mb",
              std::max(snap.value("mem.peakFieldBytes"),
                       snap.value("mem.peakBandBytes")) /
                  1e6,
              "MB", "peak DctPatchField bytes (mem.* gauges)");
    }

    /** Thread-summed step seconds against stage wall x threads. */
    void
    reconcile() const
    {
        if (stageWall <= 0)
            return;
        const int threads = parallel::hardwareThreads();
        const double budget = stageWall * threads;
        std::printf("reconcile: Profile step seconds vs runStage wall x %d "
                    "threads = %.1f thread-ms\n",
                    threads, budget * 1e3);
        double sum = 0.0;
        for (int s = 0; s < bm3d::kNumSteps; ++s) {
            const double v = stageProfile.seconds(static_cast<bm3d::Step>(s));
            if (v <= 0)
                continue;
            sum += v;
            std::printf("  %-38s %10.1f thread-ms %6.1f%%\n",
                        bm3d::toString(static_cast<bm3d::Step>(s)), v * 1e3,
                        100.0 * v / budget);
        }
        std::printf("  %-38s %10.1f thread-ms %6.1f%%\n",
                    "residual pool.idle+serial (untimed steps)",
                    (budget - sum) * 1e3, 100.0 * (budget - sum) / budget);
    }
};

/** Layer self-times against bench.frame wall, with a named residual. */
void
reconcileFrames(const SelfTimes &st, const char *residual_name)
{
    if (st.frames == 0)
        return;
    std::printf("reconcile: layer self-time vs bench.frame wall "
                "(%d frames, %.1f ms summed)\n",
                st.frames, st.frameWall * 1e3);
    for (const auto &[name, v] : st.inFrames) {
        const bool residual = name == "bench.frame";
        std::string label =
            residual ? std::string("residual ") + residual_name : name;
        std::printf("  %-48s %10.1f ms %6.1f%%  (%d spans)\n", label.c_str(),
                    v.first * 1e3, 100.0 * v.first / st.frameWall,
                    v.second);
    }
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / v.size();
}

/** Runtime-layer read-outs: caller-side call times plus pipeline stats. */
struct RuntimeReadout
{
    std::vector<double> submitMs, collectMs;
    uint64_t frames = 0, seedRefs = 0, seedHits = 0, arenaHits = 0,
             arenaMisses = 0, steadyBytes = 0;
    double dct1Seconds = 0.0;

    /// Fold in a runtime::StreamStats or a service::TenantStats.
    template <typename Stats>
    void
    absorb(const Stats &st)
    {
        frames += st.frames;
        seedRefs += st.seedRefs;
        seedHits += st.seedHits;
        arenaHits += st.arenaHits;
        arenaMisses += st.arenaMisses;
        steadyBytes += st.arenaBytesNewSteady;
        dct1Seconds += st.profile.seconds(bm3d::Step::Dct1);
    }

    void
    report(Report &r, const std::string &source) const
    {
        std::printf("runtime layer (%s):\n", source.c_str());
        r.add("runtime.submit_block_ms", mean(submitMs), "ms",
              "mean per frame");
        r.add("runtime.collect_wait_ms", mean(collectMs), "ms",
              "mean per frame");
        r.add("runtime.seed_hit_ratio",
              seedRefs ? double(seedHits) / seedRefs : 0.0, "frac");
        r.add("runtime.arena_hit_ratio",
              arenaHits + arenaMisses
                  ? double(arenaHits) / double(arenaHits + arenaMisses)
                  : 0.0,
              "frac");
        r.add("runtime.arena_steady_bytes", double(steadyBytes), "B",
              "fresh arena bytes after frame 2");
        r.add("runtime.prepass_dct1_ms",
              frames ? dct1Seconds * 1e3 / frames : 0.0, "ms",
              "DCT1 per frame, overlapped with the previous frame");
    }
};

/** Service-layer read-outs: generator-side timings plus ServiceStats. */
struct ServiceReadout
{
    std::vector<double> submitMs, lagMs, internalMs;
    uint64_t rejects = 0, highWater = 0;

    void
    absorb(const service::ServiceStats &ss)
    {
        rejects += ss.rejects;
        for (const auto &t : ss.tenants) {
            highWater = std::max(highWater, t.queueHighWater);
            internalMs.insert(internalMs.end(), t.latenciesMs.begin(),
                              t.latenciesMs.end());
        }
    }

    void
    report(Report &r, const std::string &source) const
    {
        std::printf("service layer (%s):\n", source.c_str());
        r.add("service.submit_block_ms", mean(submitMs), "ms",
              "mean per send");
        r.add("service.rejects", double(rejects), "count");
        r.add("service.queue_high_water", double(highWater), "count");
        r.add("service.internal_latency_p50_ms", pb::median(internalMs), "ms",
              "admission to ready (TenantStats)");
        auto lag = lagMs;
        std::sort(lag.begin(), lag.end());
        r.add("bench.gen_lag_p99_ms",
              lag.empty() ? 0.0 : pb::nearestRank(lag, 99.0), "ms",
              "open-loop generator lateness");
    }
};

// Layer probes for the traced run of a workload that bypasses a layer:
// a few small frames through the layer's public calls at the workload's
// frame config, so every per-layer metric is a measurement.
const char *const kBypassedProbe =
    "probe: 64x64 frames at this workload's frame config";
constexpr int kProbeSize = 64;
constexpr int kProbeFrames = 6;
constexpr double kProbeRateHz = 5.0;

std::vector<image::ImageF>
probeFrames(uint64_t seed)
{
    const image::ImageF clean = image::makeScene(
        image::SceneKind::Street, kProbeSize, kProbeSize, 1, seed);
    std::vector<image::ImageF> frames;
    for (int i = 0; i < kProbeFrames; ++i)
        frames.push_back(image::addGaussianNoise(clean, 25.0f, seed + 1 + i));
    return frames;
}

/** Closed loop of depth 1 through a StreamDenoiser. */
RuntimeReadout
probeRuntime(const runtime::StreamConfig &cfg, uint64_t seed)
{
    RuntimeReadout out;
    runtime::StreamDenoiser stream(cfg);
    std::vector<image::ImageF> frames = probeFrames(seed);
    for (int t = 0; t < kProbeFrames; ++t) {
        const auto s0 = Clock::now();
        {
            ScopedSpan s("runtime.submit", 0, t);
            stream.submit(std::move(frames[t]));
        }
        const auto s1 = Clock::now();
        image::ImageF o;
        {
            ScopedSpan s("runtime.collect", 0, t);
            o = stream.collect();
        }
        out.submitMs.push_back(ms(s0, s1));
        out.collectMs.push_back(ms(s1, Clock::now()));
        stream.recycle(std::move(o));
    }
    stream.finish();
    out.absorb(stream.stats());
    return out;
}

/** Open loop at kProbeRateHz through a one-tenant DenoiseService. */
ServiceReadout
probeService(const runtime::StreamConfig &cfg, uint64_t seed)
{
    ServiceReadout out;
    service::DenoiseService svc;
    service::SessionConfig sc;
    sc.name = "probe";
    sc.stream = cfg;
    const service::SessionId id = svc.openSession(sc);
    std::vector<image::ImageF> frames = probeFrames(seed);
    std::exception_ptr collectError;
    std::thread collector([&] {
        try {
            for (int i = 0; i < kProbeFrames; ++i)
                svc.recycle(id, svc.collect(id));
        } catch (...) {
            collectError = std::current_exception();
        }
    });
    std::exception_ptr sendError;
    try {
        const auto start = Clock::now();
        for (int i = 0; i < kProbeFrames; ++i) {
            const double due = i / kProbeRateHz;
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due)));
            const auto sent = Clock::now();
            out.lagMs.push_back(
                pb::OpenLoopTiming{due, seconds(start, sent), 0.0}.lag() *
                1e3);
            ScopedSpan s("service.submit", 0, i);
            svc.submit(id, std::move(frames[i]));
            out.submitMs.push_back(ms(sent, Clock::now()));
        }
    } catch (...) {
        sendError = std::current_exception();
    }
    // finish() closes the input, so a collector still waiting for a
    // frame that was never sent gets std::logic_error and returns.
    svc.finish();
    collector.join();
    if (sendError)
        std::rethrow_exception(sendError);
    if (collectError)
        std::rethrow_exception(collectError);
    out.absorb(svc.stats());
    return out;
}

void
reportParallel(Report &r, int tiles)
{
    std::printf("parallel layer:\n");
    r.add("parallel.run_overhead_us", poolOverheadUs(tiles), "us",
          "empty ThreadPool::run batch, median");
    r.add("parallel.tiles_per_frame", tiles, "count");
}

/**
 * Tracing on for the scope's lifetime. gTracer is a plain pointer: it
 * is only set and cleared while no other benchmark thread runs (the
 * submitter and collector threads start after and join before).
 */
class TraceScope
{
  public:
    explicit TraceScope(Tracer &tracer) { gTracer = &tracer; }
    ~TraceScope() { gTracer = nullptr; }
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;
};

// ---------------------------------------------------------------------
// photo_dense: closed loop, one caller, Bm3d::denoise on 512^2 frames

constexpr int kPhotoSize = 512;
const image::SceneKind kPhotoKinds[] = {image::SceneKind::Street,
                                        image::SceneKind::Nature,
                                        image::SceneKind::Texture};

struct PhotoState
{
    std::vector<image::ImageF> clean, noisy;
    std::unique_ptr<bm3d::Bm3d> engine;
};

bm3d::Bm3dConfig
photoConfig()
{
    bm3d::Bm3dConfig c; // paper defaults: Float32, 49/39, stride 1, 16
    c.sigma = 25.0f;
    c.numThreads = parallel::hardwareThreads();
    return c;
}

int
runPhoto(const Args &args)
{
    Report report;
    OutputChecker checker(report);
    const double floor = args.param("psnr_floor_db");
    const double limitMs = args.param("latency_limit_ms");
    const double mpixPerFrame = kPhotoSize * kPhotoSize / 1e6;

    PhotoState st;
    EndToEnd e2e;
    e2e.setup = timeSetup([&] {
        for (int k = 0; k < 3; ++k) {
            st.clean.push_back(image::makeScene(kPhotoKinds[k], kPhotoSize,
                                                kPhotoSize, 1,
                                                pb::mixSeed(args.seed, 10 + k)));
            st.noisy.push_back(image::addGaussianNoise(
                st.clean[k], 25.0f, pb::mixSeed(args.seed, 20 + k)));
        }
        st.engine = std::make_unique<bm3d::Bm3d>(photoConfig());
        bm3d::Bm3dResult warm = st.engine->denoise(st.noisy[0]);
        checker.check("frame0", warm.output, st.clean[0], floor);
    });
    if (args.setupOnly)
        return printSetupOnly(e2e.setup);

    // Whole street/nature/texture cycles until the budget is spent, so
    // every run weighs the three scene kinds equally.
    auto runCycles = [&](double budget, int min_cycles, bool stages,
                         Bm3dLayer *layer, std::vector<double> &lat_ms) {
        const auto t0 = Clock::now();
        const auto deadline = t0 + std::chrono::duration<double>(budget);
        int frames = 0;
        for (int cycle = 0; cycle < min_cycles || Clock::now() < deadline;
             ++cycle) {
            for (int k = 0; k < 3; ++k, ++frames) {
                const std::string key = "frame" + std::to_string(k);
                OpenSpan frame("bench.frame", 0, frames);
                const auto c0 = Clock::now();
                bm3d::Bm3dResult res;
                {
                    ScopedSpan s("bm3d.denoise", frame.id(), frames);
                    res = st.engine->denoise(st.noisy[k]);
                }
                lat_ms.push_back(ms(c0, Clock::now()));
                checker.check(key, res.output, st.clean[k], floor);
                if (layer != nullptr) {
                    layer->profile += res.profile;
                    layer->mpix += mpixPerFrame;
                }
                if (stages) {
                    // The two stages on their own must reproduce
                    // denoise() bit for bit.
                    bm3d::Profile p1, p2;
                    image::ImageF basic, out;
                    auto s0 = Clock::now();
                    {
                        ScopedSpan s("bm3d.runStage.ht", frame.id(), frames);
                        basic = st.engine->runStage(
                            bm3d::Stage::HardThreshold, st.noisy[k], nullptr,
                            p1);
                    }
                    auto s1 = Clock::now();
                    {
                        ScopedSpan s("bm3d.runStage.wiener", frame.id(),
                                     frames);
                        out = st.engine->runStage(bm3d::Stage::Wiener,
                                                  st.noisy[k], &basic, p2);
                    }
                    auto s2 = Clock::now();
                    layer->ht.push_back(seconds(s0, s1));
                    layer->wien.push_back(seconds(s1, s2));
                    layer->stageWall += seconds(s0, s2);
                    layer->stageProfile += p1;
                    layer->stageProfile += p2;
                    if (bitwiseEqual(out, res.output) &&
                        bitwiseEqual(basic, res.basic))
                        report.pass("stages_equal_denoise");
                    else
                        report.fail("stages_equal_denoise",
                                    key + ": runStage(HT)+runStage(Wiener) "
                                          "differs from denoise()");
                }
                frame.close();
            }
        }
        return seconds(t0, Clock::now());
    };

    if (!args.trace) {
        e2e.wall = runCycles(args.seconds, 1, false, nullptr, e2e.latMs);
        e2e.mpix = mpixPerFrame * e2e.latMs.size();
        e2e.highMs = e2e.latMs; // one caller: every frame is its class
        for (double l : e2e.latMs) {
            ++e2e.sloSent;
            e2e.sloMet += l <= limitMs;
        }
        e2e.psnr = checker.meanPsnr();
        e2e.rssMb = peakRssMb();
        std::printf("photo_dense: %zu frames of %dx%d in %.3f s\n",
                    e2e.latMs.size(), kPhotoSize, kPhotoSize, e2e.wall);
        e2e.report(report);
    } else {
        std::vector<double> plain, tracedLat;
        runCycles(args.seconds / 3, 1, false, nullptr, plain);
        Tracer tracer;
        Bm3dLayer layer;
        RuntimeReadout runtimeProbe;
        ServiceReadout serviceProbe;
        {
            TraceScope on(tracer);
            runCycles(args.seconds / 3, 1, true, &layer, tracedLat);
            reportSimd(report, photoConfig().searchWindow1);
            reportParallel(report, tilesPerFrame(photoConfig(), kPhotoSize,
                                                 kPhotoSize));
            runtime::StreamConfig probeCfg;
            probeCfg.frame = photoConfig();
            runtimeProbe = probeRuntime(probeCfg, pb::mixSeed(args.seed, 50));
            serviceProbe = probeService(probeCfg, pb::mixSeed(args.seed, 51));
        }
        const auto spans = tracer.spans();
        const SelfTimes selfTimes = analyze(spans);
        layer.report(report);
        runtimeProbe.report(report, kBypassedProbe);
        serviceProbe.report(report, kBypassedProbe);
        const auto &den = selfTimes.durations.at("bm3d.denoise");
        std::printf("obs layer:\n");
        report.add("obs.trace_overhead_frac",
                   pb::median(den) * 1e3 / pb::median(plain) - 1.0, "frac",
                   "traced bm3d.denoise / untraced frame, medians");
        reconcileFrames(selfTimes, "bench.frame.self (output checks)");
        layer.reconcile();
        writeChromeTrace(spans, args.traceOut);
    }
    report.printChecks();
    report.printResult(args.workload);
    return 0;
}

// ---------------------------------------------------------------------
// video_hd: closed loop, one submitter and one collector over
// StreamDenoiser, on a slow pan across one large street scene.

constexpr int kVideoW = 1920, kVideoH = 1080, kPanRange = 512,
              kPanStep = 4;

struct VideoClip
{
    image::ImageF scene;
    uint64_t seed = 0;

    int
    panX(int t) const
    {
        const int period = 2 * (kPanRange / kPanStep);
        const int p = t % period;
        return kPanStep * (p <= period / 2 ? p : period - p);
    }

    image::ImageF
    clean(int t) const
    {
        return scene.crop(panX(t), 0, kVideoW, kVideoH);
    }

    image::ImageF
    noisy(int t) const
    {
        return image::addGaussianNoise(clean(t), 25.0f,
                                       pb::mixSeed(seed, 1000 + t));
    }
};

runtime::StreamConfig
videoConfig()
{
    runtime::StreamConfig c; // fig15 video-rate profile
    c.frame.sigma = 25.0f;
    c.frame.searchWindow1 = 13;
    c.frame.refStride = 2;
    c.frame.enableWiener = false;
    c.frame.numThreads = parallel::hardwareThreads();
    c.temporalSeed = true;
    return c;
}

struct VideoPhase
{
    double wall = 0.0;
    std::vector<double> latMs, submitMs, collectMs;
    std::vector<double> rssMb; ///< peak RSS after each collected frame
    int frames = 0;
};

int
runVideo(const Args &args)
{
    Report report;
    OutputChecker checker(report);
    const double floor = args.param("psnr_floor_db");
    const double limitMs = args.param("latency_limit_ms");
    const double mpixPerFrame = kVideoW * kVideoH / 1e6;

    VideoClip clip;
    std::unique_ptr<runtime::StreamDenoiser> stream;
    int nextFrame = 0;
    EndToEnd e2e;
    e2e.setup = timeSetup([&] {
        clip.seed = pb::mixSeed(args.seed, 30);
        clip.scene = image::makeScene(image::SceneKind::Street,
                                      kVideoW + kPanRange, kVideoH, 1,
                                      pb::mixSeed(args.seed, 31));
        stream = std::make_unique<runtime::StreamDenoiser>(videoConfig());
        stream->submit(clip.noisy(0));
        image::ImageF out = stream->collect();
        checker.check("frame0", out, clip.clean(0), floor);
        stream->recycle(std::move(out));
        nextFrame = 1;
    });
    if (args.setupOnly)
        return printSetupOnly(e2e.setup);

    // Submitter thread feeds as fast as backpressure allows until the
    // budget is spent; this thread collects every frame it submitted.
    auto runPhase = [&](double budget) {
        VideoPhase ph;
        struct Pending
        {
            int t;
            Clock::time_point submitStart;
            OpenSpan frame;
        };
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Pending> pending;
        bool done = false;
        std::exception_ptr submitError;
        const auto t0 = Clock::now();
        const auto deadline = t0 + std::chrono::duration<double>(budget);
        std::thread submitter([&] {
            try {
                while (Clock::now() < deadline) {
                    const int t = nextFrame++;
                    image::ImageF frame = clip.noisy(t);
                    const auto s0 = Clock::now();
                    OpenSpan fs("bench.frame", 0, t);
                    const uint64_t fid = fs.id();
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        pending.push_back({t, s0, std::move(fs)});
                    }
                    cv.notify_all();
                    {
                        ScopedSpan s("runtime.submit", fid, t);
                        stream->submit(std::move(frame));
                    }
                    const double blocked = ms(s0, Clock::now());
                    std::lock_guard<std::mutex> lock(mu);
                    ph.submitMs.push_back(blocked);
                }
            } catch (...) {
                submitError = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mu);
            done = true;
            cv.notify_all();
        });
        std::exception_ptr collectError;
        try {
            for (;;) {
                Pending p;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return !pending.empty() || done; });
                    if (pending.empty())
                        break;
                    p = std::move(pending.front());
                    pending.pop_front();
                }
                const auto c0 = Clock::now();
                image::ImageF out;
                {
                    ScopedSpan s("runtime.collect", p.frame.id(), p.t);
                    out = stream->collect();
                }
                const auto c1 = Clock::now();
                p.frame.close();
                ph.latMs.push_back(ms(p.submitStart, c1));
                ph.collectMs.push_back(ms(c0, c1));
                checker.check("frame" + std::to_string(p.t), out,
                              clip.clean(p.t), floor);
                stream->recycle(std::move(out));
                ph.rssMb.push_back(peakRssMb());
                ++ph.frames;
            }
        } catch (...) {
            collectError = std::current_exception();
        }
        // The pipeline keeps draining without a collector, so the
        // submitter reaches its deadline and this join returns.
        submitter.join();
        if (collectError)
            std::rethrow_exception(collectError);
        if (submitError)
            std::rethrow_exception(submitError);
        ph.wall = seconds(t0, Clock::now());
        return ph;
    };

    if (!args.trace) {
        VideoPhase ph = runPhase(args.seconds);
        stream->finish();
        e2e.wall = ph.wall;
        e2e.mpix = mpixPerFrame * ph.frames;
        e2e.latMs = ph.latMs;
        e2e.highMs = ph.latMs;
        for (double l : ph.latMs) {
            ++e2e.sloSent;
            e2e.sloMet += l <= limitMs;
        }
        e2e.psnr = checker.meanPsnr();
        // Each frame's input is donated to the stream's arena on top of
        // the recycled output, so the free list, and the RSS with it,
        // grows with every frame. Reading the peak after a fixed frame
        // count keeps a faster run from reporting more memory; the
        // growth is printed on its own.
        const size_t at = std::min<size_t>(
            static_cast<size_t>(args.param("rss_at_frame")),
            ph.rssMb.size());
        e2e.rssMb = at ? ph.rssMb[at - 1] : peakRssMb();
        std::printf("video_hd: %d frames of %dx%d in %.3f s\n", ph.frames,
                    kVideoW, kVideoH, ph.wall);
        if (at < ph.rssMb.size())
            std::printf("  peak RSS %.1f MB after timed frame %zu, %.1f MB "
                        "after frame %zu: %.2f MB growth per frame\n",
                        e2e.rssMb, at, ph.rssMb.back(), ph.rssMb.size(),
                        (ph.rssMb.back() - e2e.rssMb) /
                            double(ph.rssMb.size() - at));
        else
            std::printf("  peak RSS read after frame %zu, short of "
                        "rss_at_frame\n",
                        at);
        e2e.report(report);
    } else {
        const runtime::StreamStats before = stream->stats();
        VideoPhase plain = runPhase(args.seconds / 2);
        Tracer tracer;
        Bm3dLayer layer;
        VideoPhase tr;
        ServiceReadout serviceProbe;
        {
            TraceScope on(tracer);
            tr = runPhase(args.seconds / 2);
            stream->finish();
            // Stage walls at the same frame config, outside the runtime:
            // unseeded runStage on two clip frames; one also runs the
            // Wiener stage the video profile leaves out.
            bm3d::Bm3d engine(videoConfig().frame);
            for (int t = 0; t < 2; ++t)
                layer.probeStages(engine, clip.noisy(t), t == 0, t);
            reportSimd(report, videoConfig().frame.searchWindow1);
            reportParallel(report,
                           tilesPerFrame(videoConfig().frame, kVideoW, kVideoH));
            serviceProbe = probeService(videoConfig(), pb::mixSeed(args.seed, 51));
        }
        const runtime::StreamStats st = stream->stats();
        layer.profile = st.profile;
        layer.mpix = mpixPerFrame * st.frames;
        const auto spans = tracer.spans();
        const SelfTimes selfTimes = analyze(spans);
        layer.report(report);
        RuntimeReadout rt;
        rt.submitMs = tr.submitMs;
        rt.collectMs = tr.collectMs;
        rt.absorb(st);
        rt.report(report, "StreamDenoiser calls and StreamStats");
        std::printf("  stream frames %llu (before traced run: %llu)\n",
                    (unsigned long long)st.frames,
                    (unsigned long long)before.frames);
        serviceProbe.report(report, kBypassedProbe);
        std::printf("obs layer:\n");
        const double plainPer = plain.frames ? plain.wall / plain.frames : 0;
        const double tracedPer = tr.frames ? tr.wall / tr.frames : 0;
        report.add("obs.trace_overhead_frac",
                   plainPer > 0 ? tracedPer / plainPer - 1.0 : 0.0, "frac",
                   "traced / untraced wall per frame");
        reconcileFrames(selfTimes,
                        "runtime.in_flight (queued or processing, no "
                        "caller call open)");
        layer.reconcile();
        writeChromeTrace(spans, args.traceOut);
    }
    report.printChecks();
    report.printResult(args.workload);
    return 0;
}

// ---------------------------------------------------------------------
// service_mix: open loop, one Poisson generator, one collector per
// tenant, three tenants on the video profile.

struct TenantSpec
{
    const char *name;
    int w, h;
    service::Priority priority;
    bm3d::Precision precision;
    service::AdmissionPolicy policy;
    int queueDepth;
    image::SceneKind scene;
};

const TenantSpec kTenants[] = {
    {"hi", 320, 240, service::Priority::High, bm3d::Precision::Int16,
     service::AdmissionPolicy::Block, 8, image::SceneKind::Street},
    {"norm", 640, 360, service::Priority::Normal, bm3d::Precision::Float32,
     service::AdmissionPolicy::Block, 8, image::SceneKind::Nature},
    {"lo", 960, 540, service::Priority::Low, bm3d::Precision::Float32,
     service::AdmissionPolicy::Reject, 4, image::SceneKind::Texture},
};
constexpr int kNumTenants = 3;
constexpr int kTenantPool = 12; ///< distinct frames per tenant, cycled

service::SessionConfig
tenantConfig(const TenantSpec &t)
{
    service::SessionConfig s;
    s.name = t.name;
    s.stream = videoConfig();
    s.stream.frame.precision = t.precision;
    s.stream.queueDepth = t.queueDepth;
    s.priority = t.priority;
    s.policy = t.policy;
    return s;
}

struct TenantFrames
{
    std::vector<image::ImageF> clean, noisy;
};

TenantFrames
makeTenantFrames(const TenantSpec &t, uint64_t seed, int index)
{
    TenantFrames f;
    const image::ImageF scene =
        image::makeScene(t.scene, t.w + kTenantPool * kPanStep, t.h, 1,
                         pb::mixSeed(seed, 40 + index));
    for (int i = 0; i < kTenantPool; ++i) {
        f.clean.push_back(scene.crop(i * kPanStep, 0, t.w, t.h));
        f.noisy.push_back(image::addGaussianNoise(
            f.clean.back(), 25.0f, pb::mixSeed(seed, 2000 + 100 * index + i)));
    }
    return f;
}

struct ServiceState
{
    std::vector<TenantFrames> frames;
    std::unique_ptr<service::DenoiseService> svc;
    std::vector<service::SessionId> ids;
    std::vector<int> nextFrame;
    std::vector<image::ImageF> firstOut; ///< each tenant's frame 0
    image::ImageF sampledOut;            ///< one timed "hi" output
    int sampledIndex = -1;
};

struct ServicePhase
{
    double wall = 0.0;
    double mpix = 0.0;
    std::vector<double> latMs, highMs, lagMs, submitMs;
    std::vector<double> tenantMs[kNumTenants];
    uint64_t sent = 0, met = 0, rejected = 0;
};

int
runService(const Args &args)
{
    Report report;
    OutputChecker checker(report);
    const double rate = args.param("rate_hz");
    std::vector<double> mix(kNumTenants), slo(kNumTenants),
        floors(kNumTenants);
    for (int i = 0; i < kNumTenants; ++i) {
        const std::string n = kTenants[i].name;
        mix[i] = args.param(n + ".mix");
        slo[i] = args.param(n + ".slo_ms");
        floors[i] = args.param(n + ".psnr_floor_db");
    }

    ServiceState st;
    EndToEnd e2e;
    e2e.setup = timeSetup([&] {
        for (int i = 0; i < kNumTenants; ++i)
            st.frames.push_back(makeTenantFrames(kTenants[i], args.seed, i));
        st.svc = std::make_unique<service::DenoiseService>();
        for (int i = 0; i < kNumTenants; ++i)
            st.ids.push_back(st.svc->openSession(tenantConfig(kTenants[i])));
        for (int i = 0; i < kNumTenants; ++i)
            st.svc->submit(st.ids[i], st.frames[i].noisy[0]);
        for (int i = 0; i < kNumTenants; ++i) {
            image::ImageF out = st.svc->collect(st.ids[i]);
            checker.check(std::string(kTenants[i].name) + "/0", out,
                          st.frames[i].clean[0], floors[i]);
            st.firstOut.push_back(out);
            st.svc->recycle(st.ids[i], std::move(out));
        }
        st.nextFrame.assign(kNumTenants, 1);
    });
    if (args.setupOnly)
        return printSetupOnly(e2e.setup);

    auto runPhase = [&](double budget, uint64_t phase) {
        ServicePhase ph;
        const std::vector<double> sends =
            pb::poissonSchedule(pb::mixSeed(args.seed, 100 + phase), rate,
                                budget);
        const std::vector<size_t> classes = pb::classSequence(
            pb::mixSeed(args.seed, 200 + phase), mix, sends.size());

        struct Pending
        {
            int frame;
            pb::OpenLoopTiming timing; ///< seconds from the phase start
            OpenSpan span;
        };
        struct Lane
        {
            std::deque<Pending> pending;
            uint64_t admitted = 0, collected = 0;
        };
        std::mutex mu;
        std::condition_variable cv;
        std::vector<Lane> lanes(kNumTenants);
        bool genDone = false;
        std::exception_ptr collectError;

        const auto start = Clock::now();
        Clock::time_point lastCollect = start;
        std::vector<std::thread> collectors;
        for (int i = 0; i < kNumTenants; ++i) {
            collectors.emplace_back([&, i] {
                try {
                    for (;;) {
                        {
                            std::unique_lock<std::mutex> lock(mu);
                            cv.wait(lock, [&] {
                                return lanes[i].admitted > lanes[i].collected ||
                                       genDone;
                            });
                            if (lanes[i].admitted == lanes[i].collected)
                                break;
                        }
                        image::ImageF out;
                        uint64_t spanId = 0;
                        int frameIdx = 0;
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            spanId = lanes[i].pending.front().span.id();
                            frameIdx = lanes[i].pending.front().frame;
                        }
                        {
                            ScopedSpan s("service.collect", spanId, frameIdx);
                            out = st.svc->collect(st.ids[i]);
                        }
                        const auto c1 = Clock::now();
                        Pending p;
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            p = std::move(lanes[i].pending.front());
                            lanes[i].pending.pop_front();
                            ++lanes[i].collected;
                            lastCollect = std::max(lastCollect, c1);
                        }
                        p.span.close();
                        p.timing.collected = seconds(start, c1);
                        const double lat = p.timing.latency() * 1e3;
                        const int slot = p.frame % kTenantPool;
                        checker.check(std::string(kTenants[i].name) + "/" +
                                          std::to_string(p.frame),
                                      out, st.frames[i].clean[slot],
                                      floors[i],
                                      // A Reject tenant's admitted
                                      // sequence, and so its seeded
                                      // output, depends on timing.
                                      kTenants[i].policy ==
                                          service::AdmissionPolicy::Block);
                        std::lock_guard<std::mutex> lock(mu);
                        ph.latMs.push_back(lat);
                        ph.tenantMs[i].push_back(lat);
                        if (kTenants[i].priority == service::Priority::High)
                            ph.highMs.push_back(lat);
                        ph.met += lat <= slo[i];
                        ph.mpix += kTenants[i].w * kTenants[i].h / 1e6;
                        if (i == 0 && st.sampledIndex < 0 && p.frame >= 5) {
                            st.sampledIndex = p.frame;
                            st.sampledOut = out;
                        }
                        st.svc->recycle(st.ids[i], std::move(out));
                    }
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mu);
                    collectError = std::current_exception();
                }
            });
        }

        std::exception_ptr genError;
        try {
            for (size_t n = 0; n < sends.size(); ++n) {
                const double due = sends[n];
                const size_t i = classes[n];
                const auto scheduled =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due));
                std::this_thread::sleep_until(scheduled);
                const auto sent = Clock::now();
                // Latency runs from the due time, so a late send is charged
                // to the frame it delayed.
                const pb::OpenLoopTiming timing{due, seconds(start, sent), 0.0};
                ph.lagMs.push_back(timing.lag() * 1e3);
                const int f = st.nextFrame[i]++;
                image::ImageF frame = st.frames[i].noisy[f % kTenantPool];
                OpenSpan fs("bench.frame", 0, f);
                fs.startAt(scheduled);
                const uint64_t fid = fs.id();
                {
                    std::lock_guard<std::mutex> lock(mu);
                    lanes[i].pending.push_back({f, timing, std::move(fs)});
                }
                bool ok = false;
                {
                    ScopedSpan s("service.submit", fid, f);
                    ok = st.svc->submit(st.ids[i], std::move(frame));
                }
                ph.submitMs.push_back(ms(sent, Clock::now()));
                ++ph.sent;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (ok) {
                        ++lanes[i].admitted;
                    } else {
                        // The pending record of a refused frame is always
                        // the lane's last: only this thread pushes.
                        lanes[i].pending.pop_back();
                        ++ph.rejected;
                    }
                }
                if (ok)
                    cv.notify_all();
                else
                    checker.notDelivered();
            }
        } catch (...) {
            genError = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            genDone = true;
        }
        cv.notify_all();
        for (auto &t : collectors)
            t.join();
        if (genError)
            std::rethrow_exception(genError);
        if (collectError)
            std::rethrow_exception(collectError);
        ph.wall = seconds(start, lastCollect);
        return ph;
    };

    auto finishAndVerify = [&] {
        st.svc->finish();
        // Bitwise contract: the service's output equals Bm3d::denoise
        // with the tenant's frame config. Each tenant's frame 0 has no
        // predecessor to seed from; "hi" runs Int16, which never seeds,
        // so one of its timed frames is checked as well.
        for (int i = 0; i < kNumTenants; ++i) {
            bm3d::Bm3d engine(tenantConfig(kTenants[i]).stream.frame);
            auto check = [&](int frame, const image::ImageF &got) {
                image::ImageF want =
                    engine.denoise(st.frames[i].noisy[frame % kTenantPool])
                        .output;
                const std::string key =
                    std::string(kTenants[i].name) + "/" + std::to_string(frame);
                if (bitwiseEqual(got, want))
                    report.pass("service_equals_denoise");
                else
                    report.fail("service_equals_denoise",
                                key + " differs from Bm3d::denoise");
            };
            check(0, st.firstOut[i]);
            if (i == 0 && st.sampledIndex >= 0)
                check(st.sampledIndex, st.sampledOut);
        }
    };

    if (!args.trace) {
        ServicePhase ph = runPhase(args.seconds, 0);
        finishAndVerify();
        e2e.wall = ph.wall;
        e2e.mpix = ph.mpix;
        e2e.latMs = ph.latMs;
        e2e.highMs = ph.highMs;
        e2e.sloSent = ph.sent;
        e2e.sloMet = ph.met;
        e2e.psnr = checker.meanPsnr();
        e2e.rssMb = peakRssMb();
        std::printf("service_mix: %llu sent at %.3f Hz, %zu delivered, "
                    "%llu rejected, generator lag p99 %.3f ms\n",
                    (unsigned long long)ph.sent, rate, ph.latMs.size(),
                    (unsigned long long)ph.rejected,
                    ph.lagMs.empty() ? 0.0
                                     : pb::nearestRank(
                                           [&] {
                                               auto v = ph.lagMs;
                                               std::sort(v.begin(), v.end());
                                               return v;
                                           }(),
                                           99.0));
        for (int i = 0; i < kNumTenants; ++i) {
            const pb::Tail t = pb::tailRule(ph.tenantMs[i]);
            std::printf("  tenant %-5s %4zu delivered  p50 %8.3f ms  "
                        "p%.2f %8.3f ms  limit %.0f ms\n",
                        kTenants[i].name, ph.tenantMs[i].size(),
                        pb::median(ph.tenantMs[i]), t.percentile, t.value,
                        slo[i]);
        }
        e2e.report(report);
    } else {
        ServicePhase plain = runPhase(args.seconds / 2, 1);
        Tracer tracer;
        Bm3dLayer layer;
        ServicePhase tr;
        RuntimeReadout runtimeProbe;
        {
            TraceScope on(tracer);
            tr = runPhase(args.seconds / 2, 2);
            finishAndVerify();
            for (int i = 0; i < kNumTenants; ++i)
                layer.probeStages(
                    bm3d::Bm3d(tenantConfig(kTenants[i]).stream.frame),
                    st.frames[i].noisy[1], true, i);
            reportSimd(report, videoConfig().frame.searchWindow1);
            double tiles = 0.0;
            for (int i = 0; i < kNumTenants; ++i)
                tiles += mix[i] *
                         tilesPerFrame(tenantConfig(kTenants[i]).stream.frame,
                                       kTenants[i].w, kTenants[i].h);
            double mixSum = mix[0] + mix[1] + mix[2];
            reportParallel(report, static_cast<int>(tiles / mixSum + 0.5));
            // The service calls the runtime's pipeline internally; the
            // caller-side StreamDenoiser calls are probed at norm's config.
            runtimeProbe = probeRuntime(tenantConfig(kTenants[1]).stream,
                                        pb::mixSeed(args.seed, 50));
        }
        const service::ServiceStats ss = st.svc->stats();
        RuntimeReadout rt;
        for (int i = 0; i < kNumTenants; ++i) {
            const service::TenantStats &t = ss.tenants[i];
            layer.profile += t.profile;
            layer.mpix += t.frames * kTenants[i].w * kTenants[i].h / 1e6;
            rt.absorb(t);
        }
        rt.submitMs = runtimeProbe.submitMs;
        rt.collectMs = runtimeProbe.collectMs;
        ServiceReadout sv;
        sv.submitMs = tr.submitMs;
        sv.lagMs = tr.lagMs;
        sv.absorb(ss);
        const auto spans = tracer.spans();
        const SelfTimes selfTimes = analyze(spans);
        layer.report(report);
        rt.report(report, "TenantStats; submit/collect from a " +
                              std::string(kBypassedProbe));
        sv.report(report, "generator calls and ServiceStats");
        std::printf("obs layer:\n");
        report.add("obs.trace_overhead_frac",
                   pb::median(tr.latMs) / pb::median(plain.latMs) - 1.0,
                   "frac", "traced / untraced latency p50");
        reconcileFrames(selfTimes,
                        "service.in_flight (due to collect, outside "
                        "caller calls: generator lag + queue + dispatch)");
        std::printf("  internal admission-to-ready p50 %.3f ms vs "
                    "bench latency p50 %.3f ms\n",
                    pb::median(sv.internalMs), pb::median(tr.latMs));
        layer.reconcile();
        writeChromeTrace(spans, args.traceOut);
    }
    report.printChecks();
    report.printResult(args.workload);
    return 0;
}

// ---------------------------------------------------------------------
// service_probe: the one-off capacity measurement behind service_mix's
// fixed arrival rate. Each tenant alone, one frame at a time.

int
runServiceProbe(const Args &args)
{
    std::printf("capacity probe: per-frame service time, one tenant and "
                "one frame in flight at a time\n");
    std::vector<double> perFrame;
    for (int i = 0; i < kNumTenants; ++i) {
        TenantFrames f = makeTenantFrames(kTenants[i], args.seed, i);
        service::DenoiseService svc;
        const auto id = svc.openSession(tenantConfig(kTenants[i]));
        std::vector<double> times;
        for (int n = 0; n < 3 + 20; ++n) {
            const auto t0 = Clock::now();
            svc.submit(id, f.noisy[n % kTenantPool]);
            image::ImageF out = svc.collect(id);
            if (n >= 3)
                times.push_back(seconds(t0, Clock::now()));
            svc.recycle(id, std::move(out));
        }
        perFrame.push_back(pb::median(times));
        std::printf("  %-5s %4dx%-4d  %.4f s/frame\n", kTenants[i].name,
                    kTenants[i].w, kTenants[i].h, perFrame.back());
    }
    double mean = 0.0, mixSum = 0.0;
    for (int i = 0; i < kNumTenants; ++i) {
        const double m = args.param(std::string(kTenants[i].name) + ".mix");
        mean += m * perFrame[i];
        mixSum += m;
    }
    mean /= mixSum;
    std::printf("  mix-weighted service time %.4f s, capacity %.3f frames/s\n",
                mean, 1.0 / mean);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        std::printf("perfbench %s seed %llu seconds %.3f trace %d threads %d "
                    "simd %s\n",
                    args.workload.c_str(), (unsigned long long)args.seed,
                    args.seconds, args.trace ? 1 : 0,
                    parallel::hardwareThreads(),
                    simd::toString(simd::activeLevel()));
        if (args.workload == "photo_dense")
            return runPhoto(args);
        if (args.workload == "video_hd")
            return runVideo(args);
        if (args.workload == "service_mix")
            return runService(args);
        if (args.workload == "service_probe")
            return runServiceProbe(args);
        throw std::invalid_argument("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
