/**
 * @file
 * Deterministic concurrency tests for the multi-tenant denoise service
 * (src/service): per-tenant bitwise-vs-solo equality across SIMD
 * levels, thread counts and precisions; weighted-fair dispatch-order
 * and admission determinism under the paused pre-fill harness;
 * priority-tiered throttling (low rejected before high misses its
 * queue bound); fault-injection isolation (stalled / dead collectors);
 * BufferArena cross-tenant isolation; and lifecycle errors. The binary
 * carries the sanitize label, so the submit/collect stress runs under
 * TSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "runtime/arena.h"
#include "runtime/stream.h"
#include "service/service.h"
#include "simd/simd.h"

#include "levels.h"

using namespace ideal;
using runtime::StreamConfig;
using runtime::StreamDenoiser;
using service::AdmissionPolicy;
using service::DenoiseService;
using service::FaultInjection;
using service::Priority;
using service::ServiceConfig;
using service::ServiceStats;
using service::SessionConfig;
using service::SessionId;
using service::TenantStats;

namespace {

/** A static scene observed over several frames with fresh noise. */
std::vector<image::ImageF>
staticClip(int frames, int w, int h, float sigma, uint64_t seed)
{
    image::ImageF clean =
        image::makeScene(image::SceneKind::Nature, w, h, 1, seed);
    std::vector<image::ImageF> clip;
    for (int f = 0; f < frames; ++f)
        clip.push_back(image::addGaussianNoise(clean, sigma, seed + 7 + f));
    return clip;
}

StreamConfig
smallStreamConfig(int threads = 1, bool wiener = false)
{
    StreamConfig cfg;
    cfg.frame.sigma = 25.0f;
    cfg.frame.searchWindow1 = 13;
    cfg.frame.searchWindow2 = 13;
    cfg.frame.refStride = 2;
    cfg.frame.enableWiener = wiener;
    cfg.frame.numThreads = threads;
    return cfg;
}

/** Solo StreamDenoiser outputs — the service's bitwise reference. */
std::vector<image::ImageF>
soloOutputs(const StreamConfig &cfg,
            const std::vector<image::ImageF> &clip,
            runtime::StreamStats *stats_out = nullptr)
{
    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    std::vector<image::ImageF> outs;
    for (size_t f = 0; f < clip.size(); ++f)
        outs.push_back(stream.collect());
    if (stats_out)
        *stats_out = stream.stats();
    return outs;
}

/**
 * Seeded tenant arrival order: each tenant's frames stay in their own
 * order (the per-session contract), but the cross-tenant interleaving
 * is shuffled — randomized-but-reproducible submission.
 */
std::vector<size_t>
interleaveOrder(const std::vector<size_t> &frame_counts, uint64_t seed)
{
    std::vector<size_t> order;
    for (size_t t = 0; t < frame_counts.size(); ++t)
        order.insert(order.end(), frame_counts[t], t);
    std::mt19937 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** Submit clips in the given tenant interleaving (per-tenant in order). */
void
submitInterleaved(DenoiseService &svc, const std::vector<SessionId> &ids,
                  const std::vector<std::vector<image::ImageF>> &clips,
                  const std::vector<size_t> &order)
{
    std::vector<size_t> next(clips.size(), 0);
    for (size_t t : order)
        svc.submit(ids[t], image::ImageF(clips[t][next[t]++]));
}

class ServiceTest : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

} // namespace

// The tentpole contract: every tenant's output is bitwise identical to
// a solo StreamDenoiser run of the same config — across SIMD dispatch
// levels, per-session thread counts, and both precisions, under a
// seeded-shuffled arrival order. The service may reorder scheduling,
// never arithmetic.
TEST_F(ServiceTest, ServiceMatchesSoloBitwiseMatrix)
{
    const int frames = 3;
    const std::vector<std::vector<image::ImageF>> clips = {
        staticClip(frames, 64, 48, 25.0f, 41),
        staticClip(frames, 48, 48, 25.0f, 43),
        staticClip(frames, 56, 40, 25.0f, 47),
    };
    std::string unsupported;
    const std::vector<simd::Level> levels = test::supportedLevels(
        {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512},
        unsupported);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        for (simd::Level level : levels) {
            simd::setLevel(level);
            for (int threads : {1, 8}) {
                std::vector<SessionConfig> tenants(3);
                for (size_t t = 0; t < tenants.size(); ++t) {
                    // Heterogeneous mix: one Wiener tenant, one coarse
                    // refStride tenant, spread priorities and weights.
                    tenants[t].name = "t" + std::to_string(t);
                    tenants[t].stream =
                        smallStreamConfig(threads, /*wiener=*/t == 1);
                    tenants[t].stream.frame.precision = precision;
                    tenants[t].stream.queueDepth = frames;
                    tenants[t].priority = static_cast<Priority>(t % 3);
                    tenants[t].weight = 1.0 + static_cast<double>(t);
                }
                tenants[2].stream.frame.refStride = 3;

                std::vector<std::vector<image::ImageF>> solo;
                for (size_t t = 0; t < tenants.size(); ++t)
                    solo.push_back(
                        soloOutputs(tenants[t].stream, clips[t]));

                ServiceConfig svc_cfg;
                svc_cfg.startPaused = true;
                DenoiseService svc(svc_cfg);
                std::vector<SessionId> ids;
                for (const SessionConfig &t : tenants)
                    ids.push_back(svc.openSession(t));
                submitInterleaved(
                    svc, ids, clips,
                    interleaveOrder({frames, frames, frames},
                                    1000 + static_cast<uint64_t>(threads)));
                svc.resume();
                svc.finish();

                for (size_t t = 0; t < tenants.size(); ++t) {
                    for (int f = 0; f < frames; ++f) {
                        const image::ImageF out = svc.collect(ids[t]);
                        EXPECT_TRUE(out.raw() == solo[t][f].raw())
                            << "precision="
                            << static_cast<int>(precision) << " level="
                            << static_cast<int>(simd::activeLevel())
                            << " threads=" << threads << " tenant=" << t
                            << " frame=" << f;
                    }
                }
                const ServiceStats stats = svc.stats();
                EXPECT_EQ(stats.frames,
                          static_cast<uint64_t>(3 * frames));
                EXPECT_EQ(stats.rejects, 0u);
            }
        }
    }
    if (!unsupported.empty())
        GTEST_SKIP() << unsupported;
}

// A temporally-seeded tenant must replay the solo seeded stream
// exactly: same outputs, same seed engagement counters — the seeding
// state is per-session and frames stay in session order.
TEST_F(ServiceTest, SeededTenantMatchesSeededSolo)
{
    const int frames = 4;
    const auto seeded_clip = staticClip(frames, 64, 64, 25.0f, 53);
    const auto plain_clip = staticClip(frames, 48, 48, 25.0f, 59);

    StreamConfig seeded_cfg = smallStreamConfig(1);
    seeded_cfg.temporalSeed = true;
    seeded_cfg.queueDepth = frames;
    StreamConfig plain_cfg = smallStreamConfig(1);
    plain_cfg.queueDepth = frames;

    runtime::StreamStats solo_stats;
    const auto solo_seeded = soloOutputs(seeded_cfg, seeded_clip, &solo_stats);
    const auto solo_plain = soloOutputs(plain_cfg, plain_clip);
    ASSERT_GT(solo_stats.seedRefs, 0u);
    ASSERT_GT(solo_stats.seedHits, 0u);

    ServiceConfig svc_cfg;
    svc_cfg.startPaused = true;
    DenoiseService svc(svc_cfg);
    SessionConfig seeded_tenant;
    seeded_tenant.name = "seeded";
    seeded_tenant.stream = seeded_cfg;
    SessionConfig plain_tenant;
    plain_tenant.name = "plain";
    plain_tenant.stream = plain_cfg;
    const SessionId a = svc.openSession(seeded_tenant);
    const SessionId b = svc.openSession(plain_tenant);
    submitInterleaved(svc, {a, b}, {seeded_clip, plain_clip},
                      interleaveOrder({frames, frames}, 77));
    svc.resume();
    svc.finish();

    for (int f = 0; f < frames; ++f) {
        EXPECT_TRUE(svc.collect(a).raw() == solo_seeded[f].raw())
            << "seeded frame " << f;
        EXPECT_TRUE(svc.collect(b).raw() == solo_plain[f].raw())
            << "plain frame " << f;
    }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants[0].seedRefs, solo_stats.seedRefs);
    EXPECT_EQ(stats.tenants[0].seedHits, solo_stats.seedHits);
    EXPECT_EQ(stats.tenants[1].seedRefs, 0u);
}

// Frame sharding overrides only the worker count, and the tile grid is
// thread-count invariant — a fully sharded run must stay bitwise equal
// to a single-threaded solo run of the session config.
TEST_F(ServiceTest, ShardedLargeFrameMatchesSolo)
{
    const int frames = 3;
    const auto clip = staticClip(frames, 72, 56, 25.0f, 71);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = frames;
    const auto solo = soloOutputs(cfg, clip);

    ServiceConfig svc_cfg;
    svc_cfg.shardPixels = 1; // shard every frame
    svc_cfg.shardThreads = 5;
    svc_cfg.startPaused = true;
    DenoiseService svc(svc_cfg);
    SessionConfig tenant;
    tenant.name = "sharded";
    tenant.stream = cfg;
    const SessionId id = svc.openSession(tenant);
    for (const image::ImageF &frame : clip)
        svc.submit(id, image::ImageF(frame));
    svc.resume();
    svc.finish();
    for (int f = 0; f < frames; ++f)
        EXPECT_TRUE(svc.collect(id).raw() == solo[f].raw())
            << "frame " << f;
}

// Live-mode stress for the sanitizers: per-tenant producer and
// collector threads race submit/collect against the scheduler and
// dispatcher; every tenant's outputs must still come out in order and
// bitwise solo-identical.
TEST_F(ServiceTest, ConcurrentSubmitCollectStress)
{
    const int frames = 5;
    const std::vector<std::vector<image::ImageF>> clips = {
        staticClip(frames, 48, 48, 25.0f, 83),
        staticClip(frames, 56, 40, 25.0f, 89),
        staticClip(frames, 40, 40, 25.0f, 97),
    };
    std::vector<SessionConfig> tenants(clips.size());
    std::vector<std::vector<image::ImageF>> solo;
    for (size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].name = "s" + std::to_string(t);
        tenants[t].stream = smallStreamConfig(2);
        tenants[t].stream.queueDepth = 2; // force live backpressure
        tenants[t].priority = static_cast<Priority>(t % 3);
        solo.push_back(soloOutputs(tenants[t].stream, clips[t]));
    }

    DenoiseService svc;
    std::vector<SessionId> ids;
    for (const SessionConfig &t : tenants)
        ids.push_back(svc.openSession(t));

    std::vector<std::vector<image::ImageF>> got(clips.size());
    std::vector<std::thread> workers;
    for (size_t t = 0; t < clips.size(); ++t) {
        workers.emplace_back([&, t] {
            for (const image::ImageF &frame : clips[t])
                svc.submit(ids[t], image::ImageF(frame));
        });
        workers.emplace_back([&, t] {
            for (int f = 0; f < frames; ++f)
                got[t].push_back(svc.collect(ids[t]));
        });
    }
    for (std::thread &w : workers)
        w.join();
    svc.finish();

    for (size_t t = 0; t < clips.size(); ++t) {
        ASSERT_EQ(got[t].size(), static_cast<size_t>(frames));
        for (int f = 0; f < frames; ++f)
            EXPECT_TRUE(got[t][f].raw() == solo[t][f].raw())
                << "tenant " << t << " frame " << f;
    }
    EXPECT_EQ(svc.stats().frames,
              static_cast<uint64_t>(clips.size() * frames));
}

// The deterministic harness contract: two paused pre-fills with the
// same seeded arrival order replay the identical dispatch order and
// the identical admission decisions.
TEST_F(ServiceTest, SeededArrivalOrderIsDeterministic)
{
    const int frames = 4;
    const std::vector<std::vector<image::ImageF>> clips = {
        staticClip(frames, 48, 48, 25.0f, 101),
        staticClip(frames, 64, 40, 25.0f, 103),
        staticClip(frames, 40, 56, 25.0f, 107),
    };

    auto run = [&](uint64_t seed) {
        ServiceConfig svc_cfg;
        svc_cfg.startPaused = true;
        svc_cfg.sharedBudgetFrames = 8; // tight: force real rejects
        DenoiseService svc(svc_cfg);
        std::vector<SessionId> ids;
        for (size_t t = 0; t < clips.size(); ++t) {
            SessionConfig tenant;
            tenant.name = "d" + std::to_string(t);
            tenant.stream = smallStreamConfig(1);
            tenant.stream.queueDepth = frames;
            tenant.priority = static_cast<Priority>(t % 3);
            tenant.weight = 1.0 + static_cast<double>(t);
            tenant.policy = AdmissionPolicy::Reject;
            ids.push_back(svc.openSession(tenant));
        }
        const auto order =
            interleaveOrder({frames, frames, frames}, seed);
        std::vector<size_t> next(clips.size(), 0);
        for (size_t t : order)
            (void)svc.submit(ids[t],
                             image::ImageF(clips[t][next[t]++]));
        svc.resume();
        svc.finish();
        return svc.stats();
    };

    const ServiceStats first = run(2026);
    const ServiceStats second = run(2026);
    EXPECT_GT(first.rejects, 0u); // the tight budget actually bit
    EXPECT_EQ(first.rejects, second.rejects);
    EXPECT_EQ(first.dispatchOrder, second.dispatchOrder);
    ASSERT_EQ(first.tenants.size(), second.tenants.size());
    for (size_t t = 0; t < first.tenants.size(); ++t) {
        EXPECT_EQ(first.tenants[t].admitted, second.tenants[t].admitted);
        EXPECT_EQ(first.tenants[t].rejects, second.tenants[t].rejects);
        EXPECT_EQ(first.tenants[t].queueHighWater,
                  second.tenants[t].queueHighWater);
    }

    // A different seed reorders arrivals but may not change any
    // tenant's admitted-frame count... with Block-free pre-fill the
    // interleaving *can* shift which submits hit the shared budget, so
    // only the schedule-replay property is asserted above. Determinism
    // is about replaying the same workload, not seed-invariance.
}

// The scheduler is textbook WFQ: smallest virtual time first, vtime
// advanced by pixels / (weight * 4^priority), ties to the higher
// priority then the lower session id. Replaying that arithmetic in
// the test must predict the service's dispatch order exactly.
TEST_F(ServiceTest, WeightedFairDispatchOrderMatchesModel)
{
    const int frames = 4;
    const int w = 48, h = 48;
    const std::vector<std::vector<image::ImageF>> clips = {
        staticClip(frames, w, h, 25.0f, 113),
        staticClip(frames, w, h, 25.0f, 127),
        staticClip(frames, w, h, 25.0f, 131),
    };
    struct Share
    {
        Priority priority;
        double weight;
    };
    const std::vector<Share> shares = {{Priority::Normal, 1.0},
                                       {Priority::Normal, 2.0},
                                       {Priority::High, 1.0}};

    ServiceConfig svc_cfg;
    svc_cfg.startPaused = true;
    DenoiseService svc(svc_cfg);
    std::vector<SessionId> ids;
    for (size_t t = 0; t < shares.size(); ++t) {
        SessionConfig tenant;
        tenant.name = "w" + std::to_string(t);
        tenant.stream = smallStreamConfig(1);
        tenant.stream.queueDepth = frames;
        tenant.priority = shares[t].priority;
        tenant.weight = shares[t].weight;
        ids.push_back(svc.openSession(tenant));
    }
    submitInterleaved(svc, ids, clips,
                      interleaveOrder({frames, frames, frames}, 55));
    svc.resume();
    svc.finish();

    // Reference model over the pre-filled queues.
    std::vector<double> vtime(shares.size(), 0.0);
    std::vector<int> queued(shares.size(), frames);
    std::vector<int> expected;
    for (size_t step = 0; step < shares.size() * frames; ++step) {
        int best = -1;
        for (size_t t = 0; t < shares.size(); ++t) {
            if (queued[t] == 0)
                continue;
            if (best < 0 || vtime[t] < vtime[best] ||
                (vtime[t] == vtime[best] &&
                 static_cast<int>(shares[t].priority) >
                     static_cast<int>(shares[best].priority)))
                best = static_cast<int>(t);
        }
        expected.push_back(best);
        --queued[best];
        const double ew =
            shares[best].weight *
            static_cast<double>(
                1 << (2 * static_cast<int>(shares[best].priority)));
        vtime[best] += static_cast<double>(w) * h / ew;
    }
    EXPECT_EQ(svc.stats().dispatchOrder, expected);

    for (size_t t = 0; t < shares.size(); ++t)
        for (int f = 0; f < frames; ++f)
            svc.recycle(ids[t], svc.collect(ids[t]));
}

// The overload contract: the priority tiers of the shared budget
// throttle a low-priority tenant (rejects) strictly before a
// high-priority tenant misses its queue bound.
TEST_F(ServiceTest, AdmissionThrottlesLowBeforeHigh)
{
    const int budget = 8;
    const auto low_clip = staticClip(8, 40, 40, 25.0f, 137);
    const auto high_clip = staticClip(4, 40, 40, 25.0f, 139);

    ServiceConfig svc_cfg;
    svc_cfg.startPaused = true;
    svc_cfg.sharedBudgetFrames = budget;
    DenoiseService svc(svc_cfg);

    SessionConfig low;
    low.name = "low";
    low.stream = smallStreamConfig(1);
    low.stream.queueDepth = 8; // larger than the Low tier: the shared
                               // budget, not the queue bound, throttles
    low.priority = Priority::Low;
    low.policy = AdmissionPolicy::Reject;
    SessionConfig high;
    high.name = "high";
    high.stream = smallStreamConfig(1);
    high.stream.queueDepth = 4;
    high.priority = Priority::High;
    high.policy = AdmissionPolicy::Reject;
    const SessionId low_id = svc.openSession(low);
    const SessionId high_id = svc.openSession(high);

    // Saturate with low-priority traffic first: the Low tier is
    // budget/2 = 4, so exactly 4 of 8 submits are admitted.
    int low_admitted = 0;
    for (const image::ImageF &frame : low_clip)
        low_admitted += svc.submit(low_id, image::ImageF(frame)) ? 1 : 0;
    EXPECT_EQ(low_admitted, budget / 2);

    // The high-priority tenant still fits every frame within its queue
    // bound: zero rejects while the low tenant was being shed.
    int high_admitted = 0;
    for (const image::ImageF &frame : high_clip)
        high_admitted += svc.submit(high_id, image::ImageF(frame)) ? 1 : 0;
    EXPECT_EQ(high_admitted, 4);

    svc.resume();
    svc.finish();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants[0].rejects, 4u);
    EXPECT_EQ(stats.tenants[1].rejects, 0u);
    EXPECT_EQ(stats.tenants[1].queueHighWater, 4u); // bound touched,
                                                    // never missed
    EXPECT_EQ(stats.rejects, 4u);
    for (int f = 0; f < low_admitted; ++f)
        (void)svc.collect(low_id);
    EXPECT_THROW(svc.collect(low_id), std::logic_error);
}

// Reject policy against the per-session queue bound: a paused pre-fill
// admits exactly queueDepth frames, rejects the rest, and the admitted
// prefix still denoises bitwise solo-identically.
TEST_F(ServiceTest, RejectPolicyQueueBoundDeterministic)
{
    const int frames = 5, depth = 2;
    const auto clip = staticClip(frames, 48, 48, 25.0f, 149);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = depth;
    const std::vector<image::ImageF> prefix(clip.begin(),
                                            clip.begin() + depth);
    const auto solo = soloOutputs(cfg, prefix);

    ServiceConfig svc_cfg;
    svc_cfg.startPaused = true;
    DenoiseService svc(svc_cfg);
    SessionConfig tenant;
    tenant.name = "rej";
    tenant.stream = cfg;
    tenant.policy = AdmissionPolicy::Reject;
    const SessionId id = svc.openSession(tenant);

    int admitted = 0;
    for (const image::ImageF &frame : clip)
        admitted += svc.submit(id, image::ImageF(frame)) ? 1 : 0;
    EXPECT_EQ(admitted, depth);
    svc.resume();
    svc.finish();

    for (int f = 0; f < depth; ++f)
        EXPECT_TRUE(svc.collect(id).raw() == solo[f].raw())
            << "frame " << f;
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants[0].rejects,
              static_cast<uint64_t>(frames - depth));
    EXPECT_EQ(stats.tenants[0].queueHighWater,
              static_cast<uint64_t>(depth));
}

// Fault injection, slow consumer: a stalled collector on one tenant
// must not affect any other tenant's outputs or pipeline latency (the
// output queue is unbounded, so a lazy collect never backpressures the
// dispatcher), and shutdown must not deadlock.
TEST_F(ServiceTest, StalledCollectorDoesNotStallOthers)
{
    const int frames = 3;
    const auto slow_clip = staticClip(frames, 48, 48, 25.0f, 151);
    const auto fast_clip = staticClip(frames, 48, 48, 25.0f, 157);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = frames;
    const auto solo_slow = soloOutputs(cfg, slow_clip);
    const auto solo_fast = soloOutputs(cfg, fast_clip);

    ServiceConfig svc_cfg;
    svc_cfg.fault.kind = FaultInjection::Kind::StallCollect;
    svc_cfg.fault.tenant = "slow";
    svc_cfg.fault.stallMs = 25;
    DenoiseService svc(svc_cfg);
    SessionConfig slow;
    slow.name = "slow";
    slow.stream = cfg;
    SessionConfig fast;
    fast.name = "fast";
    fast.stream = cfg;
    const SessionId slow_id = svc.openSession(slow);
    const SessionId fast_id = svc.openSession(fast);
    for (int f = 0; f < frames; ++f) {
        svc.submit(slow_id, image::ImageF(slow_clip[f]));
        svc.submit(fast_id, image::ImageF(fast_clip[f]));
    }
    svc.finish();

    // The unfaulted tenant collects first and is fully unaffected.
    for (int f = 0; f < frames; ++f)
        EXPECT_TRUE(svc.collect(fast_id).raw() == solo_fast[f].raw())
            << "fast frame " << f;
    for (int f = 0; f < frames; ++f)
        EXPECT_TRUE(svc.collect(slow_id).raw() == solo_slow[f].raw())
            << "slow frame " << f;
    const ServiceStats stats = svc.stats();
    // Pipeline latency is measured admission -> output ready, so the
    // collector stall shows up in neither tenant's SLO rows.
    EXPECT_EQ(stats.tenants[0].latenciesMs.size(),
              static_cast<size_t>(frames));
    EXPECT_EQ(stats.tenants[1].latenciesMs.size(),
              static_cast<size_t>(frames));
    EXPECT_EQ(stats.tenants[0].dropped, 0u);
}

// Fault injection, dead consumer: dropping one tenant's outputs leaves
// every other tenant bitwise intact, keeps the dead tenant's arena
// recycling loop closed, and shutdown still terminates (no deadlock);
// collecting from the dead tenant reports the drained session.
TEST_F(ServiceTest, DroppedCollectorGracefulShutdown)
{
    const int frames = 3;
    const auto dead_clip = staticClip(frames, 48, 48, 25.0f, 163);
    const auto live_clip = staticClip(frames, 48, 48, 25.0f, 167);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = frames;
    const auto solo_live = soloOutputs(cfg, live_clip);

    ServiceConfig svc_cfg;
    svc_cfg.fault.kind = FaultInjection::Kind::DropOutputs;
    svc_cfg.fault.tenant = "dead";
    DenoiseService svc(svc_cfg);
    SessionConfig dead;
    dead.name = "dead";
    dead.stream = cfg;
    SessionConfig live;
    live.name = "live";
    live.stream = cfg;
    const SessionId dead_id = svc.openSession(dead);
    const SessionId live_id = svc.openSession(live);
    for (int f = 0; f < frames; ++f) {
        svc.submit(dead_id, image::ImageF(dead_clip[f]));
        svc.submit(live_id, image::ImageF(live_clip[f]));
    }
    svc.finish(); // must return: a dead consumer cannot wedge shutdown

    for (int f = 0; f < frames; ++f)
        EXPECT_TRUE(svc.collect(live_id).raw() == solo_live[f].raw())
            << "live frame " << f;
    EXPECT_THROW(svc.collect(dead_id), std::logic_error);
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.tenants[0].frames, static_cast<uint64_t>(frames));
    EXPECT_EQ(stats.tenants[0].dropped, static_cast<uint64_t>(frames));
    EXPECT_EQ(stats.tenants[1].dropped, 0u);
}

// --- BufferArena cross-tenant isolation (direct unit tests) ---------

// Two arenas never exchange storage: a buffer released into tenant A's
// arena can only ever be handed back by A's arena.
TEST(ServiceArenaTest, CrossTenantIsolation)
{
    runtime::BufferArena a, b;
    std::vector<float> buf = a.acquire(4096);
    const float *p = buf.data();
    a.release(std::move(buf));

    // B cannot see A's free buffer: same-size acquire must allocate.
    std::vector<float> other = b.acquire(4096);
    EXPECT_NE(other.data(), p);
    EXPECT_EQ(b.stats().hits, 0u);
    EXPECT_EQ(b.stats().misses, 1u);

    // A hands its own storage back (pointer identity: true recycling).
    std::vector<float> again = a.acquire(4096);
    EXPECT_EQ(again.data(), p);
    EXPECT_EQ(a.stats().hits, 1u);
    EXPECT_EQ(a.stats().misses, 1u);
    EXPECT_EQ(a.stats().freeBuffers, 0u);

    // And the reverse direction: B's release stays invisible to A.
    const float *q = other.data();
    b.release(std::move(other));
    EXPECT_EQ(b.stats().freeBuffers, 1u);
    std::vector<float> third = a.acquire(4096);
    EXPECT_NE(third.data(), q);
    EXPECT_EQ(a.stats().misses, 2u);
    EXPECT_EQ(b.stats().freeBuffers, 1u);
}

// The ensure/acquire/release contract: capacity reuse is a hit that
// never touches the free list, the slack factor keeps size classes
// segregated, and bytesNew counts only fresh heap storage.
TEST(ServiceArenaTest, EnsureAcquireReleaseContract)
{
    runtime::BufferArena arena;
    std::vector<float> buf = arena.acquire(1000); // fresh: miss
    EXPECT_EQ(arena.stats().misses, 1u);
    EXPECT_GE(arena.stats().bytesNew, 1000 * sizeof(float));
    const uint64_t warm_bytes = arena.stats().bytesNew;

    arena.ensure(buf, 500); // capacity fits: pure hit, no free list
    EXPECT_EQ(arena.stats().hits, 1u);
    EXPECT_EQ(arena.stats().bytesNew, warm_bytes);
    EXPECT_EQ(arena.stats().freeBuffers, 0u);

    arena.release(std::move(buf));
    EXPECT_EQ(arena.stats().freeBuffers, 1u);

    // 1000-capacity free buffer vs a 100-element request: outside the
    // kSlackFactor=4 window, so the small class must not consume it.
    std::vector<float> small = arena.acquire(100);
    EXPECT_EQ(arena.stats().misses, 2u);
    EXPECT_EQ(arena.stats().freeBuffers, 1u);

    // A 250-element request fits the slack window and recycles it.
    std::vector<float> medium = arena.acquire(250);
    EXPECT_EQ(medium.size(), 250u);
    EXPECT_GE(medium.capacity(), 1000u);
    EXPECT_EQ(arena.stats().hits, 2u);
    EXPECT_EQ(arena.stats().freeBuffers, 0u);
    EXPECT_EQ(arena.stats().bytesNew, warm_bytes + 100 * sizeof(float));
}

// Per-tenant malloc-free steady state inside the service: every tenant
// draws zero fresh heap bytes through its arena from frame 3 on, and
// the per-tenant scope lands in the global metrics registry.
TEST_F(ServiceTest, ArenaPerTenantSteadyStateZero)
{
    const int frames = 6;
    const std::vector<std::vector<image::ImageF>> clips = {
        staticClip(frames, 48, 48, 25.0f, 173),
        staticClip(frames, 64, 40, 25.0f, 179),
    };
    DenoiseService svc;
    std::vector<SessionId> ids;
    for (size_t t = 0; t < clips.size(); ++t) {
        SessionConfig tenant;
        tenant.name = "steady" + std::to_string(t);
        tenant.stream = smallStreamConfig(2, /*wiener=*/t == 1);
        ids.push_back(svc.openSession(tenant));
    }
    for (int f = 0; f < frames; ++f)
        for (size_t t = 0; t < clips.size(); ++t)
            svc.submit(ids[t], image::ImageF(clips[t][f]));
    svc.finish();
    for (size_t t = 0; t < clips.size(); ++t)
        for (int f = 0; f < frames; ++f)
            svc.recycle(ids[t], svc.collect(ids[t]));

    const ServiceStats stats = svc.stats();
    for (size_t t = 0; t < clips.size(); ++t) {
        EXPECT_EQ(stats.tenants[t].frames, static_cast<uint64_t>(frames));
        EXPECT_EQ(stats.tenants[t].arenaBytesNewSteady, 0u)
            << "tenant " << t;
        EXPECT_GT(stats.tenants[t].arenaHits, 0u);
        EXPECT_GT(stats.tenants[t].arenaBytesNew, 0u); // warm-up did
        EXPECT_EQ(stats.tenants[t].latenciesMs.size(),
                  static_cast<size_t>(frames));
    }
    // The per-tenant registry scope was merged under "service.<name>.".
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.value("service.steady0.frames"),
              static_cast<double>(frames));
    EXPECT_EQ(snap.value("service.steady0.arena.bytesNewSteady"), 0.0);
    EXPECT_EQ(snap.value("service.steady1.arena.bytesNewSteady"), 0.0);
    EXPECT_EQ(snap.kind("service.steady0.queueHighWater"),
              obs::MetricKind::Max);
}

TEST_F(ServiceTest, LifecycleAndValidationErrors)
{
    {
        ServiceConfig bad;
        bad.sharedBudgetFrames = 0;
        EXPECT_THROW(DenoiseService s(bad), std::invalid_argument);
    }
    {
        ServiceConfig bad;
        bad.fault.kind = FaultInjection::Kind::StallCollect;
        EXPECT_THROW(DenoiseService s(bad), std::invalid_argument);
    }

    const auto clip = staticClip(1, 32, 32, 25.0f, 181);
    DenoiseService svc;
    SessionConfig tenant;
    tenant.name = "a";
    tenant.stream = smallStreamConfig(1);
    const SessionId id = svc.openSession(tenant);

    SessionConfig dup = tenant; // duplicate name
    EXPECT_THROW(svc.openSession(dup), std::invalid_argument);
    SessionConfig unnamed = tenant;
    unnamed.name.clear();
    EXPECT_THROW(svc.openSession(unnamed), std::invalid_argument);
    SessionConfig weightless = tenant;
    weightless.name = "b";
    weightless.weight = 0.0;
    EXPECT_THROW(svc.openSession(weightless), std::invalid_argument);
    SessionConfig shallow = tenant;
    shallow.name = "c";
    shallow.stream.queueDepth = 0;
    EXPECT_THROW(svc.openSession(shallow), std::invalid_argument);

    EXPECT_THROW(svc.submit(99, image::ImageF(clip[0])),
                 std::invalid_argument);
    EXPECT_THROW(svc.collect(-1), std::invalid_argument);

    svc.submit(id, image::ImageF(clip[0]));
    EXPECT_THROW(svc.submit(id, image::ImageF(16, 32, 1)),
                 std::invalid_argument); // shape mismatch
    EXPECT_THROW(svc.submit(id, image::ImageF(2, 2, 1)),
                 std::invalid_argument); // smaller than a patch
    for (float v : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
        image::ImageF frame(clip[0]);
        frame.plane(0)[3 * 32 + 4] = v;
        try {
            svc.submit(id, std::move(frame));
            ADD_FAILURE() << "accepted " << v;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("x=4, y=3, channel 0"),
                      std::string::npos)
                << e.what();
        }
    }

    svc.closeSession(id);
    EXPECT_THROW(svc.submit(id, image::ImageF(clip[0])),
                 std::logic_error);
    (void)svc.collect(id);
    EXPECT_THROW(svc.collect(id), std::logic_error);

    svc.finish();
    SessionConfig late = tenant;
    late.name = "late";
    EXPECT_THROW(svc.openSession(late), std::logic_error);
    EXPECT_THROW(svc.submit(id, image::ImageF(clip[0])),
                 std::logic_error);
    svc.finish(); // idempotent
}

TEST_F(ServiceTest, RejectsFramesBeyondMatchPositionRange)
{
    DenoiseService svc;
    SessionConfig tenant;
    tenant.name = "wide";
    tenant.stream = smallStreamConfig(1);
    const SessionId id = svc.openSession(tenant);
    try {
        svc.submit(id, image::ImageF(65537, 8, 1));
        ADD_FAILURE() << "accepted a 65537x8 frame";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("65537x8"), std::string::npos)
            << e.what();
    }
    svc.finish();
}
