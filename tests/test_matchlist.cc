/**
 * @file
 * Unit tests for the bounded sorted match list (the BM engine's
 * priority queue MQ) and for block matching with and without
 * Matches Reuse.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "bm3d/blockmatch.h"
#include "bm3d/matchlist.h"
#include "bm3d/patchfield.h"
#include "image/noise.h"
#include "image/synthetic.h"

using namespace ideal;
using bm3d::Match;
using bm3d::MatchList;

TEST(MatchList, InsertKeepsSorted)
{
    MatchList list(4);
    list.insert({0, 0, 5.0f});
    list.insert({1, 0, 1.0f});
    list.insert({2, 0, 3.0f});
    ASSERT_EQ(list.size(), 3);
    EXPECT_FLOAT_EQ(list[0].distance, 1.0f);
    EXPECT_FLOAT_EQ(list[1].distance, 3.0f);
    EXPECT_FLOAT_EQ(list[2].distance, 5.0f);
}

TEST(MatchList, EvictsWorstWhenFull)
{
    MatchList list(2);
    list.insert({0, 0, 5.0f});
    list.insert({1, 0, 1.0f});
    EXPECT_FALSE(list.insert({2, 0, 9.0f}));
    EXPECT_TRUE(list.insert({3, 0, 0.5f}));
    ASSERT_EQ(list.size(), 2);
    EXPECT_EQ(list[0].x, 3);
    EXPECT_EQ(list[1].x, 1);
}

TEST(MatchList, WorstDistanceInfiniteUntilFull)
{
    MatchList list(2);
    EXPECT_TRUE(std::isinf(list.worstDistance()));
    list.insert({0, 0, 1.0f});
    EXPECT_TRUE(std::isinf(list.worstDistance()));
    list.insert({0, 0, 2.0f});
    EXPECT_FLOAT_EQ(list.worstDistance(), 2.0f);
}

TEST(MatchList, StackSizeIsPowerOfTwo)
{
    MatchList list(16);
    EXPECT_EQ(list.stackSize(), 0);
    for (int i = 0; i < 3; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 2);
    for (int i = 3; i < 11; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 8);
    for (int i = 11; i < 16; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 16);
}

TEST(MatchList, ClearEmpties)
{
    MatchList list(4);
    list.insert({0, 0, 1.0f});
    list.clear();
    EXPECT_EQ(list.size(), 0);
    EXPECT_TRUE(list.empty());
}

namespace {

/** The list as it was stored before the SoA layout: array of Match. */
class AosMatchList
{
  public:
    explicit AosMatchList(int capacity) : capacity_(capacity) {}

    int size() const { return size_; }
    const Match &operator[](int i) const { return entries_[i]; }

    float
    worstDistance() const
    {
        return size_ < capacity_ ? std::numeric_limits<float>::infinity()
                                 : entries_[size_ - 1].distance;
    }

    bool
    insert(const Match &candidate)
    {
        if (size_ == capacity_ &&
            candidate.distance >= entries_[size_ - 1].distance)
            return false;
        int pos = size_ < capacity_ ? size_ : capacity_ - 1;
        while (pos > 0 && entries_[pos - 1].distance > candidate.distance) {
            entries_[pos] = entries_[pos - 1];
            --pos;
        }
        entries_[pos] = candidate;
        if (size_ < capacity_)
            ++size_;
        return true;
    }

  private:
    int capacity_;
    int size_ = 0;
    Match entries_[MatchList::kCapacity];
};

uint32_t
bitsOf(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

} // namespace

// The SoA list (DESIGN §16.4) must read back exactly what the former
// array-of-Match list held: through operator[], the x/y/distance
// accessors and iteration, after every insert, including ties, signed
// zeros, infinities, NaN and coordinates at the 16-bit limit.
TEST(MatchList, SoaAccessorsMatchArrayOfMatchList)
{
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              0.0f, -0.0f};
    uint64_t state = 77;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int cap = 1; cap <= MatchList::kCapacity; ++cap) {
        MatchList soa(cap);
        AosMatchList aos(cap);
        for (int n = 0; n < 60; ++n) {
            Match m;
            m.x = n % 7 == 0 ? MatchList::kMaxCoord
                             : static_cast<int>(next() % 65536);
            m.y = n % 11 == 0 ? MatchList::kMaxCoord
                              : static_cast<int>(next() % 65536);
            m.distance = next() % 9 == 0
                             ? specials[next() % 5]
                             : static_cast<float>(next() % 12);
            ASSERT_EQ(soa.insert(m), aos.insert(m)) << "insert " << n;
            ASSERT_EQ(soa.size(), aos.size());
            EXPECT_EQ(bitsOf(soa.worstDistance()),
                      bitsOf(aos.worstDistance()));
            int i = 0;
            for (const Match &got : soa) {
                const Match &want = aos[i];
                EXPECT_EQ(got.x, want.x);
                EXPECT_EQ(got.y, want.y);
                EXPECT_EQ(bitsOf(got.distance), bitsOf(want.distance));
                EXPECT_EQ(soa.x(i), want.x);
                EXPECT_EQ(soa.y(i), want.y);
                EXPECT_EQ(bitsOf(soa.distance(i)), bitsOf(want.distance));
                EXPECT_EQ(bitsOf(soa[i].distance), bitsOf(want.distance));
                ++i;
            }
            EXPECT_EQ(i, aos.size());
        }
    }
}

TEST(MatchList, PaddingPastSizeIsInfinityAndZero)
{
    MatchList list(5);
    list.insert({3, 4, 2.0f});
    list.insert({5, 6, 1.0f});
    const simd::MatchSlots &s = list.slots();
    EXPECT_EQ(s.pos[0], MatchList::pack(5, 6));
    EXPECT_EQ(s.pos[1], MatchList::pack(3, 4));
    for (int k = 2; k < MatchList::kCapacity; ++k) {
        EXPECT_TRUE(std::isinf(s.dist[k]) && s.dist[k] > 0) << k;
        EXPECT_EQ(s.pos[k], 0u) << k;
    }
    list.clear();
    EXPECT_TRUE(std::isinf(list.slots().dist[0]));
}

namespace {

/** Fixture: a small image, its DCT field, and a color-domain plane. */
class BlockMatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        plane_ = image::makeScene(image::SceneKind::Nature, 40, 40, 1, 21);
        dct_ = std::make_unique<transforms::Dct2D>(4);
        field_ = std::make_unique<bm3d::DctPatchField>(
            plane_, *dct_, 0.0f, std::nullopt, nullptr);
    }

    image::ImageF plane_;
    std::unique_ptr<transforms::Dct2D> dct_;
    std::unique_ptr<bm3d::DctPatchField> field_;
};

} // namespace

TEST_F(BlockMatchTest, ReferenceIsAlwaysFirstMatch)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    matcher.search(10, 10, out);
    ASSERT_GE(out.size(), 1);
    EXPECT_EQ(out[0].x, 10);
    EXPECT_EQ(out[0].y, 10);
    EXPECT_FLOAT_EQ(out[0].distance, 0.0f);
}

TEST_F(BlockMatchTest, FullSearchEvaluatesWholeWindow)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    // Interior reference: full 13x13 window minus the reference itself.
    uint64_t evaluated = matcher.search(18, 18, out);
    EXPECT_EQ(evaluated, 13u * 13u - 1u);
    // Corner reference: window clipped to 7x7.
    evaluated = matcher.search(0, 0, out);
    EXPECT_EQ(evaluated, 7u * 7u - 1u);
}

TEST_F(BlockMatchTest, MatchesSortedAndWithinWindow)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    matcher.search(18, 18, out);
    ASSERT_EQ(out.size(), 16);
    for (int i = 1; i < out.size(); ++i)
        EXPECT_LE(out[i - 1].distance, out[i].distance);
    for (const Match &m : out) {
        EXPECT_GE(m.x, 12);
        EXPECT_LE(m.x, 24);
        EXPECT_GE(m.y, 12);
        EXPECT_LE(m.y, 24);
    }
}

TEST_F(BlockMatchTest, TauMatchFiltersCandidates)
{
    image::ImageF noisy = image::addGaussianNoise(plane_, 40.0f, 5);
    bm3d::DctPatchField field(noisy, *dct_, 0.0f, std::nullopt, nullptr);
    bm3d::DctMatchDomain domain(field);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> strict(domain, 13, 1, 1,
                                                    1.0f, 16);
    MatchList out;
    strict.search(18, 18, out);
    // With a tiny threshold on a noisy image only the reference stays.
    EXPECT_LT(out.size(), 16);
    EXPECT_GE(out.size(), 1);
}

TEST_F(BlockMatchTest, ReuseSearchEvaluatesFarFewerCandidates)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList prev, cur;
    uint64_t full = matcher.search(17, 18, prev);
    uint64_t reused = matcher.searchReuse(18, 18, prev, cur);
    EXPECT_LT(reused, full / 2);
    // Upper bound from the paper: Ns x Ps new column + 16 reused.
    EXPECT_LE(reused, 13u + 16u);
    ASSERT_GE(cur.size(), 1);
    EXPECT_EQ(cur[0].x, 18);
}

TEST_F(BlockMatchTest, ReuseNeverDuplicatesPositions)
{
    bm3d::DctMatchDomain domain(*field_);
    // Reference near the right edge so the new column overlaps the
    // previous window (the duplicate-risk case).
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList prev, cur;
    matcher.search(35, 18, prev);
    matcher.searchReuse(36, 18, prev, cur);
    for (int i = 0; i < cur.size(); ++i)
        for (int j = i + 1; j < cur.size(); ++j)
            EXPECT_FALSE(cur[i].x == cur[j].x && cur[i].y == cur[j].y)
                << "duplicate at " << cur[i].x << "," << cur[i].y;
}

TEST_F(BlockMatchTest, ColorDomainMatchesDirectComputation)
{
    bm3d::ColorMatchDomain domain(plane_, 4);
    float expect = 0.0f;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
            float d = plane_.at(5 + c, 6 + r) - plane_.at(9 + c, 11 + r);
            expect += d * d;
        }
    EXPECT_NEAR(domain.distance(5, 6, 9, 11), expect / 16.0f, 1e-3f);
}

TEST_F(BlockMatchTest, UniformImageAllDistancesZero)
{
    image::ImageF flat(32, 32, 1);
    flat.fill(99.0f);
    bm3d::ColorMatchDomain domain(flat, 4);
    bm3d::BlockMatcher<bm3d::ColorMatchDomain> matcher(domain, 9, 1, 1,
                                                       100.0f, 16);
    MatchList out;
    matcher.search(14, 14, out);
    EXPECT_EQ(out.size(), 16);
    for (const Match &m : out)
        EXPECT_FLOAT_EQ(m.distance, 0.0f);
}

TEST_F(BlockMatchTest, SoaFieldMatchesDirectDctAtEveryPosition)
{
    // The coefficient-major matching layout must hold exactly the same
    // values as a direct per-patch forward DCT (plus hard threshold),
    // at every position including the image edges where the halo of
    // valid top-lefts ends.
    const float threshold = 40.0f;
    bm3d::DctPatchField thresholded(plane_, *dct_, threshold, std::nullopt,
                                    nullptr);
    float pixels[16], direct[16], gathered[16];
    for (int y = 0; y < field_->positionsY(); ++y) {
        for (int x = 0; x < field_->positionsX(); ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *raw = field_->patch(x, y);
            field_->gatherMatchPatch(x, y, gathered);
            for (int k = 0; k < 16; ++k) {
                ASSERT_EQ(raw[k], direct[k])
                    << "raw (" << x << "," << y << ") k=" << k;
                // threshold 0: the matching copy equals the raw DCT.
                ASSERT_EQ(gathered[k], direct[k])
                    << "match (" << x << "," << y << ") k=" << k;
            }
            thresholded.gatherMatchPatch(x, y, gathered);
            for (int k = 0; k < 16; ++k) {
                const float want =
                    std::abs(direct[k]) < threshold ? 0.0f : direct[k];
                ASSERT_EQ(gathered[k], want)
                    << "thresholded (" << x << "," << y << ") k=" << k;
            }
        }
    }
}

TEST_F(BlockMatchTest, SoaPlanesShareOneOffsetScheme)
{
    // matchPlanes()[k][matchOffset(x, y)] is the documented access
    // path the SSD kernels use; cross-check it against the gather.
    const float *const *planes = field_->matchPlanes();
    float gathered[16];
    const std::pair<int, int> positions[] = {
        {0, 0}, {36, 0}, {0, 36}, {36, 36}, {17, 23}};
    for (auto [x, y] : positions) {
        field_->gatherMatchPatch(x, y, gathered);
        const size_t off = field_->matchOffset(x, y);
        for (int k = 0; k < 16; ++k)
            ASSERT_EQ(planes[k][off], gathered[k])
                << "(" << x << "," << y << ") k=" << k;
    }
}

TEST_F(BlockMatchTest, DomainBatchDistancesMatchSingleBitwise)
{
    // The batched window-row path must pick the same matches as the
    // per-candidate path, which it does by producing bitwise-equal
    // distances.
    bm3d::DctMatchDomain dct_dom(*field_);
    bm3d::ColorMatchDomain color_dom(plane_, 4);
    auto check = [&](const auto &dom, const char *name) {
        float ref[64];
        float d[64];
        const int nx = dom.positionsX();
        const std::pair<int, int> refs[] = {
            {0, 0}, {nx - 1, dom.positionsY() - 1}, {11, 7}};
        for (auto [xr, yr] : refs) {
            dom.gatherRef(xr, yr, ref);
            for (int y : {0, yr, dom.positionsY() - 1}) {
                dom.distanceBatch(ref, 0, y, nx, d);
                for (int x = 0; x < nx; ++x)
                    ASSERT_EQ(d[x], dom.distance(xr, yr, x, y))
                        << name << " ref(" << xr << "," << yr << ") cand("
                        << x << "," << y << ")";
            }
        }
    };
    check(dct_dom, "dct");
    check(color_dom, "color");
}

TEST_F(BlockMatchTest, TileDctFieldMatchesDirectDctAndTracksCoverage)
{
    bm3d::TileDctField tile;
    // A range flush against the right image edge (positions run to 36
    // for a 40-wide plane and 4x4 patches).
    uint64_t dcts = tile.build(plane_, 0, *dct_, std::nullopt, 30, 0, 36, 5);
    EXPECT_EQ(dcts, 7u * 6u);
    EXPECT_TRUE(tile.covers(30, 0));
    EXPECT_TRUE(tile.covers(36, 5));
    EXPECT_FALSE(tile.covers(29, 0));
    EXPECT_FALSE(tile.covers(30, 6));
    EXPECT_FALSE(tile.covers(37, 5));

    float pixels[16], direct[16];
    for (int y = 0; y <= 5; ++y)
        for (int x = 30; x <= 36; ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *cached = tile.patch(x, y);
            for (int k = 0; k < 16; ++k)
                ASSERT_EQ(cached[k], direct[k])
                    << "(" << x << "," << y << ") k=" << k;
        }

    // Arena reuse: rebuilding over a different (smaller) range must
    // forget the old coverage and serve the new one.
    dcts = tile.build(plane_, 0, *dct_, std::nullopt, 0, 10, 3, 12);
    EXPECT_EQ(dcts, 4u * 3u);
    EXPECT_FALSE(tile.covers(30, 2));
    EXPECT_TRUE(tile.covers(0, 10));
    for (int y = 10; y <= 12; ++y)
        for (int x = 0; x <= 3; ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *cached = tile.patch(x, y);
            for (int k = 0; k < 16; ++k)
                ASSERT_EQ(cached[k], direct[k])
                    << "(" << x << "," << y << ") k=" << k;
        }
}
