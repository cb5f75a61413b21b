/**
 * @file
 * Tests for the BIRRD router: reductions, reorderings, multicast, and
 * property-style sweeps over random permutations and groupings across
 * network sizes (the paper claims arbitrary reduction groups and arbitrary
 * reordering, §III-B3 — these tests exercise that claim).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "noc/router.hpp"

namespace feather {
namespace {

/** Route and functionally verify; returns true on success. */
bool
routeOk(BirrdRouter &router, const BirrdTopology &topo,
        const RouteRequest &req)
{
    const BirrdConfigWord *cfg = router.route(req);
    if (cfg == nullptr) return false;
    return BirrdRouter::verify(topo, *cfg, req);
}

TEST(Router, CacheHitReturnsTheCachedConfig)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    const std::vector<int> groups = {0, 0, 1, 1, 2, 2, 3, 3};
    const auto req = RouteRequest::reduction(groups, {3, 2, 1, 0});
    const BirrdConfigWord *first = router.route(req);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(router.route(req), first);
    // Solving another pattern leaves the first entry where it was.
    ASSERT_NE(router.route(RouteRequest::reduction(groups, {0, 2, 4, 6})),
              nullptr);
    EXPECT_EQ(router.route(req), first);
    EXPECT_EQ(router.stats().requests, 4);
    EXPECT_EQ(router.stats().cache_hits, 2);
    EXPECT_TRUE(BirrdRouter::verify(topo, *first, req));
}

TEST(Router, IdentityPermutation)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    std::vector<int> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    EXPECT_TRUE(routeOk(router, topo, RouteRequest::permutation(dest)));
}

TEST(Router, ReversalPermutation)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    std::vector<int> dest(8);
    for (int i = 0; i < 8; ++i) dest[size_t(i)] = 7 - i;
    EXPECT_TRUE(routeOk(router, topo, RouteRequest::permutation(dest)));
}

TEST(Router, FullReductionToEachPort)
{
    // AW:1 reduction steered to every possible output port.
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    for (int out = 0; out < 8; ++out) {
        const std::vector<int> groups(8, 0);
        EXPECT_TRUE(routeOk(router, topo,
                            RouteRequest::reduction(groups, {out})))
            << "8:1 reduction to port " << out;
    }
}

TEST(Router, FourToTwoReductionFig9)
{
    // Fig. 9: 4:2 spatial reduction on a 4-input BIRRD — two adjacent
    // pairs of columns reduce into two outputs.
    const BirrdTopology topo(4);
    BirrdRouter router(topo);
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, 1, 1}, {0, 1})));
    // And with remapped output banks (RIR layout change).
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, 1, 1}, {2, 0})));
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, 1, 1}, {3, 1})));
}

TEST(Router, InterleavedGroups)
{
    // Non-contiguous reduction groups (M and C interleaved across columns,
    // as in the Fig. 9 walkthrough where columns carry (m, c) pairs).
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    EXPECT_TRUE(routeOk(
        router, topo,
        RouteRequest::reduction({0, 1, 0, 1, 2, 3, 2, 3}, {0, 1, 2, 3})));
    EXPECT_TRUE(routeOk(
        router, topo,
        RouteRequest::reduction({0, 1, 2, 3, 0, 1, 2, 3}, {4, 5, 6, 7})));
}

TEST(Router, UnevenGroupSizes)
{
    // Fig. 10 workload C: 3:1 and 1:1 groups concurrently.
    const BirrdTopology topo(4);
    BirrdRouter router(topo);
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, 0, 1}, {0, 1})));
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, 0, 1}, {3, 0})));
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 1, 1, 1}, {2, 1})));
}

TEST(Router, PartialInputs)
{
    // Unused PE columns (edge tiles) leave input ports idle.
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    EXPECT_TRUE(routeOk(router, topo,
                        RouteRequest::reduction({0, 0, -1, -1, 1, 1, -1, -1},
                                                {5, 2})));
}

TEST(Router, CacheHitsOnRepeat)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    const auto req = RouteRequest::reduction({0, 0, 1, 1, 2, 2, 3, 3},
                                             {3, 2, 1, 0});
    EXPECT_TRUE(routeOk(router, topo, req));
    EXPECT_TRUE(routeOk(router, topo, req));
    EXPECT_EQ(router.stats().cache_hits, 1);
    EXPECT_EQ(router.stats().requests, 2);
}

TEST(Router, MulticastBroadcastExtension)
{
    // Broadcast the reduced value into two StaB banks (paper: "extra
    // broadcast functions ... duplicate accumulated results in multiple
    // banks").
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    RouteRequest req;
    req.group_of_input = {0, 0, 0, 0, 1, 1, 1, 1};
    req.dests_of_group = {{0, 4}, {2, 6}};
    req.allow_broadcast = true;
    EXPECT_TRUE(routeOk(router, topo, req));
}

TEST(Router, BroadcastSingleInputToAllOutputs)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    RouteRequest req;
    req.group_of_input.assign(8, -1);
    req.group_of_input[3] = 0;
    req.dests_of_group = {{0, 1, 2, 3, 4, 5, 6, 7}};
    req.allow_broadcast = true;
    EXPECT_TRUE(routeOk(router, topo, req));
}

class RouterPermutationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterPermutationSweep, RandomPermutationsRoute)
{
    // Property: BIRRD is rearrangeably non-blocking — every permutation of
    // live inputs to outputs must route (arbitrary reorder, Fig. 5e). The
    // incremental path search certifies this exhaustively up to 16 inputs;
    // at 32 adversarial random permutations would need the constructive
    // looping construction (see router.hpp), so the 32-input sweep runs in
    // the structured-pattern test below instead.
    const int n = GetParam();
    const BirrdTopology topo(n);
    BirrdRouter router(topo, /*seed=*/n);
    Rng rng(uint64_t(1000 + n));

    const int trials = n <= 8 ? 60 : 25;
    for (int t = 0; t < trials; ++t) {
        std::vector<int> dest(static_cast<size_t>(n));
        std::iota(dest.begin(), dest.end(), 0);
        for (int i = n - 1; i > 0; --i) {
            std::swap(dest[size_t(i)], dest[rng.below(uint64_t(i + 1))]);
        }
        EXPECT_TRUE(routeOk(router, topo, RouteRequest::permutation(dest)))
            << "n=" << n << " trial " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouterPermutationSweep,
                         ::testing::Values(4, 8, 16));

class RouterStructuredSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterStructuredSweep, LayoutSwitchPatternsRoute)
{
    // The pattern family FEATHER's controller actually emits when
    // co-switching layouts: uniform reduction groups with rotated, strided
    // and xor-permuted destination banks (RIR bank retargeting), plus
    // xor-mask pure permutations (tile-granularity layout changes).
    const int n = GetParam();
    const BirrdTopology topo(n);
    BirrdRouter router(topo, /*seed=*/13 * n);

    for (int g = 1; g <= n; g *= 2) {
        const int num_groups = n / g;
        std::vector<int> groups(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) groups[size_t(i)] = i / g;
        for (int rot = 0; rot < num_groups; ++rot) {
            std::vector<int> dests(static_cast<size_t>(num_groups));
            for (int j = 0; j < num_groups; ++j) {
                dests[size_t(j)] = (j + rot) % num_groups;
            }
            EXPECT_TRUE(routeOk(router, topo,
                                RouteRequest::reduction(groups, dests)))
                << "n=" << n << " g=" << g << " rot=" << rot;
        }
    }
    for (int xv = 0; xv < n; ++xv) {
        std::vector<int> dest(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) dest[size_t(i)] = i ^ xv;
        EXPECT_TRUE(routeOk(router, topo, RouteRequest::permutation(dest)))
            << "n=" << n << " xor=" << xv;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouterStructuredSweep,
                         ::testing::Values(8, 16, 32, 64));

class RouterReductionSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterReductionSweep, RandomGroupingsRoute)
{
    // Property: arbitrary contiguous-run groupings with arbitrary output
    // assignment route and reduce to exact sums.
    const int n = GetParam();
    const BirrdTopology topo(n);
    BirrdRouter router(topo, /*seed=*/7 * n);
    Rng rng(uint64_t(2000 + n));

    const int trials = n <= 8 ? 40 : 15;
    for (int t = 0; t < trials; ++t) {
        // Random group count between 1 and n, random contiguous splits.
        const int num_groups = 1 + int(rng.below(uint64_t(n)));
        std::vector<int> groups(static_cast<size_t>(n));
        // Random split points.
        std::vector<int> cuts = {0, n};
        while (int(cuts.size()) < num_groups + 1) {
            cuts.push_back(1 + int(rng.below(uint64_t(n - 1))));
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        const int actual_groups = int(cuts.size()) - 1;
        for (int g = 0; g < actual_groups; ++g) {
            for (int i = cuts[size_t(g)]; i < cuts[size_t(g) + 1]; ++i) {
                groups[size_t(i)] = g;
            }
        }
        // Random distinct destinations.
        std::vector<int> dest(static_cast<size_t>(n));
        std::iota(dest.begin(), dest.end(), 0);
        for (int i = n - 1; i > 0; --i) {
            std::swap(dest[size_t(i)], dest[rng.below(uint64_t(i + 1))]);
        }
        dest.resize(size_t(actual_groups));
        EXPECT_TRUE(routeOk(router, topo,
                            RouteRequest::reduction(groups, dest)))
            << "n=" << n << " trial " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouterReductionSweep,
                         ::testing::Values(4, 8, 16));

TEST(Router, StatsAccounting)
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    std::vector<int> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    ASSERT_TRUE(routeOk(router, topo, RouteRequest::permutation(dest)));
    EXPECT_EQ(router.stats().requests, 1);
    EXPECT_GT(router.stats().nodes_explored, 0);
    EXPECT_EQ(router.stats().failures, 0);
}

} // namespace
} // namespace feather
