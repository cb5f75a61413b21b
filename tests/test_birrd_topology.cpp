/**
 * @file
 * Unit tests for the BIRRD topology (Algorithm 1) and Egg switch semantics.
 */

#include <gtest/gtest.h>

#include "noc/birrd.hpp"
#include "noc/topology.hpp"

namespace feather {
namespace {

TEST(Topology, StageCounts)
{
    EXPECT_EQ(BirrdTopology(2).numStages(), 1);
    // Paper footnote 1: 4-input BIRRD has 2*log2(4)-1 = 3 stages.
    EXPECT_EQ(BirrdTopology(4).numStages(), 3);
    EXPECT_EQ(BirrdTopology(8).numStages(), 6);
    EXPECT_EQ(BirrdTopology(16).numStages(), 8);
    EXPECT_EQ(BirrdTopology(32).numStages(), 10);
}

// The closed form callers use when they need only the depth.
TEST(Topology, StagesForMatchesTheBuiltNetwork)
{
    for (int aw = 2; aw <= 64; aw *= 2) {
        EXPECT_EQ(BirrdTopology::stagesFor(aw), BirrdTopology(aw).numStages())
            << "AW=" << aw;
    }
    EXPECT_DEATH(BirrdTopology::stagesFor(6), "power of two");
    EXPECT_DEATH(BirrdTopology::stagesFor(1), "power of two");
    EXPECT_DEATH(BirrdTopology::stagesFor(128), "up to 64 inputs");
    EXPECT_DEATH(BirrdTopology(12), "power of two");
}

TEST(Topology, SwitchCounts)
{
    const BirrdTopology t(16);
    EXPECT_EQ(t.switchesPerStage(), 8);
    EXPECT_EQ(t.totalSwitches(), 8 * 8);
    EXPECT_EQ(t.configBits(), 2 * 64);
}

TEST(Topology, BitRangesFollowAlgorithm1)
{
    // AW=8: min(3, 2+i, 6-i) for i in [0,6) -> 2,3,3,3,2,1.
    const BirrdTopology t(8);
    const int expected[] = {2, 3, 3, 3, 2, 1};
    for (int s = 0; s < 6; ++s) {
        EXPECT_EQ(t.bitRange(s), expected[s]) << "stage " << s;
    }
}

TEST(Topology, WiresArePermutations)
{
    for (int n : {2, 4, 8, 16, 32, 64}) {
        const BirrdTopology t(n);
        for (int s = 0; s < t.numStages(); ++s) {
            std::vector<bool> seen(size_t(n), false);
            for (int p = 0; p < n; ++p) {
                const int w = t.wire(s, p);
                ASSERT_GE(w, 0);
                ASSERT_LT(w, n);
                EXPECT_FALSE(seen[size_t(w)])
                    << "n=" << n << " stage " << s << " duplicate wire";
                seen[size_t(w)] = true;
            }
        }
    }
}

TEST(Topology, LastStageWiringIsIdentity)
{
    // bit range 1 reverses a single bit: the identity. Outputs land on the
    // output buffers in order.
    for (int n : {4, 8, 16, 32}) {
        const BirrdTopology t(n);
        const int last = t.numStages() - 1;
        for (int p = 0; p < n; ++p) {
            EXPECT_EQ(t.wire(last, p), p);
        }
    }
}

TEST(Topology, FullReachabilityFromEveryInput)
{
    for (int n : {2, 4, 8, 16, 32}) {
        const BirrdTopology t(n);
        const uint64_t all = (n == 64) ? ~uint64_t{0}
                                       : (uint64_t{1} << n) - 1;
        for (int p = 0; p < n; ++p) {
            EXPECT_EQ(t.reachable(0, p), all) << "n=" << n;
        }
    }
}

TEST(Topology, ReachabilityShrinksTowardOutputs)
{
    const BirrdTopology t(16);
    // At the final boundary each port reaches only itself.
    for (int p = 0; p < 16; ++p) {
        EXPECT_EQ(t.reachable(t.numStages(), p), uint64_t{1} << p);
    }
    // Reachable set sizes never grow as we move deeper.
    for (int p = 0; p < 16; ++p) {
        int prev = 64;
        for (int s = 0; s <= t.numStages(); ++s) {
            const int bits = __builtin_popcountll(t.reachable(s, p));
            EXPECT_LE(bits, prev);
            prev = bits;
        }
    }
}

TEST(Egg, PassSwap)
{
    const auto [l1, r1] = evalEgg(EggConfig::Pass, 3, 5);
    EXPECT_EQ(*l1, 3);
    EXPECT_EQ(*r1, 5);
    const auto [l2, r2] = evalEgg(EggConfig::Swap, 3, 5);
    EXPECT_EQ(*l2, 5);
    EXPECT_EQ(*r2, 3);
}

TEST(Egg, AddModes)
{
    const auto [l1, r1] = evalEgg(EggConfig::AddLeft, 3, 5);
    EXPECT_EQ(*l1, 8);
    EXPECT_FALSE(r1.has_value());
    const auto [l2, r2] = evalEgg(EggConfig::AddRight, 3, 5);
    EXPECT_FALSE(l2.has_value());
    EXPECT_EQ(*r2, 8);
    const auto [l3, r3] = evalEgg(EggConfig::AddBoth, 3, 5);
    EXPECT_EQ(*l3, 8);
    EXPECT_EQ(*r3, 8);
}

TEST(Egg, AddWithOneInput)
{
    const auto [l, r] = evalEgg(EggConfig::AddLeft, std::nullopt, 5);
    EXPECT_EQ(*l, 5);
    EXPECT_FALSE(r.has_value());
    const auto [l2, r2] =
        evalEgg(EggConfig::AddRight, std::nullopt, std::nullopt);
    EXPECT_FALSE(l2.has_value());
    EXPECT_FALSE(r2.has_value());
}

TEST(Egg, DupModes)
{
    const auto [l, r] = evalEgg(EggConfig::DupLeft, 7, std::nullopt);
    EXPECT_EQ(*l, 7);
    EXPECT_EQ(*r, 7);
    const auto [l2, r2] = evalEgg(EggConfig::DupRight, std::nullopt, 9);
    EXPECT_EQ(*l2, 9);
    EXPECT_EQ(*r2, 9);
}

TEST(Network, PassThroughIsButterflyPermutation)
{
    // With all-Pass switches the network applies the composition of the
    // inter-stage wirings; pushing distinct values through must yield a
    // permutation of them.
    for (int n : {4, 8, 16}) {
        BirrdNetwork net(n);
        std::vector<PortValue> in(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) in[size_t(i)] = 100 + i;
        const auto out =
            net.evaluate(passThroughConfig(net.topology()), in);
        std::vector<bool> seen(size_t(n), false);
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(out[size_t(i)].has_value());
            const int v = int(*out[size_t(i)]) - 100;
            ASSERT_GE(v, 0);
            ASSERT_LT(v, n);
            EXPECT_FALSE(seen[size_t(v)]);
            seen[size_t(v)] = true;
        }
    }
}

TEST(Network, LatencyEqualsStages)
{
    EXPECT_EQ(BirrdNetwork(16).latency(), 8);
    EXPECT_EQ(BirrdNetwork(4).latency(), 3);
}

TEST(Network, ActiveSwitchCount)
{
    BirrdNetwork net(8);
    std::vector<PortValue> in(8);
    const auto cfg = passThroughConfig(net.topology());
    EXPECT_EQ(net.activeSwitches(cfg, in), 0);
    in[0] = 1;
    // A single live value traverses one switch per stage.
    EXPECT_EQ(net.activeSwitches(cfg, in), net.topology().numStages());
}

} // namespace
} // namespace feather
