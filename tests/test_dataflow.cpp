/**
 * @file
 * Unit tests for src/dataflow: mapping math, access-set generation, and the
 * bank-conflict slowdowns of the Fig. 4 walkthrough (M1–M8).
 */

#include <gtest/gtest.h>

#include "buffer/spec.hpp"
#include "dataflow/access_pattern.hpp"
#include "dataflow/mapping.hpp"

namespace feather {
namespace {

LayerSpec
resnetLayer1()
{
    LayerSpec l;
    l.name = "resnet50_l1";
    l.type = OpType::Conv;
    l.conv = ConvShape{1, 3, 224, 224, 64, 7, 7, 2, 3, false};
    return l;
}

LayerSpec
resnetLayer47()
{
    // Fig. 4 workload 2: C=2048, H=W=7, R=S=3, stride 1, pad 1.
    LayerSpec l;
    l.name = "resnet50_l47";
    l.type = OpType::Conv;
    l.conv = ConvShape{1, 2048, 7, 7, 512, 3, 3, 1, 1, false};
    return l;
}

BufferSpec
singleBankBuffer(int64_t lines, int64_t line_size)
{
    BufferSpec s;
    s.num_lines = lines;
    s.line_size = line_size;
    s.lines_per_bank = lines; // everything in one bank: worst case
    s.read_ports = 2;
    return s;
}

/**
 * Mean read cycles over the sampled cycles of (mapping, layout) on @p layer:
 * 1.0 is concordant (§II-C), more means bank conflicts (discordant).
 */
double
averageReadSlowdown(const LayerSpec &layer, const Mapping &mapping,
                    const BoundLayout &bl, const BufferSpec &buf,
                    int max_samples)
{
    double total = 0.0;
    int counted = 0;
    for (const Coord &base :
         sampleTemporalBases(layer, mapping, max_samples)) {
        const auto coords =
            concurrentIactCoords(layer, mapping.spatial(), base);
        if (coords.empty()) continue;
        total += double(
            conflictCycles(buf, linesTouched(bl, coords), buf.read_ports));
        ++counted;
    }
    return counted ? total / double(counted) : 1.0;
}

TEST(Mapping, TotalDegreeAndOccupancy)
{
    const std::vector<ParallelDim> par = {{Dim::M, 4}, {Dim::C, 4}};
    EXPECT_EQ(totalDegree(par), 16);

    Extents ext;
    ext[Dim::M] = 8;
    ext[Dim::C] = 6; // 6/(4*2) = 0.75 occupancy on C
    EXPECT_DOUBLE_EQ(spatialOccupancy(par, ext), 0.75);

    ext[Dim::M] = 3; // 3/4 on M
    EXPECT_DOUBLE_EQ(spatialOccupancy(par, ext), 0.75 * 0.75);
}

TEST(Mapping, ConvExtentsIncludeDerived)
{
    const Extents e = convExtents(resnetLayer1().conv);
    EXPECT_EQ(e[Dim::P], 112);
    EXPECT_EQ(e[Dim::Q], 112);
    EXPECT_EQ(e[Dim::H], 224);
}

TEST(LoopNest, OdometerCountsAllPoints)
{
    LoopNest nest({{Dim::M, 3}, {Dim::C, 4}, {Dim::Q, 5}});
    EXPECT_EQ(nest.totalIters(), 60);
    Coord c;
    int visited = 1;
    while (nest.advance(c)) ++visited;
    EXPECT_EQ(visited, 60);
    // After exhaustion the coordinate wraps to zero.
    EXPECT_EQ(c[Dim::M], 0);
    EXPECT_EQ(c[Dim::C], 0);
    EXPECT_EQ(c[Dim::Q], 0);
}

TEST(AccessSet, ChannelParallelReadsFourChannels)
{
    // Fig. 4 D1 on layer 47: C-parallel degree 4 -> {H0 W0 C0:3}.
    const LayerSpec layer = resnetLayer47();
    const std::vector<ParallelDim> spatial = {{Dim::C, 4}, {Dim::M, 4}};
    Coord base;
    // Start at p=1,q=1 so the 3x3 window center is in-bounds at r=s=1...
    base[Dim::P] = 1;
    base[Dim::Q] = 1;
    base[Dim::R] = 1;
    base[Dim::S] = 1;
    const auto coords = concurrentIactCoords(layer, spatial, base);
    // M-parallel broadcasts the same iActs: only C varies -> 4 coords.
    ASSERT_EQ(coords.size(), 4u);
    for (const auto &c : coords) {
        EXPECT_EQ(c[Dim::H], 1 * 1 + 1 - 1); // p*stride + r - pad
        EXPECT_EQ(c[Dim::W], 1);
    }
}

TEST(AccessSet, PaddingDropsOutOfBounds)
{
    const LayerSpec layer = resnetLayer47();
    const std::vector<ParallelDim> spatial = {{Dim::C, 4}};
    Coord base; // p=q=r=s=0 -> h=w=-1: padded
    const auto coords = concurrentIactCoords(layer, spatial, base);
    EXPECT_TRUE(coords.empty());
}

TEST(AccessSet, GemmKParallel)
{
    LayerSpec l;
    l.type = OpType::Gemm;
    l.gemm = GemmShape{8, 8, 64};
    const std::vector<ParallelDim> spatial = {{Dim::K, 4}, {Dim::N, 4}};
    Coord base;
    const auto coords = concurrentIactCoords(l, spatial, base);
    // N-parallel broadcasts A: 4 distinct (m,k) coords.
    ASSERT_EQ(coords.size(), 4u);
}

TEST(Fig4, M7ChannelParallelOnRowMajorHalvesUtilization)
{
    // Fig. 4-M7: D1 (C-parallel 4) under row-major HCW_W8 accesses 4 lines
    // per cycle in the same bank -> 0.5 slowdown (2 cycles per access).
    const LayerSpec layer = resnetLayer47();
    Mapping m;
    m.cols = {{Dim::C, 4}};
    m.rows = {{Dim::M, 4}};
    const BoundLayout bl(Layout::parse("HCW_W8"),
                         iactExtents(layer));
    const double slow = averageReadSlowdown(
        layer, m, bl, singleBankBuffer(bl.numLines(), bl.lineSize()), 32);
    EXPECT_NEAR(slow, 2.0, 0.05);
}

TEST(Fig4, M5ChannelParallelOnChannelLastIsConcordant)
{
    // Fig. 4-M5 (FEATHER's pick): D1 under channel-last reads one line per
    // cycle -> no slowdown.
    const LayerSpec layer = resnetLayer47();
    Mapping m;
    m.cols = {{Dim::C, 4}};
    m.rows = {{Dim::M, 4}};
    const BoundLayout bl(Layout::parse("HWC_C8"), iactExtents(layer));
    const double slow = averageReadSlowdown(
        layer, m, bl, singleBankBuffer(bl.numLines(), bl.lineSize()), 32);
    EXPECT_DOUBLE_EQ(slow, 1.0);
}

TEST(Fig4, M8SlidingWindowOnRowMajorIsConcordant)
{
    // Fig. 4-M8: D2 (W-parallel) on row-major reads 1-2 lines/cycle: fine.
    const LayerSpec layer = resnetLayer47();
    Mapping m;
    m.cols = {{Dim::Q, 4}};
    m.rows = {{Dim::M, 4}};
    const BoundLayout bl(Layout::parse("HCW_W8"), iactExtents(layer));
    const double slow = averageReadSlowdown(
        layer, m, bl, singleBankBuffer(bl.numLines(), bl.lineSize()), 32);
    EXPECT_DOUBLE_EQ(slow, 1.0);
}

TEST(Fig4, M6SlidingWindowOnChannelLastConflicts)
{
    // Fig. 4-M6: D2 (W-parallel 4) under channel-last: each w lands in a
    // different line -> 4 lines/cycle -> 0.5 slowdown.
    const LayerSpec layer = resnetLayer47();
    Mapping m;
    m.cols = {{Dim::Q, 4}};
    m.rows = {{Dim::M, 4}};
    const BoundLayout bl(Layout::parse("HWC_C8"), iactExtents(layer));
    const double slow = averageReadSlowdown(
        layer, m, bl, singleBankBuffer(bl.numLines(), bl.lineSize()), 32);
    // Interior cycles conflict at 2x; boundary cycles (partial windows at
    // the feature-map edge) access fewer lines, so the average sits just
    // below the steady-state 2.0 of the paper's table.
    EXPECT_GT(slow, 1.5);
    EXPECT_LE(slow, 2.0);
}

TEST(SampleBases, CoversTemporalSteps)
{
    const LayerSpec layer = resnetLayer47();
    Mapping m;
    m.cols = {{Dim::C, 4}};
    m.temporal_order = {Dim::Q, Dim::P};
    const auto bases = sampleTemporalBases(layer, m, 8);
    EXPECT_EQ(bases.size(), 8u);
    // Innermost temporal dim (P) advances first.
    EXPECT_EQ(bases[1][Dim::P], 1);
    EXPECT_EQ(bases[1][Dim::Q], 0);
}

} // namespace
} // namespace feather
