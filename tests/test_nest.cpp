/**
 * @file
 * Unit tests for the NEST array and mapping machinery (§III-A).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "nest/nest_array.hpp"
#include "nest/nest_mapping.hpp"

// NestArray.TileHoldsTheRunsLocalDepth: operator new adds the bytes asked
// for on a thread while that thread counts. Every scalar new and delete is
// replaced, so all of them pair malloc with free; all are out of line, so
// the compiler does not pair an inlined malloc with an operator delete.
namespace {
thread_local bool t_count_allocs = false;
thread_local int64_t t_alloc_bytes = 0;
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    if (t_count_allocs) t_alloc_bytes += int64_t(bytes);
    return std::malloc(bytes ? bytes : 1);
}

[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    if (void *p = operator new(bytes, std::nothrow)) return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace feather {
namespace {

LayerSpec
convLayer(int64_t c, int64_t hw, int64_t m, int64_t rs, int64_t stride = 1)
{
    LayerSpec l;
    l.type = OpType::Conv;
    l.conv = ConvShape{1, c, hw, hw, m, rs, rs, stride, (rs - 1) / 2, false};
    return l;
}

TEST(NestMapping, DegreesAndT1)
{
    NestMapping m;
    m.cols = {{Dim::C, 2}, {Dim::M, 2}};
    m.rows = {{Dim::M, 4}};
    m.local = {{Dim::R, 2}, {Dim::S, 2}};
    EXPECT_EQ(m.colsUsed(), 4);
    EXPECT_EQ(m.rowsUsed(), 4);
    EXPECT_EQ(m.t1(), 4);
}

TEST(NestMapping, ValidateAcceptsFig9Style)
{
    // Fig. 9: 4x4 NEST, 2 input channels x 2 kernels across columns, 4
    // kernels across rows, 2x2 weights local.
    NestMapping m;
    m.cols = {{Dim::C, 2}, {Dim::M, 2}};
    m.rows = {{Dim::M, 4}};
    m.local = {{Dim::R, 2}, {Dim::S, 2}};
    EXPECT_EQ(m.validate(convLayer(2, 4, 16, 2), 4, 4), "");
}

TEST(NestMapping, ValidateRejectsOversizedCols)
{
    NestMapping m;
    m.cols = {{Dim::C, 8}};
    m.rows = {{Dim::M, 4}};
    m.local = {{Dim::R, 3}};
    EXPECT_NE(m.validate(convLayer(8, 4, 4, 3), 4, 4), "");
}

TEST(NestMapping, ValidateRejectsDimRepeatInGroup)
{
    NestMapping m;
    m.cols = {{Dim::C, 2}, {Dim::C, 2}};
    EXPECT_NE(m.validate(convLayer(8, 4, 4, 3), 4, 4), "");
}

TEST(NestMapping, ValidateRejectsKInConv)
{
    NestMapping m;
    m.cols = {{Dim::K, 4}};
    EXPECT_NE(m.validate(convLayer(8, 4, 4, 3), 4, 4), "");
}

TEST(NestMapping, ValidateRejectsMInDepthwise)
{
    LayerSpec dw;
    dw.type = OpType::DepthwiseConv;
    dw.conv = ConvShape{1, 8, 8, 8, 8, 3, 3, 1, 1, true};
    NestMapping m;
    m.cols = {{Dim::M, 4}};
    EXPECT_NE(m.validate(dw, 4, 4), "");
}

TEST(NestMapping, CanonicalFitsArray)
{
    for (int aw : {4, 8, 16}) {
        for (const auto &layer :
             {convLayer(3, 224, 64, 7, 2), convLayer(64, 56, 64, 1),
              convLayer(512, 7, 2048, 1), convLayer(256, 14, 256, 3)}) {
            const NestMapping m = NestMapping::canonical(layer, aw, aw);
            EXPECT_EQ(m.validate(layer, aw, aw), "")
                << layer.toString() << " on " << aw << "x" << aw << ": "
                << m.toString();
        }
    }
}

TEST(NestMapping, CanonicalGemm)
{
    LayerSpec l;
    l.type = OpType::Gemm;
    l.gemm = GemmShape{512, 768, 768};
    const NestMapping m = NestMapping::canonical(l, 16, 16);
    EXPECT_EQ(m.validate(l, 16, 16), "");
    EXPECT_GE(m.t1(), 16); // Phase 1 covers the bus multiplexing depth
}

TEST(NestMapping, CanonicalDepthwise)
{
    LayerSpec dw;
    dw.type = OpType::DepthwiseConv;
    dw.conv = ConvShape{1, 64, 28, 28, 64, 3, 3, 1, 1, true};
    const NestMapping m = NestMapping::canonical(dw, 8, 8);
    EXPECT_EQ(m.validate(dw, 8, 8), "");
}

TEST(NestArray, WeightPingPong)
{
    NestArray nest(2, 2, 4);
    nest.setLocal(1);
    // PE (0, 0)'s weight, seen through a unit iAct.
    const int16_t unit = 1;
    const auto weight = [&] { return nest.dot(0, 0, &unit); };
    nest.loadWeight(0, 0, 0, 7);
    // Shadow bank: not visible until swap.
    EXPECT_EQ(weight(), 0);
    nest.swapWeightBanks();
    EXPECT_EQ(weight(), 7);
    // Load the next tile while the first is active.
    nest.loadWeight(0, 0, 0, 9);
    EXPECT_EQ(weight(), 7);
    nest.swapWeightBanks();
    EXPECT_EQ(weight(), 9);
}

TEST(NestArray, ComputeRowEmission)
{
    NestArray nest(4, 2, 4);
    nest.setLocal(2);
    // PE (0, c) holds weights [c+1, 2]; row 1 stays zero.
    for (int c = 0; c < 4; ++c) {
        nest.loadWeight(0, c, 0, int16_t(c + 1));
        nest.loadWeight(0, c, 1, 2);
    }
    nest.swapWeightBanks();

    const int16_t stream[] = {10, 1};
    for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(nest.dot(0, c, stream), 10 * (c + 1) + 1 * 2) << c;
        EXPECT_EQ(nest.dot(1, c, stream), 0) << c;
    }
}

TEST(NestArray, NegativeValues)
{
    NestArray nest(2, 1, 2);
    nest.setLocal(1);
    nest.loadWeight(0, 0, 0, -5);
    nest.loadWeight(0, 1, 0, 3);
    nest.swapWeightBanks();
    const int16_t iact = -4;
    EXPECT_EQ(nest.dot(0, 0, &iact), 20);
    EXPECT_EQ(nest.dot(0, 1, &iact), -12);
}

// The int32 kernel is exact at the register file's full depth: with every
// operand at the extreme -255 (and with random extreme signs) it equals
// an int64 sum of the same products.
TEST(NestArray, Int32DotIsExactAtFullDepth)
{
    const int max_local = 512;
    NestArray nest(2, 1, max_local);
    nest.setLocal(max_local);
    std::vector<int16_t> iacts(static_cast<size_t>(max_local), -255);
    std::vector<int16_t> mixed(static_cast<size_t>(max_local));
    int64_t want_mixed = 0;
    for (int l = 0; l < max_local; ++l) {
        nest.loadWeight(0, 0, l, -255);
        // Column 1 and its stream: signs from a fixed bit pattern.
        const int16_t w = (l * 7) % 3 == 0 ? 255 : -255;
        const int16_t x = (l * 5) % 4 == 1 ? 255 : -255;
        nest.loadWeight(0, 1, l, w);
        mixed[size_t(l)] = x;
        want_mixed += int64_t(w) * int64_t(x);
    }
    nest.swapWeightBanks();
    int64_t want = 0;
    for (int l = 0; l < max_local; ++l) want += int64_t(-255) * -255;
    EXPECT_EQ(int64_t(nest.dot(0, 0, iacts.data())), want);
    EXPECT_EQ(int64_t(nest.dot(0, 1, mixed.data())), want_mixed);
}

// The weight tile is sized by the run's local depth, not by the register
// file: a 64 x 4096 array at t1 = 9 allocates 2 x 64 x 4096 x 9 weights
// (both banks), where a max_local-sized file would take 512 per PE.
TEST(NestArray, TileHoldsTheRunsLocalDepth)
{
    t_alloc_bytes = 0;
    t_count_allocs = true;
    {
        NestArray nest(64, 4096, 512);
        nest.setLocal(9);
    }
    t_count_allocs = false;
    EXPECT_EQ(t_alloc_bytes, int64_t(2 * 64 * 4096 * 9 * sizeof(int16_t)));
}

} // namespace
} // namespace feather
