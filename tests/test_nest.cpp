/**
 * @file
 * Unit tests for the NEST array and mapping machinery (§III-A).
 */

#include <gtest/gtest.h>

#include "nest/nest_array.hpp"
#include "nest/nest_mapping.hpp"

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

/** One emission of @p row: @p iacts holds each column's @p t1-long
 *  stream back to back, @p active one byte per column. */
std::vector<PortValue>
emit(NestArray &nest, int row, const std::vector<int16_t> &iacts,
     int64_t t1, const std::vector<uint8_t> &active)
{
    std::vector<PortValue> em(active.size());
    nest.computeRowEmission(row, iacts.data(), t1, active.data(), em.data());
    return em;
}

TEST(NestArray, WeightPingPong)
{
    NestArray nest(2, 2, 4);
    // PE (0, 0)'s weight, seen through a unit iAct on column 0.
    const auto weight = [&nest] {
        return *emit(nest, 0, {1, 0}, 1, {1, 0})[0];
    };
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
    // PE (0, c) holds weights [c+1, 2].
    for (int c = 0; c < 4; ++c) {
        nest.loadWeight(0, c, 0, int16_t(c + 1));
        nest.loadWeight(0, c, 1, 2);
    }
    nest.swapWeightBanks();

    const auto em =
        emit(nest, 0, {10, 1, 10, 1, 10, 1, 10, 1}, 2, {1, 1, 0, 1});
    EXPECT_EQ(*em[0], 10 * 1 + 1 * 2);
    EXPECT_EQ(*em[1], 10 * 2 + 2);
    EXPECT_FALSE(em[2].has_value());
    EXPECT_EQ(*em[3], 10 * 4 + 2);
}

TEST(NestArray, NegativeValues)
{
    NestArray nest(2, 1, 2);
    nest.loadWeight(0, 0, 0, -5);
    nest.loadWeight(0, 1, 0, 3);
    nest.swapWeightBanks();
    const auto em = emit(nest, 0, {-4, -4}, 1, {1, 1});
    EXPECT_EQ(*em[0], 20);
    EXPECT_EQ(*em[1], -12);
}

} // namespace
} // namespace feather
