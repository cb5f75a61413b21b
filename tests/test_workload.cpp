/**
 * @file
 * Unit tests for src/workload: shape math and the model zoos.
 */

#include <gtest/gtest.h>

#include "workload/model_zoo.hpp"
#include "workload/shapes.hpp"

namespace feather {
namespace {

TEST(Dims, NamesRoundTrip)
{
    for (int i = 0; i < kNumDims; ++i) {
        const Dim d = Dim(i);
        EXPECT_EQ(parseDim(dimName(d)), d);
    }
}

TEST(ConvShape, ResNetConv1)
{
    const ConvShape c{1, 3, 224, 224, 64, 7, 7, 2, 3, false};
    EXPECT_EQ(c.outH(), 112);
    EXPECT_EQ(c.outW(), 112);
    EXPECT_EQ(c.macs(), int64_t{1} * 64 * 3 * 112 * 112 * 7 * 7);
    EXPECT_EQ(c.iactElems(), 3 * 224 * 224);
    EXPECT_EQ(c.weightElems(), 64 * 3 * 7 * 7);
    EXPECT_EQ(c.oactElems(), 64 * 112 * 112);
}

TEST(ConvShape, ExtentLookup)
{
    const ConvShape c{1, 8, 16, 16, 32, 3, 3, 1, 1, false};
    EXPECT_EQ(c.extent(Dim::C), 8);
    EXPECT_EQ(c.extent(Dim::M), 32);
    EXPECT_EQ(c.extent(Dim::P), 16);
    EXPECT_EQ(c.extent(Dim::Q), 16);
    EXPECT_EQ(c.extent(Dim::K), 8 * 3 * 3);
}

TEST(ConvShape, DepthwiseMacs)
{
    const ConvShape c{1, 32, 8, 8, 32, 3, 3, 1, 1, true};
    EXPECT_EQ(c.macs(), int64_t{32} * 8 * 8 * 3 * 3);
    EXPECT_EQ(c.weightElems(), 32 * 3 * 3);
}

TEST(GemmShape, Basics)
{
    const GemmShape g{512, 768, 3072};
    EXPECT_EQ(g.macs(), int64_t{512} * 768 * 3072);
    EXPECT_EQ(g.extent(Dim::M), 512);
    EXPECT_EQ(g.extent(Dim::N), 768);
    EXPECT_EQ(g.extent(Dim::K), 3072);
}

TEST(ModelZoo, ResNet50HasExpectedLayers)
{
    const auto model = resnet50();
    // 53 convolutions + maxpool + avgpool + fc.
    int convs = 0, pools = 0, gemms = 0;
    for (const auto &l : model) {
        if (l.type == OpType::Conv) ++convs;
        if (l.type == OpType::MaxPool || l.type == OpType::AvgPool) ++pools;
        if (l.type == OpType::Gemm) ++gemms;
    }
    EXPECT_EQ(convs, 53);
    EXPECT_EQ(pools, 2);
    EXPECT_EQ(gemms, 1);

    // First layer is the 7x7 stem.
    EXPECT_EQ(model[0].conv.c, 3);
    EXPECT_EQ(model[0].conv.m, 64);
    EXPECT_EQ(model[0].conv.r, 7);
    EXPECT_EQ(model[0].conv.stride, 2);
}

TEST(ModelZoo, ResNet50MacCount)
{
    // ResNet-50 at 224x224 is ~4.1 GMACs; accept the conv-indexing
    // variance across published counts (3.8e9 .. 4.3e9).
    const int64_t macs = totalMacs(resnet50());
    EXPECT_GT(macs, int64_t{3'500'000'000});
    EXPECT_LT(macs, int64_t{4'500'000'000});
}

TEST(ModelZoo, ResNet50DeepLayerShapes)
{
    const auto convs = macLayers(resnet50());
    // The last stage works on 7x7 maps with up to 2048 channels.
    bool saw_2048 = false;
    for (const auto &l : convs) {
        if (l.type != OpType::Conv) continue;
        if (l.conv.c == 2048) {
            saw_2048 = true;
            EXPECT_EQ(l.conv.h, 7);
        }
    }
    EXPECT_TRUE(saw_2048);
}

TEST(ModelZoo, MobileNetV3Structure)
{
    const auto model = mobilenetV3Large();
    int dws = 0;
    for (const auto &l : model) {
        if (l.type == OpType::DepthwiseConv) {
            ++dws;
            EXPECT_TRUE(l.conv.depthwise);
        }
    }
    EXPECT_EQ(dws, 15); // one depthwise per bneck
    // MobileNet-V3-Large is ~0.22 GMACs.
    const int64_t macs = totalMacs(model);
    EXPECT_GT(macs, int64_t{150'000'000});
    EXPECT_LT(macs, int64_t{300'000'000});
}

TEST(ModelZoo, BertBaseGemms)
{
    const auto model = bertBase(512);
    EXPECT_EQ(model.size(), 6u);
    for (const auto &l : model) {
        EXPECT_EQ(l.type, OpType::Gemm);
    }
    // BERT-base forward at seq 512 is ~43.5 GMACs (without embeddings);
    // attention matmuls included.
    const int64_t macs = totalMacs(model);
    EXPECT_GT(macs, int64_t{30'000'000'000});
    EXPECT_LT(macs, int64_t{60'000'000'000});
}

TEST(ModelZoo, MacLayersFiltersPooling)
{
    const auto model = resnet50();
    const auto macs = macLayers(model);
    for (const auto &l : macs) {
        EXPECT_NE(l.type, OpType::MaxPool);
        EXPECT_NE(l.type, OpType::AvgPool);
    }
}

TEST(LayerSpec, ToStringContainsName)
{
    const auto model = resnet50();
    EXPECT_NE(model[0].toString().find("conv1"), std::string::npos);
}

} // namespace
} // namespace feather
