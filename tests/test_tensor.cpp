/**
 * @file
 * Unit tests for src/tensor: tensor indexing, quantization semantics, and
 * the golden reference operators.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "tensor/quant.hpp"
#include "tensor/reference_ops.hpp"
#include "tensor/tensor.hpp"

namespace feather {
namespace {

TEST(Tensor, ShapeAndIndexing)
{
    Int32Tensor t({2, 3, 4, 5});
    EXPECT_EQ(t.numel(), 120);
    EXPECT_EQ(t.rank(), 4u);
    t.at4(1, 2, 3, 4) = 42;
    EXPECT_EQ(t.at({1, 2, 3, 4}), 42);
    EXPECT_EQ(t.offset({0, 0, 0, 1}), 1);
    EXPECT_EQ(t.offset({0, 0, 1, 0}), 5);
    EXPECT_EQ(t.offset({1, 0, 0, 0}), 60);
}

TEST(Tensor, At2)
{
    Int8Tensor t({3, 4});
    t.at2(2, 1) = 7;
    EXPECT_EQ(t.at({2, 1}), 7);
}

TEST(Tensor, EqualityAndRandomize)
{
    Rng rng(3);
    Int8Tensor a({4, 4});
    a.randomize(rng, -128, 127);
    Int8Tensor b = a;
    EXPECT_EQ(a, b);
    b.at2(0, 0) = int8_t(b.at2(0, 0) + 1);
    EXPECT_FALSE(a == b);
}

TEST(Quant, ClampToInt8)
{
    EXPECT_EQ(clampToInt8(-129), -128);
    EXPECT_EQ(clampToInt8(-128), -128);
    EXPECT_EQ(clampToInt8(127), 127);
    EXPECT_EQ(clampToInt8(128), 127);
    EXPECT_EQ(clampToInt8(0), 0);
}

TEST(Quant, RequantizeRoundsHalfAwayFromZero)
{
    EXPECT_EQ(requantize(5, 0.1f, 0), 1);   // 0.5 -> 1
    EXPECT_EQ(requantize(-5, 0.1f, 0), -1); // -0.5 -> -1
    EXPECT_EQ(requantize(4, 0.1f, 0), 0);   // 0.4 -> 0
    EXPECT_EQ(requantize(1000, 1.0f, 0), 127); // saturates
    EXPECT_EQ(requantize(0, 1.0f, 5), 5);
}

TEST(RefOps, ConvOutDim)
{
    // ResNet-50 conv1: 224, k7, s2, p3 -> 112.
    EXPECT_EQ(convOutDim(224, 7, 2, 3), 112);
    EXPECT_EQ(convOutDim(7, 3, 1, 1), 7);
    EXPECT_EQ(convOutDim(8, 2, 2, 0), 4);
}

TEST(RefOps, Conv1x1EqualsGemm)
{
    // A 1x1 convolution over HxW is a GEMM with K=C, N(out)=H*W.
    Rng rng(17);
    const int64_t c = 6, hw = 4, m = 5;
    Int8Tensor iacts({1, c, hw, hw});
    Int8Tensor weights({m, c, 1, 1});
    iacts.randomize(rng, -20, 20);
    weights.randomize(rng, -20, 20);

    const Int32Tensor conv = conv2d(iacts, weights, 1, 0, 0, 0);

    Int8Tensor a({m, c});
    Int8Tensor b({c, hw * hw});
    for (int64_t im = 0; im < m; ++im) {
        for (int64_t ic = 0; ic < c; ++ic) {
            a.at2(im, ic) = weights.at4(im, ic, 0, 0);
        }
    }
    for (int64_t ic = 0; ic < c; ++ic) {
        for (int64_t ih = 0; ih < hw; ++ih) {
            for (int64_t iw = 0; iw < hw; ++iw) {
                b.at2(ic, ih * hw + iw) = iacts.at4(0, ic, ih, iw);
            }
        }
    }
    const Int32Tensor g = gemm(a, b, 0, 0);
    for (int64_t im = 0; im < m; ++im) {
        for (int64_t ih = 0; ih < hw; ++ih) {
            for (int64_t iw = 0; iw < hw; ++iw) {
                EXPECT_EQ(conv.at4(0, im, ih, iw), g.at2(im, ih * hw + iw));
            }
        }
    }
}

TEST(RefOps, ConvPaddingContributesZero)
{
    // With nonzero input zero-point, padded taps must add exactly zero.
    Int8Tensor iacts({1, 1, 2, 2});
    Int8Tensor weights({1, 1, 3, 3});
    const int8_t zp = 10;
    for (int64_t i = 0; i < iacts.numel(); ++i) iacts[size_t(i)] = zp;
    for (int64_t i = 0; i < weights.numel(); ++i) weights[size_t(i)] = 1;
    const Int32Tensor out = conv2d(iacts, weights, 1, 1, zp, 0);
    for (int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_EQ(out[size_t(i)], 0) << "padded conv must cancel zp";
    }
}

TEST(RefOps, DepthwiseMatchesPerChannelConv)
{
    Rng rng(23);
    const int64_t c = 4, hw = 6;
    Int8Tensor iacts({1, c, hw, hw});
    Int8Tensor dw_weights({c, 1, 3, 3});
    iacts.randomize(rng, -30, 30);
    dw_weights.randomize(rng, -30, 30);

    const Int32Tensor dw = depthwiseConv2d(iacts, dw_weights, 1, 1, 2, -1);

    for (int64_t ic = 0; ic < c; ++ic) {
        Int8Tensor one_in({1, 1, hw, hw});
        Int8Tensor one_w({1, 1, 3, 3});
        for (int64_t ih = 0; ih < hw; ++ih) {
            for (int64_t iw = 0; iw < hw; ++iw) {
                one_in.at4(0, 0, ih, iw) = iacts.at4(0, ic, ih, iw);
            }
        }
        for (int64_t r = 0; r < 3; ++r) {
            for (int64_t s = 0; s < 3; ++s) {
                one_w.at4(0, 0, r, s) = dw_weights.at4(ic, 0, r, s);
            }
        }
        const Int32Tensor ref = conv2d(one_in, one_w, 1, 1, 2, -1);
        for (int64_t ih = 0; ih < hw; ++ih) {
            for (int64_t iw = 0; iw < hw; ++iw) {
                EXPECT_EQ(dw.at4(0, ic, ih, iw), ref.at4(0, 0, ih, iw));
            }
        }
    }
}

TEST(RefOps, GemmSmallHandComputed)
{
    Int8Tensor a({2, 2});
    Int8Tensor b({2, 2});
    a.at2(0, 0) = 1; a.at2(0, 1) = 2;
    a.at2(1, 0) = 3; a.at2(1, 1) = 4;
    b.at2(0, 0) = 5; b.at2(0, 1) = 6;
    b.at2(1, 0) = 7; b.at2(1, 1) = 8;
    const Int32Tensor c = gemm(a, b, 0, 0);
    EXPECT_EQ(c.at2(0, 0), 19);
    EXPECT_EQ(c.at2(0, 1), 22);
    EXPECT_EQ(c.at2(1, 0), 43);
    EXPECT_EQ(c.at2(1, 1), 50);
}

TEST(RefOps, GemmZeroPoints)
{
    Int8Tensor a({1, 2});
    Int8Tensor b({2, 1});
    a.at2(0, 0) = 3; a.at2(0, 1) = 3;
    b.at2(0, 0) = 4; b.at2(1, 0) = 4;
    // (3-3)*(4-4) = 0 contributions.
    const Int32Tensor c = gemm(a, b, 3, 4);
    EXPECT_EQ(c.at2(0, 0), 0);
}

// The per-element loops the reference ops used to run, kept as the oracle
// for their plane-order form.
Int32Tensor
naiveConv2d(const Int8Tensor &iacts, const Int8Tensor &weights,
            int64_t stride, int64_t pad, int8_t iact_zp, int8_t weight_zp,
            bool depthwise)
{
    const int64_t n = iacts.dim(0), c = iacts.dim(1);
    const int64_t h = iacts.dim(2), w = iacts.dim(3);
    const int64_t m = depthwise ? c : weights.dim(0);
    const int64_t r = weights.dim(2), s = weights.dim(3);
    const int64_t p = convOutDim(h, r, stride, pad);
    const int64_t q = convOutDim(w, s, stride, pad);
    Int32Tensor out({n, m, p, q});
    for (int64_t in_ = 0; in_ < n; ++in_) {
        for (int64_t im = 0; im < m; ++im) {
            for (int64_t ip = 0; ip < p; ++ip) {
                for (int64_t iq = 0; iq < q; ++iq) {
                    int32_t acc = 0;
                    for (int64_t ic = 0; ic < c; ++ic) {
                        if (depthwise && ic != im) continue;
                        for (int64_t ir = 0; ir < r; ++ir) {
                            const int64_t ih = ip * stride + ir - pad;
                            if (ih < 0 || ih >= h) continue;
                            for (int64_t is = 0; is < s; ++is) {
                                const int64_t iw = iq * stride + is - pad;
                                if (iw < 0 || iw >= w) continue;
                                const int8_t wt =
                                    depthwise ? weights.at4(ic, 0, ir, is)
                                              : weights.at4(im, ic, ir, is);
                                acc += (int32_t(iacts.at4(in_, ic, ih, iw)) -
                                        iact_zp) *
                                       (int32_t(wt) - weight_zp);
                            }
                        }
                    }
                    out.at4(in_, im, ip, iq) = acc;
                }
            }
        }
    }
    return out;
}

Int32Tensor
naiveGemm(const Int8Tensor &a, const Int8Tensor &b, int8_t a_zp, int8_t b_zp)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Int32Tensor out({m, n});
    for (int64_t im = 0; im < m; ++im) {
        for (int64_t in_ = 0; in_ < n; ++in_) {
            int32_t acc = 0;
            for (int64_t ik = 0; ik < k; ++ik) {
                acc += (int32_t(a.at2(im, ik)) - a_zp) *
                       (int32_t(b.at2(ik, in_)) - b_zp);
            }
            out.at2(im, in_) = acc;
        }
    }
    return out;
}

TEST(ReferenceOps, MatchNaiveLoops)
{
    Rng rng(25);
    // Zero points at both ends of int8 half the time, so (x - zp) spans
    // the full 9-bit range the datapath multiplies.
    const auto zeroPoint = [&rng] {
        const int64_t pick = rng.range(0, 3);
        return int8_t(pick == 0   ? -128
                      : pick == 1 ? 127
                                  : rng.range(-128, 127));
    };
    int strides[4] = {}, pads[3] = {}, one_by_one = 0, wide_kernel = 0,
        batched = 0, extreme_zp = 0, convs = 0;
    while (convs < 400) {
        const int64_t n = rng.range(1, 3), c = rng.range(1, 5);
        const int64_t m = rng.range(1, 5);
        const int64_t h = rng.range(1, 9), w = rng.range(1, 9);
        const int64_t r = rng.range(1, 6), s = rng.range(1, 6);
        const int64_t stride = rng.range(1, 3), pad = rng.range(0, 2);
        if (convOutDim(h, r, stride, pad) <= 0 ||
            convOutDim(w, s, stride, pad) <= 0) {
            continue;
        }
        ++convs;
        const int8_t iact_zp = zeroPoint(), weight_zp = zeroPoint();
        ++strides[stride];
        ++pads[pad];
        one_by_one += r == 1 && s == 1;
        wide_kernel += r > h || s > w;
        batched += n > 1;
        extreme_zp += iact_zp == -128 || iact_zp == 127 ||
                      weight_zp == -128 || weight_zp == 127;

        Int8Tensor iacts({n, c, h, w});
        iacts.randomize(rng, -128, 127);
        Int8Tensor weights({m, c, r, s});
        weights.randomize(rng, -128, 127);
        Int8Tensor dw({c, 1, r, s});
        dw.randomize(rng, -128, 127);
        const std::string where =
            "n" + std::to_string(n) + " c" + std::to_string(c) + " m" +
            std::to_string(m) + " " + std::to_string(h) + "x" +
            std::to_string(w) + " k" + std::to_string(r) + "x" +
            std::to_string(s) + " stride " + std::to_string(stride) +
            " pad " + std::to_string(pad);
        ASSERT_EQ(conv2d(iacts, weights, stride, pad, iact_zp, weight_zp),
                  naiveConv2d(iacts, weights, stride, pad, iact_zp,
                              weight_zp, false))
            << where;
        ASSERT_EQ(depthwiseConv2d(iacts, dw, stride, pad, iact_zp, weight_zp),
                  naiveConv2d(iacts, dw, stride, pad, iact_zp, weight_zp,
                              true))
            << where;
    }
    for (int i = 0; i < 200; ++i) {
        const int64_t m = rng.range(1, 20), k = rng.range(1, 40);
        const int64_t n = rng.range(1, 20);
        const int8_t a_zp = zeroPoint(), b_zp = zeroPoint();
        Int8Tensor a({m, k});
        Int8Tensor b({k, n});
        a.randomize(rng, -128, 127);
        b.randomize(rng, -128, 127);
        ASSERT_EQ(gemm(a, b, a_zp, b_zp), naiveGemm(a, b, a_zp, b_zp))
            << m << "x" << k << "x" << n;
    }
    for (int v = 1; v <= 3; ++v) EXPECT_GT(strides[v], 0) << "stride " << v;
    for (int v = 0; v <= 2; ++v) EXPECT_GT(pads[v], 0) << "pad " << v;
    EXPECT_GT(one_by_one, 0);
    EXPECT_GT(wide_kernel, 0);
    EXPECT_GT(batched, 0);
    EXPECT_GT(extreme_zp, 0);
}

TEST(RefOps, RequantizeTensorShape)
{
    Int32Tensor acc({2, 2});
    acc.at2(0, 0) = 100; acc.at2(0, 1) = -100;
    acc.at2(1, 0) = 1000000; acc.at2(1, 1) = 0;
    const Int8Tensor q = requantizeTensor(acc, 0.01f, 1);
    EXPECT_EQ(q.at2(0, 0), 2);
    EXPECT_EQ(q.at2(0, 1), 0);
    EXPECT_EQ(q.at2(1, 0), 127);
    EXPECT_EQ(q.at2(1, 1), 1);
}

} // namespace
} // namespace feather
