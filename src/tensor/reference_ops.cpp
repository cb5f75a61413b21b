#include "tensor/reference_ops.hpp"

#include <algorithm>
#include <cmath>

namespace feather {

int64_t
convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

namespace {

/**
 * The output indices [lo, hi) of an axis of @p out outputs whose input
 * index i * stride + off lies inside [0, in): the taps of one kernel
 * offset (off = kernel index - pad) that do not fall in the padding.
 */
void
validRange(int64_t out, int64_t in, int64_t stride, int64_t off, int64_t &lo,
           int64_t &hi)
{
    lo = off >= 0 ? 0 : (-off + stride - 1) / stride;
    hi = off >= in ? 0 : std::min(out, (in - 1 - off) / stride + 1);
    hi = std::max(hi, lo);
}

/**
 * Add one weight tap to a zeroed-then-accumulating output plane [p, q]:
 * out[ip][iq] += wt * (x[ip*stride + r_off][iq*stride + s_off] - zp) over
 * the outputs whose input lies inside the [h, w] plane @p x.
 */
void
addTap(int32_t *out, int64_t p, int64_t q, const int8_t *x, int64_t h,
       int64_t w, int64_t stride, int64_t r_off, int64_t s_off, int32_t wt,
       int32_t zp)
{
    int64_t p_lo, p_hi, q_lo, q_hi;
    validRange(p, h, stride, r_off, p_lo, p_hi);
    validRange(q, w, stride, s_off, q_lo, q_hi);
    for (int64_t ip = p_lo; ip < p_hi; ++ip) {
        int32_t *orow = out + ip * q;
        const int8_t *xrow = x + (ip * stride + r_off) * w + s_off;
        for (int64_t iq = q_lo; iq < q_hi; ++iq) {
            orow[iq] += (int32_t(xrow[iq * stride]) - zp) * wt;
        }
    }
}

} // namespace

// The reference ops run in plane order: each output plane starts at zero
// and takes one weight tap at a time over the tap's valid output range,
// so no window element is bounds-tested and the inner loop walks one
// input row. Every output sums the same int32 terms as a per-window loop.

Int32Tensor
conv2d(const Int8Tensor &iacts, const Int8Tensor &weights, int64_t stride,
       int64_t pad, int8_t iact_zp, int8_t weight_zp)
{
    FEATHER_CHECK(iacts.rank() == 4 && weights.rank() == 4, "rank");
    const int64_t n = iacts.dim(0), c = iacts.dim(1);
    const int64_t h = iacts.dim(2), w = iacts.dim(3);
    const int64_t m = weights.dim(0), r = weights.dim(2), s = weights.dim(3);
    FEATHER_CHECK(weights.dim(1) == c, "channel mismatch");
    const int64_t p = convOutDim(h, r, stride, pad);
    const int64_t q = convOutDim(w, s, stride, pad);

    Int32Tensor out({n, m, p, q});
    for (int64_t in_ = 0; in_ < n; ++in_) {
        for (int64_t im = 0; im < m; ++im) {
            int32_t *plane = &out.at4(in_, im, 0, 0);
            for (int64_t ic = 0; ic < c; ++ic) {
                const int8_t *x = &iacts.at4(in_, ic, 0, 0);
                for (int64_t ir = 0; ir < r; ++ir) {
                    for (int64_t is = 0; is < s; ++is) {
                        addTap(plane, p, q, x, h, w, stride, ir - pad,
                               is - pad,
                               int32_t(weights.at4(im, ic, ir, is)) -
                                   weight_zp,
                               iact_zp);
                    }
                }
            }
        }
    }
    return out;
}

Int32Tensor
depthwiseConv2d(const Int8Tensor &iacts, const Int8Tensor &weights,
                int64_t stride, int64_t pad, int8_t iact_zp, int8_t weight_zp)
{
    FEATHER_CHECK(iacts.rank() == 4 && weights.rank() == 4, "rank");
    const int64_t n = iacts.dim(0), c = iacts.dim(1);
    const int64_t h = iacts.dim(2), w = iacts.dim(3);
    FEATHER_CHECK(weights.dim(0) == c && weights.dim(1) == 1,
                  "depthwise weights must be [C,1,R,S]");
    const int64_t r = weights.dim(2), s = weights.dim(3);
    const int64_t p = convOutDim(h, r, stride, pad);
    const int64_t q = convOutDim(w, s, stride, pad);

    Int32Tensor out({n, c, p, q});
    for (int64_t in_ = 0; in_ < n; ++in_) {
        for (int64_t ic = 0; ic < c; ++ic) {
            int32_t *plane = &out.at4(in_, ic, 0, 0);
            const int8_t *x = &iacts.at4(in_, ic, 0, 0);
            for (int64_t ir = 0; ir < r; ++ir) {
                for (int64_t is = 0; is < s; ++is) {
                    addTap(plane, p, q, x, h, w, stride, ir - pad, is - pad,
                           int32_t(weights.at4(ic, 0, ir, is)) - weight_zp,
                           iact_zp);
                }
            }
        }
    }
    return out;
}

Int32Tensor
gemm(const Int8Tensor &a, const Int8Tensor &b, int8_t a_zp, int8_t b_zp)
{
    FEATHER_CHECK(a.rank() == 2 && b.rank() == 2, "rank");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    FEATHER_CHECK(b.dim(0) == k, "inner-dim mismatch");

    // i-k-j: each A element scales one row of B into the output row.
    Int32Tensor out({m, n});
    for (int64_t im = 0; im < m; ++im) {
        int32_t *orow = &out.at2(im, 0);
        for (int64_t ik = 0; ik < k; ++ik) {
            const int32_t av = int32_t(a.at2(im, ik)) - a_zp;
            const int8_t *brow = &b.at2(ik, 0);
            for (int64_t in_ = 0; in_ < n; ++in_) {
                orow[in_] += av * (int32_t(brow[in_]) - b_zp);
            }
        }
    }
    return out;
}

Int8Tensor
requantizeTensor(const Int32Tensor &acc, float multiplier, int8_t out_zp)
{
    Int8Tensor out(acc.shape());
    for (int64_t i = 0; i < acc.numel(); ++i) {
        out[size_t(i)] = requantize(acc[size_t(i)], multiplier, out_zp);
    }
    return out;
}

} // namespace feather
