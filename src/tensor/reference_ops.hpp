#pragma once

/**
 * @file
 * Golden reference implementations of the operators FEATHER executes.
 *
 * Every cycle-level result produced by the NEST/BIRRD simulator is checked
 * bit-exactly against these loops in the test suite. The convolutions
 * accumulate plane by plane, one weight tap over its valid output range
 * at a time, and GEMM row by row; each output sums the same int32 terms
 * as the per-element loops they replace (test_tensor keeps those as the
 * oracle). All operators follow
 * the int8-input / int32-accumulate / requantize-to-int8 discipline of the
 * paper's datapath (9-bit multipliers after zero-point subtraction feeding
 * 32-bit accumulation, §III / Fig. 8).
 */

#include <cstdint>

#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace feather {

/** Output spatial extent of a convolution along one axis. */
int64_t convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad);

/**
 * Standard convolution: iActs [N,C,H,W] (int8) * weights [M,C,R,S] (int8)
 * -> oActs [N,M,P,Q] (int32 accumulators).
 *
 * Zero points are subtracted before multiplication, so padded positions
 * (which hold the input zero point) contribute exactly zero.
 */
Int32Tensor conv2d(const Int8Tensor &iacts, const Int8Tensor &weights,
                   int64_t stride, int64_t pad, int8_t iact_zp,
                   int8_t weight_zp);

/**
 * Depthwise convolution: iActs [N,C,H,W] * weights [C,1,R,S] -> [N,C,P,Q].
 */
Int32Tensor depthwiseConv2d(const Int8Tensor &iacts, const Int8Tensor &weights,
                            int64_t stride, int64_t pad, int8_t iact_zp,
                            int8_t weight_zp);

/**
 * GEMM: A [M,K] * B [K,N] -> C [M,N] int32, zero points subtracted.
 * The paper's GEMM notation (Fig. 10) streams A (weights stationary possible
 * per-column); the reference runs the triple loop in i-k-j order.
 */
Int32Tensor gemm(const Int8Tensor &a, const Int8Tensor &b, int8_t a_zp,
                 int8_t b_zp);

/** Requantize an int32 accumulator tensor into int8 (QM behaviour). */
Int8Tensor requantizeTensor(const Int32Tensor &acc, float multiplier,
                            int8_t out_zp);

} // namespace feather
