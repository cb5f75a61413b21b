#pragma once

/**
 * @file
 * FBGEMM/QNNPACK-style affine quantization, as used by FEATHER's Quantize
 * Module (QM): 8-bit zero points and 32-bit (float) scales (paper §III-C4).
 *
 * real = scale * (q - zero_point)
 *
 * The QM rescales 32-bit accumulator outputs down to int8 using the combined
 * scale (s_in * s_w / s_out) and the output zero point, with round-half-away
 * -from-zero semantics. Both the reference ops and the cycle simulator use
 * exactly these functions so results compare bit-exactly.
 */

#include <cstdint>

namespace feather {

/** Clamp an int32 into int8 range. */
int8_t clampToInt8(int32_t v);

/**
 * Requantize a 32-bit accumulator value into int8.
 *
 * @param acc        int32 accumulator (sum of (x-zx)*(w-zw) products)
 * @param multiplier combined scale s_x*s_w/s_out
 * @param out_zp     output zero point
 */
int8_t requantize(int32_t acc, float multiplier, int8_t out_zp);

} // namespace feather
