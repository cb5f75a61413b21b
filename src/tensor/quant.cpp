#include "tensor/quant.hpp"

#include <cmath>

namespace feather {

int8_t
clampToInt8(int32_t v)
{
    if (v < -128) return -128;
    if (v > 127) return 127;
    return static_cast<int8_t>(v);
}

int8_t
requantize(int32_t acc, float multiplier, int8_t out_zp)
{
    const double scaled = double(acc) * double(multiplier);
    // Round half away from zero, matching FBGEMM's default host rounding.
    const int64_t rounded = int64_t(std::llround(scaled));
    return clampToInt8(int32_t(rounded + out_zp));
}

} // namespace feather
