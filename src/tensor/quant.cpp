#include "tensor/quant.hpp"

#include <algorithm>

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
    // Past +-256 every output zero point saturates, so clamping there
    // changes no result and keeps the rounding below in range (a huge
    // multiplier must saturate, not wrap).
    const double scaled =
        std::clamp(double(acc) * double(multiplier), -256.0, 256.0);
    // Round half away from zero, matching FBGEMM's default host rounding:
    // truncate, then compare the exact remaining fraction with one half.
    int32_t rounded = int32_t(scaled);
    const double frac = scaled - double(rounded);
    rounded += (frac >= 0.5) - (frac <= -0.5);
    return clampToInt8(rounded + out_zp);
}

} // namespace feather
