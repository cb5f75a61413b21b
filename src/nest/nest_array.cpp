#include "nest/nest_array.hpp"

#include "common/log.hpp"

namespace feather {

NestArray::NestArray(int aw, int ah, int max_local)
    : aw_(aw), ah_(ah), max_local_(max_local),
      regs_(2 * size_t(aw) * size_t(ah) * size_t(max_local), 0)
{
    FEATHER_CHECK(aw >= 1 && ah >= 1, "array dims must be positive");
    FEATHER_CHECK(max_local >= 1, "local register file must hold >= 1");
}

void
NestArray::loadWeight(int row, int col, int local_step, int16_t weight)
{
    FEATHER_CHECK(row >= 0 && row < ah_ && col >= 0 && col < aw_,
                  "PE (", row, ",", col, ") out of range");
    FEATHER_CHECK(local_step >= 0 && local_step < max_local_,
                  "local step ", local_step, " exceeds register file ",
                  max_local_);
    regs_[regIndex(1 - active_bank_, row, col, local_step)] = weight;
}

void
NestArray::swapWeightBanks()
{
    active_bank_ = 1 - active_bank_;
}

void
NestArray::computeRowEmission(int row, const int16_t *iacts, int64_t t1,
                              const uint8_t *active, PortValue *emission)
{
    FEATHER_CHECK(t1 <= max_local_, "local stream exceeds register file");
    for (int col = 0; col < aw_; ++col) {
        if (!active[col]) {
            emission[col] = std::nullopt;
            continue;
        }
        const int16_t *stream = iacts + int64_t(col) * t1;
        const int16_t *w = &regs_[regIndex(active_bank_, row, col, 0)];
        int64_t acc = 0;
        for (int64_t l = 0; l < t1; ++l) {
            acc += int64_t(stream[l]) * int64_t(w[l]);
        }
        emission[col] = acc;
    }
}

} // namespace feather
