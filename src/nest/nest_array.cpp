#include "nest/nest_array.hpp"

#include <limits>

#include "common/log.hpp"

namespace feather {

NestArray::NestArray(int aw, int ah, int max_local)
    : aw_(aw), ah_(ah), max_local_(max_local)
{
    FEATHER_CHECK(aw >= 1 && ah >= 1, "array dims must be positive");
    FEATHER_CHECK(max_local >= 1, "local register file must hold >= 1");
}

void
NestArray::setLocal(int64_t t1)
{
    FEATHER_CHECK(t1 >= 1 && t1 <= max_local_, "local stream of ", t1,
                  " exceeds register file ", max_local_);
    FEATHER_CHECK(t1 * kMaxOperand * kMaxOperand <=
                      std::numeric_limits<int32_t>::max(),
                  "a ", t1, "-long local dot product can overflow int32");
    t1_ = t1;
    regs_.assign(2 * size_t(aw_) * size_t(ah_) * size_t(t1), int16_t(0));
}

void
NestArray::loadWeight(int row, int col, int local_step, int16_t weight)
{
    FEATHER_CHECK(row >= 0 && row < ah_ && col >= 0 && col < aw_,
                  "PE (", row, ",", col, ") out of range");
    FEATHER_CHECK(local_step >= 0 && local_step < t1_, "local step ",
                  local_step, " exceeds the run's local depth ", t1_);
    regs_[tileIndex(1 - active_bank_, row, col) + size_t(local_step)] =
        weight;
}

void
NestArray::swapWeightBanks()
{
    active_bank_ = 1 - active_bank_;
}

} // namespace feather
