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

int16_t
NestArray::weight(int row, int col, int local_step) const
{
    return regs_[regIndex(active_bank_, row, col, local_step)];
}

std::vector<PortValue>
NestArray::computeRowEmission(int row,
                              const std::vector<std::vector<int16_t>> &iacts,
                              const std::vector<bool> &active)
{
    FEATHER_CHECK(int(iacts.size()) == aw_, "iact column arity mismatch");
    FEATHER_CHECK(int(active.size()) == aw_, "active column arity mismatch");

    std::vector<PortValue> emission(static_cast<size_t>(aw_));
    for (int col = 0; col < aw_; ++col) {
        if (!active[size_t(col)]) continue;
        const auto &stream = iacts[size_t(col)];
        FEATHER_CHECK(int(stream.size()) <= max_local_,
                      "local stream exceeds register file");
        int64_t acc = 0;
        for (size_t l = 0; l < stream.size(); ++l) {
            acc += int64_t(stream[l]) *
                   int64_t(regs_[regIndex(active_bank_, row, col, int(l))]);
            ++macs_;
        }
        emission[size_t(col)] = acc;
    }
    return emission;
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
        macs_ += t1;
        emission[col] = acc;
    }
}

} // namespace feather
