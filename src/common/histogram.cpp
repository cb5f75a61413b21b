#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace feather {

LatencyHistogram::LatencyHistogram() : counts_(kNumBuckets, 0) {}

size_t
LatencyHistogram::bucketIndex(int64_t value)
{
    if (value < 0) value = 0;
    const uint64_t v = uint64_t(value);
    if (v < kSubBuckets) return size_t(v);
    // msb >= kSubBits here; shift drops the value into [kSub, 2*kSub).
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const size_t sub = size_t((v >> shift) - kSubBuckets);
    return size_t(shift + 1) * kSubBuckets + sub;
}

int64_t
LatencyHistogram::bucketLowerBound(size_t index)
{
    if (index < kSubBuckets) return int64_t(index);
    const size_t range = index / kSubBuckets;
    const size_t sub = index % kSubBuckets;
    const int shift = int(range) - 1;
    return int64_t((kSubBuckets + sub) << shift);
}

void
LatencyHistogram::record(int64_t value)
{
    if (value < 0) value = 0;
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    sum_ += value;
    ++count_;
    ++counts_[bucketIndex(value)];
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    sum_ += other.sum_;
    count_ += other.count_;
    for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
}

int64_t
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0) return 0;
    if (p <= 0.0) return min_;
    if (p >= 100.0) return max_;
    const uint64_t rank = std::max<uint64_t>(
        1, uint64_t(std::ceil(p / 100.0 * double(count_))));
    uint64_t cum = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        cum += counts_[i];
        if (cum >= rank) {
            return std::clamp(bucketLowerBound(i), min_, max_);
        }
    }
    return max_;
}

} // namespace feather
