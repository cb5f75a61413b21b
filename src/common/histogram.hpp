#pragma once

/**
 * @file
 * Streaming latency histogram with deterministic percentiles.
 *
 * HDR-style log-linear bucketing over non-negative int64 values: values
 * below 64 get singleton buckets (exact), larger values share 64
 * sub-buckets per power of two (worst-case relative error 1/64 ≈ 1.6%,
 * reported values are bucket lower bounds so they never exceed the true
 * quantile's bucket). Everything is integer arithmetic on integer counts,
 * so two properties the serving reports rely on hold exactly:
 *
 *   - merge() is associative and commutative — per-thread histograms
 *     merged in any order produce bit-identical counts and percentiles,
 *     which keeps daemon reports independent of worker interleaving;
 *   - recording the same multiset of values always yields the same
 *     percentile, independent of insertion order.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace feather {

/** Fixed-footprint streaming histogram of non-negative int64 samples. */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    /** Record one sample; negative values clamp to 0. */
    void record(int64_t value);

    /** Fold @p other into this histogram (exact integer addition). */
    void merge(const LatencyHistogram &other);

    uint64_t count() const { return count_; }
    int64_t min() const { return count_ ? min_ : 0; }
    int64_t max() const { return count_ ? max_ : 0; }
    int64_t total() const { return sum_; }

    /**
     * The value at percentile @p p in [0, 100]: the lower bound of the
     * first bucket whose cumulative count reaches ceil(p/100 * count),
     * clamped to [min, max]. p <= 0 returns min, p >= 100 returns max,
     * an empty histogram returns 0.
     */
    int64_t percentile(double p) const;

    /** Bucket of @p value (exposed for the unit tests). */
    static size_t bucketIndex(int64_t value);

    /** Smallest value mapping to bucket @p index. */
    static int64_t bucketLowerBound(size_t index);

    static constexpr int kSubBits = 6;
    static constexpr size_t kSubBuckets = size_t(1) << kSubBits; // 64
    /** 58 ranges x 64 sub-buckets covers every non-negative int64. */
    static constexpr size_t kNumBuckets = kSubBuckets * 58;

  private:
    std::vector<uint64_t> counts_;
    uint64_t count_ = 0;
    int64_t min_ = 0;
    int64_t max_ = 0;
    int64_t sum_ = 0;
};

} // namespace feather
