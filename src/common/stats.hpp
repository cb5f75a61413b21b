#pragma once

/**
 * @file
 * Tiny statistics helpers used by the benchmark harnesses (geometric means
 * over per-layer speedups, as done throughout the paper's evaluation) and by
 * the cost model (running averages of per-cycle slowdowns).
 */

#include <cstddef>
#include <vector>

namespace feather {

/** Arithmetic mean of @p xs; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Geometric mean of @p xs (all entries must be > 0); 0 for empty. */
double geomean(const std::vector<double> &xs);

/** Sum of @p xs. */
double sum(const std::vector<double> &xs);

/** Running accumulator for mean / min / max without storing samples. */
class RunningStat
{
  public:
    void
    add(double x)
    {
        if (n_ == 0 || x < min_) min_ = x;
        if (n_ == 0 || x > max_) max_ = x;
        sum_ += x;
        ++n_;
    }

    size_t count() const { return n_; }
    double total() const { return sum_; }
    double mean() const { return n_ ? sum_ / double(n_) : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    size_t n_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace feather
