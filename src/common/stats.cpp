#include "common/stats.hpp"

#include <cmath>

namespace feather {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs) s += x;
    return s / double(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty()) return 0.0;
    double log_sum = 0.0;
    for (double x : xs) log_sum += std::log(x);
    return std::exp(log_sum / double(xs.size()));
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs) s += x;
    return s;
}

} // namespace feather
