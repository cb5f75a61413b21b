#pragma once

/**
 * @file
 * Statistics helpers for the benchmark harnesses: the geometric mean over
 * per-layer speedups, as used throughout the paper's evaluation.
 */

#include <vector>

namespace feather {

/** Geometric mean of @p xs (all entries must be > 0); 0 for empty. */
double geomean(const std::vector<double> &xs);

} // namespace feather
