#pragma once

/**
 * @file
 * Per-layer probes of the traced run that no workload round produces.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace bench {

/**
 * The sim.*, hw.* and layer.* metrics: every layer of the four fixed
 * model_search graphs, planned by its per-layer schedule, run standalone
 * through sim::runLayer on the cycle tier with and without verification
 * and on the analytic tier. Times are medians over repeats; a cycle run
 * that is not bit-exact, or whose counters change between repeats, is
 * appended to @p violations.
 */
std::vector<Metric> simLayerMetrics(uint64_t seed,
                                    std::vector<std::string> *violations);

/** Median microseconds to construct and join a serve::ThreadPool(1),
 *  over 1000 pools. */
double poolCreateUs();

} // namespace bench
