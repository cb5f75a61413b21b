#pragma once

/**
 * @file
 * Deterministic open-loop load generator for the serving daemon.
 *
 * Generates a pinned-arrival request stream (`--qps N --requests M`):
 * inter-arrival gaps are uniform integers with mean 1e6/qps microseconds
 * — integer-only arithmetic, no libm, so the same (seed, qps, requests)
 * triple produces a byte-identical trace on every platform. Arrival
 * times and request shapes draw from *separate* derived RNG streams, so
 * changing the rate never changes which workloads are requested.
 *
 * The mix exercises the daemon end to end: several clients, all three
 * priorities, a handful of scenarios across both engine tiers, and an
 * occasional whole-model scheduling request.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/request.hpp"

namespace feather {
namespace daemon {

/** Load-generation knobs. */
struct LoadGenConfig
{
    uint64_t qps = 200;       ///< mean virtual arrival rate (--qps)
    uint64_t requests = 100;  ///< stream length (--requests)
    uint64_t seed = 2024;     ///< stream base (the daemon's base seed)
};

/** The deterministic request stream for @p cfg (arrival_us pinned,
 *  non-decreasing; ids r0..r<requests-1>; clients c0..c3; every 40th
 *  request after the first asks for whole-model scheduling). */
std::vector<Request> generateLoad(const LoadGenConfig &cfg);

/** Requests as a JSON-lines trace (`--trace FILE` body); replayable via
 *  `feather_serve --replay`. */
std::string toTraceText(const std::vector<Request> &requests);

} // namespace daemon
} // namespace feather
