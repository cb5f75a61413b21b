#pragma once

/**
 * @file
 * Aggregated results of one daemon run.
 *
 * One ClientRow per client (sorted by name), plus run-wide summary
 * figures. Like serve::BatchReport, every field except the `*_wall_us`
 * ones is deterministic for a given request stream and base seed —
 * independent of --jobs, of wall-clock execution order, and of response
 * interleaving — because everything virtual is computed by the
 * single-threaded DES (daemon/vclock.hpp) and latency percentiles come
 * from integer histograms (common/histogram.hpp) merged per client.
 *
 * Counter semantics: requests = accepted + rejected + errors. `accepted`
 * covers requests that entered virtual service (including MISMATCH runs);
 * `errors` covers parse, validation and execution failures; `rejected`
 * covers admission control only. cache_hits/cache_misses attribute
 * *admission-time planning* to the client that caused it; the summary's
 * plan_cache block is the shared cache's global truth and additionally
 * counts runtime lookups by speculative execution (every parsable
 * request executes, even if admission later rejects it — the virtual
 * system sheds the load, the harness measures everything).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/plan_cache.hpp"

namespace feather {
namespace daemon {

/** Per-client accounting over one daemon run. */
struct ClientRow
{
    std::string client;
    uint64_t requests = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t errors = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    int64_t total_cycles = 0;
    // Virtual latency (finish - arrival) percentiles over accepted
    // requests, in virtual microseconds.
    int64_t p50_vus = 0;
    int64_t p95_vus = 0;
    int64_t p99_vus = 0;
    double mean_queue_vus = 0.0;   ///< mean virtual time spent waiting
    double mean_service_vus = 0.0; ///< mean virtual time in service
    /** Wall time between enqueue and speculative execution start, summed.
     *  Non-deterministic; determinism checks zero it (`_wall_us`). */
    int64_t queue_wall_us = 0;
    /** Wall time spent executing this client's requests, summed. */
    int64_t service_wall_us = 0;
};

/** Per-device accounting over one fleet-mode daemon run. Every field is
 *  virtual-time bookkeeping, so device rows are fully deterministic. */
struct DeviceRow
{
    std::string device; ///< unique fleet name ("feather:32x32")
    int64_t capability = 0; ///< placement weight (PE count)
    uint64_t requests = 0;  ///< completions served on this device
    int64_t busy_vus = 0;   ///< virtual time in service (incl. hand-offs)
    int64_t queue_p95_vus = 0; ///< p95 virtual wait before service
    /** Virtual per-device plan-cache warmth: a request's planning points
     *  count as hits only when this device saw them before (device-scoped
     *  keys; see serve::PlanCache::scopedKey). */
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t handoffs = 0;   ///< placements that switched devices
    int64_t handoff_vus = 0; ///< summed cross-device hand-off premiums
};

/** Everything one daemon run produced. */
struct DaemonReport
{
    std::vector<ClientRow> clients; ///< sorted by client name
    /** Explicit --fleet only: one row per device, in fleet order. Empty
     *  in --vworkers runs, which keeps the classic CSV/JSON
     *  schemas byte-identical. */
    std::vector<DeviceRow> devices;

    uint64_t requests = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t errors = 0;
    // Run-wide virtual latency distribution (all clients merged).
    int64_t p50_vus = 0;
    int64_t p95_vus = 0;
    int64_t p99_vus = 0;
    int64_t max_vus = 0;
    /** Virtual finish of the last accepted request. */
    int64_t makespan_vus = 0;
    /** Accepted requests per virtual second (accepted/makespan). */
    double virtual_rps = 0.0;
    int64_t total_cycles = 0;
    int64_t total_macs = 0;
    serve::PlanCache::Stats cache;
    uint64_t base_seed = 0;
    int vworkers = 1;
    uint64_t clock_mhz = 0;
    std::string engine; ///< default engine tier ("cycle"/"analytic")
    /** Explicit --fleet only: the --fleet spec and --place policy. */
    std::string fleet;
    std::string place;
    /** Wall duration of the whole run; zeroed by determinism checks. */
    int64_t run_wall_us = 0;

    /** One CSV row per client (header included); fleet runs append a
     *  blank line plus a per-device section with its own header. */
    std::string toCsv() const;

    /** The whole report as one line of JSON. */
    std::string toJson() const;

    /** Aligned console table plus a summary line. */
    std::string summaryTable() const;
};

} // namespace daemon
} // namespace feather
