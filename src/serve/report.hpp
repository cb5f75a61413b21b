#pragma once

/**
 * @file
 * Structured results of a batch run.
 *
 * A BatchReport aggregates one JobResult per submitted job, in submission
 * order, plus the plan-cache counters. It renders three ways: an aligned
 * console table, CSV (one row per job, for CI artifacts / spreadsheets),
 * and single-line JSON (for log scraping and downstream tooling). All
 * three are deterministic for a given job list and base seed — notably
 * independent of how many worker threads executed the batch — which the
 * test suite relies on.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/plan_cache.hpp"

namespace feather {
namespace serve {

/** Outcome of one job. */
struct JobResult
{
    std::string name;     ///< display name (JobSpec name or derived)
    std::string scenario; ///< scenario name
    std::string dataflow; ///< override, or "auto" (per-layer families)
    std::string layout;   ///< first-layer iAct layout override
    int aw = 0;
    int ah = 0;
    uint64_t seed = 0; ///< the seed the job actually ran with
    /** Engine tier the job ran under (JobSpec pin or BatchOptions). */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    bool ok = false;   ///< the run completed (regardless of verification)
    std::string error; ///< why the run failed (when !ok)

    // Aggregated over the scenario's layers (when ok).
    size_t layers = 0;
    int64_t cycles = 0;
    int64_t macs = 0;
    int64_t read_stalls = 0;
    int64_t write_stalls = 0;
    int64_t checked = 0;
    int64_t mismatches = 0;
    double utilization = 0.0; ///< macs / (cycles * AW * AH)
    /** Wall time of the scenario run in microseconds. The one
     *  non-deterministic report field; determinism checks zero it. */
    int64_t sim_wall_us = 0;
    /** Largest per-layer scratch bytes over the job's layers (0 in
     *  analytic mode). */
    int64_t arena_peak_bytes = 0;

    bool bitExact() const { return ok && checked > 0 && mismatches == 0; }

    /** "ok" (verified), "est" (analytic estimate, nothing to verify),
     *  "MISMATCH" (ran, diffs) or "ERROR" (did not run). */
    std::string status() const;
};

/** Everything a batch run produced. */
struct BatchReport
{
    std::vector<JobResult> jobs; ///< submission order
    PlanCache::Stats cache;
    uint64_t base_seed = 0;

    /** Jobs that errored or failed verification. Analytic jobs have
     *  nothing to verify: they fail only by erroring. */
    size_t failures() const;

    /** True when every job ran and (cycle jobs) verified bit-exactly. */
    bool allOk() const { return failures() == 0 && !jobs.empty(); }

    int64_t totalCycles() const;
    int64_t totalMacs() const;

    /** One CSV row per job (header included). */
    std::string toCsv() const;

    /** The whole report as one line of JSON. */
    std::string toJson() const;

    /** Aligned console table plus a summary line. */
    std::string summaryTable() const;
};

} // namespace serve
} // namespace feather
