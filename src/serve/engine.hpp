#pragma once

/**
 * @file
 * The batch simulation engine: executes a list of JobSpecs on a fixed-size
 * thread pool, sharing one PlanCache across jobs, and aggregates the
 * results into a BatchReport.
 *
 * Determinism contract: the report (CSV and JSON) is bit-identical for a
 * given (job list, base seed) regardless of num_threads. Three mechanisms
 * make that hold:
 *   - every job's inputs come from its own RNG stream,
 *     Rng::deriveStream(base_seed, job_index), never a shared generator;
 *   - results land in a pre-sized slot per job index, so completion order
 *     is irrelevant;
 *   - plan-cache misses are computed under the cache lock, so the hit/miss
 *     counters depend only on the lookup sequence, not thread timing.
 *
 * Failure isolation: a job that cannot plan or fails verification is
 * reported as ERROR/MISMATCH in its slot; the rest of the batch runs
 * unaffected.
 */

#include <optional>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/plan_cache.hpp"
#include "serve/report.hpp"

namespace feather {
namespace serve {

/** Engine-wide knobs. */
struct BatchOptions
{
    int num_threads = 1;       ///< worker pool size (`--jobs N`)
    uint64_t base_seed = 2024; ///< stream base for per-job input seeds
    /** Default engine tier for jobs that do not pin one (`--engine`). */
    sim::EngineMode engine = sim::EngineMode::Cycle;
};

/**
 * Run one scenario job: the one code path behind batch jobs and the
 * daemon's scenario requests. The job draws its inputs from
 * spec.explicit_seed, or else from stream @p index of @p base_seed, and
 * runs under spec.engine, or else @p engine; planning goes through
 * @p cache. An unknown scenario, a plan that does not fit and an exception
 * from the simulator all become the result's error.
 */
JobResult runJob(const JobSpec &spec, size_t index, uint64_t base_seed,
                 sim::EngineMode engine, PlanCache &cache);

/** Multi-threaded batch runner with a shared plan cache. */
class BatchEngine
{
  public:
    explicit BatchEngine(BatchOptions opts = {});

    /** Run @p jobs; the report's rows are in job order. */
    BatchReport run(const std::vector<JobSpec> &jobs);

    /**
     * Expand @p sweep (filtering grid points that cannot map, reported via
     * @p skipped) and run the surviving jobs. nullopt with @p error set
     * when the swept scenario or a dataflow name is unknown.
     */
    std::optional<BatchReport>
    sweep(const SweepSpec &sweep, std::vector<std::string> *skipped = nullptr,
          std::string *error = nullptr);

    PlanCache &cache() { return cache_; }
    const BatchOptions &options() const { return opts_; }

  private:
    BatchOptions opts_;
    PlanCache cache_;
};

} // namespace serve
} // namespace feather
