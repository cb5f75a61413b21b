#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/rng.hpp"
#include "serve/thread_pool.hpp"

namespace feather {
namespace serve {

BatchEngine::BatchEngine(BatchOptions opts) : opts_(opts)
{
    if (opts_.num_threads < 1) opts_.num_threads = 1;
}

JobResult
runJob(const JobSpec &spec, size_t index, uint64_t base_seed,
       sim::EngineMode engine, PlanCache &cache)
{
    JobResult result;
    result.name = displayName(spec);
    result.scenario =
        spec.inline_scenario ? spec.inline_scenario->name : spec.scenario;
    result.dataflow =
        spec.opts.dataflow.empty() ? std::string("auto") : spec.opts.dataflow;
    result.layout =
        spec.opts.layout.empty() ? std::string("concordant") : spec.opts.layout;

    std::string error;
    const sim::ModelGraph *scenario = resolveScenario(spec, &error);
    if (!scenario) {
        result.error = error;
        return result;
    }

    sim::ScenarioOptions opts = spec.opts;
    // The per-job input stream: derived from (base_seed, job_index) unless
    // the spec pins a seed, so a batch is bit-identical at any --jobs N.
    opts.seed = spec.explicit_seed ? *spec.explicit_seed
                                   : Rng::deriveStream(base_seed, index);
    opts.engine = spec.engine ? *spec.engine : engine;
    result.seed = opts.seed;
    result.engine = opts.engine;
    result.aw = opts.aw > 0 ? opts.aw : scenario->default_aw;
    result.ah = opts.ah > 0 ? opts.ah : scenario->default_ah;

    std::optional<sim::ScenarioRun> run;
    const auto start = std::chrono::steady_clock::now();
    try {
        run = sim::runScenario(*scenario, opts, &error, cache.planFn());
    } catch (const std::exception &e) {
        result.error = e.what();
        return result;
    }
    result.sim_wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (!run) {
        result.error = error;
        return result;
    }

    result.ok = true;
    result.aw = run->aw;
    result.ah = run->ah;
    result.layers = run->chain.layers.size();
    for (const sim::RunResult &r : run->chain.layers) {
        result.cycles += r.stats.cycles;
        result.macs += r.stats.macs;
        result.read_stalls += r.stats.read_stall_cycles;
        result.write_stalls += r.stats.write_stall_cycles;
        result.arena_peak_bytes =
            std::max(result.arena_peak_bytes, r.stats.arena_peak_bytes);
    }
    result.checked = run->chain.checked;
    result.mismatches = run->chain.mismatches;
    const double denom = double(result.aw) * double(result.ah);
    result.utilization =
        result.cycles > 0 ? double(result.macs) /
                                (double(result.cycles) * denom)
                          : 0.0;
    return result;
}

BatchReport
BatchEngine::run(const std::vector<JobSpec> &jobs)
{
    BatchReport report;
    report.base_seed = opts_.base_seed;
    report.jobs.resize(jobs.size());
    {
        ThreadPool pool(opts_.num_threads);
        for (size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([this, &jobs, &report, i] {
                report.jobs[i] = runJob(jobs[i], i, opts_.base_seed,
                                        opts_.engine, cache_);
            });
        }
        pool.wait();
    }
    report.cache = cache_.stats();
    return report;
}

std::optional<BatchReport>
BatchEngine::sweep(const SweepSpec &sweep, std::vector<std::string> *skipped,
                   std::string *error)
{
    // Pre-plan under the engine's own tier so cache warming hits the same
    // keys the run will look up (the sweep's jobs inherit opts_.engine).
    SweepSpec spec = sweep;
    spec.engine = opts_.engine;
    const std::optional<std::vector<JobSpec>> jobs =
        expandSweep(spec, cache_, skipped, error);
    if (!jobs) return std::nullopt;
    return run(*jobs);
}

} // namespace serve
} // namespace feather
