#pragma once

/**
 * @file
 * Batch job descriptions for the serve engine.
 *
 * A JobSpec names one scenario run: a registered scenario (or an inline,
 * programmatically-built pinned graph) plus ScenarioOptions overrides. Jobs
 * come from three sources:
 *   - a batch file (`feather_cli --batch jobs.txt`), one job per line:
 *       <scenario> [dataflow=ws|cp|wp] [layout=L] [out_layout=L]
 *                  [aw=N] [ah=N] [seed=N] [engine=cycle|analytic] [name=STR]
 *     ('#' starts a comment, blank lines are skipped);
 *   - a programmatic sweep (`--sweep <scenario>`): the (dataflow x layout x
 *     array-size) grid of SweepSpec, pre-filtered so only grid points whose
 *     mappings actually fit become jobs;
 *   - direct construction (see bench/fig10_gemm_flexibility.cpp).
 */

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/plan_cache.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace serve {

/** One batch job: a scenario plus option overrides. */
struct JobSpec
{
    /** Display name; derived from the overrides when empty. */
    std::string name;
    /** Registered scenario name (ignored when inline_scenario is set). */
    std::string scenario;
    /** Inline scenario for programmatic jobs (bench/example sweeps). */
    std::optional<sim::ModelGraph> inline_scenario;
    /** Per-job overrides. The seed field is ignored: jobs draw from
     *  explicit_seed or the engine's (base_seed, job_index) stream. */
    sim::ScenarioOptions opts;
    /** Pin the input seed; unset derives Rng::deriveStream(base, index). */
    std::optional<uint64_t> explicit_seed;
    /** Pin the engine tier; unset inherits BatchOptions::engine. */
    std::optional<sim::EngineMode> engine;
};

/** Scenario a job refers to; nullptr with @p error set when unknown. */
const sim::ModelGraph *resolveScenario(const JobSpec &spec,
                                       std::string *error);

/** The display name of @p spec (spec.name, or derived from overrides). */
std::string displayName(const JobSpec &spec);

/** A (dataflow x layout x array-size) grid over one scenario. */
struct SweepSpec
{
    std::string scenario; ///< registered name (or set inline_scenario)
    std::optional<sim::ModelGraph> inline_scenario;
    /** Dataflow overrides; "" = each layer's pinned family.
     *  Empty vector = {"", "ws", "cp", "wp"}. */
    std::vector<std::string> dataflows;
    /** (AW, AH) grid; empty = scenario default + {4x4, 8x8, 16x16}. */
    std::vector<std::pair<int, int>> arrays;
    /** First-layer iAct layouts; empty = {"concordant"}. */
    std::vector<std::string> layouts;
    /** Engine tier the sweep's jobs will run under (pre-planning warms the
     *  cache for this tier's keys). */
    sim::EngineMode engine = sim::EngineMode::Cycle;
};

/**
 * Expand @p sweep into runnable jobs. Every grid point is pre-planned
 * through @p cache (warming it for the run); points whose mapping does not
 * fit are skipped, with one line per skip appended to @p skipped. Returns
 * nullopt with @p error set when the scenario itself is unknown.
 */
std::optional<std::vector<JobSpec>>
expandSweep(const SweepSpec &sweep, PlanCache &cache,
            std::vector<std::string> *skipped = nullptr,
            std::string *error = nullptr);

/**
 * Parse the batch-file format described above. Returns false with @p error
 * set (including the line number) on the first malformed line.
 */
bool parseBatchFile(const std::string &text, std::vector<JobSpec> *jobs,
                    std::string *error);

} // namespace serve
} // namespace feather
