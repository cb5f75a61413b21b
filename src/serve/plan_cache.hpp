#pragma once

/**
 * @file
 * Thread-safe memoization of per-(layer, dataflow, AW, AH) planning
 * artifacts (sim::LayerPlan: the NEST mapping plus the concordant in/out
 * layouts it induces).
 *
 * A batch sweep re-plans the same points over and over — every job of a
 * (dataflow x layout x array) grid over one scenario shares its layer
 * plans with the grid points that differ only in layout or seed. The cache
 * keys on the layer *shape*, not its name, so two scenarios containing the
 * same conv share an entry too. Failed plans (mapping does not fit) are
 * cached alongside successes so a sweep probing infeasible corners stays
 * cheap.
 *
 * Beside each plan the cache also memoizes the LayerStats of one
 * standalone run under it (the scheduler's candidate evaluation). The
 * planning key fixes that run: a candidate runs under its plan's
 * concordant layouts, and the simulator's counters depend on neither the
 * input data (seed) nor the quantization multiplier. So every Scheduler
 * sharing a cache — the serving daemon's model requests — simulates each
 * candidate once.
 */

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/scenario.hpp"

namespace feather {
namespace serve {

/** Shared, thread-safe plan memo with hit/miss accounting. */
class PlanCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        size_t entries = 0;
        /** findStats() calls answered from the stats memo. Kept out of
         *  toJson()/toString(): racing misses make it vary with the
         *  thread count, and those feed the byte-stable reports. */
        uint64_t memo_hits = 0;

        /** The `plan_cache` block every report's JSON summary carries. */
        std::string toJson() const;

        /** "plan cache: N hit(s), M miss(es), K entr(y/ies)". */
        std::string toString() const;
    };

    /**
     * The memoized equivalent of sim::planLayer. On a miss the plan is
     * computed *while holding the cache lock*: planning is microseconds
     * against the milliseconds a job's cycle sim takes, and serializing it
     * makes the hit/miss counters deterministic (one miss per unique key,
     * regardless of how many worker threads race on it) — which keeps the
     * exported BatchReport bit-identical across --jobs settings.
     *
     * @p mode is part of the key although both tiers plan alike: the
     * stats memoized beside a plan (findStats/storeStats) are the run of
     * one tier, so an analytic run's stats never answer a cycle-mode
     * lookup (and vice versa).
     *
     * @p scope optionally partitions the key space (e.g. one scope per
     * simulated device of a fleet, so two devices never share warmth even
     * when their shapes coincide). "" is the shared global scope and
     * leaves keys exactly as before.
     */
    std::optional<sim::LayerPlan> getOrPlan(sim::EngineMode mode,
                                            sim::DataflowKind kind,
                                            const LayerSpec &layer, int aw,
                                            int ah,
                                            std::string *error = nullptr,
                                            const std::string &scope = {});

    /** This cache as a sim::PlanFn, for injection into sim::runScenario;
     *  every lookup the returned fn makes carries @p scope. */
    sim::PlanFn planFn(const std::string &scope = {});

    /**
     * The memoized stats of the standalone run under the plan at @p key (a
     * key() string); nullopt until storeStats() attached some. Counts
     * Stats::memo_hits only — plan hits/misses/entries never move.
     */
    std::optional<LayerStats> findStats(const std::string &key);

    /**
     * Attach @p stats, computed by the caller outside the lock, to the
     * plan at @p key. When two threads race on one key the second store
     * checks that its stats equal the stored ones: a run is a pure
     * function of its plan. A no-op when @p key has no plan, so entries
     * never grow here.
     */
    void storeStats(const std::string &key, const LayerStats &stats);

    Stats stats() const;

    /** Cache key of one planning point (layer shape, not name). */
    static std::string key(sim::EngineMode mode, sim::DataflowKind kind,
                           const LayerSpec &layer, int aw, int ah,
                           const std::string &scope = {});

    /** Re-scope an existing base key (the shared "" scope) into @p scope;
     *  key(..., scope) == scopedKey(key(...), scope). */
    static std::string scopedKey(const std::string &base,
                                 const std::string &scope);

  private:
    struct Entry
    {
        std::optional<sim::LayerPlan> plan; ///< nullopt = cached failure
        std::string error;                  ///< why planning failed
        std::optional<LayerStats> stats;    ///< memoized run of plan
    };

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t memo_hits_ = 0;
};

} // namespace serve
} // namespace feather
