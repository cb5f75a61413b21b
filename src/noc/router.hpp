#pragma once

/**
 * @file
 * BIRRD routing: compute Egg configurations that realise a requested
 * reduction + reordering pattern (§III-B3).
 *
 * A request assigns each input port to a *reduction group* and each group to
 * one (or, with the broadcast extension, several) output port(s). Reduction
 * is treated as reverse multicasting: members of a group merge pairwise when
 * their paths coincide (Add-Left / Add-Right Eggs) and the final sum must
 * arrive exactly at the group's destination port(s).
 *
 * Algorithm. BIRRD is two back-to-back butterflies. In a butterfly the path
 * between a port and a final output is *unique* (the reachable sets of a
 * switch's two children are disjoint), so the only routing freedom lives in
 * the first half: each signal chooses a *crossover port* at the boundary
 * stage X = numStages - log2(AW), after which its path is forced. Routing
 * therefore searches over crossover assignments with per-port occupancy
 * pruning (two different groups may never share a port; members of the same
 * group sharing a port merge, which is exactly an Add Egg). This mirrors the
 * path-selection algorithm of Arora/Leighton/Maggs that the paper adopts;
 * a brute-force DFS over raw switch configurations remains as the fallback
 * the paper also describes. Solved patterns are cached — FEATHER generates
 * BIRRD configurations offline into the Instruction Buffer.
 *
 * The simulator's Instruction Buffer is CompiledWaves: one table per
 * process that routes each wave pattern once and keeps only what replaying
 * the wave needs, so a wave costs a key lookup instead of a route and a
 * network evaluation. Each thread reads it through a lock-free front cache.
 */

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "noc/birrd.hpp"

namespace feather {

/** One routing problem instance. */
struct RouteRequest
{
    /** group_of_input[i] = group id of input port i, or -1 if unused. */
    std::vector<int> group_of_input;
    /** dests_of_group[g] = output ports that must receive group g's sum. */
    std::vector<std::vector<int>> dests_of_group;
    /** Allow the broadcast Egg extension (AddBoth/DupLeft/DupRight). */
    bool allow_broadcast = false;

    /** Canonical cache key. */
    std::string key() const;

    /**
     * Build a single-destination reduction request.
     * @param group_of_input per-input group ids (-1 = unused)
     * @param dest_of_group  one output port per group
     */
    static RouteRequest reduction(std::vector<int> group_of_input,
                                  const std::vector<int> &dest_of_group);

    /**
     * Build a pure permutation request (group size 1 per live input).
     * @param dest_of_input dest_of_input[i] = output port, or -1 if unused
     */
    static RouteRequest permutation(const std::vector<int> &dest_of_input);
};

/** Router statistics (reported by the routing ablation bench). */
struct RouterStats
{
    int64_t requests = 0;
    int64_t cache_hits = 0;
    int64_t solved_path_search = 0; ///< solved by crossover-path search
    int64_t solved_fallback = 0;    ///< needed the brute-force DFS fallback
    int64_t failures = 0;
    int64_t nodes_explored = 0;
};

/** Routing engine with config cache for one BIRRD instance. */
class BirrdRouter
{
  public:
    explicit BirrdRouter(const BirrdTopology &topo, uint64_t seed = 1);

    /**
     * Solve @p req. Returns the configuration held in this router's cache
     * (valid for the router's lifetime), or nullptr when none was found
     * within the node budget (callers treat this as "pick another
     * dataflow"; the test suite verifies it never happens for the patterns
     * FEATHER generates).
     */
    const BirrdConfigWord *route(const RouteRequest &req);

    /** Total nodes explored, cache hits, etc. */
    const RouterStats &stats() const { return stats_; }

    /** Disable the path search (ablation: fallback DFS only). */
    void setUsePathSearch(bool use) { use_path_search_ = use; }

    /**
     * Check that @p config realises @p req on @p topo: pushes distinct
     * sentinel values through the network and compares each destination
     * against its group's exact sum.
     */
    static bool verify(const BirrdTopology &topo, const BirrdConfigWord &config,
                       const RouteRequest &req);

  private:
    // ---- path-based search over crossover assignments ----

    /** One routable entity: a group member (or a whole multicast group). */
    struct PathTask
    {
        int group = -1;
        int input_port = -1;     ///< -1 for the multicast merged stage
        uint64_t dest_mask = 0;  ///< outputs this task must cover
    };

    struct PathState
    {
        /** occ[t][p] = group occupying port p at stage boundary t, or -1. */
        std::vector<std::vector<int>> occ;
        /** drive[t][p] = bitmask(2) of local switch outputs driven. */
        std::vector<std::vector<uint8_t>> drive;

        /** Undo log for cheap backtracking. */
        struct Change
        {
            int16_t t;
            int16_t port;
            int32_t old_occ;
            uint8_t old_drive;
        };
        std::vector<Change> log;

        size_t mark() const { return log.size(); }
        void set(int t, int port, int group, uint8_t drive_bits);
        void rollback(size_t mark);
    };

    std::optional<BirrdConfigWord> routeByPaths(const RouteRequest &req,
                                                bool randomized);
    bool placeFirstHalf(PathState &st, int group, int input_port,
                        int crossover) const;
    bool placeSecondHalf(PathState &st, int group, int crossover,
                         uint64_t dest_mask) const;
    BirrdConfigWord extractConfig(const PathState &st,
                                  const RouteRequest &req) const;

    // ---- brute-force DFS fallback over switch configurations ----

    struct Sig
    {
        int group = -1;
        int count = 0;
        bool live() const { return group >= 0; }
    };

    struct SearchCtx
    {
        const RouteRequest *req = nullptr;
        std::vector<int> group_sizes;
        std::vector<uint64_t> dest_masks;
        int64_t nodes = 0;
        bool randomized = false;
        Rng *rng = nullptr;
        BirrdConfigWord config;
    };

    std::optional<BirrdConfigWord> routeByDfs(const RouteRequest &req,
                                              bool randomized);
    bool dfs(SearchCtx &ctx, int stage, int sw, std::vector<Sig> &ports);
    bool boundaryOk(const SearchCtx &ctx, int next_stage,
                    const std::vector<Sig> &ports) const;
    bool finalOk(const SearchCtx &ctx, const std::vector<Sig> &ports) const;

    const BirrdTopology &topo_;
    int crossover_stage_;
    /** reach_fh_[t][p]: crossover ports reachable from stage-t port p. */
    std::vector<std::vector<uint64_t>> reach_fh_;
    Rng rng_;
    /** Per-attempt search node budget; rapid randomized restarts beat one
     *  deep dive. */
    static constexpr int64_t kNodeBudget = 50000;
    /** Randomized restarts after the deterministic pass (path search
     *  scales this up on wide networks). */
    static constexpr int kMaxRestarts = 64;
    bool use_path_search_ = true;
    RouterStats stats_;
    std::unordered_map<std::string, BirrdConfigWord> cache_;
};

/**
 * Compiled BIRRD waves, keyed by AW bytes: byte i is the destination port
 * + 1 of input i's reduction group, or 0 when input i is idle. Every group
 * of a wave has its own destination, so the key fully determines the
 * wave's single-destination reduction request. Replaying a wave needs only
 * its switch hops: each group's sum arrives at its port, which route()
 * verified when the entry was compiled.
 *
 * Each entry is routed by a fresh BirrdRouter, so it depends on its
 * request alone; the table is therefore safe to share across runs and
 * threads. There is one table per process, behind one mutex, and each
 * thread reads it through its own front cache (local()), which needs no
 * lock: a wave is routed once per process and costs a thread one locked
 * lookup the first time that thread meets it.
 */
class CompiledWaves
{
  public:
    /** The calling thread's front cache over the process table. */
    static CompiledWaves &local();

    /**
     * Switch hops of the wave @p key, or nullptr when no thread of the
     * process has compiled it yet.
     */
    const int64_t *
    find(const std::string &key)
    {
        const auto it = hops_.find(key);
        return it == hops_.end() ? findShared(key) : &it->second;
    }

    /**
     * Route @p req (the request @p key encodes), store its switch hops
     * — BirrdNetwork::activeSwitches over the request's live inputs —
     * under @p key and return them. Panics when routing fails. Routing
     * runs outside the lock; when two threads compile the same key, the
     * first store wins (both computed the same value).
     */
    int64_t compile(const std::string &key, const RouteRequest &req);

    /** Number of waves compiled in this process (the process table). */
    static size_t size();

  private:
    /** Look @p key up in the process table, copying a hit to hops_. */
    const int64_t *findShared(const std::string &key);

    /**
     * This thread's copies of process-table entries. The keys view the
     * process table's keys, which live as long as the process: entries
     * are never erased.
     */
    std::unordered_map<std::string_view, int64_t> hops_;
};

} // namespace feather
