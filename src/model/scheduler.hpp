#pragma once

/**
 * @file
 * Per-layer (dataflow, layout) scheduling over a whole ModelGraph.
 *
 * The scheduler reproduces the paper's headline end-to-end experiment
 * (Fig. 12): because BIRRD makes on-chip dataflow switching cheap, the
 * per-layer *optimal* (dataflow, layout) pair can be chosen for every
 * layer of a network instead of one fixed dataflow for the whole model.
 *
 * Pipeline:
 *   1. Candidate enumeration — for every layer, every dataflow family is
 *      planned via sim::planLayer through the shared serve::PlanCache;
 *      families that induce the same (mapping, layouts) collapse into one
 *      candidate.
 *   2. Candidate evaluation — each unique candidate is simulated
 *      standalone (concordant layouts) in parallel on a serve::ThreadPool,
 *      without reference verification: its counters are all the search
 *      needs, and step 5 verifies what runs. Results land in pre-sized
 *      slots with per-candidate derived RNG streams, so the outcome is
 *      bit-identical at any thread count. The stats are memoized in the
 *      serve::PlanCache beside the candidate's plan, so schedulers sharing
 *      one cache (the serving daemon's) simulate each candidate once.
 *   3. Edge pricing — switching from layer i's candidate a to layer
 *      i+1's candidate b costs reorderCost(a.out_layout, b.in_layout):
 *      the BIRRD reorder cycles needed to convert the intermediate tensor
 *      between the two layouts, zero when they are concordant.
 *   4. Search — dynamic-programming shortest path over (layer, candidate)
 *      states (per-layer), a no-lookahead variant (greedy), or a single
 *      family forced everywhere (fixed:<dataflow>).
 *   5. Measurement — the chosen schedule is executed as one chain through
 *      the StaB ping-pong (layer i writes directly in layer i+1's input
 *      layout) and verified bit-exactly end-to-end; measured cycles are
 *      the ground truth the report ranks schedules by.
 *
 * Every schedule runs on a device fleet, so the DP state is (layer,
 * device, candidate): every layer's candidates are enumerated once per
 * device at that device's array shape (through the device-scoped
 * PlanCache partition), intra-device switches keep their reorderCost
 * pricing, and inter-device edges are priced by handoffCost (BIRRD
 * reorder + inter-chip link transfer). The chosen schedule splits into
 * contiguous same-device segments (pipeline parallelism); each segment is
 * measured as one cycle-accurate chain on its device and verified
 * bit-exactly against the reference operators — the hand-off itself is
 * priced, not replayed. Without SchedulerOptions::fleet the fleet is one
 * implicit device: the resolved aw x ah array in the shared "" cache
 * scope, so it plans, prices and measures exactly like a single array.
 * An explicit fleet adds two things: pinned:<device> restricts the whole
 * graph to one device (the single-device placements the DP must beat),
 * and compare() ranks the primary schedule against every pinned
 * placement. A 1-device fleet reproduces the implicit device's schedule
 * bit-exactly.
 */

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/fleet.hpp"
#include "model/graph.hpp"
#include "serve/plan_cache.hpp"

namespace feather {
namespace model {

/** The dataflow families the scheduler enumerates for every layer, in
 *  display-priority order (a candidate shared by several families is
 *  named after the first). */
constexpr sim::DataflowKind kFamilies[] = {
    sim::DataflowKind::Canonical,
    sim::DataflowKind::ChannelParallel,
    sim::DataflowKind::WindowParallel,
};

// ---------------------------------------------------------------------------
// Switching-cost model
// ---------------------------------------------------------------------------

/**
 * BIRRD reorder cycles to convert a tensor of @p extents stored under
 * @p src into @p dst: zero when the layouts are identical (concordant
 * hand-off), else one read cycle per distinct (destination line, source
 * line) pair (writes overlap with reads). An optimistic lower bound — the
 * measured chain run is the ground truth — but it prices edges
 * consistently: discordant hand-offs of big tensors cost more than small
 * ones, and concordant hand-offs are free.
 *
 * O(dims), no allocation. Along a dim of extent E, with a (b) its intra
 * size in src (dst), or infinity when it is not an inter dim there, the
 * tile pair (c / a, c / b) changes exactly at the multiples of a or b:
 * n = ceil(E/a) + ceil(E/b) - ceil(E/lcm(a, b)) values. A line index is
 * an injective mixed-radix function of its dims' tiles and the
 * coordinates are a Cartesian product, so the count is the product of n.
 */
int64_t reorderCost(const Layout &src, const Layout &dst,
                    const Extents &extents);

/**
 * Cycles to hand a tensor of @p extents (elements of @p elem_bytes each,
 * resident under layout @p src) over to a device whose consumer wants
 * layout @p dst: zero when @p same_device (the on-chip StaB ping-pong
 * hand-off is free — the paper's headline), else the BIRRD
 * reorderCost(src, dst, extents) plus the link transfer term
 * ceil(total_bytes / link.bytes_per_cycle).
 */
int64_t handoffCost(bool same_device, const Layout &src, const Layout &dst,
                    const Extents &extents, int64_t elem_bytes,
                    const InterChipLink &link);

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/** How to pick each layer's dataflow family and device. */
enum class ScheduleKind : uint8_t {
    PerLayer, ///< DP shortest path over candidates + switching costs
    Greedy,   ///< pick each layer's best given only the previous choice
    Fixed,    ///< force one family everywhere (the baseline)
    Pinned,   ///< fleet only: force every layer onto one named device
};

/** A schedule policy: the kind plus the family forced by Fixed or the
 *  device name forced by Pinned. */
struct SchedulePolicy
{
    ScheduleKind kind = ScheduleKind::PerLayer;
    sim::DataflowKind fixed = sim::DataflowKind::Canonical;
    std::string pinned; ///< Pinned: fleet device name
};

/** Parse "per-layer", "greedy", "fixed:<dataflow>" (ws|cp|wp or long
 *  names), or "pinned:<device>" (explicit fleets only). */
std::optional<SchedulePolicy> parseSchedule(const std::string &name,
                                            std::string *error = nullptr);

std::string toString(const SchedulePolicy &policy);

/** One evaluated candidate of one layer. */
struct Candidate
{
    /** Families that plan to this (mapping, layouts) point; the first is
     *  the display name. */
    std::vector<sim::DataflowKind> kinds;
    sim::LayerPlan plan;
    int64_t est_cycles = 0; ///< standalone run under concordant layouts
    int64_t macs = 0;
    /** Index of the device this candidate runs on (0 on the implicit
     *  device). Evaluations flatten per-device candidate lists into one
     *  tagged list per layer, so the DP/greedy/fixed policies search
     *  (device, candidate) pairs without special-casing. */
    int device = 0;
};

/** The evaluated candidate table of one graph (scheduler steps 1-3). */
struct Evaluation
{
    std::vector<std::vector<Candidate>> layers; ///< per layer, ≥1 each
    /** Pre-priced switching costs: edges[i][p][c] = reorderCost between
     *  layer i-1's candidate p and layer i's candidate c (edges[0] is
     *  empty). Computed once per graph so the DP, greedy and every
     *  compared policy index instead of re-walking the tensor. */
    std::vector<std::vector<std::vector<int64_t>>> edges;
    /** unfit[i][kind]: why family kind did not plan layer i on the first
     *  usable device that rejected it ("" when none did) — the reason a
     *  fixed schedule of that family reports. */
    std::vector<std::array<std::string, std::size(kFamilies)>> unfit;
};

/** The scheduler's choice for one layer, with measured chain stats. */
struct LayerChoice
{
    std::string layer;
    std::string op;
    sim::DataflowKind dataflow = sim::DataflowKind::Canonical;
    sim::LayerPlan plan;
    int64_t est_cycles = 0;     ///< candidate's standalone estimate
    int64_t reorder_cycles = 0; ///< edge price from the previous layer
    /** Device placement; 0/"" on the implicit device. */
    int device = 0;
    std::string device_name;
    // Measured from the final chain run.
    int64_t cycles = 0;
    int64_t macs = 0;
    int64_t read_stalls = 0;
    int64_t write_stalls = 0;
    int64_t pe_cycles = 0; ///< cycles x the PE count of its device
};

/** One scheduled + measured run of a graph. */
struct ScheduleResult
{
    std::string model;
    std::string schedule; ///< toString(policy)
    int aw = 0;
    int ah = 0;
    uint64_t seed = 0;
    std::vector<LayerChoice> layers;
    int64_t est_total = 0; ///< DP objective: sum of est + reorder cycles
    int64_t cycles = 0;    ///< measured chain total (ground truth)
    int64_t macs = 0;
    int64_t read_stalls = 0;
    int64_t write_stalls = 0;
    int64_t checked = 0; ///< final-output elements verified
    int64_t mismatches = 0;
    /** Engine tier candidate evaluation ran under. The measured chain is
     *  always cycle-accurate, so bitExact() holds either way. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Wall time of the measured chain run in microseconds. The one
     *  non-deterministic report field; determinism checks zero it. */
    int64_t sim_wall_us = 0;
    /** Peak per-layer arena scratch over the measured chain. */
    int64_t arena_peak_bytes = 0;
    std::string fleet;          ///< normalized fleet spec, "" when none
    int64_t search_nodes = 0;   ///< (layer, device, candidate) states
                                ///< relaxed/scanned by the pick
    int64_t handoffs = 0;       ///< cross-device edges in the schedule
    int64_t handoff_cycles = 0; ///< summed handoffCost of those edges

    bool bitExact() const { return checked > 0 && mismatches == 0; }
    /** MACs over the PE-cycles of the devices the layers ran on. */
    double
    utilization() const
    {
        int64_t pe_cycles = 0;
        for (const LayerChoice &l : layers) pe_cycles += l.pe_cycles;
        return pe_cycles > 0 ? double(macs) / double(pe_cycles) : 0.0;
    }
};

/** A set of schedules of one graph, ranked against the fixed baselines. */
struct ScheduleComparison
{
    std::vector<ScheduleResult> schedules; ///< primary first
    serve::PlanCache::Stats cache;

    const ScheduleResult &primary() const { return schedules.front(); }

    /** Index of the cheapest fixed:* schedule (measured cycles); -1 when
     *  no fixed schedule is present. */
    int bestFixed() const;

    /** best-fixed cycles / primary cycles (0 when unavailable). */
    double speedupVsBestFixed() const;
};

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/** Engine knobs. */
struct SchedulerOptions
{
    int aw = 0; ///< <= 0 picks the graph default
    int ah = 0;
    int num_threads = 1;  ///< candidate-evaluation pool size
    uint64_t seed = 2024; ///< base seed for inputs
    /** Engine tier for candidate enumeration/evaluation (steps 1-2).
     *  Analytic prunes the candidate table without per-element replay;
     *  the final measured chain (step 5) always runs cycle-accurate. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Plan through this cache instead of the scheduler's own — the
     *  serving daemon injects its warm, shared cache here so model
     *  requests reuse (and contribute) plans and memoized candidate stats
     *  across the whole run. The cache must outlive the Scheduler;
     *  nullptr keeps the private one. */
    serve::PlanCache *shared_cache = nullptr;
    /** The devices to schedule over, each at its own array shape (aw/ah
     *  above are then ignored); empty = the implicit aw x ah device. */
    FleetSpec fleet;
};

/** Per-layer dataflow/layout scheduler over ModelGraphs. */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions opts = {});

    /** Steps 1+2: enumerate and evaluate every layer's candidates in
     *  parallel. nullopt with @p error set when the graph is invalid or a
     *  layer has no feasible mapping. */
    std::optional<Evaluation> evaluate(const ModelGraph &graph,
                                       std::string *error = nullptr);

    /** Steps 3-5: pick the schedule under @p policy and run it as one
     *  measured, bit-exact chain. */
    std::optional<ScheduleResult> schedule(const ModelGraph &graph,
                                           const Evaluation &eval,
                                           const SchedulePolicy &policy,
                                           std::string *error = nullptr);

    /** evaluate() once, then schedule @p primary plus the standard
     *  baselines (greedy and every fixed family, deduplicated). */
    std::optional<ScheduleComparison>
    compare(const ModelGraph &graph, const SchedulePolicy &primary,
            std::string *error = nullptr);

    /** The cache in use: opts.shared_cache when set, else the private
     *  per-scheduler one. */
    serve::PlanCache &
    cache()
    {
        return opts_.shared_cache ? *opts_.shared_cache : cache_;
    }
    const SchedulerOptions &options() const { return opts_; }

  private:
    int resolvedAw(const ModelGraph &graph) const;
    int resolvedAh(const ModelGraph &graph) const;

    /** The fleet's devices, or without one the implicit device: the
     *  resolved aw x ah array in the shared "" cache scope. Empty with
     *  @p error set when that shape is unusable. */
    std::vector<FleetDevice> devices(const ModelGraph &graph,
                                     std::string *error = nullptr) const;

    /** Why no device can run @p layer (@p why: the last planning error). */
    std::string noFitError(const ModelGraph &graph, const LayerSpec &layer,
                           const std::string &why) const;

    /** Steps 3+4: one candidate index per layer under @p policy.
     *  @p search_nodes counts the states scanned/relaxed by the pick. */
    bool pickCandidates(const ModelGraph &graph, const Evaluation &eval,
                        const SchedulePolicy &policy,
                        std::vector<size_t> *picks, int64_t *search_nodes,
                        std::string *error);

    /** Result skeleton (choices, estimates, edge prices) for @p picks. */
    ScheduleResult assemble(const ModelGraph &graph, const Evaluation &eval,
                            const SchedulePolicy &policy,
                            const std::vector<size_t> &picks) const;

    /** Golden outputs shared by the measured chains of one compare(), by
     *  segment layer range [first, last]; null: the chain computes its
     *  own. */
    using SegmentReferences =
        std::map<std::pair<size_t, size_t>, std::shared_ptr<const Int8Tensor>>;

    /** Step 5: run @p result's schedule as one verified chain per
     *  same-device segment and fill the measured fields. Each chain
     *  verifies against its segment's entry of @p refs when there is one,
     *  else against reference ops of its own. */
    bool measure(const ModelGraph &graph, ScheduleResult *result,
                 std::string *error,
                 const SegmentReferences *refs = nullptr);

    SchedulerOptions opts_;
    serve::PlanCache cache_;
};

} // namespace model
} // namespace feather
